import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rusent.classifiers import train_mnb
from rusent.errors import ModelError

from conftest import make_matrix, predicted

# hand computation for the 4-document corpus, alpha=1, |V|=3:
#   pos counts (achi, gari, kharab) = (2, 1, 0), total 3
#   neg counts                      = (0, 1, 2), total 3
#   P(w|c) = (count + 1) / (3 + 3)
POS_PROBS = (3 / 6, 2 / 6, 1 / 6)
NEG_PROBS = (1 / 6, 2 / 6, 3 / 6)


class TestHandOracle:
    def test_smoothed_probabilities_match_hand_computation(self, hand_corpus):
        model = train_mnb(hand_corpus, alpha=1.0)
        likes = np.exp(model.log_likelihood)
        neg_idx, pos_idx = 0, 1  # class order (neg, pos)
        for i in range(3):
            assert likes[pos_idx, i] == pytest.approx(POS_PROBS[i], abs=1e-12)
            assert likes[neg_idx, i] == pytest.approx(NEG_PROBS[i], abs=1e-12)
        assert np.exp(model.log_prior).tolist() == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_posteriors_match_hand_computation(self, hand_corpus):
        model = train_mnb(hand_corpus, alpha=1.0)
        x = [[1.0, 1.0, 0.0]]  # test doc "achi gari"
        log_post = model.log_posteriors(x)[0]
        expected_pos = math.log(0.5) + math.log(POS_PROBS[0]) + math.log(POS_PROBS[1])
        expected_neg = math.log(0.5) + math.log(NEG_PROBS[0]) + math.log(NEG_PROBS[1])
        assert log_post[1] == pytest.approx(expected_pos, abs=1e-12)
        assert log_post[0] == pytest.approx(expected_neg, abs=1e-12)
        assert predicted(model, x) == ["pos"]


class TestEdgeCases:
    def test_single_class_training_is_error(self):
        m = make_matrix([[1, 0], [0, 1]], ["pos", "pos"], ("neg", "pos"))
        with pytest.raises(ModelError):
            train_mnb(m)

    def test_all_zero_vector_predicts_prior_argmax(self):
        m = make_matrix(
            [[1, 0], [0, 1], [1, 1]], ["pos", "pos", "neg"], ("neg", "pos")
        )
        model = train_mnb(m)
        assert predicted(model, [[0.0, 0.0]]) == ["pos"]

    def test_negative_features_rejected(self):
        m = make_matrix([[1, -1], [0, 1]], ["pos", "neg"], ("neg", "pos"))
        with pytest.raises(ModelError):
            train_mnb(m)

    def test_nonpositive_alpha_rejected(self, hand_corpus):
        with pytest.raises(ModelError):
            train_mnb(hand_corpus, alpha=0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, hand_corpus, alpha):
        with pytest.raises(ModelError, match="alpha"):
            train_mnb(hand_corpus, alpha=alpha)

    def test_scores_are_probabilities(self, hand_corpus):
        model = train_mnb(hand_corpus)
        scores = model.scores([[2.0, 0.0, 1.0]])[0]
        assert sum(scores) == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= s <= 1.0 for s in scores)


class TestLogSpaceEquivalence:
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 3), min_size=3, max_size=3),
                st.sampled_from(["pos", "neg"]),
            ),
            min_size=2,
            max_size=8,
        ).filter(lambda docs: {l for _, l in docs} == {"pos", "neg"}),
        st.lists(st.integers(0, 3), min_size=3, max_size=3),
    )
    # both classes score exactly 4/21 here; rounding in log space picks pos
    @example([([0, 3, 1], "neg"), ([0, 3, 2], "pos"), ([3, 0, 3], "pos")], [0, 1, 0])
    @settings(max_examples=80, deadline=None)
    def test_argmax_matches_direct_probability_product(self, docs, query):
        rows = [r for r, _ in docs]
        labels = [l for _, l in docs]
        m = make_matrix(rows, labels, ("neg", "pos"))
        model = train_mnb(m, alpha=1.0)

        # independent oracle: multiply raw probabilities in exact rational
        # arithmetic, no logs and no rounding
        n = len(labels)
        exact = {}
        for cls in ("neg", "pos"):
            members = [r for r, l in zip(rows, labels) if l == cls]
            counts = [sum(r[i] for r in members) for i in range(3)]
            p = Fraction(len(members), n)
            for x_i, c_i in zip(query, counts):
                p *= Fraction(c_i + 1, sum(counts) + 3) ** x_i
            exact[cls] = p
        best = max(exact.values())
        # an exact tie may go either way once rounded; otherwise the
        # model must pick the class with the larger exact posterior
        assert exact[predicted(model, [query])[0]] == best
