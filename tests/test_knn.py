import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rusent.classifiers import DISTANCES, train_knn
from rusent.classifiers.knn import _distances
from rusent.errors import ModelError
from rusent.rng import SplitMix64

from conftest import make_matrix, predicted


def _power(base, exponent):
    """base ** exponent, inf where that overflows (as IEEE arithmetic gives)."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def brute_force_predict(rows, labels, class_values, x, k, metric, p):
    """Pure-python reference: exhaustive distances, stable sort, majority."""
    scored = []
    for i, row in enumerate(rows):
        if metric == "euclidean":
            d = sum(_power(a - b, 2) for a, b in zip(row, x)) ** 0.5
        elif metric == "manhattan":
            d = sum(abs(a - b) for a, b in zip(row, x))
        else:
            d = sum(_power(abs(a - b), p) for a, b in zip(row, x)) ** (1.0 / p)
        scored.append((d, i))
    scored.sort()  # ties fall back to the index, i.e. lowest training index
    votes = [0] * len(class_values)
    for _, i in scored[:k]:
        votes[class_values.index(labels[i])] += 1
    return class_values[votes.index(max(votes))]


class TestExamples:
    def test_k1_returns_nearest_label(self):
        m = make_matrix([[0.0, 0.0], [10.0, 10.0]], ["neg", "pos"], ("neg", "pos"))
        model = train_knn(m, k=1)
        assert predicted(model, [[1.0, 1.0], [9.0, 9.0]]) == ["neg", "pos"]

    def test_k3_majority(self):
        m = make_matrix([[0.0], [1.0], [2.0], [10.0]],
                        ["neg", "neg", "pos", "pos"], ("neg", "pos"))
        model = train_knn(m, k=3)
        assert predicted(model, [[0.5]]) == ["neg"]

    def test_distance_tie_prefers_lowest_training_index(self):
        m = make_matrix([[1.0], [-1.0]], ["pos", "neg"], ("neg", "pos"))
        model = train_knn(m, k=1)
        assert predicted(model, [[0.0]]) == ["pos"]

    def test_vote_tie_prefers_lowest_class_index(self):
        m = make_matrix([[0.0], [2.0]], ["pos", "neg"], ("neg", "pos"))
        model = train_knn(m, k=2)
        assert predicted(model, [[1.0]]) == ["neg"]

    def test_manhattan_differs_from_euclidean(self):
        # (3,3) is euclidean-closer to origin-ish query than (4.5,0),
        # but manhattan-farther
        m = make_matrix([[3.0, 3.0], [4.5, 0.0]], ["pos", "neg"], ("neg", "pos"))
        assert predicted(train_knn(m, k=1, distance="euclidean"), [[0.0, 0.0]]) == ["pos"]
        assert predicted(train_knn(m, k=1, distance="manhattan"), [[0.0, 0.0]]) == ["neg"]

    def test_minkowski_p2_matches_euclidean(self):
        rng = SplitMix64(7)
        rows = [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(20)]
        labels = ["pos" if i % 2 else "neg" for i in range(20)]
        m = make_matrix(rows, labels, ("neg", "pos"))
        a = train_knn(m, k=3, distance="euclidean")
        b = train_knn(m, k=3, distance="minkowski", p=2.0)
        for _ in range(30):
            q = [[rng.uniform(-1, 1) for _ in range(4)]]
            assert predicted(a, q) == predicted(b, q)

    def test_scores_are_vote_fractions(self):
        m = make_matrix([[0.0], [1.0], [2.0]], ["neg", "neg", "pos"], ("neg", "pos"))
        model = train_knn(m, k=3)
        assert model.scores([[0.0]])[0] == pytest.approx([2 / 3, 1 / 3])


class TestValidation:
    def test_k_exceeding_n_rejected(self):
        m = make_matrix([[0.0], [1.0]], ["neg", "pos"], ("neg", "pos"))
        with pytest.raises(ModelError):
            train_knn(m, k=3)

    def test_zero_k_rejected(self):
        m = make_matrix([[0.0]], ["neg"], ("neg", "pos"))
        with pytest.raises(ModelError):
            train_knn(m, k=0)

    def test_unknown_distance_rejected(self):
        m = make_matrix([[0.0]], ["neg"], ("neg", "pos"))
        with pytest.raises(ModelError):
            train_knn(m, distance="cosine")

    def test_a_small_minkowski_p_ranks_without_overflow(self):
        # every sum of three powers |diff|^0.001 is about 3, whose root
        # (its 1000th power) overflows to inf for every training row
        rows = [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0],
                [0.0, 0.0, 10.0], [10.0, 10.0, 0.0], [0.0, 10.0, 10.0]]
        labels = ["neg", "pos", "neg", "pos", "pos", "neg"]
        model = train_knn(make_matrix(rows, labels, ("neg", "pos")), distance="minkowski", p=0.001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert predicted(model, np.array(rows) + 0.1) == labels

    def test_training_keeps_the_matrix_rows_without_a_copy(self):
        X = np.array([[0.0, 1.0], [2.0, 0.0]])
        m = make_matrix(X, ["neg", "pos"], ("neg", "pos"))
        assert np.shares_memory(train_knn(m).rows, m.rows)
        with pytest.raises(ValueError):
            m.rows[0, 0] = 5.0
        X[0, 0] = 5.0  # the caller's array stays writable
        assert np.shares_memory(X, m.rows)

    def test_nonpositive_minkowski_p_rejected(self):
        m = make_matrix([[0.0]], ["neg"], ("neg", "pos"))
        with pytest.raises(ModelError):
            train_knn(m, distance="minkowski", p=0.0)

    @pytest.mark.parametrize("distance", ["euclidean", "manhattan", "minkowski"])
    @pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_p_rejected_for_every_distance(self, distance, p):
        # p is written to the model file whatever the distance
        m = make_matrix([[0.0]], ["neg"], ("neg", "pos"))
        with pytest.raises(ModelError, match="exponent p"):
            train_knn(m, distance=distance, p=p)


class TestAgainstBruteForce:
    def test_random_instances_match_oracle(self):
        rng = SplitMix64(42)
        class_values = ("neg", "pos")
        rows = [[rng.uniform(-5, 5) for _ in range(6)] for _ in range(60)]
        labels = [class_values[rng.next_below(2)] for _ in range(60)]
        m = make_matrix(rows, labels, class_values)
        for metric, p in (("euclidean", 3.0), ("manhattan", 3.0), ("minkowski", 3.0)):
            for k in (1, 3, 5):
                model = train_knn(m, k=k, distance=metric, p=p)
                for _ in range(25):
                    q = [rng.uniform(-5, 5) for _ in range(6)]
                    expected = brute_force_predict(
                        rows, labels, class_values, q, k, metric, p
                    )
                    assert predicted(model, [q]) == [expected]


CLASSES3 = ("neg", "neu", "pos")
# dyadic weights: with them every distance the oracle and the model
# compute is exact (or overflows), so exact ties are the same ties in both
DYADIC_IDF = (0.5, 0.75, 1.0, 1.25)


@st.composite
def knn_problems(draw):
    """(rows, labels, queries): small count rows, optionally tf-idf-like
    fractional weights, duplicated rows, an all-zero query, and a scale of
    1 or 2**510 (about 3e153, where sums of squares overflow)."""
    width = draw(st.integers(1, 6))
    counts = st.lists(st.integers(0, 3), min_size=width, max_size=width)
    rows = draw(st.lists(counts, min_size=5, max_size=14))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))]
    if draw(st.booleans()):
        idf = draw(st.lists(st.sampled_from(DYADIC_IDF), min_size=width, max_size=width))
    else:
        idf = [1.0] * width
    scale = draw(st.sampled_from([1.0, 2.0**510]))
    labels = draw(st.lists(st.sampled_from(CLASSES3), min_size=len(rows), max_size=len(rows)))
    queries = draw(st.lists(counts, min_size=1, max_size=6)) + [[0] * width]

    def weigh(r):
        return [c * w * scale for c, w in zip(r, idf)]

    return [weigh(r) for r in rows], labels, [weigh(q) for q in queries]


def exhaustive_neighbours(model, queries):
    """Each query's k nearest training indices by the full euclidean scan."""
    return [
        np.argsort(_distances(model.rows, x, "euclidean", 3.0), kind="stable")[: model.k].tolist()
        for x in queries
    ]


def screened_neighbours(model, queries):
    return [nearest.tolist() for nearest in model._neighbours(queries)]


class TestBatchPrediction:
    @given(knn_problems(), st.sampled_from(DISTANCES), st.sampled_from([1, 3, 5]))
    @settings(max_examples=300, deadline=None)
    def test_predict_indices_matches_brute_force(self, problem, metric, k):
        rows, labels, queries = problem
        model = train_knn(make_matrix(rows, labels, CLASSES3), k=k, distance=metric, p=3.0)
        got = [CLASSES3[i] for i in model.predict_indices(np.array(queries))]
        assert got == [
            brute_force_predict(rows, labels, CLASSES3, q, k, metric, 3.0) for q in queries
        ]

    @pytest.mark.parametrize("scale", [1.0, 1e-160, 1e154])
    @pytest.mark.parametrize("seed", range(6))
    def test_screened_neighbours_equal_the_exhaustive_scan(self, seed, scale):
        # tf-idf rows over real log weights, so the screen's approximate
        # distances are inexact; duplicates and zero rows force exact ties;
        # 1e-160 makes products underflow and 1e154 makes squares overflow
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, 60))
        n = int(rng.integers(10, 120))
        idf = np.log(n / rng.integers(1, n, size=width))
        counts = rng.integers(0, 3, size=(n, width)) * (rng.random((n, width)) < 0.2)
        rows = counts * idf * scale
        rows[rng.integers(0, n, size=n // 4)] = rows[rng.integers(0, n, size=n // 4)]
        queries = np.vstack([
            rows[rng.integers(0, n, size=40)],
            rng.integers(0, 3, size=(100, width)) * (rng.random((100, width)) < 0.2) * idf * scale,
            np.zeros((1, width)),
        ])
        labels = [CLASSES3[i] for i in rng.integers(0, 3, size=n)]
        for k in (1, 3, 5):
            model = train_knn(make_matrix(rows, labels, CLASSES3), k=k)
            assert screened_neighbours(model, queries) == exhaustive_neighbours(model, queries)

    @pytest.mark.parametrize("width", [4, 6, 9])
    def test_screen_keeps_ties_that_rounding_splits(self, width):
        # every permutation of the same values is at the same exact distance
        # from a constant query, but each sums its squares in another order,
        # so the computed distances differ in the last bits; only a screen
        # whose error bound holds keeps the order the exhaustive scan finds
        rng = np.random.default_rng(width)
        values = list(rng.random(4) * 10.0) + [0.0] * (width - 4)
        rows = np.array(sorted(set(itertools.permutations(values)))[:400])
        queries = np.array([np.full(width, c) for c in rng.random(70) * 10.0])
        labels = [CLASSES3[i % 3] for i in range(len(rows))]
        for k in (1, 3, 5):
            model = train_knn(make_matrix(rows, labels, CLASSES3), k=k)
            assert screened_neighbours(model, queries) == exhaustive_neighbours(model, queries)

    @pytest.mark.parametrize("metric", DISTANCES)
    def test_distances_of_a_subset_are_bitwise_those_of_the_full_scan(self, metric):
        # the screen re-runs _distances on candidate rows only, which is
        # exact only if a row's distance does not depend on its neighbours
        rng = np.random.default_rng(3)
        for width in (1, 3, 7, 8, 9, 31, 130, 1890):
            rows = rng.random((70, width)) * rng.choice([1e-3, 1.0, 1e3], size=(70, width))
            x = rng.random(width)
            full = _distances(rows, x, metric, 3.0)
            for subset in ([5], [0, 69], list(range(0, 70, 3))):
                assert _distances(rows[subset], x, metric, 3.0).tolist() == full[subset].tolist()

    def test_predict_indices_rejects_a_bad_shape(self):
        model = train_knn(make_matrix([[0.0, 1.0], [1.0, 0.0]], ["neg", "pos"]), k=1)
        for bad in (np.zeros(2), np.zeros((3, 3)), np.zeros((1, 2, 2))):
            with pytest.raises(ModelError):
                model.predict_indices(bad)
        assert model.predict_indices(np.zeros((0, 2))).tolist() == []


def test_model_file_with_k_below_one_is_rejected():
    from rusent.classifiers.base import loads_model

    m = make_matrix([[0.0], [1.0]], ["neg", "pos"], ("neg", "pos"))
    text = train_knn(m, k=1).dumps()
    with pytest.raises(ModelError):
        loads_model(text.replace("\nk 1\n", "\nk 0\n"))


def test_loading_holds_about_one_copy_of_the_rows():
    # the rows are read into one preallocated matrix, and the text is split
    # without first copying it whole: the loader's peak stays below twice
    # the rows' bytes (stacking a list of row arrays and copying the text
    # take it past 2.5 times)
    import tracemalloc

    from rusent.classifiers.base import loads_model

    rng = np.random.default_rng(5)
    rows = np.where(rng.random((300, 400)) < 0.01, rng.integers(1, 9, (300, 400)), 0.0)
    labels = ["pos" if i % 3 else "neg" for i in range(300)]
    text = train_knn(make_matrix(rows, labels), k=3).dumps()
    tracemalloc.start()
    try:
        model = loads_model(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.rows.tobytes() == rows.tobytes()
    assert peak < 2 * rows.nbytes, (peak, rows.nbytes)
