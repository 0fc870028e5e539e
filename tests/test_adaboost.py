import math

import numpy as np
import pytest

from rusent.classifiers import train_adaboost
from rusent.classifiers.adaboost import ALPHA_CAP
from rusent.classifiers.base import TreeConfig
from rusent.classifiers.tree import tree_predict_batch
from rusent.errors import ModelError

from conftest import make_matrix, predicted

# 1-D set no single stump can classify perfectly: +, +, -, -, -, +, +, +
NONSEP_ROWS = [[float(i)] for i in range(8)]
NONSEP_LABELS = ["pos", "pos", "neg", "neg", "neg", "pos", "pos", "pos"]


def nonsep_matrix():
    return make_matrix(NONSEP_ROWS, NONSEP_LABELS, ("neg", "pos"))


def best_stump_accuracy(rows, labels):
    """Exhaustively evaluate every (threshold, polarity) stump on one feature."""
    xs = sorted({r[0] for r in rows})
    thresholds = [xs[0] - 1.0] + [(a + b) / 2 for a, b in zip(xs, xs[1:])] + [xs[-1] + 1.0]
    best = 0.0
    for thr in thresholds:
        for left_label in ("pos", "neg"):
            right_label = "neg" if left_label == "pos" else "pos"
            correct = sum(
                1
                for r, l in zip(rows, labels)
                if (left_label if r[0] <= thr else right_label) == l
            )
            best = max(best, correct / len(rows))
    return best


class TestBoostingLoop:
    def test_post_update_weighted_error_is_half(self):
        """Replay the weight recurrence from the persisted stages and check
        each round's learner has weighted error exactly 0.5 afterwards."""
        m = nonsep_matrix()
        model = train_adaboost(m, rounds=5)
        y = m.y
        n = len(y)
        weights = np.full(n, 1.0 / n)
        assert len(model.stages) >= 2
        for alpha, root in model.stages:
            miss = tree_predict_batch(root, m.rows) != y
            eps = weights[miss].sum()
            assert 0.0 < eps < 0.5
            assert alpha == pytest.approx(0.5 * math.log((1 - eps) / eps), abs=1e-12)
            weights = weights * np.where(miss, math.exp(alpha), math.exp(-alpha))
            weights /= weights.sum()
            assert weights[miss].sum() == pytest.approx(0.5, abs=1e-9)

    def test_beats_best_single_stump(self):
        m = nonsep_matrix()
        stump_best = best_stump_accuracy(NONSEP_ROWS, NONSEP_LABELS)
        assert stump_best < 1.0  # the set really is stump-inseparable
        model = train_adaboost(m, rounds=10)
        acc = np.mean(np.array(predicted(model, m.rows)) == m.labels)
        assert acc > stump_best

    def test_separable_data_caps_alpha_and_stops(self):
        m = make_matrix([[0.0], [1.0]], ["neg", "pos"], ("neg", "pos"))
        model = train_adaboost(m, rounds=10)
        assert len(model.stages) == 1
        assert model.stages[0][0] == ALPHA_CAP

    def test_useless_weak_learner_stops_without_stages(self):
        # identical feature values: no stump has error < 0.5
        m = make_matrix([[1.0], [1.0]], ["neg", "pos"], ("neg", "pos"))
        model = train_adaboost(m, rounds=5)
        assert model.stages == []
        assert predicted(model, [[1.0]]) == ["neg"]  # zero margin -> lower class index

    def test_margin_sign_maps_to_classes(self):
        m = make_matrix([[0.0], [1.0]], ["neg", "pos"], ("neg", "pos"))
        model = train_adaboost(m, rounds=1)
        assert model.scores([[0.0]])[0, 1] < 0 and predicted(model, [[0.0]]) == ["neg"]
        assert model.scores([[1.0]])[0, 1] > 0 and predicted(model, [[1.0]]) == ["pos"]
        lo, hi = model.scores([[1.0]])[0]
        assert lo == -hi

    def test_multiclass_rejected(self):
        m = make_matrix([[0.0], [1.0], [2.0]], ["a", "b", "c"], ("a", "b", "c"))
        with pytest.raises(ModelError):
            train_adaboost(m)

    def test_zero_rounds_rejected(self):
        with pytest.raises(ModelError):
            train_adaboost(nonsep_matrix(), rounds=0)

    def test_deeper_weak_learner_config_used(self):
        m = nonsep_matrix()
        model = train_adaboost(m, rounds=3, weak=TreeConfig(max_depth=3))
        acc = np.mean(np.array(predicted(model, m.rows)) == m.labels)
        assert acc == 1.0  # depth-3 tree separates this set outright
