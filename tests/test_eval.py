import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rusent.classifiers import train_knn, train_mnb
from rusent.errors import EvalError
from rusent.evaluation import (
    REPORT_SCHEMA,
    ConfusionMatrix,
    compare,
    evaluate,
    metrics_from_matrix,
    render_json,
    render_table,
)

from conftest import make_matrix


class TestMetricsFromMatrix:
    def test_published_scale_example(self):
        # 400 test reviews, 359 correct
        m = ConfusionMatrix(tp=192, fp=27, fn=14, tn=167, positive_class="pos")
        r = metrics_from_matrix(m, "mnb")
        assert r.total == 400
        assert r.correct == 359
        assert r.accuracy == pytest.approx(0.8975, abs=1e-12)
        assert r.precision == pytest.approx(192 / 219, abs=1e-12)
        assert r.recall == pytest.approx(192 / 206, abs=1e-12)

    def test_f_is_harmonic_mean(self):
        m = ConfusionMatrix(tp=30, fp=2, fn=10, tn=58, positive_class="pos")
        r = metrics_from_matrix(m, "x")
        expected = 2 * r.precision * r.recall / (r.precision + r.recall)
        assert r.f_measure == pytest.approx(expected, abs=1e-15)

    def test_perfect_classifier(self):
        r = metrics_from_matrix(ConfusionMatrix(10, 0, 0, 10, "pos"), "x")
        assert (r.accuracy, r.precision, r.recall, r.f_measure) == (1.0, 1.0, 1.0, 1.0)
        assert r.degenerate == ()

    def test_never_predicts_positive_degenerates_precision(self):
        r = metrics_from_matrix(ConfusionMatrix(0, 0, 5, 5, "pos"), "x")
        assert r.precision == 0.0
        assert set(r.degenerate) == {"precision", "f_measure"}

    def test_no_positive_instances_degenerates_recall(self):
        r = metrics_from_matrix(ConfusionMatrix(0, 3, 0, 7, "pos"), "x")
        assert r.recall == 0.0
        assert "recall" in r.degenerate

    def test_empty_test_set_rejected(self):
        with pytest.raises(EvalError):
            metrics_from_matrix(ConfusionMatrix(0, 0, 0, 0, "pos"), "x")

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    @settings(max_examples=150, deadline=None)
    def test_metric_invariants(self, tp, fp, fn, tn):
        if tp + fp + fn + tn == 0:
            return
        r = metrics_from_matrix(ConfusionMatrix(tp, fp, fn, tn, "pos"), "x")
        for v in (r.accuracy, r.precision, r.recall, r.f_measure):
            assert 0.0 <= v <= 1.0
        assert r.correct + r.incorrect == r.total
        eps = 1e-12  # harmonic mean up to float rounding
        assert min(r.precision, r.recall) - eps <= r.f_measure
        assert r.f_measure <= max(r.precision, r.recall) + eps


class TestEvaluate:
    def fixture(self):
        train = make_matrix(
            [[0.0], [1.0], [10.0], [11.0]],
            ["neg", "neg", "pos", "pos"], ("neg", "pos"),
        )
        test = make_matrix(
            [[0.5], [10.5], [12.0], [-1.0]],
            ["neg", "pos", "pos", "pos"], ("neg", "pos"),
        )
        return train_knn(train, k=1), test

    def test_counts(self):
        model, test = self.fixture()
        r = evaluate(model, test)
        # predictions: neg, pos, pos, neg -> tp=2 fn=1 tn=1 fp=0
        assert (r.matrix.tp, r.matrix.fp, r.matrix.fn, r.matrix.tn) == (2, 0, 1, 1)
        assert r.accuracy == 0.75

    def test_default_positive_class_is_pos_when_declared(self):
        model, test = self.fixture()
        assert evaluate(model, test).matrix.positive_class == "pos"

    def test_explicit_positive_class(self):
        model, test = self.fixture()
        r = evaluate(model, test, positive_class="neg")
        assert (r.matrix.tp, r.matrix.fn) == (1, 0)

    def test_unknown_positive_class_rejected(self):
        model, test = self.fixture()
        with pytest.raises(EvalError):
            evaluate(model, test, positive_class="neutral")

    def test_width_mismatch_rejected(self):
        model, _ = self.fixture()
        bad = make_matrix([[1.0, 2.0]], ["pos"], ("neg", "pos"))
        with pytest.raises(EvalError):
            evaluate(model, bad)


class _FixedPredictions:
    """A model stand-in that predicts the given class indices."""

    variant = "fixed"
    feature_width = 1

    def __init__(self, class_values, indices):
        self.class_values = class_values
        self.indices = np.array(indices, dtype=np.intp)

    def predict_indices(self, X):
        return self.indices


def per_row_tally(model, test, positive_class):
    """The confusion counts by comparing class strings row by row."""
    tp = fp = fn = tn = 0
    for index, actual in zip(model.predict_indices(test), test.labels):
        predicted = model.class_values[index]
        if actual == positive_class:
            if predicted == positive_class:
                tp += 1
            else:
                fn += 1
        else:
            if predicted == positive_class:
                fp += 1
            else:
                tn += 1
    return tp, fp, fn, tn


class TestTally:
    @given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from(["neg", "pos"])),
                    min_size=1, max_size=30),
           st.sampled_from([None, "neg", "pos"]))
    @settings(max_examples=150)
    def test_equals_the_per_row_string_rule_across_class_orders(self, rows, positive_class):
        # the model declares (neg, pos), the test matrix (pos, neg)
        indices, labels = zip(*rows)
        model = _FixedPredictions(("neg", "pos"), indices)
        test = make_matrix(np.zeros((len(rows), 1)), labels, ("pos", "neg"))
        r = evaluate(model, test, positive_class)
        m = r.matrix
        assert m.positive_class == (positive_class or "pos")
        assert (m.tp, m.fp, m.fn, m.tn) == per_row_tally(model, test, m.positive_class)
        assert all(type(v) is int for v in (m.tp, m.fp, m.fn, m.tn))


class TestCompare:
    def models_and_test(self):
        train = make_matrix(
            [[0.0, 1.0], [1.0, 0.0], [3.0, 5.0], [5.0, 3.0]],
            ["neg", "neg", "pos", "pos"], ("neg", "pos"),
        )
        test = make_matrix(
            [[0.5, 0.5], [4.0, 4.0]], ["neg", "pos"], ("neg", "pos"),
        )
        return [train_mnb(train), train_knn(train, k=1)], test

    def test_sorted_by_accuracy_then_name(self):
        models, test = self.models_and_test()
        reports = compare(models, test)
        keys = [(-r.accuracy, r.model_name) for r in reports]
        assert keys == sorted(keys)

    def test_empty_model_list_rejected(self):
        _, test = self.models_and_test()
        with pytest.raises(EvalError):
            compare([], test)

    def test_render_table_shape(self):
        models, test = self.models_and_test()
        out = render_table(compare(models, test))
        lines = out.rstrip("\n").split("\n")
        # header + rule + one row per model + positive-class footer
        assert len(lines) == 2 + len(models) + 1
        assert lines[0].split() == [
            "classifier", "total", "correct", "incorrect",
            "accuracy%", "precision", "recall", "f-measure",
        ]
        assert lines[-1] == "(positive class: pos)"

    def test_render_json_schema_and_precision(self):
        models, test = self.models_and_test()
        reports = compare(models, test)
        payload = json.loads(render_json(reports))
        assert payload["schema"] == REPORT_SCHEMA
        assert len(payload["reports"]) == len(models)
        for rep, r in zip(payload["reports"], reports):
            assert rep["accuracy"] == r.accuracy  # full precision, not rounded
            cm = rep["confusion_matrix"]
            assert cm["tp"] + cm["fp"] + cm["fn"] + cm["tn"] == rep["total"]
