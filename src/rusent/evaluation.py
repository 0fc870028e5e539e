"""Model scoring: confusion matrix, accuracy, precision, recall, F-measure.

With TP/FP/FN/TN tallied against a chosen positive class:

    accuracy  = (TP + TN) / total
    precision = TP / (TP + FP)
    recall    = TP / (TP + FN)
    F         = 2 * P * R / (P + R)

A zero denominator makes the affected metric 0 and records its name in
the report's `degenerate` list. Comparison reports order models by
descending accuracy, then by name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import EvalError
from .vectorize import FeatureMatrix

REPORT_SCHEMA = "rusent-report/1"


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 tally indexed (actual, predicted) against positive_class."""

    tp: int
    fp: int
    fn: int
    tn: int
    positive_class: str

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class EvalReport:
    model_name: str
    total: int
    correct: int
    incorrect: int
    accuracy: float
    precision: float
    recall: float
    f_measure: float
    matrix: ConfusionMatrix
    degenerate: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "positive_class": self.matrix.positive_class,
            "total": self.total,
            "correct": self.correct,
            "incorrect": self.incorrect,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f_measure": self.f_measure,
            "confusion_matrix": {
                "tp": self.matrix.tp,
                "fp": self.matrix.fp,
                "fn": self.matrix.fn,
                "tn": self.matrix.tn,
            },
            "degenerate_metrics": list(self.degenerate),
        }


def metrics_from_matrix(matrix: ConfusionMatrix, model_name: str) -> EvalReport:
    """Derive all measures from raw confusion counts (integer arithmetic
    first, one division per ratio)."""
    total = matrix.total
    if total == 0:
        raise EvalError("cannot evaluate on an empty test set")
    correct = matrix.tp + matrix.tn
    degenerate = []
    if matrix.tp + matrix.fp > 0:
        precision = matrix.tp / (matrix.tp + matrix.fp)
    else:
        precision = 0.0
        degenerate.append("precision")
    if matrix.tp + matrix.fn > 0:
        recall = matrix.tp / (matrix.tp + matrix.fn)
    else:
        recall = 0.0
        degenerate.append("recall")
    if precision + recall > 0.0:
        f_measure = 2.0 * precision * recall / (precision + recall)
    else:
        f_measure = 0.0
        degenerate.append("f_measure")
    return EvalReport(
        model_name=model_name,
        total=total,
        correct=correct,
        incorrect=total - correct,
        accuracy=correct / total,
        precision=precision,
        recall=recall,
        f_measure=f_measure,
        matrix=matrix,
        degenerate=tuple(degenerate),
    )


def check_test(test: FeatureMatrix, feature_width: int, positive_class: str | None = None) -> str:
    """The positive class to score models of feature_width on test: positive_class,
    or else "pos" if declared, else the first class. EvalError if test does not fit."""
    if not len(test.rows):
        raise EvalError("cannot evaluate on an empty test set")
    if test.width != feature_width:
        raise EvalError(f"test width {test.width} does not match model width {feature_width}"
                        " (was it vectorized under the same vocabulary?)")
    if positive_class is None:
        positive_class = "pos" if "pos" in test.class_values else test.class_values[0]
    if positive_class not in test.class_values:
        raise EvalError(f"positive class {positive_class!r} is not declared")
    return positive_class


def evaluate(model, test: FeatureMatrix, positive_class: str | None = None) -> EvalReport:
    """Predict every test instance and tally against positive_class.

    The whole test matrix is scored in one `model.predict_indices` call
    (for k-NN, the neighbours of the exhaustive scan; see
    classifiers/knn.py). The same matrix always gives the same
    predictions; a batch of another shape may round a row's scores
    differently in the last bits (see classifiers/base.py).
    """
    positive_class = check_test(test, model.feature_width, positive_class)
    is_positive = np.array([c == positive_class for c in model.class_values])
    predicted = is_positive[model.predict_indices(test.rows)]
    actual = test.y == test.class_values.index(positive_class)
    tn, fp, fn, tp = np.bincount(2 * actual + predicted, minlength=4).tolist()
    matrix = ConfusionMatrix(tp, fp, fn, tn, positive_class)
    return metrics_from_matrix(matrix, model.variant)


def compare(models, test: FeatureMatrix, positive_class: str | None = None) -> list[EvalReport]:
    """One report per model, best accuracy first (name breaks ties)."""
    if not models:
        raise EvalError("compare needs at least one model")
    reports = [evaluate(m, test, positive_class) for m in models]
    return sorted(reports, key=lambda r: (-r.accuracy, r.model_name))


def render_table(reports: list[EvalReport]) -> str:
    """Human-readable table with the combined accuracy + P/R/F columns."""
    header = (
        "classifier", "total", "correct", "incorrect",
        "accuracy%", "precision", "recall", "f-measure",
    )
    rows = [header]
    for r in reports:
        rows.append((
            r.model_name,
            str(r.total),
            str(r.correct),
            str(r.incorrect),
            f"{100.0 * r.accuracy:.2f}",
            f"{r.precision:.2f}",
            f"{r.recall:.2f}",
            f"{r.f_measure:.2f}",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    positive = reports[0].matrix.positive_class
    lines.append(f"(positive class: {positive})")
    return "\n".join(lines) + "\n"


def render_json(reports: list[EvalReport]) -> str:
    """Machine-readable report: full precision, stable key names."""
    payload = {"schema": REPORT_SCHEMA, "reports": [r.to_dict() for r in reports]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
