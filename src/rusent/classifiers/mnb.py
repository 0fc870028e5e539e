"""Multinomial naive Bayes with Laplace smoothing.

Training stores, per class c:

    log P(c)      = log(n_c / n)
    log P(w | c)  = log((count(w, c) + alpha) / (sum_w' count(w', c) + alpha * |V|))

and scoring a vector x computes log P(c) + sum_i x_i * log P(w_i | c) in
log space. predict_scores exponentiates and normalizes the log posteriors
into probabilities summing to 1.

predict_indices takes the argmax in log space, one matrix-vector product
per row: a matrix-matrix product over the whole test set would sum in a
different order and could move a near-tie. The argmax is of the rounded
log posteriors, so it matches the exact posterior argmax wherever the
exact posteriors differ by more than the rounding error. Where two
classes' exact posteriors are equal (e.g. 4/21 each), rounding in log
space may pick either of them, not necessarily the lower class index.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from .base import Model, fmt_floats


class MultinomialNBModel(Model):
    variant = "mnb"

    def __init__(self, class_values, feature_width, alpha, log_prior, log_likelihood):
        super().__init__(class_values, feature_width)
        self.alpha = float(alpha)
        self.log_prior = np.asarray(log_prior, dtype=np.float64)
        self.log_likelihood = np.asarray(log_likelihood, dtype=np.float64)  # (C, d)

    def log_posteriors(self, x) -> np.ndarray:
        vec = self.check_vector(x)
        return self.log_prior + self.log_likelihood @ vec

    def predict_scores(self, x) -> list[float]:
        log_post = self.log_posteriors(x)
        shifted = np.exp(log_post - log_post.max())
        probs = shifted / shifted.sum()
        return [float(p) for p in probs]

    def predict_indices(self, X) -> np.ndarray:
        # argmax in log space; ties go to the lowest class index
        return np.array(
            [np.argmax(self.log_posteriors(x)) for x in self.check_matrix(X)], dtype=np.intp
        )

    def _body_lines(self) -> list[str]:
        lines = [f"alpha {fmt_floats(self.alpha)}", f"log_prior {fmt_floats(self.log_prior)}"]
        for c, row in enumerate(self.log_likelihood):
            lines.append(f"log_likelihood {c} {fmt_floats(row)}")
        return lines

    @classmethod
    def _from_body(cls, reader):
        n_classes = len(reader.class_values)
        alpha = reader.real("alpha", positive=True)
        log_prior = reader.reals("log_prior", n_classes)
        rows = [reader.reals(f"log_likelihood {c}", reader.feature_width) for c in range(n_classes)]
        return cls(reader.class_values, reader.feature_width, alpha, log_prior, np.array(rows))


def train_mnb(matrix, alpha: float = 1.0) -> MultinomialNBModel:
    if alpha <= 0.0:
        raise ModelError("smoothing alpha must be positive")
    if np.any(matrix.rows < 0):
        raise ModelError("multinomial NB requires non-negative feature values")
    y = matrix.label_indices()
    n_classes = len(matrix.class_values)
    n = len(y)
    class_counts = np.bincount(y, minlength=n_classes)
    if np.any(class_counts == 0):
        missing = matrix.class_values[int(np.argmin(class_counts))]
        raise ModelError(f"class {missing!r} has no training instances")
    word_counts = np.zeros((n_classes, matrix.width))
    for c in range(n_classes):
        word_counts[c] = matrix.rows[y == c].sum(axis=0)
    log_prior = np.log(class_counts / n)
    smoothed = word_counts + alpha
    log_likelihood = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
    return MultinomialNBModel(
        matrix.class_values, matrix.width, alpha, log_prior, log_likelihood
    )
