"""Multinomial naive Bayes with Laplace smoothing.

Training stores, per class c:

    log P(c)      = log(n_c / n)
    log P(w | c)  = log((count(w, c) + alpha) / (sum_w' count(w', c) + alpha * |V|))

and scoring computes log P(c) + sum_i x_i * log P(w_i | c) in log space,
for every row of a matrix in one matrix product (log_posteriors). scores
exponentiates and normalizes each row into probabilities summing to 1.

predict_indices takes the argmax in log space. It is the argmax of the
rounded log posteriors, so it matches the exact posterior argmax wherever
the exact posteriors differ by more than the rounding error. Where two
classes' exact posteriors are equal (e.g. 4/21 each), rounding in log
space may pick either of them, not necessarily the lower class index.
A row's rounding can differ between batches of different shapes; the
same matrix always gives the same bits (see classifiers/base.py).
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from .base import Model, fmt_floats


class MultinomialNBModel(Model):
    variant = "mnb"

    def __init__(self, class_values, feature_width, alpha, log_prior, log_likelihood):
        super().__init__(class_values, feature_width)
        if not 0.0 < alpha < np.inf:
            raise ModelError(f"smoothing alpha must be positive and finite, not {alpha!r}")
        self.alpha = float(alpha)
        n_classes = len(self.class_values)
        self.log_prior = self.shaped("log_prior", log_prior, n_classes)
        self.log_likelihood = self.shaped("log_likelihood", log_likelihood,
                                          n_classes, self.feature_width)

    def log_posteriors(self, X) -> np.ndarray:
        """log P(c) + sum_i x_i log P(w_i | c) of every row of a matrix,
        shape (n, C), in one matrix product."""
        return self.log_prior + self.check_matrix(X) @ self.log_likelihood.T

    def scores(self, X) -> np.ndarray:
        log_post = self.log_posteriors(X)
        shifted = np.exp(log_post - log_post.max(axis=1, keepdims=True))
        return shifted / shifted.sum(axis=1, keepdims=True)

    def predict_indices(self, X) -> np.ndarray:
        # argmax in log space; ties go to the lowest class index
        return np.argmax(self.log_posteriors(X), axis=1)

    def _body_lines(self) -> list[str]:
        lines = [f"alpha {fmt_floats(self.alpha)}", f"log_prior {fmt_floats(self.log_prior)}"]
        for c, row in enumerate(self.log_likelihood):
            lines.append(f"log_likelihood {c} {fmt_floats(row)}")
        return lines

    @classmethod
    def _from_body(cls, reader):
        n_classes = len(reader.class_values)
        alpha = reader.real("alpha")
        log_prior = reader.reals("log_prior", n_classes)
        rows = [reader.reals(f"log_likelihood {c}", reader.feature_width) for c in range(n_classes)]
        return cls(reader.class_values, reader.feature_width, alpha, log_prior, np.array(rows))


def train_mnb(matrix, alpha: float = 1.0) -> MultinomialNBModel:
    n_classes = len(matrix.class_values)
    model = MultinomialNBModel(matrix.class_values, matrix.width, alpha,
                               np.zeros(n_classes), np.zeros((n_classes, matrix.width)))
    if np.any(matrix.rows < 0):
        raise ModelError("multinomial NB requires non-negative feature values")
    y = matrix.y
    class_counts = np.bincount(y, minlength=n_classes)
    if np.any(class_counts == 0):
        missing = matrix.class_values[int(np.argmin(class_counts))]
        raise ModelError(f"class {missing!r} has no training instances")
    np.log(class_counts / len(y), out=model.log_prior)
    smoothed = model.log_likelihood  # each class's word counts plus alpha, then their logs
    for c in range(n_classes):
        smoothed[c] = matrix.rows[y == c].sum(axis=0) + model.alpha
    np.log(smoothed / smoothed.sum(axis=1, keepdims=True), out=smoothed)
    return model
