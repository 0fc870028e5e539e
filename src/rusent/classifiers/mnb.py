"""Multinomial naive Bayes with Laplace smoothing.

Training stores, per class c:

    log P(c)      = log(n_c / n)
    log P(w | c)  = log((count(w, c) + alpha) / (sum_w' count(w', c) + alpha * |V|))

and scores are the log posteriors, log P(c) + sum_i x_i * log P(w_i | c),
the sum over each row's stored cells alone, in the order that
rusent.sparse.row_sums states, so a row's scores have the same bits in any
batch. A prediction is their first maximum (Model.predict_indices), as for
every variant.

A prediction is thus the argmax of the rounded log posteriors, so it
matches the exact posterior argmax wherever the exact posteriors differ by
more than the rounding error. Where two classes' exact posteriors are equal (e.g. 4/21
each), rounding in log space may pick either of them, not necessarily the
lower class index.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from ..sparse import row_sums
from .base import Model, fmt_floats, fmt_rows


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

    def scores(self, X) -> np.ndarray:
        """log P(c) + sum_i x_i log P(w_i | c) of every row of a matrix,
        shape (n, C), the sum over the row's stored cells (row_sums)."""
        return self.log_prior + row_sums(self.check_matrix(X), self.log_likelihood.T)

    def _body_lines(self):
        yield f"alpha {fmt_floats(self.alpha)}"
        yield f"log_prior {fmt_floats(self.log_prior)}"
        for c, words in enumerate(fmt_rows(self.log_likelihood)):
            yield f"log_likelihood {c} {words}"

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
    if (matrix.data < 0).any():  # the stored cells; every other one is +0.0
        raise ModelError("multinomial NB requires non-negative feature values")
    y = matrix.y
    class_counts = np.bincount(y, minlength=n_classes)
    if np.any(class_counts == 0):
        missing = matrix.class_values[int(np.argmin(class_counts))]
        raise ModelError(f"class {missing!r} has no training instances")
    np.log(class_counts / len(y), out=model.log_prior)
    smoothed = model.log_likelihood  # each class's word counts plus alpha, then their logs
    # the stored cells of each class's rows added up column by column in row
    # order (bincount adds each bin's weights in input order), which are the
    # bits of the sum of its dense rows over axis 0 wherever the width is 2
    # or more: a +0.0 cell added to a sum that cannot be -0.0 changes nothing
    # (with one column, each likelihood is log(x / x) = 0 anyway)
    cell_bin = y[matrix.row_of()] * matrix.width + matrix.indices
    smoothed[:] = np.bincount(cell_bin, weights=matrix.data,
                              minlength=smoothed.size).reshape(smoothed.shape)
    smoothed += model.alpha
    np.log(smoothed / smoothed.sum(axis=1, keepdims=True), out=smoothed)
    return model
