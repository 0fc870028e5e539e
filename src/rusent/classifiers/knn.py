"""k-nearest-neighbor classifier.

Training keeps the feature matrix's rows, which are read-only, without a
copy. Prediction ranks training instances by distance (euclidean,
manhattan, or minkowski with a configurable exponent p), breaking distance
ties toward the lowest training index, then takes the majority label of
the k nearest, breaking vote ties toward the lowest class index. Scores
are vote fractions. Minkowski ranks by sum |r - x|^p, the distance's p-th
power: it has the distance's order (p > 0), while the root can overflow
for a small p even where the sum is finite (a sum of 3 at p = 0.001).

The neighbours are always those of the exhaustive scan: `_distances` over
the training rows, then a stable argsort. Manhattan and minkowski run that
scan for every test row. Euclidean batch prediction first screens the
training rows, so the exact scan runs on a few candidates only:

* For a block of test rows at a time, approximate the squared distances
  as a_i = (|x|^2 + |r_i|^2) - 2 r_i.x, with the dot products of the whole
  block taken as one matrix product. A block has _BLOCK_ENTRIES // n_train
  test rows (at least one), a fixed budget that bounds the screen's
  scratch memory whatever the training set's size.
* Error bound. Let n be the width, u = 2^-53 the unit roundoff,
  gamma_m = m u / (1 - m u), and S_i = |x|^2 + |r_i|^2 exactly. The two
  norms and the dot product are inner products of length n, so in any
  summation order they are off by at most gamma_n |r_i|^2, gamma_n |x|^2
  and gamma_n sum_j |r_ij x_j| <= gamma_n S_i / 2; the final addition and
  subtraction add at most about 2u S_i. So |a_i - e_i| <= (2 gamma_n + 3u)
  S_i to first order, where e_i = |r_i - x|^2 exactly. `_distances`
  computes s_i from n rounded squares of rounded differences, summed in
  some order: |s_i - e_i| <= gamma_(n+2) e_i <= 2 gamma_(n+2) S_i, as
  e_i <= 2 S_i. Hence |s_i - a_i| <= (4n + 7) u S_i to first order. The
  screen uses
  B_i = 8 (n + 2) (u N_i + eta), where N_i is the computed S_i and
  eta = 2^-1074. That is at least twice the first-order bound, which
  covers the second-order terms and the rounding of the screen's own
  arithmetic, and the eta term covers products that underflow (each is
  off by at most eta / 2).
* So s_i lies in [a_i - B_i, a_i + B_i], and the k-th smallest s is at
  most tau, the k-th smallest a_i + B_i. Distances are compared after a
  correctly rounded sqrt, which can merge two squared distances that
  differ by a relative 4u, so a row can equal or beat the k-th neighbour
  only if s_i <= tau (1 + 5u). The candidates are the rows with
  a_i - B_i <= tau (1 + 8u): a superset of the k neighbours and of every
  row tied with the k-th one.
* The exact distances of the candidates, in training-index order, then
  go through the same stable argsort, so the result equals the
  exhaustive scan's, ties included. If any norm or bound of a test row is
  not finite (squares overflow past about 1e154), that row scans every
  training row.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from .base import Model, fmt_floats

DISTANCES = ("euclidean", "manhattan", "minkowski")

#: entries (test rows x training rows) per block of the euclidean screen,
#: which bounds each of its scratch arrays to 128 KiB
_BLOCK_ENTRIES = 1 << 14
_U = 2.0**-53
_ETA = 2.0**-1074


def _distances(rows: np.ndarray, x: np.ndarray, metric: str, p: float) -> np.ndarray:
    diff = np.abs(rows - x)
    if metric == "euclidean":
        return np.sqrt((diff * diff).sum(axis=1))
    if metric == "manhattan":
        return diff.sum(axis=1)
    return (diff**p).sum(axis=1)


class KnnModel(Model):
    variant = "knn"

    def __init__(self, class_values, feature_width, k, metric, p, rows, labels):
        super().__init__(class_values, feature_width)
        if metric not in DISTANCES:
            raise ModelError(f"distance must be one of {DISTANCES}")
        if not 1 <= k <= len(labels):
            raise ModelError(f"k={k} is outside [1, {len(labels)}], the training instances")
        if not np.isfinite(p) or (metric == "minkowski" and p <= 0):
            # p is written to the model file whatever the metric
            raise ModelError(f"minkowski exponent p={p!r} must be finite (positive for minkowski)")
        self.k = int(k)
        self.metric = metric
        self.p = float(p)
        labels = np.asarray(labels)  # of dtype object if an int overflows intp
        if labels.ndim != 1 or ((labels < 0) | (labels >= len(self.class_values))).any():
            raise ModelError(f"labels must be class indices below {len(self.class_values)}")
        self.labels = labels.astype(np.intp, copy=False)
        self.rows = self.shaped("rows", rows, len(labels), self.feature_width)

    def _candidates(self, X: np.ndarray):
        """Yield (x, training indices that can be among x's neighbours, in
        ascending order, or None for all of them) for each row x of X."""
        n_train = self.rows.shape[0]
        if self.metric != "euclidean":
            for x in X:
                yield x, None
            return
        with np.errstate(over="ignore"):
            row_sq = np.einsum("ij,ij->i", self.rows, self.rows)
        slack = 8.0 * (self.feature_width + 2)
        step = max(1, _BLOCK_ENTRIES // n_train)
        for start in range(0, X.shape[0], step):
            block = X[start:start + step]
            # overflow only makes a bound non-finite, which the scan handles
            with np.errstate(over="ignore", invalid="ignore"):
                norms = np.einsum("ij,ij->i", block, block)[:, None] + row_sq
                approx = norms - 2.0 * (block @ self.rows.T)
                bound = norms
                bound *= _U
                bound += _ETA
                bound *= slack
                upper = approx + bound
                lower = np.subtract(approx, bound, out=approx)
                tau = np.partition(upper, self.k - 1, axis=1)[:, self.k - 1]
                # every a_i + B_i >= s_i >= 0, so tau >= 0 and scaling it
                # up widens the screen
                keep = lower <= (tau * (1.0 + 8.0 * _U))[:, None]
            finite = np.isfinite(upper).all(axis=1) & np.isfinite(lower).all(axis=1)
            for x, mask, ok in zip(block, keep, finite):
                yield x, np.flatnonzero(mask) if ok else None

    def _neighbours(self, X: np.ndarray):
        """Yield the k nearest training indices of each row of X, nearest
        first, equal distances in training-index order."""
        for x, cand in self._candidates(X):
            rows = self.rows if cand is None else self.rows[cand]
            order = np.argsort(_distances(rows, x, self.metric, self.p), kind="stable")[: self.k]
            yield order if cand is None else cand[order]

    def scores(self, X) -> np.ndarray:
        n_classes = len(self.class_values)
        votes = [np.bincount(self.labels[nearest], minlength=n_classes)
                 for nearest in self._neighbours(self.check_matrix(X))]
        return np.array(votes, dtype=np.float64).reshape(-1, n_classes) / self.k

    def _body_lines(self) -> list[str]:
        lines = [
            f"k {self.k}",
            f"distance {self.metric}",
            f"p {fmt_floats(self.p)}",
            f"labels {' '.join(str(int(l)) for l in self.labels)}",
        ]
        lines.extend(f"row {fmt_floats(row)}" for row in self.rows)
        return lines

    @classmethod
    def _from_body(cls, reader):
        k = reader.integer("k")
        metric = reader.rest("distance")
        p = reader.real("p")
        labels = reader.integers("labels")
        rows = reader.matrix("row", len(labels), reader.feature_width)
        return cls(reader.class_values, reader.feature_width, k, metric, p, rows, labels)


def train_knn(matrix, k: int = 1, distance: str = "euclidean", p: float = 3.0) -> KnnModel:
    return KnnModel(matrix.class_values, matrix.width, k, distance, p,
                    matrix.rows, matrix.y)
