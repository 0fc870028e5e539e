"""Linear SVM trained by stochastic subgradient descent (pegasos-style).

Minimizes  lambda/2 * ||w||^2 + (1/n) * sum_i max(0, 1 - y_i (w.x_i + b))
with per-step learning rate 1/(lambda * t), t counting every update across
epochs. Classes map to signs: lower class index -1, higher +1. Each epoch
visits the instances in a fresh splitmix64 shuffle of [0, n); that shuffle
is the only randomness. The bias is updated by the hinge subgradient but
not regularized.

Prediction is sign(w.x + b), zero breaking to the lower class index;
scores are the (-v, v) margin pair with v = w.x + b, w.x summed over the
row's stored cells alone (rusent.sparse.row_sums).
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from ..rng import SplitMix64
from ..sparse import Csr, RowBlocks, row_sums
from .base import Model, fmt_floats, require_binary


class LinearSvmModel(Model):
    variant = "svm"

    def __init__(self, class_values, feature_width, weights, bias, lam, epochs, seed):
        super().__init__(class_values, feature_width)
        require_binary(self.class_values)
        if not 0.0 < lam < np.inf:
            raise ModelError(f"regularization lambda must be positive and finite, not {lam!r}")
        if epochs < 1:
            raise ModelError("epochs must be >= 1")
        self.weights = self.shaped("weights", weights, self.feature_width)
        self.bias = float(bias)
        self.lam = float(lam)
        self.epochs = int(epochs)
        self.seed = int(seed)

    def scores(self, X) -> np.ndarray:
        v = row_sums(self.check_matrix(X), self.weights[:, None])[:, 0] + self.bias
        return np.stack([-v, v], axis=1)

    def _body_lines(self):
        yield f"lambda {fmt_floats(self.lam)}"
        yield f"epochs {self.epochs}"
        yield f"seed {self.seed}"
        yield f"bias {fmt_floats(self.bias)}"
        yield f"weights {fmt_floats(self.weights)}"

    @classmethod
    def _from_body(cls, reader):
        lam = reader.real("lambda")
        epochs = reader.integer("epochs")
        seed = reader.integer("seed")
        bias = reader.real("bias")
        weights = reader.reals("weights", reader.feature_width)
        return cls(reader.class_values, reader.feature_width, weights, bias, lam, epochs, seed)


def svm_objective(weights: np.ndarray, bias: float, X: Csr, signs: np.ndarray,
                  lam: float) -> float:
    """The training objective at (weights, bias), each margin summed over
    its row's stored cells."""
    margins = signs * (row_sums(X, weights[:, None])[:, 0] + bias)
    hinge = np.maximum(0.0, 1.0 - margins)
    return float(lam / 2.0 * (weights @ weights) + hinge.mean())


def train_svm(matrix, lam: float = 1e-3, epochs: int = 100, seed: int = 0) -> LinearSvmModel:
    model = LinearSvmModel(matrix.class_values, matrix.width, np.zeros(matrix.width), 0.0,
                           lam, epochs, seed)
    n = matrix.n_rows
    if n == 0:
        raise ModelError("cannot train on an empty matrix")
    # each epoch's rows go through dense blocks of one buffer, whose row
    # views and the signs are made once; x.dot(w) is the same ddot as
    # x @ w, with less call overhead per step
    blocks = RowBlocks(matrix)
    rows = list(blocks.out)
    signs = np.where(matrix.y == 1, 1.0, -1.0).tolist()
    w, b = model.weights, 0.0
    rng = SplitMix64(seed)
    t = 0
    # a diverging run (a tiny lambda) overflows silently: its non-finite
    # weights are reported when the model is saved
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = list(range(n))
            rng.shuffle(order)
            for start, stop in blocks(order):
                for x, i in zip(rows, order[start:stop]):
                    sign = signs[i]
                    t += 1
                    eta = 1.0 / (lam * t)
                    margin = sign * (x.dot(w) + b)
                    w *= 1.0 - eta * lam
                    if margin < 1.0:
                        step = eta * sign
                        w += step * x
                        b += step
    model.bias = b
    return model
