"""Linear SVM trained by stochastic subgradient descent (pegasos-style).

Minimizes  lambda/2 * ||w||^2 + (1/n) * sum_i max(0, 1 - y_i (w.x_i + b))
with per-step learning rate 1/(lambda * t), t counting every update across
epochs. Classes map to signs: lower class index -1, higher +1. Each epoch
visits the instances in a fresh splitmix64 shuffle of [0, n); that shuffle
is the only randomness. The bias is updated by the hinge subgradient but
not regularized.

Prediction is sign(w.x + b), zero breaking to the lower class index;
scores are the (-v, v) margin pair with v = w.x + b.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from ..rng import SplitMix64
from .base import Model, fmt_floats, require_binary


class LinearSvmModel(Model):
    variant = "svm"

    def __init__(self, class_values, feature_width, weights, bias, lam, epochs, seed):
        super().__init__(class_values, feature_width)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = float(bias)
        self.lam = float(lam)
        self.epochs = int(epochs)
        self.seed = int(seed)

    def decision_value(self, x) -> float:
        vec = self.check_vector(x)
        return float(self.weights @ vec + self.bias)

    def predict_scores(self, x) -> list[float]:
        v = self.decision_value(x)
        return [-v, v]

    def _body_lines(self):
        return [
            f"lambda {fmt_floats(self.lam)}",
            f"epochs {self.epochs}",
            f"seed {self.seed}",
            f"bias {fmt_floats(self.bias)}",
            f"weights {fmt_floats(self.weights)}",
        ]

    @classmethod
    def _from_body(cls, reader):
        require_binary(reader.class_values)
        lam = reader.real("lambda", positive=True)
        epochs = reader.integer("epochs", lo=1)
        seed = reader.integer("seed", lo=None)
        bias = reader.real("bias")
        weights = reader.reals("weights", reader.feature_width)
        return cls(reader.class_values, reader.feature_width, weights, bias, lam, epochs, seed)


def svm_objective(weights: np.ndarray, bias: float, X: np.ndarray, signs: np.ndarray,
                  lam: float) -> float:
    margins = signs * (X @ weights + bias)
    hinge = np.maximum(0.0, 1.0 - margins)
    return float(lam / 2.0 * (weights @ weights) + hinge.mean())


def train_svm(matrix, lam: float = 1e-3, epochs: int = 100, seed: int = 0) -> LinearSvmModel:
    require_binary(matrix.class_values)
    if lam <= 0.0:
        raise ModelError("regularization lambda must be positive")
    if epochs < 1:
        raise ModelError("epochs must be >= 1")
    X = matrix.rows
    n = X.shape[0]
    if n == 0:
        raise ModelError("cannot train on an empty matrix")
    # per-instance row views and signs, made once; x.dot(w) is the same
    # ddot as x @ w, with less call overhead per step
    signs = np.where(matrix.label_indices() == 1, 1.0, -1.0).tolist()
    rows = list(X)
    w = np.zeros(matrix.width)
    b = 0.0
    rng = SplitMix64(seed)
    t = 0
    for _ in range(epochs):
        order = list(range(n))
        rng.shuffle(order)
        for i in order:
            x, sign = rows[i], signs[i]
            t += 1
            eta = 1.0 / (lam * t)
            margin = sign * (x.dot(w) + b)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                step = eta * sign
                w += step * x
                b += step
    return LinearSvmModel(matrix.class_values, matrix.width, w, b, lam, epochs, seed)
