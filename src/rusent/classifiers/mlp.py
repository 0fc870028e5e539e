"""Multilayer perceptron with softmax output and cross-entropy loss.

Fully connected: input -> hidden layers (logistic or tanh) -> one output
unit per class -> softmax. Trained with mini-batch gradient descent on
mean cross-entropy.

Determinism contract: weights initialize uniform in [-r, r] with
r = sqrt(6 / (fan_in + fan_out)), drawn from one splitmix64 stream layer
by layer in row-major element order (biases start at zero and consume no
draws). Each epoch then draws one shuffle of the instance order from the
same stream, and batches are consecutive slices of that order.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from ..rng import SplitMix64
from .base import Model, fmt_floats

ACTIVATIONS = ("logistic", "tanh")


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "logistic":
        return 1.0 / (1.0 + np.exp(-z))
    return np.tanh(z)


def _activate_grad(a: np.ndarray, kind: str) -> np.ndarray:
    # derivative expressed through the activation value itself
    if kind == "logistic":
        return a * (1.0 - a)
    return 1.0 - a * a


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = np.exp(z - z.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


class MlpModel(Model):
    variant = "mlp"

    def __init__(self, class_values, feature_width, weights, biases, activation,
                 learning_rate, epochs, batch_size, seed):
        super().__init__(class_values, feature_width)
        if len(weights) < 2:
            raise ModelError("at least one hidden layer is required")
        if activation not in ACTIVATIONS:
            raise ModelError(f"activation must be one of {ACTIVATIONS}")
        if learning_rate <= 0.0:
            raise ModelError("learning rate must be positive")
        if epochs < 0:
            raise ModelError("epochs must be >= 0")
        if batch_size < 1:
            raise ModelError("batch_size must be >= 1")
        self.weights = [np.asarray(W, dtype=np.float64) for W in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        self.activation = activation
        self.learning_rate = float(learning_rate)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.seed = int(seed)

    @property
    def hidden_layers(self) -> list[int]:
        return [W.shape[1] for W in self.weights[:-1]]

    # -- forward / backward ----------------------------------------------

    def forward(self, X: np.ndarray) -> list[np.ndarray]:
        """Activations per layer; the last entry is the softmax output."""
        acts = [X]
        for li, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ W + b
            if li == len(self.weights) - 1:
                acts.append(_softmax(z))
            else:
                acts.append(_activate(z, self.activation))
        return acts

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        probs = self.forward(X)[-1]
        picked = probs[np.arange(len(y)), y]
        return float(-np.log(np.maximum(picked, 1e-300)).mean())

    def gradients(self, X: np.ndarray, y: np.ndarray):
        """Mean cross-entropy gradients, as (loss, dW list, db list)."""
        probs, grads_w, grads_b = self._backprop(X, y)
        picked = probs[np.arange(X.shape[0]), y]
        loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
        return loss, grads_w, grads_b

    def _backprop(self, X: np.ndarray, y: np.ndarray):
        """The gradients without the loss, as (softmax output, dW list,
        db list); training steps call this and skip the loss."""
        acts = self.forward(X)
        n = X.shape[0]
        probs = acts[-1]
        delta = probs.copy()
        delta[np.arange(n), y] -= 1.0
        delta /= n
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        for li in range(len(self.weights) - 1, -1, -1):
            grads_w[li] = acts[li].T @ delta
            grads_b[li] = delta.sum(axis=0)
            if li > 0:
                delta = (delta @ self.weights[li].T) * _activate_grad(acts[li], self.activation)
        return probs, grads_w, grads_b

    # -- prediction --------------------------------------------------------

    def predict_scores(self, x) -> list[float]:
        vec = self.check_vector(x)
        probs = self.forward(vec.reshape(1, -1))[-1][0]
        return [float(p) for p in probs]

    # -- persistence -------------------------------------------------------

    def _body_lines(self):
        lines = [
            f"hidden {' '.join(str(h) for h in self.hidden_layers)}",
            f"activation {self.activation}",
            f"learning_rate {fmt_floats(self.learning_rate)}",
            f"epochs {self.epochs}",
            f"batch_size {self.batch_size}",
            f"seed {self.seed}",
        ]
        for li, (W, b) in enumerate(zip(self.weights, self.biases)):
            for row in W:
                lines.append(f"w {li} {fmt_floats(row)}")
            lines.append(f"b {li} {fmt_floats(b)}")
        return lines

    @classmethod
    def _from_body(cls, reader):
        hidden = reader.integers("hidden", lo=1)
        activation = reader.rest("activation")
        learning_rate = reader.real("learning_rate")
        epochs = reader.integer("epochs", lo=None)
        batch_size = reader.integer("batch_size", lo=None)
        seed = reader.integer("seed", lo=None)
        sizes = [reader.feature_width] + hidden + [len(reader.class_values)]
        weights, biases = [], []
        for li, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
            rows = [reader.reals(f"w {li}", fan_out) for _ in range(fan_in)]
            weights.append(np.array(rows).reshape(fan_in, fan_out))
            biases.append(reader.reals(f"b {li}", fan_out))
        return cls(reader.class_values, reader.feature_width, weights, biases, activation,
                   learning_rate, epochs, batch_size, seed)


def init_mlp(matrix, hidden: list[int], activation: str = "logistic",
             learning_rate: float = 0.1, epochs: int = 200,
             batch_size: int = 16, seed: int = 0) -> MlpModel:
    """Build a network with freshly initialized weights (no training)."""
    return _init_mlp(SplitMix64(seed), matrix, hidden, activation, learning_rate,
                     epochs, batch_size, seed)


def _init_mlp(rng: SplitMix64, matrix, hidden, activation, learning_rate, epochs,
              batch_size, seed) -> MlpModel:
    """init_mlp, drawing the weights from `rng`; the caller may draw on."""
    if any(h < 1 for h in hidden):
        raise ModelError("hidden layer widths must be >= 1")
    sizes = [matrix.width] + list(hidden) + [len(matrix.class_values)]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        r = np.sqrt(6.0 / (fan_in + fan_out))
        lo, hi = -r, r
        # rng.uniform(lo, hi) per element, in row-major draw order
        u = rng.block(fan_in * fan_out).reshape(fan_in, fan_out)
        weights.append(lo + (hi - lo) * ((u >> np.uint64(11)) * 2.0**-53))
        biases.append(np.zeros(fan_out))
    return MlpModel(matrix.class_values, matrix.width, weights, biases,
                    activation, learning_rate, epochs, batch_size, seed)


def train_mlp(matrix, hidden: list[int] | None = None, activation: str = "logistic",
              learning_rate: float = 0.1, epochs: int = 200,
              batch_size: int = 16, seed: int = 0) -> MlpModel:
    if hidden is None:
        hidden = [32, 32]
    rng = SplitMix64(seed)  # the weight draws, then one shuffle per epoch
    model = _init_mlp(rng, matrix, list(hidden), activation, learning_rate,
                      epochs, batch_size, seed)
    X = matrix.rows
    y = matrix.label_indices()
    n = X.shape[0]
    if n == 0:
        raise ModelError("cannot train on an empty matrix")
    weights, biases = model.weights, model.biases
    for _ in range(epochs):
        order = list(range(n))
        rng.shuffle(order)
        order = np.array(order, dtype=np.intp)
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            _, grads_w, grads_b = model._backprop(X[batch], y[batch])
            for li in range(len(weights)):
                weights[li] -= learning_rate * grads_w[li]
                biases[li] -= learning_rate * grads_b[li]
    return model
