"""Multilayer perceptron with softmax output and cross-entropy loss.

Fully connected: input -> hidden layers (logistic or tanh) -> one output
unit per class -> softmax. Trained with mini-batch gradient descent on
mean cross-entropy.

Determinism contract: weights initialize uniform in [-r, r] with
r = sqrt(6 / (fan_in + fan_out)), drawn from one splitmix64 stream layer
by layer in row-major element order (biases start at zero and consume no
draws). Each epoch then draws one shuffle of the instance order from the
same stream, and batches are consecutive slices of that order.

Parameters: one flat float64 buffer, `params`, holds every weight and bias
in the model file's body order: each layer's weight matrix row-major, then
its biases. `weights` and `biases` are views into it. Initialization draws
into them, training steps the buffer in place and loading fills it, so
`loss` reads the live weights even mid-training.

Training step: a step of 16 rows is a few dozen numpy calls on arrays of
a few hundred values, so the time per call sets the speed, and the step
makes as few calls as it can without changing a float operation. The
gradients are views into a second buffer of the same layout, written in
place by `_Kernel.run`; the update `grads *= learning_rate; params -=
grads` is still p - lr * g per element. Activations and deltas live in
buffers allocated once per batch length, and each batch's rows are
written into the input buffer (rusent.sparse.RowBlocks) rather than the
whole matrix shuffled.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from ..rng import SplitMix64
from ..sparse import RowBlocks
from .base import Model, fmt_floats, fmt_rows

ACTIVATIONS = ("logistic", "tanh")


def _layers(buf: np.ndarray, sizes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (weights, biases) views into a flat buffer that holds, for
    each layer in turn, its weight matrix row-major and then its biases."""
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(buf[at:at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(buf[at:at + fan_out])
        at += fan_out
    return weights, biases


def _forward(acts, col, weights, biases, activation) -> None:
    """Fill acts[1:] in place from the input rows in acts[0]; the last is
    the softmax output. `col` is an (n,) scratch column.

    Each call does the float operation of the textbook expression:
    act(a @ W + b) with logistic 1 / (1 + exp(-z)) or tanh(z), and softmax
    exp(z - max) / sum, its max and sum taken along each row."""
    last = len(weights) - 1
    for li, (W, b) in enumerate(zip(weights, biases)):
        z = acts[li + 1]
        np.matmul(acts[li], W, out=z)
        z += b
        if li == last:
            # the ufunc reductions into a 1-d column: np.max and keepdims
            # add a few microseconds a call
            np.maximum.reduce(z, axis=1, out=col)
            z -= col[:, None]
            np.exp(z, out=z)
            np.add.reduce(z, axis=1, out=col)
            z /= col[:, None]
        elif activation == "logistic":
            np.negative(z, out=z)
            np.exp(z, out=z)
            z += 1.0
            np.divide(1.0, z, out=z)
        else:
            np.tanh(z, out=z)


class _Kernel:
    """Forward and backward passes over batches of a fixed number of rows,
    in preallocated buffers. Training and MlpModel.gradients share it."""

    def __init__(self, weights, biases, grads_w, grads_b, activation, inputs):
        rows = inputs.shape[0]
        widths = [W.shape[1] for W in weights]
        self.weights, self.biases = weights, biases
        self.grads_w, self.grads_b = grads_w, grads_b
        self.activation = activation
        self.acts = [inputs] + [np.empty((rows, k)) for k in widths]
        self.deltas = [np.empty((rows, k)) for k in widths]
        self.derivs = [np.empty((rows, k)) for k in widths[:-1]]
        self.col = np.empty(rows)
        self.rows = rows

    def run(self, onehot: np.ndarray) -> None:
        """Write into grads_w and grads_b the gradients of the mean
        cross-entropy of the rows in acts[0], whose one-hot targets are
        `onehot`; the softmax output is left in acts[-1]."""
        acts, deltas, derivs = self.acts, self.deltas, self.derivs
        weights, activation = self.weights, self.activation
        _forward(acts, self.col, weights, self.biases, activation)
        delta = deltas[-1]
        # probs - onehot is probs less 1.0 at each row's target, and probs
        # itself elsewhere (x - 0.0 == x)
        np.subtract(acts[-1], onehot, out=delta)
        delta /= self.rows
        for li in range(len(weights) - 1, -1, -1):
            np.matmul(acts[li].T, delta, out=self.grads_w[li])
            np.add.reduce(delta, axis=0, out=self.grads_b[li])
            if li > 0:
                # delta @ W.T times the activation's derivative, expressed
                # through the activation value a: a * (1 - a) or 1 - a * a
                a, d, back = acts[li], derivs[li - 1], deltas[li - 1]
                np.matmul(delta, weights[li].T, out=back)
                if activation == "logistic":
                    np.subtract(1.0, a, out=d)
                    d *= a
                else:
                    np.multiply(a, a, out=d)
                    np.subtract(1.0, d, out=d)
                back *= d
                delta = back


class MlpModel(Model):
    """`params` (zeros if None) holds every weight and bias in one flat buffer,
    laid out over the layer widths `sizes` = [feature_width, *hidden, classes]."""

    variant = "mlp"

    def __init__(self, class_values, feature_width, hidden, params, activation,
                 learning_rate, epochs, batch_size, seed):
        super().__init__(class_values, feature_width)
        if len(hidden) < 1 or min(hidden) < 1:
            raise ModelError(f"hidden layer widths must be one or more values >= 1, not {hidden}")
        if activation not in ACTIVATIONS:
            raise ModelError(f"activation must be one of {ACTIVATIONS}")
        if not 0.0 < learning_rate < np.inf:
            raise ModelError(f"learning rate must be positive and finite, not {learning_rate!r}")
        if epochs < 0:
            raise ModelError("epochs must be >= 0")
        if batch_size < 1:
            raise ModelError("batch_size must be >= 1")
        self.sizes = [self.feature_width, *map(int, hidden), len(self.class_values)]
        size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(self.sizes, self.sizes[1:]))
        params = np.zeros(size) if params is None else params
        self.params = np.ascontiguousarray(params, dtype=np.float64)
        if self.params.shape != (size,):
            raise ModelError(f"params must be {size} values for layer widths {self.sizes},"
                             f" not shape {self.params.shape}")
        self.weights, self.biases = _layers(self.params, self.sizes)
        self.activation = activation
        self.learning_rate = float(learning_rate)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.seed = int(seed)

    # -- forward / backward ----------------------------------------------

    def forward(self, X: np.ndarray) -> list[np.ndarray]:
        """Activations per layer; the last entry is the softmax output."""
        acts = [X] + [np.empty((X.shape[0], k)) for k in self.sizes[1:]]
        _forward(acts, np.empty(X.shape[0]), self.weights, self.biases, self.activation)
        return acts

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        probs = self.forward(X)[-1]
        picked = probs[np.arange(len(y)), y]
        return float(-np.log(np.maximum(picked, 1e-300)).mean())

    def gradients(self, X: np.ndarray, y: np.ndarray):
        """Mean cross-entropy gradients, as (loss, dW list, db list), from
        the kernel that training steps run."""
        X = np.asarray(X, dtype=np.float64)
        grads_w, grads_b = _layers(np.empty_like(self.params), self.sizes)
        kernel = _Kernel(self.weights, self.biases, grads_w, grads_b, self.activation, X)
        kernel.run(np.eye(self.sizes[-1])[y])
        picked = kernel.acts[-1][np.arange(X.shape[0]), y]
        loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
        return loss, grads_w, grads_b

    # -- prediction --------------------------------------------------------

    def scores(self, X) -> np.ndarray:
        return self.forward(self.check_matrix(X).dense())[-1]

    # -- persistence -------------------------------------------------------

    def _body_lines(self):
        yield f"hidden {' '.join(str(h) for h in self.sizes[1:-1])}"
        yield f"activation {self.activation}"
        yield f"learning_rate {fmt_floats(self.learning_rate)}"
        yield f"epochs {self.epochs}"
        yield f"batch_size {self.batch_size}"
        yield f"seed {self.seed}"
        for li, (W, b) in enumerate(zip(self.weights, self.biases)):
            for words in fmt_rows(W):
                yield f"w {li} {words}"
            yield f"b {li} {fmt_floats(b)}"

    @classmethod
    def _from_body(cls, reader):
        hidden = reader.integers("hidden")
        activation = reader.rest("activation")
        learning_rate = reader.real("learning_rate")
        epochs = reader.integer("epochs")
        batch_size = reader.integer("batch_size")
        seed = reader.integer("seed")
        sizes = [reader.feature_width] + hidden + [len(reader.class_values)]
        rows = []  # in file order, which is the order of `params`
        for li, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
            rows.extend(reader.reals(f"w {li}", fan_out) for _ in range(fan_in))
            rows.append(reader.reals(f"b {li}", fan_out))
        return cls(reader.class_values, reader.feature_width, hidden, np.concatenate(rows),
                   activation, learning_rate, epochs, batch_size, seed)


def init_mlp(matrix, hidden: list[int], activation: str = "logistic",
             learning_rate: float = 0.1, epochs: int = 200,
             batch_size: int = 16, seed: int = 0) -> MlpModel:
    """Build a network with freshly initialized weights (no training)."""
    return _init_mlp(SplitMix64(seed), matrix, hidden, activation, learning_rate,
                     epochs, batch_size, seed)


def _init_mlp(rng: SplitMix64, matrix, hidden, activation, learning_rate, epochs,
              batch_size, seed) -> MlpModel:
    """init_mlp, drawing the weights from `rng`; the caller may draw on."""
    model = MlpModel(matrix.class_values, matrix.width, hidden, None, activation,
                     learning_rate, epochs, batch_size, seed)
    for W in model.weights:
        fan_in, fan_out = W.shape
        r = np.sqrt(6.0 / (fan_in + fan_out))
        lo, hi = -r, r
        # rng.uniform(lo, hi) per element, in row-major draw order
        u = rng.block(W.size).reshape(W.shape)
        W[...] = lo + (hi - lo) * ((u >> np.uint64(11)) * 2.0**-53)
    return model


def train_mlp(matrix, hidden: list[int] | None = None, activation: str = "logistic",
              learning_rate: float = 0.1, epochs: int = 200,
              batch_size: int = 16, seed: int = 0) -> MlpModel:
    if hidden is None:
        hidden = [32, 32]
    rng = SplitMix64(seed)  # the weight draws, then one shuffle per epoch
    model = _init_mlp(rng, matrix, list(hidden), activation, learning_rate,
                      epochs, batch_size, seed)
    y = matrix.y
    n = matrix.n_rows
    if n == 0:
        raise ModelError("cannot train on an empty matrix")
    grads = np.empty_like(model.params)
    grads_w, grads_b = _layers(grads, model.sizes)
    # each batch's rows are written into the input buffer, `blocks.out`;
    # one kernel per batch length reads it: full batches, and a short last one
    blocks = RowBlocks(matrix, min(batch_size, n))
    kernels = {rows: _Kernel(model.weights, model.biases, grads_w, grads_b, activation,
                             blocks.out[:rows])
               for rows in {min(batch_size, n), (n - 1) % batch_size + 1}}
    eye = np.eye(model.sizes[-1])
    for _ in range(epochs):
        order = list(range(n))
        rng.shuffle(order)
        order = np.array(order, dtype=np.intp)
        onehot = eye[y[order]]
        for start, stop in blocks(order):
            kernels[stop - start].run(onehot[start:stop])
            grads *= learning_rate
            model.params -= grads
    return model
