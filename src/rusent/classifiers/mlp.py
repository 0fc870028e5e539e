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
a few hundred values, so the time per call sets the speed. A `_Kernel`,
built once per batch shape, lays the step out as a plan: a list of
(numpy function, arguments) with every operand bound in advance (the
input, activation, delta and gradient buffers, the weight and bias views
into `params`, their `.T` views and the outputs, all positional). Each
batch of an epoch has its plan, bound to its rows of the epoch's one-hot
targets, and a step replays it with no Python per layer. Products are
`np.dot(a, b, out)`, which has matmul's bits at these shapes and less
call overhead (the kernel takes its products as a parameter: see
"Scoring" below). The hidden activations share one buffer, so one pair
of calls after the forward pass gives every hidden layer's derivative,
each element by the same float operations as layer by layer. The gradients
are written into a second buffer laid out as `params`, and the plan ends
with the update `grads *= learning_rate; params -= grads`, still
p - lr * g per element. `gradients` replays the same kernel's ops. Each
batch's rows are written into the input buffer (rusent.sparse.RowBlocks)
rather than the whole matrix shuffled.

Scoring: `scores` replays the kernel's forward ops over the Csr itself,
with every layer's product summed row by row by rusent.sparse.row_sums:
the input layer over each row's stored cells, and each later layer over
the Csr of its dense activations (+0.0, then a[:, i] * W[i] added for
each cell i that is not +0.0, i ascending). Every other op is elementwise
or a reduction along each row, so a row's scores have the same bits in
any batch and under any BLAS kernel. No dense test matrix is made.
`loss` is the mean cross-entropy of `scores`, so it reads the training
Csr as it is held.

A diverging network's overflow is silent: training and the replayed
passes run with numpy's overflow and invalid-value warnings off, and a
logistic exp(-z) that overflows to inf gives exactly 0.0, as it should.
A parameter left non-finite is reported when the model is saved.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from ..rng import SplitMix64
from ..sparse import Csr, RowBlocks, row_sums
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


def _views(buf: np.ndarray, rows: int, widths) -> list[np.ndarray]:
    """Consecutive (rows, k) views into a flat buffer, one per width k."""
    bounds = np.cumsum([0, *widths]) * rows
    return [buf[lo:hi].reshape(rows, k) for lo, hi, k in zip(bounds, bounds[1:], widths)]


def _csr(a) -> Csr:
    """a, if a Csr, or else the Csr of a dense 2-D array's cells, which
    drops the +0.0 ones. A fold that starts at +0.0 never sums to -0.0, so
    adding +0.0 * w (a zero, for a finite w) would leave it as it is; for
    an infinite w the cell adds nothing, where the dense fold added NaN (a
    model holds such a weight only in memory: save and load refuse it)."""
    if isinstance(a, Csr):
        return a
    rows, width = a.shape
    return Csr(np.arange(rows + 1) * width, np.tile(np.arange(width), rows), a.ravel(), width)


def _row_alone(a, W: np.ndarray, z: np.ndarray) -> None:
    """a @ W into z by row_sums: each row from its own cells, in one order."""
    row_sums(_csr(a), W, z)


def _cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of softmax rows `probs` against the classes y."""
    picked = probs[np.arange(len(y)), y]
    return float(-np.log(np.maximum(picked, 1e-300)).mean())


def _replay(ops) -> None:
    """Run ops of a kernel, with a diverging network's overflow silent."""
    with np.errstate(over="ignore", invalid="ignore"):
        for f, args in ops:
            f(*args)


class _Kernel:
    """The forward and backward passes over batches of inputs.shape[0]
    rows, as ops (numpy function, positional arguments) bound to buffers
    allocated here and to the model's weight and bias views: `forward`
    fills acts[1:] from the rows in acts[0] (`inputs`), the last being the
    softmax output, and step(targets) adds the backward pass, which writes
    into `grads` (laid out as `params`) the gradients of the mean
    cross-entropy against the one-hot rows in `targets`. `product(a, W, z)`
    writes the forward pass's a @ W into z: np.dot over dense inputs in
    training and `gradients`, or _row_alone in scoring, whose inputs are a
    Csr and which has no backward pass.

    Each op does the float operation of the textbook expression:
    act(a @ W + b) with logistic 1 / (1 + exp(-z)) or tanh(z), and softmax
    exp(z - max) / sum, its max and sum taken along each row; then
    delta = (probs - onehot) / rows at the output and, layer by layer
    down, dW = a.T @ delta, db = delta summed over the rows and the next
    delta = (delta @ W.T) * a * (1 - a) for logistic, * (1 - a * a) for
    tanh, where a is the layer's activation."""

    def __init__(self, model, inputs, grads: np.ndarray | None = None, product=np.dot):
        rows = inputs.shape[0]
        hidden = model.sizes[1:-1]
        logistic = model.activation == "logistic"
        # the hidden activations in one buffer, a (rows, k) view per layer
        flat = np.empty(rows * sum(hidden))
        self.acts = [inputs, *_views(flat, rows, hidden), np.empty((rows, model.sizes[-1]))]
        probs = self.acts[-1]
        col = np.empty(rows)  # the ufunc reductions write a 1-d column
        ops = []
        for a, z, W, b in zip(self.acts, self.acts[1:], model.weights, model.biases):
            ops += [(product, (a, W, z)), (np.add, (z, b, z))]
            if z is probs:
                ops += [(np.maximum.reduce, (z, 1, None, col)),
                        (np.subtract, (z, col[:, None], z)),
                        (np.exp, (z, z)),
                        (np.add.reduce, (z, 1, None, col)),
                        (np.divide, (z, col[:, None], z))]
            elif logistic:
                ops += [(np.negative, (z, z)), (np.exp, (z, z)), (np.add, (z, 1.0, z)),
                        (np.divide, (1.0, z, z))]
            else:
                ops.append((np.tanh, (z, z)))
        self.forward = ops
        if grads is None:
            return
        self.delta = np.empty_like(probs)
        # every hidden layer's derivative in one pass, through the activation
        # value a: a * (1 - a) or 1 - a * a
        d = np.empty_like(flat)
        if logistic:
            ops = [(np.subtract, (1.0, flat, d)), (np.multiply, (d, flat, d))]
        else:
            ops = [(np.multiply, (flat, flat, d)), (np.subtract, (1.0, d, d))]
        ops.append((np.divide, (self.delta, rows, self.delta)))
        grads_w, grads_b = _layers(grads, model.sizes)
        deltas = [np.empty((rows, k)) for k in hidden] + [self.delta]
        derivs = [None, *_views(d, rows, hidden)]  # derivs[li] is acts[li]'s
        for li in range(len(model.weights) - 1, -1, -1):
            a, delta = self.acts[li], deltas[li]
            ops += [(np.dot, (a.T, delta, grads_w[li])),
                    (np.add.reduce, (delta, 0, None, grads_b[li]))]
            if li > 0:
                back = deltas[li - 1]
                ops += [(np.dot, (delta, model.weights[li].T, back)),
                        (np.multiply, (back, derivs[li], back))]
        self.backward = ops

    def step(self, targets: np.ndarray) -> list:
        """The ops of a training step on the rows in acts[0], whose one-hot
        targets are `targets`, short of the update. probs - onehot is probs
        less 1.0 at each row's target, and probs itself elsewhere
        (x - 0.0 == x)."""
        return [*self.forward, (np.subtract, (self.acts[-1], targets, self.delta)),
                *self.backward]


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

    # -- loss / gradients --------------------------------------------------

    def loss(self, X, y: np.ndarray) -> float:
        """Mean cross-entropy of scores(X) against the classes y; X is a
        Csr, or a dense array read as the Csr of its cells."""
        return _cross_entropy(self.scores(_csr(X)), y)

    def gradients(self, X: np.ndarray, y: np.ndarray):
        """Mean cross-entropy gradients, as (loss, dW list, db list), from
        the ops that training steps run."""
        grads = np.empty_like(self.params)
        kernel = _Kernel(self, np.ascontiguousarray(X, dtype=np.float64), grads)
        _replay(kernel.step(np.eye(self.sizes[-1])[y]))
        return (_cross_entropy(kernel.acts[-1], y), *_layers(grads, self.sizes))

    # -- prediction --------------------------------------------------------

    def scores(self, X) -> np.ndarray:
        kernel = _Kernel(self, self.check_matrix(X), product=_row_alone)
        _replay(kernel.forward)
        return kernel.acts[-1]

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
    update = [(np.multiply, (grads, learning_rate, grads)),
              (np.subtract, (model.params, grads, model.params))]
    # each batch's rows are written into the input buffer, `blocks.out`;
    # one kernel per batch length reads it: full batches, and a short last
    # one. Each epoch's one-hot targets go into `targets` in the epoch's
    # order, and each batch's plan is bound to its rows of it.
    size = min(batch_size, n)
    blocks = RowBlocks(matrix, size)
    kernels = {rows: _Kernel(model, blocks.out[:rows], grads)
               for rows in {size, (n - 1) % batch_size + 1}}
    targets = np.empty((n, model.sizes[-1]))
    plans = {start: [*kernels[min(size, n - start)].step(targets[start:start + size]), *update]
             for start in range(0, n, size)}
    eye = np.eye(model.sizes[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = list(range(n))
            rng.shuffle(order)
            order = np.array(order, dtype=np.intp)
            np.take(eye, y[order], 0, targets)
            for start, _ in blocks(order):
                for f, args in plans[start]:
                    f(*args)
    return model
