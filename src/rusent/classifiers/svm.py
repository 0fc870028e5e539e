"""Linear SVM trained by stochastic subgradient descent (pegasos-style).

Minimizes  lambda/2 * ||w||^2 + (1/n) * sum_i max(0, 1 - y_i (w.x_i + b))
with per-step learning rate 1/(lambda * t), t counting every step across
epochs. Classes map to signs: lower class index -1, higher +1. Each epoch
visits the instances in a fresh splitmix64 shuffle of [0, n); that shuffle
is the only randomness. The bias is updated by the hinge subgradient but
not regularized.

A step on row x with sign y at step t (Shalev-Shwartz et al., Pegasos,
ICML 2007) is, with eta = 1/(lambda t):

    margin = y (x.w + b)
    w *= 1 - eta lambda
    if margin < 1: w += eta y x; b += eta y

x is the step's dense row, which rusent.sparse.RowBlocks writes. The sum
x.w is taken one of two ways, by width:

* A matrix narrower than RUN_WIDTH columns sums np.add.reduce(x * w):
  the products, each rounded once, added in numpy's pairwise order (in
  eight lanes, column j in lane j mod 8). No BLAS is called, so the
  model's bytes do not depend on the OpenBLAS kernel; the frozen svm
  hash also holds with numpy's AVX2 and AVX-512 loops off.
* A wider matrix sums x.dot(w), a BLAS ddot, in the order of the kernel
  OpenBLAS picks for the CPU. A margin only decides whether its step
  updates, and the bytes have held under every kernel tried, but a margin
  within a few ulps of 1 could take the other branch on another CPU.

Most steps do not update (on the synth corpus at seed 42, 811 of 160,000
do), yet each pays for a sum and a scale of w. So a narrow matrix screens
a run of m steps, within one block of RowBlocks, in a few numpy calls,
finds the first that updates, and takes that one alone as above; a wide
one takes every step alone. The screen does the steps' own float
operations, so the model has the same bits either way.

* The weights before each step of the run. A (m + 1, width) buffer holds
  w, then the run's factors 1 - eta lambda, one per row, and
  np.multiply.accumulate along axis 0 makes row k the weights before the
  run's step k: the chain of once-rounded products that k calls of
  w *= c make. A step that does not update only scales w, so after k
  such steps w is row k, bit for bit.
* The margins. Row k of the buffer times step k's dense row gives the
  products x * w of that step in a second buffer, and np.add.reduce along
  its rows sums each row as the step's own np.add.reduce sums its 1-D
  products (numpy reduces each row of a C-contiguous array as it does a
  1-D one; the tests check the bits). So v = y (s + b) is the step's
  margin, bit for bit, and the screen clears step k exactly when not
  v < 1, that is when the step does not update.
* Non-finite values. As the screen does the steps' float operations, a
  weight, bias or factor that is inf or NaN (a diverging lambda) flows
  through both alike: 0 x inf is NaN, and a NaN margin, not being below
  1, does not update. The non-finite weights are reported when the model
  is saved.
* Run length. A run covers `run` steps, at most a block: `run` doubles
  after a run the screen clears in full, and halves after each step taken
  alone that updates, while one that does not adds one. Runs are screened
  only while `run` is at least MIN_RUN; below that, steps go one at a
  time, so data with frequent updates pays little for the screen.
* Memory. The weights and the products take a buffer of about
  sparse.DENSE_BUDGET values each, and no array of the epoch's stored
  cells: the dense rows come from RowBlocks, which densifies a whole
  matrix only if it fits DENSE_BUDGET.

The width rule. Each step of a run costs about 4-5 ns per buffer value
(the fill, and an accumulate whose numpy loop is not vectorized) and
1-2 ns more for the screen's multiply and reduction, where a step taken
alone costs about 1.5 us of calls, and np.add.reduce(x * w) about 1 us
more than x.dot(w). Training on the synth seed-0 rows (1600 x 31, 100
epochs, seed 42: 811 updates), with empty columns added to reach each
width so that every width takes the same steps, in-process, pinned, with
one BLAS thread (2-vCPU Intel Xeon with AVX-512, best of 3 per run,
median of 5 alternating runs, in s), by runs and one step at a time
summed either way:

    width       31     64    128    192    256    512   1024   1890
    runs     0.109  0.176  0.254  0.332  0.399  0.803  1.430  2.116
    ddot     0.270  0.280  0.324  0.304  0.318  0.315  0.384  0.451
    reduce   0.423  0.445  0.516  0.494  0.501  0.576  0.707  0.929

Runs beat one ddot step at a time each of the 5 times up to 128 columns,
and never from 192 on, so a matrix of 128 columns or more takes one
step at a time (RUN_WIDTH), by ddot, the cheaper sum there. With more
updates runs gain less: the Zipf seed-0 rows (800 x 1890) folded to 31,
64 and 127 columns update 18,641, 16,189 and 4764 times in 80,000 steps,
and took 0.257, 0.276 and 0.287 s by runs against 0.255, 0.265 and
0.286 s a step at a time (0.177, 0.173 and 0.186 s by ddot). MIN_RUN = 32
is what keeps such data near the one-step time: screening every run,
the 31-column fold took 0.511 s.

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

#: a matrix narrower than this sums its margins as np.add.reduce(x * w) and
#: screens runs of steps; a wider one sums x.dot(w). See the module docstring
RUN_WIDTH = 128
#: the shortest run that is screened
MIN_RUN = 32


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
    # views are made once; x.dot(w) is the same ddot as x @ w, with less
    # call overhead per step
    blocks = RowBlocks(matrix)
    rows = list(blocks.out)
    signs = np.where(matrix.y == 1, 1.0, -1.0)
    # a narrow matrix sums each margin as the screen does; see the module docstring
    screen = _Screen(matrix.width, lam, len(rows)) if matrix.width < RUN_WIDTH else None
    w, b = model.weights, 0.0
    rng = SplitMix64(seed)
    t, run = 0, 1
    # a diverging run (a tiny lambda) overflows silently: its non-finite
    # weights are reported when the model is saved
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = list(range(n))
            rng.shuffle(order)
            step_signs = signs[order]  # the sign of each step of the epoch
            sign_of = step_signs.tolist()
            if screen:
                screen.epoch(step_signs, t)
            for start, stop in blocks(order):
                p = start
                while p < stop:
                    if screen and run >= MIN_RUN:
                        m = min(run, stop - p)
                        k = screen.clear(p, blocks.out[p - start:p - start + m], w, b)
                        t, p = t + k, p + k
                        if k == m:
                            run = min(2 * run, len(rows))
                            continue
                    # one step: one the screen found to update, or one not screened
                    x, sign = rows[p - start], sign_of[p]
                    t += 1
                    eta = 1.0 / (lam * t)
                    margin = sign * ((np.add.reduce(x * w) if screen else x.dot(w)) + b)
                    w *= 1.0 - eta * lam
                    if margin < 1.0:
                        step = eta * sign
                        w += step * x
                        b += step
                        run = max(1, run // 2)
                    else:
                        run += 1
                    p += 1
    model.bias = b
    return model


class _Screen:
    """The steps of an epoch that do not update, found a run at a time on
    the run's dense rows, the ones the single steps read, with the single
    steps' own float operations; see the module docstring."""

    def __init__(self, width: int, lam: float, most: int):
        self.lam = lam
        self.before = np.empty((most + 1, width))  # the weights before each step of a run
        self.products = np.empty((most, width))  # each step's products x_j w_j

    def epoch(self, signs: np.ndarray, t: int) -> None:
        """Take the sign of each step of an epoch, t steps in."""
        lam = self.lam
        # step p scales the weights by factors[p], as the step loop does at t + p + 1
        self.factors = 1.0 - (1.0 / (lam * np.arange(t + 1, t + signs.size + 1))) * lam
        self.signs = signs

    def clear(self, p: int, rows: np.ndarray, w: np.ndarray, b: float) -> int:
        """The number k of steps from step p on, at most len(rows), that do
        not update, step p + i being on the dense row rows[i]: w becomes
        the weights after them, scaled k times."""
        m = len(rows)
        before = self.before[:m + 1]
        before[0] = w
        before[1:] = self.factors[p:p + m, None]
        np.multiply.accumulate(before, axis=0, out=before)
        products = np.multiply(before[:m], rows, out=self.products[:m])
        v = self.signs[p:p + m] * (np.add.reduce(products, axis=1) + b)
        updates = v < 1.0
        k = int(updates.argmax()) if updates.any() else m
        w[:] = before[k]
        return k
