"""Linear SVM trained by stochastic subgradient descent (pegasos-style).

Minimizes  lambda/2 * ||w||^2 + (1/n) * sum_i max(0, 1 - y_i (w.x_i + b))
with per-step learning rate 1/(lambda * t), t counting every step across
epochs. Classes map to signs: lower class index -1, higher +1. Each epoch
visits the instances in a fresh splitmix64 shuffle of [0, n); that shuffle
is the only randomness. The bias is updated by the hinge subgradient but
not regularized.

A step on row x with sign y at step t (Shalev-Shwartz et al., Pegasos,
ICML 2007) is, with eta = 1/(lambda t):

    margin = y (x.dot(w) + b)        a BLAS ddot over the dense row
    w *= 1 - eta lambda
    if margin < 1: w += eta y x; b += eta y

Most steps do not update (on the synth corpus at seed 42, 811 of 160,000
do), yet each pays for a ddot and a scale of w. So a matrix narrower than
RUN_WIDTH columns screens a run of m steps, within one block of
rusent.sparse.RowBlocks, at once, and takes every step the screen does
not clear exactly as above, on its dense row; a wider one takes every
step that way. Every decision is the ddot decision, so the model has the
same bits either way.

* The weights before each step of the run. A (m + 1, width) buffer holds
  w, then the run's factors 1 - eta lambda, one per row, and
  np.multiply.accumulate along axis 0 makes row k the weights before the
  run's step k: the chain of once-rounded products that k calls of
  w *= c make. A step that does not update only scales w, so after k
  cleared steps w is row k, bit for bit.
* The screen. Row k of the buffer times step k's dense row, the one
  RowBlocks has written for the exact step, gives the products p_j in a
  second buffer, and np.add.reduce along its rows gives each step's
  s = sum p_j, then a = sum |p_j| once the products are made absolute in
  place; the screened margin is v = y (s + b).
* The bound (Higham, Accuracy and Stability of Numerical Algorithms,
  2002, ch. 3). Let n be the width, u = 2^-53 and D = x.w exactly. The
  ddot d sums n products in some order, with or without fused
  multiply-adds, so |d - D| <= gamma_n sum |x_j w_j|, with
  gamma_n = n u / (1 - n u); s sums the same n rounded products in
  another order (a column the row does not store gives an exact zero),
  so |s - D| obeys the same bound, and sum |x_j w_j| is a to first order.
  Adding b rounds once on each side. So the margin the step computes is
  within 2 (n + 1) u (a + |v|) of v to first order, and products that
  underflow add at most n eta, eta = 2^-1074. The screen uses
  E = 4 (n + 2) (u (a + |v|) + eta), at least twice that, which covers
  the second-order terms and the rounding of the screen's own arithmetic.
  A step is cleared when v - E >= 1: its margin is then at least 1, and
  it does not update. A NaN clears nothing.
* Non-finite values. The screen reads every column, as a ddot does, but
  the bound assumes finite operands. So once a weight, the bias or a
  step's factor is not finite (a diverging lambda), every later step is
  taken exactly.
* Run length. A run covers `run` steps, at most a block: `run` doubles
  after a run the screen clears in full, and halves after each exact step
  that updates, while one that does not adds one. Runs are screened only
  while `run` is at least MIN_RUN; below that, steps go one at a time,
  so data with frequent updates pays little for the screen.
* Memory. The weights and the products take a buffer of about
  sparse.DENSE_BUDGET values each, and no array of the epoch's stored
  cells: the dense rows come from RowBlocks, which densifies a whole
  matrix only if it fits DENSE_BUDGET.

The width rule. Each step of a run costs about 4-5 ns per buffer value
(the fill, and an accumulate whose numpy loop is not vectorized) and
about 2.5 ns more for the screen's multiply, abs and two reductions,
where a step taken alone costs a ddot and a scale of w, a fraction of a
ns a value, plus about 1.5 us of calls. Training on the synth seed-0 rows
(1600 x 31, 100 epochs, seed 42: 811 updates), with empty columns added
to reach each width so that every width takes the same steps,
in-process with one BLAS thread (2-vCPU Intel Xeon with AVX-512, median
of 5 alternating runs, in s, with a screen that summed the stored cells
alone; with the dense rows, runs still won 5 of 5 up to 128 columns and
none from 256):

    width       31     64    128    192    256    512   1024   1890
    runs     0.133  0.165  0.216  0.279  0.332  0.588  0.953  1.381
    one step 0.229  0.236  0.235  0.260  0.335  0.261  0.277  0.329

Runs won each of the 5 times up to 128 columns, and at most 2 of 5 from
192 on, so a matrix of 128 columns or more takes one step at a time
(RUN_WIDTH). With more updates runs gain less: the Zipf seed-0 rows
(800 x 1890) folded to 31, 64 and 127 columns update 18,641, 16,189 and
4764 times in 80,000 steps, and took 0.146, 0.200 and 0.197 s by runs
against 0.144, 0.211 and 0.139 s a step at a time. MIN_RUN = 32 is what
keeps such data near the one-step time: screening every run, the
31-column fold took 1.08 s against 0.20 s.

Prediction is sign(w.x + b), zero breaking to the lower class index;
scores are the (-v, v) margin pair with v = w.x + b, w.x summed over the
row's stored cells alone (rusent.sparse.row_sums).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ModelError
from ..rng import SplitMix64
from ..sparse import Csr, RowBlocks, row_sums
from .base import Model, fmt_floats, require_binary

#: a matrix narrower than this screens runs of steps; see the module docstring
RUN_WIDTH = 128
#: the shortest run that is screened
MIN_RUN = 32

_U = 2.0**-53
_ETA = 2.0**-1074


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
            if screen and not screen.epoch(step_signs, t):
                screen = None
            for start, stop in blocks(order):
                p = start
                while p < stop:
                    if screen and run >= MIN_RUN:
                        if not (math.isfinite(b) and np.isfinite(w).all()):
                            screen = None
                            continue
                        m = min(run, stop - p)
                        k = screen.clear(p, blocks.out[p - start:p - start + m], w, b)
                        t, p = t + k, p + k
                        if k == m:
                            run = min(2 * run, len(rows))
                            continue
                    # steps one at a time, at least one, until the run is long enough to screen
                    for p in range(p, stop):
                        x, sign = rows[p - start], sign_of[p]
                        t += 1
                        eta = 1.0 / (lam * t)
                        margin = sign * (x.dot(w) + b)
                        w *= 1.0 - eta * lam
                        if margin < 1.0:
                            step = eta * sign
                            w += step * x
                            b += step
                            run = max(1, run // 2)
                        else:
                            run += 1
                        if screen and run >= MIN_RUN:
                            break
                    p += 1
    model.bias = b
    return model


class _Screen:
    """The steps of an epoch that leave the margin at least 1 for certain,
    screened a run at a time on the run's dense rows, the ones the exact
    steps read; see the module docstring."""

    def __init__(self, width: int, lam: float, most: int):
        self.lam = lam
        self.before = np.empty((most + 1, width))  # the weights before each step of a run
        self.products = np.empty((most, width))  # each step's products x_j w_j
        self.slack = 4.0 * (width + 2)

    def epoch(self, signs: np.ndarray, t: int) -> bool:
        """Take the sign of each step of an epoch, t steps in; False if the
        scale factor of one of its steps is not finite."""
        lam = self.lam
        # step p scales the weights by factors[p], as the step loop does at t + p + 1
        self.factors = 1.0 - (1.0 / (lam * np.arange(t + 1, t + signs.size + 1))) * lam
        self.signs = signs
        return bool(np.isfinite(self.factors).all())

    def clear(self, p: int, rows: np.ndarray, w: np.ndarray, b: float) -> int:
        """The number k of steps from step p on, at most len(rows), that the
        screen clears, step p + i being on the dense row rows[i]: w becomes
        the weights after them, scaled k times."""
        m = len(rows)
        before = self.before[:m + 1]
        before[0] = w
        before[1:] = self.factors[p:p + m, None]
        np.multiply.accumulate(before, axis=0, out=before)
        products = np.multiply(before[:m], rows, out=self.products[:m])
        dots = np.add.reduce(products, axis=1)
        sizes = np.add.reduce(np.abs(products, out=products), axis=1)
        v = self.signs[p:p + m] * (dots + b)
        clear = v - self.slack * (_U * (sizes + np.abs(v)) + _ETA) >= 1.0
        k = m if clear.all() else int(clear.argmin())
        w[:] = before[k]
        return k
