import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rusent import sparse
from rusent.classifiers import svm, train_svm
from rusent.classifiers.svm import MIN_RUN, RUN_WIDTH, LinearSvmModel, _Screen, svm_objective
from rusent.errors import ModelError
from rusent.rng import SplitMix64
from rusent.sparse import RowBlocks

from conftest import dense_csr, make_matrix, predicted


def blob_matrix(n_per_class=20, seed=0, gap=4.0):
    """Two well-separated gaussian-ish blobs in 2-D."""
    rng = SplitMix64(seed)
    rows, labels = [], []
    for _ in range(n_per_class):
        rows.append([rng.uniform(-1, 1) - gap / 2, rng.uniform(-1, 1)])
        labels.append("neg")
    for _ in range(n_per_class):
        rows.append([rng.uniform(-1, 1) + gap / 2, rng.uniform(-1, 1)])
        labels.append("pos")
    return make_matrix(rows, labels, ("neg", "pos"))


class TestTraining:
    def test_separable_blobs_reach_full_training_accuracy(self):
        m = blob_matrix()
        model = train_svm(m, lam=1e-3, epochs=100, seed=0)
        assert predicted(model, m) == m.labels

    def test_margin_signs(self):
        m = blob_matrix()
        model = train_svm(m)
        assert model.scores(dense_csr([[-3.0, 0.0]]))[0, 1] < 0
        assert model.scores(dense_csr([[3.0, 0.0]]))[0, 1] > 0
        lo, hi = model.scores(dense_csr([[3.0, 0.0]]))[0]
        assert lo == -hi

    def test_objective_decreases_with_more_epochs(self):
        m = blob_matrix(seed=5)
        signs = np.where(m.y == 1, 1.0, -1.0)
        short = train_svm(m, lam=1e-2, epochs=2, seed=1)
        long = train_svm(m, lam=1e-2, epochs=200, seed=1)
        f = lambda mod: svm_objective(mod.weights, mod.bias, m, signs, 1e-2)
        assert f(long) < f(short)

    def test_deterministic_for_seed(self):
        m = blob_matrix(seed=3)
        assert train_svm(m, seed=7).dumps() == train_svm(m, seed=7).dumps()
        assert train_svm(m, seed=7).dumps() != train_svm(m, seed=8).dumps()

    def test_tiny_symmetric_set_separated(self):
        rows = [[-2.0, 0.0], [-2.1, 0.3], [2.0, 0.0], [2.1, 0.3]]
        m = make_matrix(rows, ["neg", "neg", "pos", "pos"], ("neg", "pos"))
        model = train_svm(m, lam=0.05, epochs=200, seed=0)
        assert predicted(model, rows) == ["neg", "neg", "pos", "pos"]
        assert model.weights[0] > 0.0


class TestObjective:
    def test_zero_model_objective_is_one(self):
        m = blob_matrix()
        signs = np.where(m.y == 1, 1.0, -1.0)
        assert svm_objective(np.zeros(2), 0.0, m, signs, 1e-3) == pytest.approx(1.0)

    def test_hand_value(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        signs = np.array([1.0, -1.0])
        w = np.array([0.5, 0.0])
        # lam/2 * 0.25 + mean(max(0, 1-0.5), max(0, 1-0.5)) = 0.125 + 0.5
        assert svm_objective(w, 0.0, dense_csr(X), signs, 1.0) == pytest.approx(0.625, abs=1e-12)

    def test_final_objective_near_grid_search_optimum(self):
        m = blob_matrix(seed=9)
        signs = np.where(m.y == 1, 1.0, -1.0)
        lam = 0.05
        model = train_svm(m, lam=lam, epochs=1000, seed=0)
        got = svm_objective(model.weights, model.bias, m, signs, lam)
        # brute-force grid over (w0, w1, b)
        best = np.inf
        for w0 in np.linspace(-2, 2, 41):
            for w1 in np.linspace(-2, 2, 41):
                for b in np.linspace(-2, 2, 21):
                    best = min(best, svm_objective(np.array([w0, w1]), b, m, signs, lam))
        assert got <= best * 1.05 + 1e-9


class TestValidation:
    def test_multiclass_rejected(self):
        m = make_matrix([[0.0], [1.0], [2.0]], ["a", "b", "c"], ("a", "b", "c"))
        with pytest.raises(ModelError):
            train_svm(m)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ModelError):
            train_svm(blob_matrix(), lam=0.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ModelError, match="lambda"):
            train_svm(blob_matrix(), lam=lam)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ModelError):
            train_svm(blob_matrix(), epochs=0)


def oracle_svm(matrix, lam=1e-3, epochs=100, seed=0):
    """train_svm taking every step one at a time, on every matrix: the loop
    that trained every matrix before narrow ones screened runs, with the
    margin's sum chosen by width, np.add.reduce(x * w) below RUN_WIDTH
    columns and the ddot x.dot(w) from it."""
    model = LinearSvmModel(matrix.class_values, matrix.width, np.zeros(matrix.width), 0.0,
                           lam, epochs, seed)
    n = matrix.n_rows
    blocks = RowBlocks(matrix)
    rows = list(blocks.out)
    signs = np.where(matrix.y == 1, 1.0, -1.0).tolist()
    narrow = matrix.width < RUN_WIDTH
    w, b = model.weights, 0.0
    rng = SplitMix64(seed)
    t = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = list(range(n))
            rng.shuffle(order)
            for start, stop in blocks(order):
                for x, i in zip(rows, order[start:stop]):
                    sign = signs[i]
                    t += 1
                    eta = 1.0 / (lam * t)
                    margin = sign * ((np.add.reduce(x * w) if narrow else x.dot(w)) + b)
                    w *= 1.0 - eta * lam
                    if margin < 1.0:
                        step = eta * sign
                        w += step * x
                        b += step
    model.bias = b
    return model


def outcome(model):
    """A trained model's weight and bias bits, and its text or the error
    that saving it raises (non-finite weights)."""
    try:
        text = model.dumps()
    except ModelError as exc:
        text = str(exc)
    return model.weights.tobytes(), struct.pack("<d", model.bias), text


# mixed signs, -0.0, subnormals, and values large enough to overflow the weights
CELLS = st.one_of(
    st.sampled_from([-0.0, 1.0, -1.0, 0.5, 3.0, 5e-324, -2.0**-1030, 1e150, -1e150]),
    st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def svm_matrices(draw):
    """A two-class matrix of up to 40 rows, narrower or wider than
    RUN_WIDTH, each row storing up to 8 cells."""
    width = draw(st.sampled_from([0, 1, 2, 7, 31, RUN_WIDTH - 1, RUN_WIDTH, 300]))
    n = draw(st.integers(1, 40))
    rows = np.zeros((n, width))
    for row in rows:
        if width:
            for col in draw(st.lists(st.integers(0, width - 1), max_size=8, unique=True)):
                row[col] = draw(CELLS)
    labels = draw(st.lists(st.sampled_from(["neg", "pos"]), min_size=n, max_size=n))
    return make_matrix(rows, labels)


class TestScreenedRuns:
    """A matrix narrower than RUN_WIDTH screens runs of steps on their
    dense rows and takes the steps that update one at a time; every model
    has the bits of the one-step loop (oracle_svm)."""

    @settings(max_examples=400)
    @given(matrix=svm_matrices(),
           lam=st.sampled_from([1e-3, 0.1, 1.0, 7.5, 1e-300, 5e-324]),
           epochs=st.integers(1, 6), seed=st.integers(0, 2**32),
           min_run=st.sampled_from([1, 2, 5, MIN_RUN]),
           budget=st.sampled_from([16, 256, sparse.DENSE_BUDGET]))
    def test_training_has_the_bits_of_the_step_loop(self, matrix, lam, epochs, seed, min_run,
                                                   budget):
        # a small DENSE_BUDGET makes short blocks, so runs end at a block's
        # end; a small MIN_RUN screens runs of a few steps
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sparse, "DENSE_BUDGET", budget)
            patch.setattr(svm, "MIN_RUN", min_run)
            got = outcome(train_svm(matrix, lam, epochs, seed))
            assert got == outcome(oracle_svm(matrix, lam, epochs, seed))

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_the_screen_clears_most_steps_of_separable_rows(self, monkeypatch, seed):
        m = make_matrix(np.hstack([blob_matrix(n_per_class=200, seed=seed).dense(),
                                   np.zeros((400, 29))]), ["neg"] * 200 + ["pos"] * 200)
        cleared = []
        clear = _Screen.clear

        def counted(self, p, m, w, b):
            cleared.append(clear(self, p, m, w, b))
            return cleared[-1]

        monkeypatch.setattr(_Screen, "clear", counted)
        model = train_svm(m, epochs=50, seed=seed)
        assert outcome(model) == outcome(oracle_svm(m, epochs=50, seed=seed))
        assert sum(cleared) > 0.6 * 400 * 50

    def test_a_wide_matrix_screens_nothing(self, monkeypatch):
        m = make_matrix(np.hstack([blob_matrix().dense(), np.zeros((40, RUN_WIDTH - 2))]),
                        ["neg"] * 20 + ["pos"] * 20)
        monkeypatch.setattr(svm, "MIN_RUN", 1)
        monkeypatch.setattr(_Screen, "__init__", None)
        assert outcome(train_svm(m, epochs=5)) == outcome(oracle_svm(m, epochs=5))

    def test_each_epoch_gathers_the_stored_cells_once(self, monkeypatch):
        # a narrow matrix too large to densify has each epoch's stored cells
        # gathered by RowBlocks alone; the screen reads the rows it writes
        n_rows, width = 4 * sparse.DENSE_BUDGET // (RUN_WIDTH - 1), RUN_WIDTH - 1
        cols = np.arange(n_rows) * 7 % width
        rows = np.zeros((n_rows, width))
        rows[np.arange(n_rows), cols] = 1.0 + np.arange(n_rows) % 3
        m = make_matrix(rows, ["pos" if col < width // 2 else "neg" for col in cols])
        assert m.n_rows * m.width > sparse.DENSE_BUDGET
        calls = []
        cells = sparse.Csr._cells

        def counted(self, order):
            calls.append(order.size)
            return cells(self, order)

        monkeypatch.setattr(sparse.Csr, "_cells", counted)
        cleared = []
        clear = _Screen.clear

        def screened_steps(self, p, rows, w, b):
            cleared.append(clear(self, p, rows, w, b))
            return cleared[-1]

        monkeypatch.setattr(_Screen, "clear", screened_steps)
        train_svm(m, epochs=3, seed=0)
        assert calls == [n_rows] * 3
        assert sum(cleared) > 0  # the screen ran

    def test_a_diverging_lambda_takes_every_later_step_exactly(self, monkeypatch):
        # rows of 1e306 overflow the weights; the screen does the step
        # loop's own float operations, so it runs on the non-finite weights
        # too (where 0 x inf is NaN, a margin that does not update) and
        # clears what the steps would
        m = make_matrix(np.hstack([blob_matrix(seed=4).dense() * 1e306, np.zeros((40, 29))]),
                        ["neg"] * 20 + ["pos"] * 20)
        calls = []
        clear = _Screen.clear

        def checked(self, p, k, w, b):
            calls.append(np.isfinite(w).all() and np.isfinite(b))
            return clear(self, p, k, w, b)

        monkeypatch.setattr(_Screen, "clear", checked)
        monkeypatch.setattr(svm, "MIN_RUN", 1)
        model = train_svm(m, epochs=5, seed=3)
        assert outcome(model) == outcome(oracle_svm(m, epochs=5, seed=3))
        assert not np.isfinite(model.weights).all()
        assert not all(calls)

    @settings(max_examples=200)
    @given(data=st.data(), width=st.integers(0, RUN_WIDTH - 1), m=st.integers(1, 12),
           spare=st.integers(0, 3), lam=st.sampled_from([1e-3, 1.0, 7.5, 5e-324]),
           t=st.integers(0, 50))
    def test_the_screens_sums_are_the_one_step_margins(self, data, width, m, spare, lam, t):
        # a run's weights and products, in the screen's own buffers, and
        # their row sums have the bits that m steps of the one-step loop make
        rows = data.draw(arrays(np.float64, (m, width), elements=CELLS))
        w = data.draw(arrays(np.float64, width, elements=CELLS))
        screen = _Screen(width, lam, m + spare)
        weights = w.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            screen.epoch(np.ones(m), t)
            # an infinite bias clears every step (or makes a NaN margin)
            assert screen.clear(0, rows, weights, np.inf) == m
            sums = np.add.reduce(screen.products[:m], axis=1)
            for k, x in enumerate(rows):
                assert bits(screen.before[k]) == bits(w)
                assert bits(screen.products[k]) == bits(x * w)
                assert bits(sums[k]) == bits(np.add.reduce(x * w))
                eta = 1.0 / (lam * (t + k + 1))
                w *= 1.0 - eta * lam
        assert bits(weights) == bits(w)


def bits(values):
    """The bytes of an array or a float, every NaN read as one value."""
    values = np.array(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values).tobytes()


def screened(rows, weights, bias, signs, steps_before=3, lam=1.0):
    """What _Screen.clear makes of a run of steps on the dense rows `rows`,
    with signs `signs`, steps_before steps into training: the steps it
    clears and the weights after them."""
    rows = np.array(rows, dtype=float)
    screen = _Screen(rows.shape[1], lam, len(rows))
    screen.epoch(np.array(signs, dtype=float), steps_before)
    w = np.array(weights, dtype=float)
    with np.errstate(invalid="ignore"):
        return screen.clear(0, rows, w, bias), w


def hand_built(width):
    """A two-row matrix whose step 2 (lambda 1, one epoch) has the products
    2^54, -1, -2^54 and 0.5 in columns 0, 8, 32 and 33. After step 1 w is
    the first row and b is 1."""
    first, second = np.zeros(width), np.zeros(width)
    first[[0, 8, 32, 33]] = [2.0**27, 1.0, 2.0**27, 1.0]
    second[[0, 8, 32, 33]] = [2.0**27, -1.0, -2.0**27, 0.5]
    order = [0, 1]
    SplitMix64(0).shuffle(order)
    rows = np.zeros((2, width))
    rows[order] = [first, second]
    return make_matrix(rows, ["pos", "pos"]), first


class TestBorderline:
    """The screen clears a step exactly when its margin, summed as the one
    step sums a narrow matrix's, is not below 1: exactly the steps that do
    not update."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_margin_just_below_one_is_not_cleared(self, sign):
        # the products 0.5 and 0.5 - 2^-52 sum to 1 - 2^-52 exactly
        k, w = screened([[1.0, 1.0]], [sign * 0.5, sign * (0.5 - 2.0**-52)], 0.0, [sign])
        assert k == 0
        assert w.tolist() == [sign * 0.5, sign * (0.5 - 2.0**-52)]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_margin_of_one_is_cleared(self, sign):
        # the step's t is 4, so w is scaled by 1 - (1 / 4) = 0.75
        k, w = screened([[1.0, 1.0]], [sign * 0.5, sign * 0.25], sign * 0.25, [sign])
        assert k == 1
        assert w.tolist() == [sign * 0.375, sign * 0.1875]

    def test_a_nan_margin_is_cleared(self):
        # 0 x inf is NaN, and a NaN margin does not update
        k, w = screened([[0.0, 1.0]], [np.inf, 1.0], 0.0, [1.0])
        assert k == 1
        assert w.tolist() == [np.inf, 0.75]
        assert screened([[1.0, 1.0]], [1.0, 1.0], float("nan"), [1.0])[0] == 1

    def test_a_margin_below_one_is_never_cleared(self):
        assert screened([[1.0, 1.0]], [1e6, -1e6], 1.0 - 1e-8, [1.0])[0] == 0
        assert screened([[2.0, 0.0]], [0.25, 0.0], 0.25, [1.0])[0] == 0
        assert screened([[1.0, 0.0]], [2.0, 0.0], -1.0, [-1.0])[0] == 0

    def test_w_is_scaled_once_per_cleared_step(self):
        # steps 0 and 1 have margins 10.1 and 7.575 and step 2 one of
        # -2.22: w is scaled by 0.75, then by 0.8, one rounding each (the
        # product of the two factors first would round w to other bits)
        k, w = screened([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [10.1, -3.7], 0.0, [1.0] * 3)
        assert k == 2
        assert w.tolist() == [10.1 * 0.75 * 0.8, -3.7 * 0.75 * 0.8]
        assert w.tolist() != [10.1 * (0.75 * 0.8), -3.7 * (0.75 * 0.8)]

    def test_a_narrow_step_is_decided_by_the_screens_sum(self, monkeypatch):
        # at 64 columns the -1 product in column 8 shares a lane with
        # columns 0 and 32 in numpy's pairwise sum (eight lanes, column j
        # in lane j mod 8), so 2^54 - 1 rounds to 2^54: the sum is 0.5, a
        # margin of 1.5, and the step does not update. (OpenBLAS's x86
        # ddot sums it to -0.5, a margin of 0.5.) Screened (MIN_RUN 1) or
        # taken alone (MIN_RUN past the two-row block), step 2 only scales
        # w by 1 - 1/2
        m, first = hand_built(64)
        for min_run in (1, MIN_RUN):
            monkeypatch.setattr(svm, "MIN_RUN", min_run)
            model = train_svm(m, lam=1.0, epochs=1)
            assert model.weights.tolist() == (first * 0.5).tolist()
            assert model.bias == 1.0
            assert outcome(model) == outcome(oracle_svm(m, lam=1.0, epochs=1))

    def test_a_step_the_screen_cannot_clear_is_decided_by_the_ddot(self, monkeypatch):
        # a matrix of RUN_WIDTH columns or more is not screened: the same
        # cells as above are summed by the ddot, as the oracle sums them
        monkeypatch.setattr(svm, "MIN_RUN", 1)
        for width in (RUN_WIDTH, 192):
            m, _ = hand_built(width)
            got = outcome(train_svm(m, lam=1.0, epochs=1))
            assert got == outcome(oracle_svm(m, lam=1.0, epochs=1))
