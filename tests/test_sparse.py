import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rusent import sparse
from rusent.sparse import Csr, RowBlocks

from conftest import dense_csr

_cells = st.one_of(st.just(0.0), st.just(0.0), st.just(-0.0),
                   st.floats(allow_nan=False, allow_infinity=False, width=64))


@st.composite
def dense_matrices(draw, max_rows=12, max_width=9):
    n = draw(st.integers(0, max_rows))
    width = draw(st.integers(0, max_width))
    cells = draw(st.lists(_cells, min_size=n * width, max_size=n * width))
    return np.array(cells, dtype=np.float64).reshape(n, width)


class TestCsr:
    @given(dense_matrices())
    @settings(max_examples=200)
    def test_dense_gives_back_the_bits_of_the_matrix_it_was_made_from(self, rows):
        csr = dense_csr(rows)
        assert csr.shape == rows.shape
        assert csr.dense().tobytes() == rows.tobytes()
        # every stored cell is one that is not +0.0, in row-major order
        stored = (rows != 0) | np.signbit(rows)
        assert csr.data.tobytes() == rows[stored].tobytes()
        assert csr.indices.tolist() == np.nonzero(stored)[1].tolist()
        assert np.diff(csr.indptr).tolist() == stored.sum(axis=1).tolist()

    @given(dense_matrices(), st.data())
    @settings(max_examples=200)
    def test_dense_of_some_rows_is_those_rows(self, rows, data):
        picks = data.draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=8)
                          if len(rows) else st.just([]))
        block = dense_csr(rows).dense(picks)
        assert block.shape == (len(picks), rows.shape[1]) and block.flags.c_contiguous
        assert block.tobytes() == rows[picks].tobytes()

    @given(dense_matrices(), st.data())
    @example(np.zeros((0, 3)), None)  # no rows
    @example(np.zeros((4, 3)), None)  # nnz == 0
    @example(np.array([[0.0, -0.0, 2.0], [0.0, 0.0, 0.0], [-0.0, 0.0, -1.5]]), None)
    @settings(max_examples=200)
    def test_at_reads_the_cells_of_the_dense_matrix(self, rows, data):
        n, width = rows.shape
        cells = [(r, c) for r in range(n) for c in range(width)]  # every cell, for an example
        if data is not None and cells:
            cells = data.draw(st.lists(st.sampled_from(cells), max_size=30))
        r = np.array([i for i, _ in cells], dtype=np.intp)
        c = np.array([j for _, j in cells], dtype=np.intp)
        got = dense_csr(rows).at(r, c)
        assert got.dtype == np.float64 and got.shape == (len(cells),)
        assert got.tobytes() == rows[r, c].tobytes()

    def test_negative_zero_is_stored_and_not_a_nonzero(self):
        csr = dense_csr([[0.0, -0.0, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, -0.0]])
        assert csr.indices.tolist() == [1, 0, 2]
        assert csr.nonzero_rows().tolist() == [False, False, True]

    def test_the_arrays_are_read_only(self):
        csr = dense_csr([[1.0, 0.0]])
        for array in (csr.indptr, csr.indices, csr.data):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_blocks_of_rows_make_the_matrix_of_them_all(self, monkeypatch):
        rng = np.random.default_rng(1)
        rows = np.where(rng.random((30, 7)) < 0.3, rng.standard_normal((30, 7)), 0.0)
        rows[4, 3] = -0.0
        whole = Csr.from_rows(rows, 7)  # one block
        monkeypatch.setattr(sparse, "DENSE_BUDGET", 0)  # a block of one row
        for csr in whole, Csr.from_rows(rows.tolist(), 7):
            assert csr.dense().tobytes() == rows.tobytes()
            for name in ("indptr", "indices", "data"):
                assert getattr(csr, name).tobytes() == getattr(whole, name).tobytes()

    @given(dense_matrices(), st.data())
    @example(np.array([[0.0, 0.0], [-0.0, 1.0]]), None)  # every cell given: a row of +0.0
    @settings(max_examples=200)
    def test_the_constructor_drops_the_positive_zeros_it_is_given(self, rows, data):
        # any cells may be given, so long as those that are not +0.0 are
        n, width = rows.shape
        extra = (np.ones(rows.shape, dtype=bool) if data is None else np.array(
            data.draw(st.lists(st.booleans(), min_size=n * width, max_size=n * width)),
            dtype=bool).reshape(rows.shape))
        stored = (rows != 0) | np.signbit(rows)
        given_cells = stored | extra
        indptr = np.concatenate(([0], np.cumsum(given_cells.sum(axis=1)))).astype(np.intp)
        indices = np.nonzero(given_cells)[1].astype(np.intp)
        values = rows[given_cells]
        csr = Csr(indptr, indices, values, width)
        assert csr.dense().tobytes() == rows.tobytes()
        assert csr.data.tobytes() == rows[stored].tobytes()  # each -0.0 kept, no +0.0
        assert csr.indices.tolist() == np.nonzero(stored)[1].tolist()
        assert np.diff(csr.indptr).tolist() == stored.sum(axis=1).tolist()
        if (given_cells == stored).all():  # no +0.0 given: the caller's arrays, no copy
            for got, given_array in ((csr.indptr, indptr), (csr.indices, indices),
                                     (csr.data, values)):
                assert np.shares_memory(got, given_array) or given_array.size == 0


@pytest.mark.parametrize("budget", [8, 1 << 16])  # scattered, and densified once
@pytest.mark.parametrize("size", [1, 3, 7, 40])
def test_row_blocks_hold_each_block_of_an_order_and_nothing_else(monkeypatch, budget, size):
    monkeypatch.setattr(sparse, "DENSE_BUDGET", budget)
    rng = np.random.default_rng(size)
    rows = np.where(rng.random((23, 6)) < 0.3, rng.standard_normal((23, 6)), 0.0)
    rows[3, 2] = -0.0
    blocks = RowBlocks(dense_csr(rows), size)
    a, b, c = rng.permutation(23), np.arange(23), rng.permutation(23)[:5]
    plan = blocks.plan(a)
    # a plan walked again after other orders writes its blocks again
    for order, walk in ((a, blocks.walk(plan)), (b, blocks(b)), (c, blocks(c)),
                        (a, blocks.walk(plan))):
        seen = []
        for start, stop in walk:
            assert blocks.out[:stop - start].tobytes() == rows[order[start:stop]].tobytes()
            seen += order[start:stop].tolist()
        assert seen == order.tolist()


def test_row_blocks_default_to_the_rows_that_fit_the_budget():
    assert RowBlocks(dense_csr(np.zeros((5, 3)))).out.shape == (5, 3)
    wide = Csr(np.zeros(101, dtype=np.intp), [], [], 3 * sparse.DENSE_BUDGET)
    assert RowBlocks(wide).out.shape == (1, 3 * sparse.DENSE_BUDGET)
    tall = Csr(np.zeros(sparse.DENSE_BUDGET + 1, dtype=np.intp), [], [], 4)
    assert RowBlocks(tall).out.shape == (sparse.DENSE_BUDGET // 4, 4)
