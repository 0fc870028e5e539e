"""Compressed sparse rows (CSR), in numpy alone.

The layout is the compressed-row format of Saad, *Iterative Methods for
Sparse Linear Systems* (2003): a matrix of n rows and `width` columns
keeps its stored cells row after row, row i's being the columns
indices[indptr[i]:indptr[i + 1]], ascending, and the values at the same
places of `data`. A stored cell is any value that is not +0.0, so a -0.0
cell is kept, and the dense rows that Csr gives back have the bits of the
dense matrix it was made from. The constructor keeps that rule itself: it
drops each +0.0 cell it is given, so a maker of a Csr need not. A reader
that counts non-zeros as np.nonzero does (-0.0 being a zero) tests
`data != 0`. from_rows makes a Csr of dense rows, a block of about
DENSE_BUDGET values at a time.

Dense values are read through three doors only, each of which gives
+0.0 for every cell that is not stored:

* dense(rows): a fresh float64 block of the given rows, in full;
* RowBlocks: the rows of an order, a block at a time, written into one
  reused buffer (see there), for the SVM trainer's run screen and single steps
  and for the MLP trainer, which visit every row in each epoch; it alone
  densifies a whole matrix, once, and only one whose dense form fits
  DENSE_BUDGET;
* at(rows, cols): single cells, for the trees, which read one per level,
  found among the stored cells' row-major keys, made at the first call
  and kept with the matrix.

A product over a dense block has the bits it had over the same rows of a
dense matrix, as the values and the shape are the same.

row_sums(X, W) is the product X @ W taken from the stored cells alone, in
a summation order that each row's own cells fix, with numpy's elementwise
loops and no BLAS: the MNB, SVM and MLP scores, so a row's scores have the
same bits in any batch and under any BLAS kernel, the SVM objective, and
the dot products of kNN's euclidean screen.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice

import numpy as np

#: values (rows x width) in one dense block of rows (512 KiB): RowBlocks
#: densifies a matrix whose dense form fits once and takes each block from
#: it, and its blocks of a larger one hold about this many values; the
#: tree split search's fold over a class's zero rows (classifiers/tree.py)
#: takes as many features at a time as fit it
DENSE_BUDGET = 1 << 16


def ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The indices of the ranges [start, end), concatenated in order."""
    lens = ends - starts
    return np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)


def row_starts(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """The indptr of cells in row-major order, from the row of each."""
    return np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_rows))])


def is_stored(values: np.ndarray) -> np.ndarray:
    """Where values are not +0.0: the cells that a Csr stores."""
    return (values != 0) | np.signbit(values)


@dataclass(eq=False)
class Csr:
    """A matrix as (indptr, indices, data) and its width; see the module
    docstring. The three arrays are read-only views of the arrays given
    (no copy is made, unless a +0.0 cell is to be dropped), so a model may
    keep them."""

    indptr: np.ndarray  # (n + 1,) intp, from 0 to nnz
    indices: np.ndarray  # (nnz,) intp, ascending within each row
    data: np.ndarray  # (nnz,) float64, none of them +0.0
    width: int

    def __post_init__(self):
        self.indptr = _frozen(self.indptr, np.intp)
        self.indices = _frozen(self.indices, np.intp)
        self.data = _frozen(self.data, np.float64)
        self.width = int(self.width)
        if (self.indptr.ndim != 1 or self.indptr.size == 0 or self.indptr[0] != 0
                or self.indptr[-1] != self.data.size
                or self.indices.shape != self.data.shape):
            raise ValueError("indptr, indices and data do not form a CSR matrix")
        stored = is_stored(self.data)
        if not stored.all():
            # a row's new end is the count of stored cells before its old one
            self.indptr = _frozen(np.cumsum(np.append(0, stored))[self.indptr], np.intp)
            self.indices = _frozen(self.indices[stored], np.intp)
            self.data = _frozen(self.data[stored], np.float64)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[float]], width: int) -> Csr:
        """The Csr of rows of `width` floats each, read a dense block of
        about DENSE_BUDGET values at a time: no more than one block is dense
        at once."""
        rows, step = iter(rows), max(1, DENSE_BUDGET // max(width, 1))
        counts, indices, data = [np.zeros(1, dtype=np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
        while chunk := list(islice(rows, step)):
            # the block's values in one pass over its rows
            block = np.fromiter(chain.from_iterable(chunk), dtype=np.float64,
                                count=len(chunk) * width).reshape(len(chunk), width)
            stored = is_stored(block)
            counts.append(np.count_nonzero(stored, axis=1))
            at, cols = np.nonzero(stored)  # row-major, as CSR holds them
            indices.append(cols)
            data.append(block[at, cols])
        return cls(np.cumsum(np.concatenate(counts)), np.concatenate(indices),
                   np.concatenate(data), width)

    @property
    def n_rows(self) -> int:
        return self.indptr.size - 1

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_rows, self.width

    def row_of(self) -> np.ndarray:
        """The row of each stored cell, shape (nnz,)."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.indptr))

    def nonzero_rows(self) -> np.ndarray:
        """Which rows hold a cell that is not zero (0.0 or -0.0), shape (n,)."""
        return np.bincount(self.row_of()[self.data != 0], minlength=self.n_rows) > 0

    def _cells(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(the positions in `data` of the stored cells of `rows`, in that
        order, and the index in `rows` of each)."""
        starts, ends = self.indptr[rows], self.indptr[rows + 1]
        return ranges(starts, ends), np.repeat(np.arange(rows.size), ends - starts)

    @cached_property
    def _keys(self) -> np.ndarray:
        """The stored cells' row-major keys row * width + index, ascending,
        then n_rows * width, past every cell: made at the first at() and
        kept, as the arrays are read-only (8 bytes a stored cell)."""
        return _frozen(np.append(self.row_of() * self.width + self.indices,
                                 self.n_rows * self.width), np.intp)

    def at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """dense()[rows, cols], each cell found by searchsorted over the
        stored cells' row-major keys, +0.0 if not there."""
        keys, want = self._keys, rows * self.width + cols
        pos = np.searchsorted(keys, want)  # < keys.size: the last key is past every cell
        found = keys[pos] == want
        out = np.zeros(want.shape)
        out[found] = self.data[pos[found]]
        return out

    def dense(self, rows=None) -> np.ndarray:
        """The dense rows (all of them if None), a fresh float64 array of
        shape (len(rows), width)."""
        rows = np.arange(self.n_rows) if rows is None else np.asarray(rows, dtype=np.intp)
        out = np.zeros((rows.size, self.width))
        pos, at = self._cells(rows)
        out.reshape(-1)[at * self.width + self.indices[pos]] = self.data[pos]
        return out


def row_sums(X: Csr, W: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """X @ W for a (width, k) array W, shape (n, k), into `out` if given,
    summed over each row's stored cells in this order: a row's k sums
    start at +0.0, and x * W[j] is added to them for each of its stored
    cells (j, x) in turn, in the row's order (ascending j), each product
    and each sum rounded once. So a row's bits depend on its own cells
    alone, not on the other rows of X, and a row with no stored cells
    gives +0.0. Only numpy's elementwise multiply and add run, no BLAS and
    no reduction, and they round as IEEE 754 says on every CPU.

    The rows go a block of about DENSE_BUDGET // k at a time, longest
    first within a block, so that the rows with a p-th cell are a prefix
    of it: step p adds those rows' p-th products. The temporaries hold
    about 2 * DENSE_BUDGET values beyond the result and W, which is copied
    if it is not C-contiguous (a copy each take would otherwise make):
    O(n * k + DENSE_BUDGET), however many cells X stores."""
    W = np.ascontiguousarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] != X.width:
        raise ValueError(f"expected a ({X.width}, k) array, not shape {W.shape}")
    n, k = X.n_rows, W.shape[1]
    out = np.empty((n, k)) if out is None else out
    lens = np.diff(X.indptr)
    step = max(1, DENSE_BUDGET // max(k, 1))
    cells = np.empty((min(step, n), k))
    for lo in range(0, n, step):
        block = lens[lo:lo + step]
        order = np.argsort(-block, kind="stable")
        starts = X.indptr[lo + order]
        sums = np.zeros((block.size, k))
        # have[p]: the block's rows with more than p cells, for p < the most
        have = block.size - np.cumsum(np.bincount(block))
        for p, m in enumerate(have[:-1].tolist()):
            pos = starts[:m] + p
            # the indices are columns of W, so "clip" clips none; unlike
            # "raise" it writes to `cells` without a buffer
            W.take(X.indices[pos], axis=0, out=cells[:m], mode="clip")
            cells[:m] *= X.data[pos, None]
            sums[:m] += cells[:m]
        out[lo + order] = sums
    return out


def _frozen(values, dtype) -> np.ndarray:
    array = np.asarray(values, dtype=dtype).view()
    array.flags.writeable = False
    return array


class RowBlocks:
    """The dense rows of a Csr in a chosen order, a block of `size` rows at a
    time, in one reused buffer `out` of shape (size, width): the rows that
    the SVM trainer's run screen and single steps read, and the MLP
    trainer's input batches. By default a block holds as many rows as fit
    DENSE_BUDGET values: at least one, and at most the matrix's rows.

    A call with an order (a sequence of row indices) yields (start, stop)
    for each run order[start:stop] of `size` rows (the last may be
    shorter), once out[:stop - start] holds those rows, dense. A matrix
    whose dense form fits DENSE_BUDGET is densified once, here, and each
    block is taken from it. Any other matrix has each block's stored cells
    scattered into `out`, and +0.0 written back to the same cells before
    the next block is written, so an order costs O(nnz), not
    O(rows x width). Each call works out its order's cells afresh, as each
    epoch's order is new."""

    def __init__(self, matrix: Csr, size: int | None = None):
        if size is None:
            size = max(1, min(matrix.n_rows, DENSE_BUDGET // max(matrix.width, 1)))
        self.out = np.zeros((size, matrix.width))
        self._matrix = matrix
        self._dense = matrix.dense() if matrix.n_rows * matrix.width <= DENSE_BUDGET else None
        self._written = np.zeros(0, dtype=np.intp)  # flat cells of `out` holding the last block

    def __call__(self, order) -> Iterator[tuple[int, int]]:
        order = np.asarray(order, dtype=np.intp)
        m, size = self._matrix, self.out.shape[0]
        if self._dense is None:
            # the cells of `out` and values the blocks write, block after block
            pos, at = m._cells(order)
            cells = (at % size) * m.width + m.indices[pos]
            values = m.data[pos]
            bounds = np.searchsorted(at, np.arange(0, order.size + size, size)).tolist()
        flat = self.out.reshape(-1)
        for block, start in enumerate(range(0, order.size, size)):
            stop = min(start + size, order.size)
            if self._dense is not None:
                # the indices are rows of the matrix, so "clip" clips none;
                # unlike "raise" it writes to `out` without a buffer
                self._dense.take(order[start:stop], axis=0, out=self.out[:stop - start],
                                 mode="clip")
            else:
                flat[self._written] = 0.0
                lo, hi = bounds[block], bounds[block + 1]
                self._written = cells[lo:hi]
                flat[self._written] = values[lo:hi]
            yield start, stop
