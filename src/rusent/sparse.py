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
  reused buffer (see there), for the trainers that visit every row in
  each epoch;
* at(rows, cols): single cells, for the trees, which read one per level.

A product over a dense block has the bits it had over the same rows of a
dense matrix, as the values and the shape are the same.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

#: values (rows x width) in one dense block of rows: a matrix whose dense
#: form fits is densified once and each block taken from it, and the
#: trainers' blocks of a wider matrix hold about this many values (512 KiB)
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

    def fits_dense(self) -> bool:
        """Whether the dense form holds at most DENSE_BUDGET values."""
        return self.n_rows * self.width <= DENSE_BUDGET

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

    def at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """dense()[rows, cols], each cell found by searchsorted over the
        stored cells' row-major keys row * width + index, +0.0 if not there."""
        keys = np.append(self.row_of() * self.width + self.indices, self.n_rows * self.width)
        want = rows * self.width + cols
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


def _frozen(values, dtype) -> np.ndarray:
    array = np.asarray(values, dtype=dtype).view()
    array.flags.writeable = False
    return array


class RowBlocks:
    """The dense rows of a Csr in a chosen order, a block of `size` rows at a
    time, in one reused buffer `out` of shape (size, width). By default a
    block holds as many rows as fit DENSE_BUDGET values: at least one, and
    at most the matrix's rows.

    A call with an order (a sequence of row indices) yields (start, stop)
    for each run order[start:stop] of `size` rows (the last may be
    shorter), once out[:stop - start] holds those rows, dense. A matrix
    whose dense form fits DENSE_BUDGET is densified once, here, and each
    block is taken from it. Any other matrix has each block's stored cells
    scattered into `out`, and +0.0 written back to the same cells before
    the next block is written, so an order costs O(nnz), not
    O(rows x width). plan(order) is the work a call does before it writes
    a block, and walk(plan) writes the blocks, so an order read more than
    once is planned once."""

    def __init__(self, matrix: Csr, size: int | None = None):
        if size is None:
            size = max(1, min(matrix.n_rows, DENSE_BUDGET // max(matrix.width, 1)))
        self.out = np.zeros((size, matrix.width))
        self._matrix = matrix
        self._dense = matrix.dense() if matrix.fits_dense() else None
        self._written = np.zeros(0, dtype=np.intp)  # flat cells of `out` holding the last block

    def __call__(self, order) -> Iterator[tuple[int, int]]:
        return self.walk(self.plan(order))

    def plan(self, order) -> tuple:
        """(the order; the flat cells of `out` and the values that its
        blocks write, one block after another, and where each block's run
        of them starts, or three Nones for a densified matrix)."""
        order = np.asarray(order, dtype=np.intp)
        if self._dense is not None:
            return order, None, None, None
        m, size = self._matrix, self.out.shape[0]
        pos, at = m._cells(order)
        cells = (at % size) * m.width + m.indices[pos]
        bounds = np.searchsorted(at, np.arange(0, order.size + size, size)).tolist()
        return order, cells, m.data[pos], bounds

    def walk(self, plan) -> Iterator[tuple[int, int]]:
        order, cells, values, bounds = plan
        size = self.out.shape[0]
        flat = self.out.reshape(-1)
        for block, start in enumerate(range(0, order.size, size)):
            stop = min(start + size, order.size)
            if cells is None:
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
