"""Uniform model contract and plain-text persistence.

Every variant implements one scoring method, scores(X): the (n, classes)
scores of an (n, d) matrix, computed in one call. predict_indices(X), the
path evaluation uses, is the first maximum of each row of scores(X), for
every variant alike. Both take a Csr only, such as a FeatureMatrix; a
single row is a one-row matrix.
Tie-breaking is one rule everywhere: the lowest class index wins an argmax
tie, the lowest feature index wins a split-gain tie, and the lowest
training-instance index wins an equal-distance tie.

Row-alone scores. A row's scores are a function of its own cells alone,
bit for bit, in any batch, a one-row matrix among them. MNB, SVM and MLP
sum each row's products over its stored cells in one fixed order
(rusent.sparse.row_sums), with numpy's elementwise loops and no BLAS, so
their bits do not depend on the BLAS kernel either; only the MLP's scores
go through numpy's exp (and tanh), whose SIMD loops numpy picks by CPU.
No variant densifies all of X: the trees read cells through X.at, and kNN
a block of rows at a time. kNN's screen may be a sparse product, whose
bits reach no prediction.

Persistence is a versioned key-value text format:

    rusent-model v1
    variant <name>
    feature_width <d>
    class <value>          (one line per class, in order)
    <variant-specific body lines>
    end

Body lines are a key of one or more words (`alpha`, `log_likelihood 1`)
and its values, separated by single spaces; each line has a fixed place
and an exact number of values. Floats are written with repr(), the
shortest string that round-trips to the same double, so model files are
byte-stable and loading loses no precision; the writers refuse
non-finite ones, and fmt_csr writes a kNN model's rows from their stored
cells, "0.0" at every other cell: each run of zeros is one slice of a row
of "0.0" words made once per matrix. A class line has no escape, so a model
refuses to write a class value that holds a line feed or a carriage return.

save streams: it writes the file's lines one at a time, as the model
makes them, to a temporary file that replaces the target only once it is
whole, so the whole text is never held. load_model reads the file one
line at a time (a pipe, which has no size, whole) into one BodyReader.
It bounds a matrix by what is left of the file before reading its rows,
reads them straight into CSR (rusent.sparse) a block of lines at a time,
finding a block's "0.0" words with numpy from its code points and
casting only the others, and refuses any other line or value count,
trailing lines, non-finite floats, and a split feature or leaf class out
of range (a block's first bad line in file order, as if the lines were
read one by one). Every other value goes to the variant's constructor, which
checks what a model holds, trained or loaded alike: hyperparameter
ranges, parameter shapes, distinct classes. load_model reports what
either refuses as a corrupt model file (ModelError, exit 2). dumps and
loads_model do the same for a model file held as a string.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .. import sparse
from ..errors import ModelError
from ..sparse import Csr
from ..util import atomic_write_lines, read_lines, split_lines

MAGIC = "rusent-model v1"

_REGISTRY: dict[str, type] = {}


def fmt_floats(values) -> str:
    """repr() of a float or of each float of an array; ModelError if one is
    not finite."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    _check_finite(arr)
    return _words(arr)


def fmt_rows(matrix) -> Iterator[str]:
    """fmt_floats of each row of a 2-D array, made as they are read, with
    the whole array checked once."""
    matrix = np.asarray(matrix, dtype=np.float64)
    _check_finite(matrix)
    return map(_words, matrix)


def fmt_csr(matrix: Csr) -> Iterator[str]:
    """fmt_rows of the dense rows of a Csr, each made from its stored cells
    as it is read."""
    _check_finite(matrix.data)
    zeros = "0.0 " * matrix.width
    indptr = matrix.indptr.tolist()
    for lo, hi in zip(indptr, indptr[1:]):
        yield _cell_words(matrix.indices[lo:hi].tolist(), matrix.data[lo:hi].tolist(), zeros)


def _check_finite(arr: np.ndarray) -> None:
    # NaN propagates through min and max, so both are finite only where
    # every value is, and no array of flags is made
    if arr.size and not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
        raise ModelError("cannot write a non-finite model parameter (did training diverge?)")


def _words(arr: np.ndarray) -> str:
    return " ".join(map(repr, arr.tolist()))


def _cell_words(cells: list[int], values: list[float], zeros: str) -> str:
    """The words of a row of len(zeros) // 4 cells, repr(value) at each of
    `cells` (ascending) and "0.0", repr(0.0), at every other cell. `zeros`
    is "0.0 " once per cell of the row, and each run of zeros is one slice
    of it."""
    parts, at = [], 0  # at: the offset in zeros of the cell after the last stored one
    for i, word in zip(cells, map(repr, values)):
        parts.append(zeros[at:4 * i] + word)
        at = 4 * i + 4
    parts.append(zeros[at:])
    return " ".join(parts)[:-1]  # the space after the last word


@dataclass(frozen=True)
class TreeConfig:
    """Hyperparameters for a decision tree (also ensemble base learners)."""

    max_depth: int | None = None  # None = unlimited
    min_leaf: int = 1

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 0:
            raise ModelError("max_depth must be >= 0 or None")
        if self.min_leaf < 1:
            raise ModelError("min_leaf must be >= 1")

    def lines(self, prefix: str = "") -> list[str]:
        """Body lines; an unlimited depth is written as -1."""
        depth = -1 if self.max_depth is None else self.max_depth
        return [f"{prefix}max_depth {depth}", f"{prefix}min_leaf {self.min_leaf}"]


class BodyReader:
    """Cursor over the lines of a model file, read one at a time; it reads
    the header when made. `lines` are the file's lines without their line
    ends, the magic line first, as a list or as an iterator; `size` bounds
    their characters, line ends included.
    Each read names the key the next line must have and the number of
    values it must hold, and raises ValueError otherwise."""

    def __init__(self, lines, size: int):
        self._lines = iter(lines)
        self._line = next(self._lines, None)  # line `pos`, the next to read; None past the last
        self.pos = 0
        self.left = size  # at least the characters of line `pos` and of every line after it
        self._advance()  # past the magic line
        self.variant = self.rest("variant")
        self.feature_width = self.integer("feature_width")
        classes = []
        while self.at("class"):
            classes.append(self.rest("class"))
        self.class_values = tuple(classes)

    def _advance(self) -> None:
        self.left -= len(self._line) + 1
        self._line = next(self._lines, None)
        self.pos += 1

    def at(self, key: str) -> bool:
        return self._line is not None and self._line.startswith(key + " ")

    def rest(self, key: str) -> str:
        if not self.at(key):
            raise ValueError(f"line {self.pos + 1}: expected {key!r}")
        line = self._line
        self._advance()
        return line[len(key) + 1:]

    def _counted(self, key: str, count: int | None) -> str:
        """rest(key), which must hold `count` values (any number if None)."""
        rest = self.rest(key)
        found = rest.count(" ") + 1 if rest else 0  # "key " holds no values
        if count is not None and found != count:
            raise ValueError(f"line {self.pos}: {key!r} needs {count} values, not {found}")
        return rest

    def values(self, key: str, count: int | None = None) -> list[str]:
        """Exactly `count` values, or any number if count is None."""
        rest = self._counted(key, count)
        return rest.split(" ") if rest else []

    def integers(self, key: str, count=None) -> list[int]:
        return [int(w) for w in self.values(key, count)]

    def integer(self, key: str) -> int:
        return self.integers(key, 1)[0]

    def count(self, key: str) -> int:
        """The number of items whose lines follow, which cannot be negative."""
        if (value := self.integer(key)) < 0:
            raise ValueError(f"line {self.pos}: {key!r} is a count, not {value}")
        return value

    def reals(self, key: str, count: int) -> np.ndarray:
        values = np.array(self.values(key, count), dtype=np.float64)
        if not np.isfinite(values).all():
            raise ValueError(f"line {self.pos}: {key!r} holds a non-finite value")
        return values

    def real(self, key: str) -> float:
        return float(self.reals(key, 1)[0])

    def matrix(self, key: str, count: int, width: int) -> Csr:
        """`count` lines of `width` values as one CSR matrix. Each value takes
        at least two characters of its line, so what is left of the file
        bounds the matrix before a line is read, whatever the header says.
        The lines are read a block at a time: one line at least, and about
        sparse.DENSE_BUDGET // 4 characters (16 Ki), as the block's scan
        holds some 12 bytes a character. The scan joins the block's lines
        and takes their code points once: the words end at the spaces, and
        a zero word is the three points "0.0". Only the other words are
        cast, in file order; the Csr drops those that are +0.0 all the same
        ("0", "0e5"). As a block reads ahead, the error of a bad line (its
        key, its value count, a word float() refuses or a non-finite value)
        is raised once the lines before it are read, so the first bad line
        in the file is the one reported."""
        if 2 * count * width > self.left:
            raise ValueError(f"line {self.pos + 1}: expected {count} {key!r} lines"
                             f" of {width} values")
        # the cells go into typed buffers, 8 bytes each, not lists of objects
        counts, indices, data = [np.zeros(1, np.intp)], array("q"), array("d")
        while count:
            first, rests, chars, error = self.pos, [], 0, None
            while len(rests) < count and (not rests or chars < sparse.DENSE_BUDGET // 4):
                try:
                    rests.append(self._counted(key, width))
                except ValueError as exc:
                    error = exc  # raised once the lines before it are read
                    break
                chars += len(rests[-1]) + 1
            words, cells = _stored_words(rests, width)
            rows, cols = np.divmod(cells, width)
            row_counts = np.bincount(rows, minlength=len(rests))
            at = 0
            for line, n in enumerate(row_counts.tolist(), first + 1):
                values = list(map(float, words[at:at + n]))
                if not all(map(math.isfinite, values)):
                    raise ValueError(f"line {line}: {key!r} holds a non-finite value")
                data.extend(values)
                at += n
            if error is not None:
                raise error
            counts.append(row_counts)
            indices.frombytes(cols.astype(np.int64).tobytes())
            count -= len(rests)
        return Csr(np.cumsum(np.concatenate(counts)), np.frombuffer(indices, dtype=np.int64),
                   np.frombuffer(data), width)

    def tree_config(self, prefix: str = "") -> TreeConfig:
        """Inverse of TreeConfig.lines."""
        depth = self.integer(prefix + "max_depth")
        min_leaf = self.integer(prefix + "min_leaf")
        return TreeConfig(None if depth == -1 else depth, min_leaf)

    def end(self) -> None:
        if self._line != "end" or next(self._lines, None) is not None:
            raise ValueError(f"line {self.pos + 1}: expected 'end' as the last line")


def _stored_words(rests: list[str], width: int) -> tuple[list[str], np.ndarray]:
    """The words of `rests`, lines of `width` words each, that are not
    "0.0", in file order, and their places among all the words."""
    if not (width and rests):
        return [], np.zeros(0, np.intp)
    text = " ".join(rests) + " "  # a space after every word
    # code points, one array element each (lone surrogates too), so that
    # an offset into the array is an offset into the text
    points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
    ends = np.flatnonzero(points == ord(" "))  # one past each word
    # zero[i]: the 3 points before i are "0.0", and the text starts, or a
    # space is, before them
    zero = np.zeros(points.size, bool)
    zero[3:] = (points[:-3] == ord("0")) & (points[1:-2] == ord(".")) & (points[2:-1] == ord("0"))
    zero[4:] &= points[:-4] == ord(" ")
    del points  # before the words are made
    cells = np.flatnonzero(~zero[ends])
    stops = ends[cells]
    starts = np.where(cells > 0, ends[cells - 1] + 1, 0)
    words = list(map(text.__getitem__, map(slice, starts.tolist(), stops.tolist())))
    return words, cells


class Model:
    """Base class: subclasses set `variant` and implement scoring."""

    variant: str = ""

    def __init__(self, class_values, feature_width: int):
        self.class_values = tuple(class_values)
        self.feature_width = int(feature_width)
        if self.feature_width < 0:
            raise ModelError(f"feature_width must be >= 0, not {self.feature_width}")
        if not self.class_values or len(set(self.class_values)) < len(self.class_values):
            raise ModelError("the model must declare one or more distinct classes")

    @staticmethod
    def shaped(name: str, values, *shape: int) -> np.ndarray:
        """values as a C-ordered float64 array; ModelError unless of `shape`."""
        array = np.asarray(values, dtype=np.float64, order="C")
        if array.shape != shape:
            raise ModelError(f"{name} must have shape {shape}, not {array.shape}")
        return array

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.variant:
            _REGISTRY[cls.variant] = cls

    # -- prediction ------------------------------------------------------

    def check_matrix(self, X) -> Csr:
        if not isinstance(X, Csr) or X.width != self.feature_width:
            raise ModelError(f"expected a Csr of width {self.feature_width},"
                             f" got {type(X).__name__} of shape {np.shape(X)}")
        return X

    def scores(self, X) -> np.ndarray:
        """Class scores of every row of X, shape (n, classes)."""
        raise NotImplementedError

    def predict_indices(self, X) -> np.ndarray:
        """Predicted class index of every row of X, shape (n,)."""
        return _first_max(self.scores(X))

    # -- persistence -----------------------------------------------------

    def _body_lines(self) -> Iterator[str]:
        raise NotImplementedError

    def _lines(self) -> Iterator[str]:
        """The model file's lines, without their line ends, made as they are
        read; ModelError for a class value it cannot write."""
        if any("\n" in v or "\r" in v for v in self.class_values):
            # load_model reads in text mode, which also breaks lines at "\r"
            raise ModelError("cannot write a class value that holds a line break")
        header = [MAGIC, f"variant {self.variant}", f"feature_width {self.feature_width}"]
        header.extend(f"class {v}" for v in self.class_values)
        return chain(header, self._body_lines(), ["end"])

    def dumps(self) -> str:
        return "\n".join(self._lines()) + "\n"

    def save(self, path) -> None:
        atomic_write_lines(path, self._lines())


def _first_max(scores: np.ndarray) -> np.ndarray:
    """Lowest index of each row's maximum under `>`, shape (n,). Unlike
    np.argmax, which picks the first NaN, a later NaN score never displaces
    the best so far, so a model with non-finite parameters predicts as it
    always has: NaN counts as -inf, except that a NaN in the first column
    keeps index 0, as nothing compares greater than it."""
    nan = np.isnan(scores)
    best = np.argmax(np.where(nan, -np.inf, scores), axis=1)
    return np.where(nan[:, 0], 0, best)


def loads_model(text: str) -> Model:
    # split where dumps joined, at "\n" only
    return _load(split_lines(text), len(text))


class _Unreadable(ModelError):
    """A model file that cannot be read: reported as it is, not as corrupt."""


def load_model(path) -> Model:
    # a file's lines break at "\n", "\r\n" and "\r" (text mode)
    with read_lines(path, _Unreadable) as (size, lines):
        return _load(lines, size)


def _load(lines, size: int) -> Model:
    """The model in `lines`, an iterable of the file's lines without their
    line ends, which hold at most `size` characters with them."""
    lines = iter(lines)
    if next(lines, None) != MAGIC:
        raise ModelError("not a rusent model file or unknown format version")
    try:
        reader = BodyReader(chain([MAGIC], lines), size)
        cls = _REGISTRY.get(reader.variant)
        if cls is None:
            raise ModelError(f"unknown model variant {reader.variant!r}")
        model = cls._from_body(reader)
        reader.end()
    except _Unreadable:
        raise
    except (ValueError, ModelError) as exc:
        raise ModelError(f"corrupt model file: {exc}") from None
    return model


def require_binary(class_values) -> None:
    if len(class_values) != 2:
        raise ModelError(
            f"this algorithm supports binary classification only, got {len(class_values)} classes"
        )
