"""Uniform model contract and plain-text persistence.

Every variant implements one scoring method, scores(X): the (n, classes)
scores of an (n, d) matrix, computed in one call. predict_indices(X), the
path evaluation uses, is the first maximum of each row of scores(X) (MNB
alone overrides it, to take the argmax in log space). Both take a Csr
only, such as a FeatureMatrix; a single row is a one-row matrix.
Tie-breaking is one rule everywhere: the lowest class index wins an argmax
tie, the lowest feature index wins a split-gain tie, and the lowest
training-instance index wins an equal-distance tie.

Batch scores and their bits. Where a variant takes a matrix product
(MNB, SVM, MLP), numpy and the BLAS choose the routine by the matrix's
shape, so a row's scores can differ in the last bits between batches of
different shapes, a one-row matrix among them; the same matrix always
gives the same bits. These three take their product over X.dense(), at
the shape the scores have always had; no other variant densifies all of
X: the trees read cells through X.at, and kNN a block of rows at a time.
kNN's screen may be a sparse product, whose bits reach no prediction.

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
byte-stable and loading loses no precision; fmt_floats refuses non-finite
ones, and writes a zero as "0.0" without a repr, as most cells of a kNN
model's rows are zeros. A class line has no escape, so a model refuses
to write a class value that holds a line feed or a carriage return.

save streams: it writes the file's lines one at a time, as the model
makes them, to a temporary file that replaces the target only once it is
whole, so the whole text is never held. load_model reads the file one
line at a time (a pipe, which has no size, whole) into one BodyReader.
It bounds a matrix by what is left of the file before reading its rows,
reads them straight into CSR (rusent.sparse), casting only the cells
that are not "0.0", and refuses any other line or value
count, trailing lines, non-finite floats, and a split feature or leaf
class out of range. Every other value goes to the variant's constructor, which
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

from ..errors import ModelError
from ..sparse import Csr, is_stored
from ..util import atomic_write_lines, read_lines

MAGIC = "rusent-model v1"

_REGISTRY: dict[str, type] = {}


def fmt_floats(values) -> str:
    """repr() of a float or of each float of an array; ModelError if one is
    not finite. Where most of them are zeros, each 0.0 is written as "0.0"
    and only the others go through repr(); -0.0 is one of the others."""
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
    indptr = matrix.indptr.tolist()
    for lo, hi in zip(indptr, indptr[1:]):
        yield _cell_words(matrix.indices[lo:hi].tolist(), matrix.data[lo:hi].tolist(),
                          matrix.width)


def _check_finite(arr: np.ndarray) -> None:
    # NaN propagates through min and max, so both are finite only where
    # every value is, and no array of flags is made
    if arr.size and not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
        raise ModelError("cannot write a non-finite model parameter (did training diverge?)")


def _words(arr: np.ndarray) -> str:
    if 2 * np.count_nonzero(arr) >= arr.size:
        return " ".join(map(repr, arr.tolist()))
    cells = np.flatnonzero(is_stored(arr))
    return _cell_words(cells.tolist(), arr[cells].tolist(), arr.size)


def _cell_words(cells: list[int], values: list[float], size: int) -> str:
    """The words of a row of `size` cells, repr(value) at each of `cells`
    and "0.0", repr(0.0), at every other cell."""
    words = ["0.0"] * size
    for i, value in zip(cells, values):
        words[i] = repr(value)
    return " ".join(words)


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
    their characters, line ends included, and is worked out for a list.
    Each read names the key the next line must have and the number of
    values it must hold, and raises ValueError otherwise."""

    def __init__(self, lines, size: int | None = None):
        if size is None:
            size = sum(map(len, lines)) + len(lines)
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

    def values(self, key: str, count: int | None = None) -> list[str]:
        """Exactly `count` values, or any number if count is None."""
        rest = self.rest(key)
        words = rest.split(" ") if rest else []  # "key " holds no values
        if count is not None and len(words) != count:
            raise ValueError(f"line {self.pos}: {key!r} needs {count} values, not {len(words)}")
        return words

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
        Only the words that are not "0.0" are cast; the Csr drops those that
        are +0.0 all the same ("0", "0e5")."""
        if 2 * count * width > self.left:
            raise ValueError(f"line {self.pos + 1}: expected {count} {key!r} lines"
                             f" of {width} values")
        # the cells go into typed buffers, 8 bytes each, not lists of objects
        counts, indices, data = [0], array("q"), array("d")
        for _ in range(count):
            words = self.values(key, width)
            cells = [i for i, word in enumerate(words) if word != "0.0"]
            values = [float(words[i]) for i in cells]
            if not all(map(math.isfinite, values)):
                raise ValueError(f"line {self.pos}: {key!r} holds a non-finite value")
            counts.append(len(cells))
            indices.extend(cells)
            data.extend(values)
        return Csr(np.cumsum(counts), np.frombuffer(indices, dtype=np.int64),
                   np.frombuffer(data), width)

    def tree_config(self, prefix: str = "") -> TreeConfig:
        """Inverse of TreeConfig.lines."""
        depth = self.integer(prefix + "max_depth")
        min_leaf = self.integer(prefix + "min_leaf")
        return TreeConfig(None if depth == -1 else depth, min_leaf)

    def end(self) -> None:
        if self._line != "end" or next(self._lines, None) is not None:
            raise ValueError(f"line {self.pos + 1}: expected 'end' as the last line")


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
    # split where dumps joined, at "\n" only: str.splitlines would also
    # break inside a class value at U+2028, U+0085 or \x1c-\x1e
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()  # the "" after it, dropped with no copy of the text
    return _load(lines, len(text))


class _Unreadable(ModelError):
    """A model file that cannot be read: reported as it is, not as corrupt."""


def load_model(path) -> Model:
    # a file's lines break at "\n", "\r\n" and "\r" (text mode), but not
    # at the other line breaks of str.splitlines
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
