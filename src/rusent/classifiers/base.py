"""Uniform model contract and plain-text persistence.

Every variant implements one scoring method, scores(X): the (n, classes)
scores of an (n, d) matrix, computed in one call. predict_indices(X), the
path evaluation uses, is the first maximum of each row of scores(X) (MNB
alone overrides it, to take the argmax in log space). Both take a 2-D
matrix only; a single row is scored as a one-row matrix. Tie-breaking is
one rule everywhere: the lowest class index wins an argmax tie, the
lowest feature index wins a split-gain tie, and the lowest
training-instance index wins an equal-distance tie.

Batch scores and their bits. Where a variant takes a matrix product
(MNB, SVM, MLP), numpy and the BLAS choose the routine by the matrix's
shape, so a row's scores can differ in the last bits between batches of
different shapes, a one-row matrix among them; the same matrix always
gives the same bits.

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
ones. A class line has no escape, so dumps refuses a class value that
holds a line feed or a carriage return. loads_model reads the file
through one BodyReader, which refuses any other line or value count,
trailing lines, non-finite floats, and a split feature or leaf class out
of range. Every other value goes to the variant's constructor, which
checks what a model holds, trained or loaded alike: hyperparameter
ranges, parameter shapes, distinct classes. loads_model reports what
either refuses as a corrupt model file (ModelError, exit 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from ..util import atomic_write_text, read_text

MAGIC = "rusent-model v1"

_REGISTRY: dict[str, type] = {}


def fmt_floats(values) -> str:
    """repr() of a float or of each float of an array; ModelError if one is not finite."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if not np.isfinite(arr).all():
        raise ModelError("cannot write a non-finite model parameter (did training diverge?)")
    return " ".join(map(repr, arr.tolist()))


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
    """Cursor over the lines of a model file; it reads the header when made.
    Each read names the key the next line must have and the number of
    values it must hold, and raises ValueError otherwise."""

    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 1  # after the magic line
        self.variant = self.rest("variant")
        self.feature_width = self.integer("feature_width")
        classes = []
        while self.at("class"):
            classes.append(self.rest("class"))
        self.class_values = tuple(classes)

    def at(self, key: str) -> bool:
        return self.pos < len(self.lines) and self.lines[self.pos].startswith(key + " ")

    def rest(self, key: str) -> str:
        if not self.at(key):
            raise ValueError(f"line {self.pos + 1}: expected {key!r}")
        self.pos += 1
        return self.lines[self.pos - 1][len(key) + 1:]

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

    def matrix(self, key: str, count: int, width: int) -> np.ndarray:
        """`count` lines of `width` values as one matrix. Each value takes at
        least two characters of its line, so the lines' length bounds the
        matrix before it is made, whatever the header says."""
        if 2 * count * width > sum(map(len, self.lines[self.pos:self.pos + count])):
            raise ValueError(f"line {self.pos + 1}: expected {count} {key!r} lines"
                             f" of {width} values")
        matrix = np.empty((count, width))
        for row in matrix:  # into place: no list of row arrays to stack
            row[:] = self.reals(key, width)
        return matrix

    def tree_config(self, prefix: str = "") -> TreeConfig:
        """Inverse of TreeConfig.lines."""
        depth = self.integer(prefix + "max_depth")
        min_leaf = self.integer(prefix + "min_leaf")
        return TreeConfig(None if depth == -1 else depth, min_leaf)

    def end(self) -> None:
        if self.lines[self.pos:] != ["end"]:
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

    def check_matrix(self, X) -> np.ndarray:
        mat = np.asarray(X, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[1] != self.feature_width:
            raise ModelError(
                f"expected a matrix of width {self.feature_width}, got shape {mat.shape}"
            )
        return mat

    def scores(self, X) -> np.ndarray:
        """Class scores of every row of X, shape (n, classes)."""
        raise NotImplementedError

    def predict_indices(self, X) -> np.ndarray:
        """Predicted class index of every row of X, shape (n,)."""
        return _first_max(self.scores(X))

    # -- persistence -----------------------------------------------------

    def _body_lines(self) -> list[str]:
        raise NotImplementedError

    def dumps(self) -> str:
        if any("\n" in v or "\r" in v for v in self.class_values):
            # load_model reads in text mode, which also breaks lines at "\r"
            raise ModelError("cannot write a class value that holds a line break")
        lines = [MAGIC, f"variant {self.variant}", f"feature_width {self.feature_width}"]
        lines.extend(f"class {v}" for v in self.class_values)
        lines.extend(self._body_lines())
        lines.append("end")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        atomic_write_text(path, self.dumps())


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
    if lines[0] != MAGIC:
        raise ModelError("not a rusent model file or unknown format version")
    try:
        reader = BodyReader(lines)
        cls = _REGISTRY.get(reader.variant)
        if cls is None:
            raise ModelError(f"unknown model variant {reader.variant!r}")
        model = cls._from_body(reader)
        reader.end()
    except (ValueError, ModelError) as exc:
        raise ModelError(f"corrupt model file: {exc}") from None
    return model


def load_model(path) -> Model:
    return loads_model(read_text(path, ModelError))


def require_binary(class_values) -> None:
    if len(class_values) != 2:
        raise ModelError(
            f"this algorithm supports binary classification only, got {len(class_values)} classes"
        )
