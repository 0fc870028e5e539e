"""Uniform model contract and plain-text persistence.

Every trained model exposes predict / predict_scores over fixed-width
feature vectors, and predict_indices over a whole (n, d) matrix: the one
batch path that evaluation uses. Tie-breaking is one rule everywhere: the
lowest class index wins an argmax tie, the lowest feature index wins a
split-gain tie, and the lowest training-instance index wins an
equal-distance tie. predict_indices() is, per row, the lowest index of
the maximum of predict_scores() unless a variant overrides it with an
equivalent batch computation, and predict() is predict_indices() on a
one-row matrix.

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
ones. loads_model reads the file through one BodyReader and raises
ModelError (exit 2) on any other line or value count, trailing lines,
repeated classes, non-finite floats, and values that training would
refuse or prediction could not use, such as a split feature at or past
feature_width or a leaf class at or past the class count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelError

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
        if not classes or len(set(classes)) < len(classes):
            raise ValueError("the model must declare one or more distinct classes")
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

    def integers(self, key: str, count=None, lo=0, hi=None) -> list[int]:
        """Ints in [lo, hi]; None leaves that side unbounded."""
        values = [int(w) for w in self.values(key, count)]
        if any((lo is not None and v < lo) or (hi is not None and v > hi) for v in values):
            raise ValueError(f"line {self.pos}: {key!r} must lie in [{lo}, {hi}]")
        return values

    def integer(self, key: str, lo=0, hi=None) -> int:
        return self.integers(key, 1, lo, hi)[0]

    def reals(self, key: str, count: int) -> np.ndarray:
        values = np.array(self.values(key, count), dtype=np.float64)
        if not np.isfinite(values).all():
            raise ValueError(f"line {self.pos}: {key!r} holds a non-finite value")
        return values

    def real(self, key: str, positive: bool = False) -> float:
        value = float(self.reals(key, 1)[0])
        if positive and value <= 0.0:
            raise ValueError(f"line {self.pos}: {key!r} must be positive")
        return value

    def tree_config(self, prefix: str = "") -> TreeConfig:
        """Inverse of TreeConfig.lines."""
        depth = self.integer(prefix + "max_depth", lo=None)  # TreeConfig checks both
        min_leaf = self.integer(prefix + "min_leaf", lo=None)
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

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.variant:
            _REGISTRY[cls.variant] = cls

    # -- prediction ------------------------------------------------------

    def check_vector(self, x) -> np.ndarray:
        vec = np.asarray(x, dtype=np.float64)
        if vec.ndim != 1 or vec.shape[0] != self.feature_width:
            raise ModelError(
                f"expected a vector of width {self.feature_width}, got shape {vec.shape}"
            )
        return vec

    def check_matrix(self, X) -> np.ndarray:
        mat = np.asarray(X, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[1] != self.feature_width:
            raise ModelError(
                f"expected a matrix of width {self.feature_width}, got shape {mat.shape}"
            )
        return mat

    def predict_scores(self, x) -> list[float]:
        raise NotImplementedError

    def predict_indices(self, X) -> np.ndarray:
        """Predicted class index of every row of X, shape (n,)."""
        return np.array(
            [_first_max(self.predict_scores(x)) for x in self.check_matrix(X)],
            dtype=np.intp,
        )

    def predict(self, x) -> str:
        return self.class_values[self.predict_indices(self.check_vector(x)[None])[0]]

    # -- persistence -----------------------------------------------------

    def _body_lines(self) -> list[str]:
        raise NotImplementedError

    def dumps(self) -> str:
        lines = [MAGIC, f"variant {self.variant}", f"feature_width {self.feature_width}"]
        lines.extend(f"class {v}" for v in self.class_values)
        lines.extend(self._body_lines())
        lines.append("end")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        from ..util import atomic_write_text

        atomic_write_text(path, self.dumps())


def _first_max(scores) -> int:
    """Lowest index of the maximum under `>`. Unlike np.argmax, which
    picks the first NaN, a later NaN score never displaces the best so far,
    so a model with non-finite parameters predicts as it always has."""
    best = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best]:
            best = i
    return best


def loads_model(text: str) -> Model:
    # split where dumps joined, at "\n" only: str.splitlines would also
    # break inside a class value at U+2028, U+0085 or \x1c-\x1e
    lines = text.removesuffix("\n").split("\n")
    if lines[0] != MAGIC:
        raise ModelError("not a rusent model file or unknown format version")
    try:
        reader = BodyReader(lines)
        cls = _REGISTRY.get(reader.variant)
        if cls is None:
            raise ModelError(f"unknown model variant {reader.variant!r}")
        model = cls._from_body(reader)
        reader.end()
    except ValueError as exc:
        raise ModelError(f"corrupt model file: {exc}") from None
    return model


def load_model(path) -> Model:
    try:
        with open(path, encoding="utf-8") as fh:
            return loads_model(fh.read())
    except OSError as exc:
        raise ModelError(f"cannot read model file: {exc}") from None


def require_binary(class_values) -> None:
    if len(class_values) != 2:
        raise ModelError(
            f"this algorithm supports binary classification only, got {len(class_values)} classes"
        )
