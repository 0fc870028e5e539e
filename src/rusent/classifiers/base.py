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

Learned floats are written with repr(), i.e. the shortest string that
round-trips to the exact same double, so model files are byte-stable and
loading loses no precision. Unknown versions are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelError

MAGIC = "rusent-model v1"

_REGISTRY: dict[str, type] = {}


def fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def parse_floats(text: str) -> np.ndarray:
    return np.array([float(t) for t in text.split()], dtype=np.float64)


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
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC:
        raise ModelError("not a rusent model file or unknown format version")
    try:
        if not lines[1].startswith("variant "):
            raise ModelError("missing variant line")
        variant = lines[1].split(" ", 1)[1]
        if not lines[2].startswith("feature_width "):
            raise ModelError("missing feature_width line")
        feature_width = int(lines[2].split(" ", 1)[1])
    except IndexError:
        raise ModelError("truncated model header") from None
    class_values = []
    i = 3
    while i < len(lines) and lines[i].startswith("class "):
        class_values.append(lines[i].split(" ", 1)[1])
        i += 1
    if not class_values:
        raise ModelError("model declares no classes")
    if not lines or lines[-1] != "end":
        raise ModelError("model file missing 'end' terminator")
    body = lines[i:-1]
    cls = _REGISTRY.get(variant)
    if cls is None:
        raise ModelError(f"unknown model variant {variant!r}")
    try:
        return cls._from_body(body, tuple(class_values), feature_width)
    except (ValueError, IndexError) as exc:
        raise ModelError(f"corrupt {variant} model body: {exc}") from None


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
