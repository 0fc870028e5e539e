"""Bag-of-words vectorization over a vocabulary frozen from training data.

The vocabulary is every distinct processed token (tokenize, lowercase,
stop-word filter) in the training documents, ordered lexicographically so
fitting is deterministic and independent of document order. Transforming
any later dataset uses that frozen vocabulary; out-of-vocabulary tokens
carry zero weight.

Weighting modes: binary (presence), count (raw term frequency), tfidf
(count * ln(doc_count / doc_frequency), natural log, no smoothing --
every vocabulary term occurs in at least one training document so the
ratio is always >= 1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .arff import NOMINAL, NUMERIC, STRING, AttributeDecl, Dataset
from .corpus import StopWordList, TokenizerConfig, lowercase, remove_stopwords, tokenize
from .errors import ConfigError, VectorizeError

WEIGHTINGS = ("binary", "count", "tfidf")


@dataclass(frozen=True)
class VectorSpace:
    """Frozen vocabulary plus everything needed to reproduce a transform."""

    vocabulary: tuple[str, ...]
    weighting: str
    doc_count: int
    doc_frequency: tuple[int, ...] | None
    tokenizer: TokenizerConfig
    stopwords: StopWordList
    text_attr: str
    class_attr: str
    class_values: tuple[str, ...]
    _index: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.vocabulary)})

    @property
    def width(self) -> int:
        return len(self.vocabulary)


@dataclass
class FeatureMatrix:
    """Dense numeric feature rows with a parallel label list."""

    rows: np.ndarray  # (n, width) float64
    labels: list[str]
    class_values: tuple[str, ...]

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise VectorizeError("feature rows must form a 2-D matrix")
        if len(self.labels) != self.rows.shape[0]:
            raise VectorizeError("labels and rows must have equal length")

    @property
    def width(self) -> int:
        return self.rows.shape[1]

    def label_indices(self) -> np.ndarray:
        lookup = {v: i for i, v in enumerate(self.class_values)}
        try:
            return np.array([lookup[l] for l in self.labels], dtype=np.intp)
        except KeyError as exc:
            raise VectorizeError(f"label {exc.args[0]!r} not among class values") from None


def _schema(data: Dataset) -> tuple[int, int]:
    """Locate the single string attribute and the nominal class attribute."""
    string_idx = [i for i, a in enumerate(data.attributes) if a.kind == STRING]
    if len(string_idx) != 1:
        raise VectorizeError(
            f"expected exactly one string attribute, found {len(string_idx)}"
        )
    if data.class_index is None:
        raise VectorizeError("dataset has no nominal class attribute")
    return string_idx[0], data.class_index


def _processed_tokens(text: str, tokenizer: TokenizerConfig, stops: StopWordList) -> list[str]:
    return remove_stopwords(lowercase(tokenize(text, tokenizer)), stops)


def fit(
    train: Dataset,
    weighting: str = "count",
    tokenizer: TokenizerConfig = TokenizerConfig(),
    stopwords: StopWordList = StopWordList(),
    min_term_freq: int = 1,
) -> VectorSpace:
    """Freeze a VectorSpace from the training documents.

    min_term_freq prunes terms whose total occurrence count across the
    training corpus is below the threshold (default 1 = keep everything).
    """
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"weighting must be one of {WEIGHTINGS}")
    if min_term_freq < 1:
        raise ConfigError("min_term_freq must be >= 1")
    ti, ci = _schema(train)
    totals: dict[str, int] = {}
    doc_freq: dict[str, int] = {}
    n_docs = 0
    for row in train.instances:
        text = row[ti]
        if text is None:
            raise VectorizeError("training data contains a missing text value")
        n_docs += 1
        tokens = _processed_tokens(text, tokenizer, stopwords)
        for t in tokens:
            totals[t] = totals.get(t, 0) + 1
        for t in set(tokens):
            doc_freq[t] = doc_freq.get(t, 0) + 1
    vocabulary = tuple(sorted(t for t, c in totals.items() if c >= min_term_freq))
    if not vocabulary:
        raise VectorizeError("vocabulary is empty after token processing")
    frequencies = tuple(doc_freq[t] for t in vocabulary) if weighting == "tfidf" else None
    return VectorSpace(
        vocabulary=vocabulary,
        weighting=weighting,
        doc_count=n_docs,
        doc_frequency=frequencies,
        tokenizer=tokenizer,
        stopwords=stopwords,
        text_attr=train.attributes[ti].name,
        class_attr=train.attributes[ci].name,
        class_values=train.attributes[ci].values,
    )


def transform(space: VectorSpace, data: Dataset) -> FeatureMatrix:
    """Vectorize `data` under a previously fitted space."""
    ti, ci = _schema(data)
    if data.attributes[ti].name != space.text_attr or (
        data.attributes[ci].name != space.class_attr
        or data.attributes[ci].values != space.class_values
    ):
        raise VectorizeError("dataset schema does not match the fitted space")
    rows = np.zeros((len(data.instances), space.width), dtype=np.float64)
    labels = []
    for j, row in enumerate(data.instances):
        text, label = row[ti], row[ci]
        if text is None or label is None:
            raise VectorizeError("cannot vectorize instances with missing values")
        labels.append(label)
        for token in _processed_tokens(text, space.tokenizer, space.stopwords):
            i = space._index.get(token)
            if i is not None:
                rows[j, i] += 1.0
    if space.weighting == "binary":
        rows = (rows > 0).astype(np.float64)
    elif space.weighting == "tfidf":
        idf = np.log(space.doc_count / np.array(space.doc_frequency, dtype=np.float64))
        rows = rows * idf
    return FeatureMatrix(rows, labels, space.class_values)


def to_arff(space: VectorSpace, matrix: FeatureMatrix) -> Dataset:
    """Render a feature matrix as a numeric Dataset (one attribute per
    vocabulary term plus the nominal class, in that order)."""
    attributes = tuple(
        AttributeDecl(term, NUMERIC) for term in space.vocabulary
    ) + (AttributeDecl(space.class_attr, NOMINAL, space.class_values),)
    instances = tuple(
        tuple(float(v) for v in row) + (label,)
        for row, label in zip(matrix.rows, matrix.labels)
    )
    return Dataset("vectorized", attributes, instances, len(space.vocabulary))


def matrix_from_dataset(data: Dataset) -> FeatureMatrix:
    """Read back a vectorized (all-numeric plus class) Dataset.

    This is how the training and evaluation commands consume ARFF files.
    Missing values are rejected here: no classifier in this toolkit
    accepts them.
    """
    if data.class_index is None:
        raise VectorizeError("dataset has no nominal class attribute")
    ci = data.class_index
    feature_idx = [i for i, a in enumerate(data.attributes) if i != ci]
    for i in feature_idx:
        if data.attributes[i].kind != NUMERIC:
            raise VectorizeError(
                f"attribute {data.attributes[i].name!r} is not numeric;"
                " vectorize the dataset first"
            )
    if data.has_missing():
        raise VectorizeError("dataset contains missing values; classifiers reject these")
    n, width = len(data.instances), len(feature_idx)
    # one pass over the cells, without an intermediate list of rows
    rows = np.fromiter(
        itertools.chain.from_iterable(row[:ci] + row[ci + 1:] for row in data.instances),
        dtype=np.float64, count=n * width,
    ).reshape(n, width)
    labels = [row[ci] for row in data.instances]
    return FeatureMatrix(rows, labels, data.attributes[ci].values)
