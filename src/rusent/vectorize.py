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

A FeatureMatrix holds its rows sparse, as CSR (rusent.sparse): a
bag-of-words row has a few dozen terms of a vocabulary of thousands, and
no whole dense matrix is made. transform counts each document's terms
straight into its row, and matrix_from_dataset hands a Dataset's rows to
Csr.from_rows, which reads them a dense block at a time. Neither drops
a +0.0 cell itself (a tf-idf weight of ln(1), a value written `0`): the
Csr does.

Vectorized ARFF goes straight between text and a FeatureMatrix, without
a Dataset of per-cell values. to_arff yields the sparse ARFF lines of a
matrix: write_arff's header for that relation, then one `{index value,...}`
row per instance that omits numeric zeros and first-declared nominal
values (write_sparse_arff in the tests writes the same text from a
Dataset). read_matrix reads a vectorized ARFF in any form through
rusent.arff's own line loop, and puts each row's cells straight into CSR.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .arff import NUMERIC, STRING, Dataset, _class_index, _quote, _read
from .corpus import StopWordList, lowercase, remove_stopwords, tokenize
from .errors import ConfigError, VectorizeError
from .sparse import Csr, is_stored, row_starts

WEIGHTINGS = ("binary", "count", "tfidf")


@dataclass(frozen=True)
class VectorSpace:
    """Frozen vocabulary plus everything needed to reproduce a transform."""

    vocabulary: tuple[str, ...]
    weighting: str
    doc_count: int
    doc_frequency: tuple[int, ...] | None
    stopwords: StopWordList
    text_attr: str
    class_attr: str
    class_values: tuple[str, ...]

    @property
    def width(self) -> int:
        return len(self.vocabulary)


@dataclass(eq=False)
class FeatureMatrix(Csr):
    """Numeric feature rows, held sparse (see rusent.sparse), with a
    parallel label list, and `y`, each label's index among
    `class_values`, derived once. The arrays are read-only and no copy of
    those given is made (but to drop +0.0 cells), so a model may keep any
    of them without copying."""

    labels: list[str]
    class_values: tuple[str, ...]
    y: np.ndarray = field(init=False, repr=False)  # (n,) intp

    def __post_init__(self):
        super().__post_init__()
        if len(self.labels) != self.n_rows:
            raise VectorizeError("labels and rows must have equal length")
        lookup = {v: i for i, v in enumerate(self.class_values)}
        try:
            self.y = np.array([lookup[l] for l in self.labels], dtype=np.intp)
        except KeyError as exc:
            raise VectorizeError(f"label {exc.args[0]!r} not among class values") from None
        self.y.flags.writeable = False

    @property
    def rows(self) -> np.ndarray:
        """The dense rows, made afresh at each access: for callers outside
        the package, which reads dense values through dense(), RowBlocks
        and at() only, and scores the matrix itself."""
        return self.dense()


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


def _processed_tokens(text: str, stops: StopWordList) -> list[str]:
    return remove_stopwords(lowercase(tokenize(text)), stops)


def fit(
    train: Dataset,
    weighting: str = "count",
    stopwords: StopWordList = StopWordList(),
    min_term_freq: int = 1,
) -> VectorSpace:
    """Freeze a VectorSpace from the training documents.

    min_term_freq prunes terms whose total occurrence count across the
    training corpus is below the threshold (default 1 = keep everything).
    A term named like the class attribute is a VectorizeError: the
    vectorized ARFF could not declare both.
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
        tokens = _processed_tokens(text, stopwords)
        for t in tokens:
            totals[t] = totals.get(t, 0) + 1
        for t in set(tokens):
            doc_freq[t] = doc_freq.get(t, 0) + 1
    vocabulary = tuple(sorted(t for t, c in totals.items() if c >= min_term_freq))
    if not vocabulary:
        raise VectorizeError("vocabulary is empty after token processing")
    class_attr = train.attributes[ci].name
    if class_attr in vocabulary:
        # the vectorized ARFF would declare two attributes of that name
        raise VectorizeError(
            f"vocabulary term {class_attr!r} has the name of the class attribute;"
            " add it to a --stopwords file"
        )
    frequencies = tuple(doc_freq[t] for t in vocabulary) if weighting == "tfidf" else None
    return VectorSpace(
        vocabulary=vocabulary,
        weighting=weighting,
        doc_count=n_docs,
        doc_frequency=frequencies,
        stopwords=stopwords,
        text_attr=train.attributes[ti].name,
        class_attr=class_attr,
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
    index = {term: i for i, term in enumerate(space.vocabulary)}
    width = space.width
    cells: list[int] = []  # row * width + term index of each in-vocabulary token
    labels = []
    for j, row in enumerate(data.instances):
        text, label = row[ti], row[ci]
        if text is None or label is None:
            raise VectorizeError("cannot vectorize instances with missing values")
        labels.append(label)
        terms = map(index.get, _processed_tokens(text, space.stopwords))
        cells += [j * width + i for i in terms if i is not None]
    # each distinct cell once, with its token count, in row-major order
    cells, counts = np.unique(np.array(cells, dtype=np.int64), return_counts=True)
    rows, indices = np.divmod(cells, width)
    values = counts.astype(np.float64)
    if space.weighting == "binary":
        values[:] = 1.0
    elif space.weighting == "tfidf":
        idf = np.log(space.doc_count / np.array(space.doc_frequency, dtype=np.float64))
        # a term in every training document weighs ln(1) = 0.0, which the
        # FeatureMatrix does not store
        values *= idf[indices]
    return FeatureMatrix(row_starts(rows, len(labels)), indices, values, width, labels,
                         space.class_values)


def to_arff(space: VectorSpace, matrix: FeatureMatrix) -> Iterator[str]:
    """Yield the lines (without "\\n") of the sparse ARFF text of a feature
    matrix, one at a time: one numeric attribute per vocabulary term, then
    the nominal class, and one `{index value,...}` row per instance.

    The text is the tests' write_sparse_arff of that relation, byte for
    byte, written straight from the matrix: a row lists its non-zero cells
    (its stored cells but -0.0, as np.nonzero counts them) with repr()
    values, then a class entry unless the label is the first class value.
    """
    classes = space.class_values
    yield "@relation vectorized"
    for term in space.vocabulary:
        yield f"@attribute {_quote(term)} numeric"
    yield f"@attribute {_quote(space.class_attr)} {{{','.join(map(_quote, classes))}}}"
    yield "@data"
    nonzero = matrix.data != 0
    cols, values = matrix.indices[nonzero], matrix.data[nonzero]
    ends = np.cumsum(np.bincount(matrix.row_of()[nonzero], minlength=matrix.n_rows)).tolist()
    start = 0
    for end, label in zip(ends, matrix.labels):
        row = [f"{j} {v!r}" for j, v in zip(cols[start:end].tolist(), values[start:end].tolist())]
        if label != classes[0]:
            row.append(f"{space.width} {_quote(label)}")
        yield "{" + ",".join(row) + "}"
        start = end


def _check_vectorized(attributes, class_index: int | None, has_missing: bool) -> None:
    """The VectorizeError of a relation that cannot be a FeatureMatrix, in
    this order: no class attribute, a feature that is not numeric, then a
    missing value (no classifier in this toolkit accepts one)."""
    if class_index is None:
        raise VectorizeError("dataset has no nominal class attribute")
    kinds = [decl.kind for decl in attributes]
    if kinds.count(NUMERIC) < len(kinds) - 1:
        name = next(decl.name for i, decl in enumerate(attributes)
                    if i != class_index and decl.kind != NUMERIC)
        raise VectorizeError(f"attribute {name!r} is not numeric; vectorize the dataset first")
    if has_missing:
        raise VectorizeError("dataset contains missing values; classifiers reject these")


def matrix_from_dataset(data: Dataset) -> FeatureMatrix:
    """Read back a vectorized (all-numeric plus class) Dataset.

    `compare` reads its already-vectorized inputs this way; read_matrix
    makes the same matrix from ARFF text without a Dataset.
    """
    ci = data.class_index
    _check_vectorized(data.attributes, ci, data.has_missing())
    width = len(data.attributes) - 1
    csr = Csr.from_rows((row[:ci] + row[ci + 1:] for row in data.instances), width)
    labels = [row[ci] for row in data.instances]
    return FeatureMatrix(csr.indptr, csr.indices, csr.data, width, labels,
                         data.attributes[ci].values)


def read_matrix(source: str | bytes) -> FeatureMatrix:
    """Read a vectorized ARFF into a FeatureMatrix: matrix_from_dataset(
    parse_arff(source)), the same matrix bits, labels and class values, or
    the same error, with each row's given cells put straight into CSR, so
    that no row is dense. A cell past the class attribute is one column to
    the left, and a row that omits the class has its first declared value.
    """
    _, attributes, rows = _read(source)
    ci = _class_index(attributes)
    try:
        _check_vectorized(attributes, ci, False)
    except VectorizeError:
        for _ in rows:  # each row's ArffError comes first
            pass
        raise
    width, classes = len(attributes) - 1, attributes[ci].values
    labels, counts, blocks = [], [], []
    first, cols, values = 0, [], []  # the cells given by rows first, first + 1, ...
    for cells in rows:
        labels.append(cells.pop(ci, classes[0]))
        counts.append(len(cells))
        cols += cells
        values += cells.values()
        if len(values) > width:  # no more than a row's width of cells in Python objects
            blocks.append(_stored_cells(first, counts, cols, values))
            first, cols, values = len(counts), [], []
    blocks.append(_stored_cells(first, counts, cols, values))
    row_of, cols, data = map(np.concatenate, zip(*blocks))
    # a given value is finite, or None, which np.array made NaN
    _check_vectorized(attributes, ci, None in labels or np.isnan(data).any())
    order = np.argsort(row_of * (width + 1) + cols)  # each row's cells in column order
    cols = cols[order]
    cols -= cols > ci
    return FeatureMatrix(row_starts(row_of, len(labels)), cols, data[order], width, labels,
                         classes)


def _stored_cells(first: int, counts: list[int], cols: list[int], values: list[float]):
    """The (row, attribute, value) arrays of the stored cells (see rusent.sparse)
    among the cells given by rows first, first + 1, ..., counts[row] by each."""
    rows = np.repeat(np.arange(first, len(counts)), counts[first:])
    cols = np.array(cols, dtype=np.intp)
    data = np.array(values, dtype=np.float64)
    # the Csr constructor drops +0.0 cells too, but only after every block
    # is held: without this filter a vectorized ARFF of dense rows holds
    # each given cell, and test_read_matrix_never_holds_half_a_dense_matrix
    # [dense rows] peaks at 49.4 MB against its 2.41 MB bound
    stored = is_stored(data)
    return rows[stored], cols[stored], data[stored]
