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
Dataset). read_matrix reads such text back: a strict subset (a
numeric header with the nominal class last, its plain numeric attribute
lines matched by regex and the rest parsed by parse_arff, then quote- and
whitespace-free `{index value,...}` rows with ascending indices and finite
values) is read with a few array operations, straight into CSR; any other
input, and any input that fails a check, goes through parse_arff and
matrix_from_dataset, so results and errors are always theirs.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .arff import NUMERIC, STRING, AttributeDecl, Dataset, _quote, parse_arff
from .corpus import StopWordList, lowercase, remove_stopwords, tokenize
from .errors import ArffError, ConfigError, VectorizeError
from .sparse import Csr, row_starts

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


def matrix_from_dataset(data: Dataset) -> FeatureMatrix:
    """Read back a vectorized (all-numeric plus class) Dataset.

    `compare` reads its already-vectorized inputs this way, and read_matrix
    falls back to it for any text outside its fast subset. Missing values
    are rejected here: no classifier in this toolkit accepts them.
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
    width = len(feature_idx)
    csr = Csr.from_rows((row[:ci] + row[ci + 1:] for row in data.instances), width)
    labels = [row[ci] for row in data.instances]
    return FeatureMatrix(csr.indptr, csr.indices, csr.data, width, labels,
                         data.attributes[ci].values)


# The data section read_matrix takes without building a Dataset: rows of
# `{index value,...}`, each ended by "\n", with no quote, brace, comma or
# whitespace inside an index or a value.
_SPARSE_ROWS = re.compile(r"(?:\{(?:[0-9]+ [^\s,'{}]+(?:,[0-9]+ [^\s,'{}]+)*)?\}\n)*")
_DATA_LINE = "\n@data\n"
# The run of `@attribute <name> numeric` lines that to_arff writes after the
# relation line, read without parse_arff: a name with no whitespace and no
# quote is a field that _parse_attribute reads back unchanged.
_PLAIN_NUMERICS = re.compile(r"(?:@attribute [^\s']+ numeric\n)*")
_PLAIN_NUMERIC_NAME = re.compile(r"@attribute ([^\s']+) numeric\n")


def read_matrix(source: str | bytes) -> FeatureMatrix:
    """Read a vectorized ARFF into a FeatureMatrix.

    The result is matrix_from_dataset(parse_arff(source)): the same matrix
    bits, labels and class values, or the same error. Text in the form
    to_arff writes is read straight into the matrix; everything else
    takes that full path (see _read_sparse).
    """
    matrix = _read_sparse(source)
    if matrix is None:
        matrix = matrix_from_dataset(parse_arff(source))
    return matrix


def _read_sparse(source: str | bytes) -> FeatureMatrix | None:
    """The matrix of a strict subset of vectorized ARFF, or None for any
    other input and on any failed check.

    The subset: UTF-8 whose header, up to a line that is exactly `@data`,
    parse_arff accepts with numeric attributes and then one nominal class
    attribute (the run of plain numeric attribute lines right after a
    first line `@relation ...` is read by regex and parse_arff reads the
    rest, so the names of both parts are checked for duplicates here);
    after it only `{i v,...}` rows, each ended by "\\n", with no quotes, no
    whitespace and no blank or comment lines; indices ascending within a
    row and at most the class index, so that the class entry, if any,
    comes last; class values declared and not `?`; every other value
    finite under float(), the conversion _convert applies to the same
    text. parse_arff gives such rows the same values.
    """
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError:
            return None
    at = source.find(_DATA_LINE)
    if at < 0:
        return None
    at += len(_DATA_LINE)
    start = end = 0
    if source.startswith("@relation "):
        start = source.find("\n") + 1
        end = _PLAIN_NUMERICS.match(source, start, at).end()
    try:
        header = parse_arff(source[:start] + source[end:at])
    except ArffError:
        return None
    attributes = [AttributeDecl(name, NUMERIC)
                  for name in _PLAIN_NUMERIC_NAME.findall(source, start, end)]
    attributes += header.attributes
    width = len(attributes) - 1
    # no instances: the `@data` line found is the declaration, not a row
    if header.instances or header.class_index != len(header.attributes) - 1 or any(
        a.kind != NUMERIC for a in header.attributes[:-1]
    ) or len({a.name for a in attributes}) != len(attributes):
        return None
    body = source[at:]
    if not _SPARSE_ROWS.fullmatch(body):
        return None
    lines = body.split("\n")[:-1]
    counts = [line.count(",") + 1 if len(line) > 2 else 0 for line in lines]
    cells = ",".join([line[1:-1] for line in lines if len(line) > 2])
    tokens = cells.replace(",", " ").split(" ") if cells else []
    texts = tokens[1::2]
    try:
        index = np.fromiter(map(int, tokens[0::2]), dtype=np.int64, count=len(texts))
    except (ValueError, OverflowError):
        return None
    row_of = np.repeat(np.arange(len(lines)), counts)
    if (index > width).any() or (np.diff(index)[row_of[1:] == row_of[:-1]] <= 0).any():
        return None
    is_class = index == width
    classes = attributes[width].values
    labels = [classes[0]] * len(lines)
    for k in np.flatnonzero(is_class).tolist():
        if texts[k] == "?" or texts[k] not in classes:
            return None
        labels[row_of[k]] = texts[k]
    numeric = ~is_class
    try:
        values = np.fromiter(
            map(float, itertools.compress(texts, numeric.tolist())),
            dtype=np.float64, count=int(numeric.sum()),
        )
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    # a value read as +0.0 is dropped by the FeatureMatrix
    return FeatureMatrix(row_starts(row_of[numeric], len(lines)), index[numeric], values, width,
                         labels, classes)
