import numpy as np
import pytest
from hypothesis import settings

from rusent.arff import NOMINAL, NUMERIC, Dataset, _format_value, parse_arff, write_arff
from rusent.sparse import Csr
from rusent.vectorize import FeatureMatrix, matrix_from_dataset, to_arff

# Every run draws the same examples: a property either holds on them or
# fails the same way each time. No example database, so a failure found
# once is not replayed into later runs, and no deadline, so a slow
# machine cannot fail a test that a fast one passes.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def zipf_corpus(n_docs, seed):
    """A two-class raw-text ARFF of n_docs reviews of 10-30 words, each a
    class word (a pool of 200 per class) or a shared word (a pool of 2300),
    picked by Zipf rank."""
    rng = np.random.default_rng(seed)

    def pick(prefix, pool, size):
        weights = 1.0 / np.arange(1, pool + 1)
        return [f"{prefix}{i}" for i in rng.choice(pool, size=size, p=weights / weights.sum())]

    lines = ["@relation zipf", "@attribute text string", "@attribute class {neg,pos}", "@data"]
    for d in range(n_docs):
        label = ("neg", "pos")[d % 2]
        size = int(rng.integers(10, 31))
        own = rng.random(size) < 0.35
        words = pick(label, 200, int(own.sum())) + pick("w", 2300, size - int(own.sum()))
        lines.append(f"'{' '.join(words)}',{label}")
    return "\n".join(lines) + "\n"


def dense_csr(rows):
    """The Csr of a 2-D array of rows."""
    rows = np.asarray(rows, dtype=float)
    return Csr.from_rows(rows, rows.shape[1])


def make_matrix(rows, labels, class_values=("neg", "pos")):
    """The FeatureMatrix of a 2-D array of rows."""
    csr = dense_csr(rows)
    return FeatureMatrix(csr.indptr, csr.indices, csr.data, csr.width, list(labels),
                         tuple(class_values))


def arff_text(space, matrix):
    """to_arff's lines joined as the CLI writes them, each ended by "\\n"."""
    return "".join(line + "\n" for line in to_arff(space, matrix))


def predicted(model, X):
    """The class values a model predicts for the rows of a matrix, by
    predict_indices: X is the Csr itself, or a 2-D array of rows made one by
    dense_csr; a single row goes in as a one-row matrix."""
    X = X if isinstance(X, Csr) else dense_csr(X)
    return [model.class_values[i] for i in model.predict_indices(X)]


def full_read(source):
    """A vectorized ARFF's matrix through the Dataset path."""
    return matrix_from_dataset(parse_arff(source))


def read_outcome(read, source):
    """What a reader makes of source: the matrix bits, its stored cells,
    labels and class values, or the exception type and message."""
    try:
        m = read(source)
    except Exception as exc:
        return type(exc), str(exc)
    return (m.rows.shape, m.rows.tobytes(), m.indptr.tolist(), m.indices.tolist(), m.labels,
            m.class_values)


@pytest.fixture
def hand_corpus():
    """The 4-document oracle corpus over vocabulary (achi, gari, kharab):
    pos docs "achi gari", "achi"; neg docs "kharab gari", "kharab"."""
    rows = [
        [1, 1, 0],
        [1, 0, 0],
        [0, 1, 1],
        [0, 0, 1],
    ]
    return make_matrix(rows, ["pos", "pos", "neg", "neg"], ("neg", "pos"))


@pytest.fixture
def separable_1d():
    """One feature that perfectly separates the classes."""
    rows = [[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]]
    return make_matrix(rows, ["neg"] * 3 + ["pos"] * 3, ("neg", "pos"))


def write_sparse_arff(dataset):
    """write_arff's text with each data row in the sparse `{index value,...}`
    form, which omits numeric zeros and first-declared nominal values: the
    oracle for to_arff's text."""
    header = write_arff(Dataset(dataset.relation_name, dataset.attributes, (),
                                dataset.class_index))
    lines = [header[:-1]]
    for row in dataset.instances:
        entries = [
            f"{idx} {_format_value(decl, value)}"
            for idx, (decl, value) in enumerate(zip(dataset.attributes, row))
            if not (decl.kind == NUMERIC and value == 0.0
                    or decl.kind == NOMINAL and value == decl.values[0])
        ]
        lines.append("{" + ",".join(entries) + "}")
    return "\n".join(lines) + "\n"
