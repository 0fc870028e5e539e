import numpy as np
import pytest
from hypothesis import settings

from rusent.arff import NOMINAL, NUMERIC, Dataset, _format_value, parse_arff, write_arff
from rusent.vectorize import FeatureMatrix, matrix_from_dataset

# Every run draws the same examples: a property either holds on them or
# fails the same way each time. No example database, so a failure found
# once is not replayed into later runs, and no deadline, so a slow
# machine cannot fail a test that a fast one passes.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def make_matrix(rows, labels, class_values=("neg", "pos")):
    return FeatureMatrix(np.asarray(rows, dtype=float), list(labels), tuple(class_values))


def predicted(model, rows):
    """The class values a model predicts for the rows of a matrix, by
    predict_indices; a single row goes in as a one-row matrix."""
    return [model.class_values[i] for i in model.predict_indices(rows)]


def full_read(source):
    """A vectorized ARFF's matrix through the Dataset path."""
    return matrix_from_dataset(parse_arff(source))


def read_outcome(read, source):
    """What a reader makes of source: the matrix bits, labels and class
    values, or the exception type and message."""
    try:
        m = read(source)
    except Exception as exc:
        return type(exc), str(exc)
    return m.rows.shape, m.rows.tobytes(), m.labels, m.class_values


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
