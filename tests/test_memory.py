"""Memory guards: no command holds a whole dense matrix.

A feature matrix is held sparse, and dense rows are made a block at a time
(rusent.sparse). These tests trace the Python heap with tracemalloc while
the CLI runs on a Zipf-like corpus of 1000 reviews, whose train matrix is
800 rows by about 1900 terms and under 1% non-zero, so one dense copy of
it (12 MB) would stand out against everything else the commands hold.
No model makes the dense rows of a whole matrix it scores: MNB, SVM and
MLP sum each row's stored cells (rusent.sparse.row_sums), the trees read
single cells and kNN a block of test rows at a time; the MLP's loss is
the cross-entropy of its scores. read_matrix reads each row's cells
straight into CSR, in whatever form the ARFF writes its rows.
"""

import tracemalloc

import numpy as np
import pytest

from rusent import cli
from rusent.classifiers import train_knn, train_svm
from rusent.classifiers.mlp import init_mlp
from rusent.classifiers.svm import RUN_WIDTH, svm_objective
from rusent.arff import parse_arff
from rusent.classifiers.base import load_model
from rusent.sparse import Csr
from rusent.vectorize import FeatureMatrix, fit, read_matrix, to_arff, transform

from conftest import dense_csr, make_matrix, predicted, zipf_corpus
from test_knn import brute_force_predict


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """train.arff (800 reviews) and test.arff (200) in one directory."""
    root = tmp_path_factory.mktemp("zipf")
    text = zipf_corpus(1000, seed=3).split("\n")
    header, rows = text[:4], text[4:-1]
    (root / "train.arff").write_text("\n".join(header + rows[:800]) + "\n", encoding="utf-8")
    (root / "test.arff").write_text("\n".join(header + rows[800:]) + "\n", encoding="utf-8")
    return root


# each trainer's own work is cut short: the guard is on what is held, not on time
SHORT = ["--svm-epochs", "2", "--mlp-epochs", "2", "--trees", "2", "--rounds", "3",
         "--max-depth", "4"]


def test_compare_never_holds_half_a_dense_train_matrix(corpus, monkeypatch, tmp_path):
    # a first run imports every module the command needs, which is code,
    # not data, and is left out of the count
    tiny = tmp_path / "tiny.arff"
    tiny.write_text(zipf_corpus(20, seed=4), encoding="utf-8")
    assert cli.main(["compare", "--train", str(tiny), "--test", str(tiny),
                     "--out-dir", str(tmp_path / "tiny"), *SHORT]) == 0
    parsed = {}
    parse_file = cli.parse_file

    def traced_parse(path, parse):
        # the heap once both inputs are parsed is the baseline; the peak
        # counts from there
        result = parse_file(path, parse)
        parsed["current"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return result

    monkeypatch.setattr(cli, "parse_file", traced_parse)
    out = corpus / "out"
    tracemalloc.start()
    try:
        code = cli.main(["compare", "--train", str(corpus / "train.arff"),
                         "--test", str(corpus / "test.arff"), "--out-dir", str(out), *SHORT])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    train = read_matrix((out / "train_vectorized.arff").read_text(encoding="utf-8"))
    dense = train.n_rows * train.width * 8
    assert train.n_rows == 800 and train.width > 1800 and dense > 11_000_000
    assert peak - parsed["current"] < dense / 2, (peak - parsed["current"], dense)


def test_evaluating_a_knn_model_never_holds_its_rows_dense(corpus):
    out = corpus / "knn"
    assert cli.main(["compare", "--train", str(corpus / "train.arff"),
                     "--test", str(corpus / "test.arff"), "--out-dir", str(out),
                     "--algorithms", "knn"]) == 0
    model = load_model(out / "models" / "knn.model")
    test = read_matrix((out / "test_vectorized.arff").read_text(encoding="utf-8"))
    dense = model.rows.n_rows * model.feature_width * 8
    assert dense > 11_000_000
    peak, _ = traced_peak(lambda: cli.evaluate(model, test))
    assert peak < dense / 2, (peak, dense)


def _class_first(lines, width):
    """to_arff's lines with the class attribute declared first, and each
    row's entries renumbered to match, the class entry first."""
    at = lines.index("@data")
    out = [lines[0], lines[at - 1], *lines[1:at - 1], "@data"]
    for row in lines[at + 1:]:
        entries = [e.split(" ", 1) for e in row[1:-1].split(",") if e]
        label = [f"0 {v}" for i, v in entries if int(i) == width]
        out.append("{" + ",".join(label + [f"{int(i) + 1} {v}" for i, v in entries
                                           if int(i) < width]) + "}")
    return out


def _dense(lines, matrix, n_rows):
    """to_arff's header, then a dense row for each of the first n_rows
    instances of `matrix`."""
    at = lines.index("@data")
    rows = (",".join(map("{:g}".format, row)) + "," + label
            for row, label in zip(matrix.dense()[:n_rows].tolist(), matrix.labels))
    return [*lines[:at + 1], *rows]


# dense rows are read a cell at a time, which tracemalloc slows down: 300
# of the 800 rows keep the case short, and their dense matrix (4.8 MB)
# still holds far more than the header that a read of any row count holds
DENSE_ROWS = 300


@pytest.fixture(scope="module")
def vectorized_forms(corpus):
    """The train set of `corpus` vectorized: (its matrix, {form: (the
    number of its first rows written, their ARFF text)}) for three forms
    that rusent does not write."""
    train = parse_arff((corpus / "train.arff").read_bytes())
    space = fit(train)
    matrix = transform(space, train)
    lines = list(to_arff(space, matrix))
    at = lines.index("@data")
    forms = {
        "spaced": (matrix.n_rows,
                   lines[:at + 1] + [row.replace(",", ", ") for row in lines[at + 1:]]),
        "class first": (matrix.n_rows, _class_first(lines, matrix.width)),
        "dense rows": (DENSE_ROWS, _dense(lines, matrix, DENSE_ROWS)),
    }
    return matrix, {name: (n_rows, "".join(line + "\n" for line in form))
                    for name, (n_rows, form) in forms.items()}


@pytest.mark.parametrize("form", ["spaced", "class first", "dense rows"])
def test_read_matrix_never_holds_half_a_dense_matrix(vectorized_forms, form):
    # any vectorized ARFF, not only to_arff's own text, goes straight into CSR
    matrix, texts = vectorized_forms
    assert matrix.n_rows * matrix.width * 8 > 11_000_000
    n_rows, text = texts[form]
    expected = matrix.dense()[:n_rows]
    peak, read = traced_peak(lambda: read_matrix(text))
    assert read.dense().tobytes() == expected.tobytes()
    assert read.labels == matrix.labels[:n_rows]
    assert peak < expected.nbytes / 2, (peak, expected.nbytes)


def test_svm_objective_never_holds_half_a_dense_matrix(vectorized_forms):
    # the margins sum each row's stored cells: no dense copy is made
    matrix, _ = vectorized_forms
    dense = matrix.n_rows * matrix.width * 8
    assert dense > 11_000_000
    weights = np.random.default_rng(0).standard_normal(matrix.width)
    signs = np.where(matrix.y == 1, 1.0, -1.0)
    peak, got = traced_peak(lambda: svm_objective(weights, 0.5, matrix, signs, 1e-3))
    assert peak < dense / 2, (peak, dense)
    hinge = np.maximum(0.0, 1.0 - signs * (matrix.dense() @ weights + 0.5))
    assert got == pytest.approx(1e-3 / 2 * (weights @ weights) + hinge.mean(), rel=1e-12)


def test_mlp_loss_never_holds_half_a_dense_matrix(vectorized_forms):
    # the loss is the cross-entropy of the scores, which sum each row's
    # stored cells: no dense copy of the training matrix is made
    matrix, _ = vectorized_forms
    dense = matrix.n_rows * matrix.width * 8
    assert dense > 11_000_000
    model = init_mlp(matrix, hidden=[32, 32], seed=0)
    peak, loss = traced_peak(lambda: model.loss(matrix, matrix.y))
    assert peak < dense / 2, (peak, dense)
    assert loss == pytest.approx(model.gradients(matrix.dense(), matrix.y)[0], abs=1e-12)


ALGORITHMS = ["mnb", "knn", "dtree", "bagging", "rforest", "adaboost", "svm", "mlp"]


@pytest.fixture(scope="module")
def compared(corpus):
    """The output directory of one compare of every algorithm."""
    out = corpus / "compared"
    assert cli.main(["compare", "--train", str(corpus / "train.arff"),
                     "--test", str(corpus / "test.arff"), "--out-dir", str(out),
                     *SHORT]) == 0
    return out


def traced_peak(run):
    """The heap's peak above its level at the start while run() runs, and
    what run() returned."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start, result


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_evaluate_never_holds_half_a_dense_test_matrix(compared, algorithm):
    model = load_model(compared / "models" / f"{algorithm}.model")
    test = read_matrix((compared / "test_vectorized.arff").read_text(encoding="utf-8"))
    dense = test.n_rows * test.width * 8
    assert dense > 2_500_000
    peak, report = traced_peak(lambda: cli.evaluate(model, test))
    assert report.total == test.n_rows
    assert peak < dense / 2, (peak, dense)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_train_never_holds_half_a_dense_train_matrix(compared, tmp_path, algorithm):
    # train reports the training accuracy, which scores the train matrix
    train = compared / "train_vectorized.arff"
    matrix = read_matrix(train.read_text(encoding="utf-8"))
    dense = matrix.n_rows * matrix.width * 8
    assert dense > 11_000_000
    peak, code = traced_peak(lambda: cli.main([
        "train", "--train", str(train), "--algorithm", algorithm,
        "--model-out", str(tmp_path / f"{algorithm}.model"), *SHORT]))
    assert code == 0
    assert peak < dense / 2, (peak, dense)


def test_svm_never_holds_half_a_dense_narrow_matrix():
    # a matrix narrower than RUN_WIDTH screens runs of steps on the dense
    # rows that RowBlocks writes a block at a time, and takes the steps that
    # update one at a time on the same rows; each epoch gathers its stored
    # cells once, in RowBlocks
    rng = np.random.default_rng(0)
    n_rows, width = 20_000, RUN_WIDTH - 1
    first = rng.integers(0, width - 2, size=n_rows)
    indices = first[:, None] + np.arange(3)
    data = rng.integers(1, 4, size=(n_rows, 3)).astype(float)
    labels = ["pos" if i < width // 2 else "neg" for i in first]
    matrix = FeatureMatrix(np.arange(0, 3 * n_rows + 1, 3), indices.reshape(-1),
                           data.reshape(-1), width, labels, ("neg", "pos"))
    dense = n_rows * width * 8
    assert dense > 20_000_000
    peak, model = traced_peak(lambda: train_svm(matrix, epochs=2, seed=0))
    assert peak < dense / 2, (peak, dense)
    assert predicted(model, matrix).count("pos") > 0


@pytest.mark.parametrize("distance", ["euclidean", "manhattan"])
def test_knn_never_holds_half_its_rows_dense_when_many_are_equal(distance):
    # short reviews often vectorize to equal rows, and equal rows survive the
    # euclidean screen together: 300 of 400 training rows are one row, and
    # the test rows include it
    rng = np.random.default_rng(8)
    rows = np.where(rng.random((400, 2005)) < 0.008, rng.integers(1, 4, (400, 2005)), 0.0)
    rows[:300] = rows[0]
    model = train_knn(make_matrix(rows, ["neg", "pos"] * 200), k=3, distance=distance)
    test = dense_csr(rows[[0, 1, 350, 399, 0]])
    dense = model.rows.n_rows * model.feature_width * 8
    peak, nearest = traced_peak(lambda: model.predict_indices(test))
    assert nearest.size == 5
    assert peak < dense / 2, (peak, dense)


@pytest.mark.parametrize("distance", ["euclidean", "manhattan"])
@pytest.mark.parametrize("n_train", [3, 4])
def test_knn_never_holds_a_dense_test_set_against_few_wide_rows(distance, n_train):
    # 3 rows of 20000 columns fit DENSE_BUDGET and 4 do not; either way a
    # block of test rows is bounded by the width as well as by the
    # training rows, so 500 test rows (80 MB dense) are never dense at once
    width, n_test = 20_000, 500
    rng = np.random.default_rng(n_train)
    rows = np.where(rng.random((n_train, width)) < 0.002,
                    rng.integers(1, 4, (n_train, width)), 0.0)
    labels = ["neg", "pos", "pos", "neg"][:n_train]
    model = train_knn(make_matrix(rows, labels), k=1, distance=distance)
    per_row = 200
    indices = [np.sort(rng.choice(width, per_row, replace=False)) for _ in range(n_test)]
    test = Csr(np.arange(n_test + 1) * per_row, np.concatenate(indices),
               rng.integers(1, 4, n_test * per_row).astype(float), width)
    peak, got = traced_peak(lambda: model.predict_indices(test))
    assert peak < 2_000_000, peak
    expected = [brute_force_predict(rows, labels, ("neg", "pos"), test.dense([i])[0], 1,
                                    distance, 3.0) for i in range(n_test)]
    assert [("neg", "pos")[i] for i in got] == expected
