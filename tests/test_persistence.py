import math
import os
import warnings

import numpy as np
import pytest
import hypothesis.extra.numpy as hnp
from hypothesis import given, settings
from hypothesis import strategies as st

from rusent import sparse
from rusent.classifiers import (
    ACTIVATIONS,
    DISTANCES,
    AdaBoostModel,
    BaggingModel,
    DecisionTreeModel,
    KnnModel,
    LinearSvmModel,
    MlpModel,
    MultinomialNBModel,
    RandomForestModel,
    TreeConfig,
    train_adaboost,
    train_bagging,
    train_dtree,
    train_knn,
    train_mlp,
    train_mnb,
    train_rforest,
    train_svm,
)
from rusent.classifiers.base import (
    MAGIC,
    _cell_words,
    fmt_floats,
    fmt_rows,
    load_model,
    loads_model,
)
from rusent.classifiers.tree import Tree
from rusent.errors import ModelError
from rusent.rng import SplitMix64
from rusent.sparse import Csr

from conftest import dense_csr, make_matrix


def training_matrix():
    rng = SplitMix64(17)
    rows = [[float(rng.next_below(4)) for _ in range(4)] for _ in range(24)]
    labels = ["pos" if sum(r[:2]) > 3 else "neg" for r in rows]
    labels[0], labels[1] = "neg", "pos"  # both classes guaranteed
    return make_matrix(rows, labels, ("neg", "pos"))


TRAINERS = {
    "mnb": lambda m: train_mnb(m),
    "knn": lambda m: train_knn(m, k=3),
    "dtree": lambda m: train_dtree(m, max_depth=4),
    "bagging": lambda m: train_bagging(m, m=3, seed=1),
    "rforest": lambda m: train_rforest(m, m=3, features_per_split=2, seed=1),
    "adaboost": lambda m: train_adaboost(m, rounds=4),
    "svm": lambda m: train_svm(m, epochs=5, seed=2),
    "mlp": lambda m: train_mlp(m, hidden=[4], epochs=3, seed=3),
}


@pytest.mark.parametrize("variant", sorted(TRAINERS))
class TestRoundTrip:
    def test_dumps_loads_dumps_is_byte_identical(self, variant):
        model = TRAINERS[variant](training_matrix())
        text = model.dumps()
        assert loads_model(text).dumps() == text

    def test_reloaded_model_predicts_identically(self, variant):
        m = training_matrix()
        model = TRAINERS[variant](m)
        clone = loads_model(model.dumps())
        assert clone.scores(m).tobytes() == model.scores(m).tobytes()

    def test_header_fields(self, variant):
        model = TRAINERS[variant](training_matrix())
        lines = model.dumps().splitlines()
        assert lines[0] == MAGIC
        assert lines[1] == f"variant {variant}"
        assert lines[2] == "feature_width 4"
        assert lines[3] == "class neg" and lines[4] == "class pos"
        assert lines[-1] == "end"

    def test_save_and_load_file(self, variant, tmp_path):
        model = TRAINERS[variant](training_matrix())
        path = tmp_path / f"{variant}.model"
        model.save(path)
        assert load_model(path).dumps() == model.dumps()

    def test_save_writes_exactly_dumps(self, variant, tmp_path):
        model = TRAINERS[variant](training_matrix())
        path = tmp_path / f"{variant}.model"
        model.save(path)
        assert path.read_bytes() == model.dumps().encode("utf-8")


@pytest.mark.parametrize("separator", ["\u2028", "\u0085", "\x1c", "\x1e"])
def test_class_value_with_a_unicode_line_break_round_trips(separator, tmp_path):
    # str.splitlines breaks at these; model files break lines at \n only
    m = training_matrix()
    classes = ("neg", f"pos{separator}itive")
    m = make_matrix(m.rows, [classes[v == "pos"] for v in m.labels], classes)
    model = train_dtree(m, max_depth=4)
    path = tmp_path / "dtree.model"
    model.save(path)
    clone = load_model(path)
    assert clone.class_values == classes
    assert clone.dumps() == model.dumps()
    assert clone.predict_indices(m).tolist() == model.predict_indices(m).tolist()


def test_a_model_file_with_crlf_line_ends_loads(tmp_path):
    model = TRAINERS["dtree"](training_matrix())
    path = tmp_path / "dtree.model"
    path.write_bytes(model.dumps().replace("\n", "\r\n").encode())
    assert load_model(path).dumps() == model.dumps()


def sparse_knn(n, width, seed=0, density=0.01):
    """A kNN model of n rows over `width` features, about `density` of its
    cells non-zero, as in a bag-of-words matrix."""
    rng = np.random.default_rng(seed)
    rows = np.where(rng.random((n, width)) < density, rng.random((n, width)) * 3.0, 0.0)
    return KnnModel(("neg", "pos"), width, 1, "euclidean", 3.0, dense_csr(rows),
                    np.arange(n) % 2)


@pytest.mark.parametrize("zeros", [0.0, 0.5, 0.99, 1.0])
def test_fmt_floats_and_fmt_rows_write_repr_of_every_cell(zeros):
    rng = np.random.default_rng(int(zeros * 100))
    matrix = np.where(rng.random((20, 60)) < zeros, 0.0, rng.standard_normal((20, 60)))
    matrix[::3, ::7] = -0.0
    expected = [" ".join(map(repr, row.tolist())) for row in matrix]
    assert [fmt_floats(row) for row in matrix] == expected
    assert list(fmt_rows(matrix)) == expected
    assert fmt_floats(matrix) == " ".join(expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 17, -1])
def test_fmt_floats_and_fmt_rows_refuse_a_non_finite_cell(bad, at):
    matrix = np.zeros((3, 10))
    matrix.flat[at] = bad
    with pytest.raises(ModelError, match="non-finite"):
        fmt_floats(matrix)
    with pytest.raises(ModelError, match="non-finite"):
        fmt_rows(matrix)
    assert fmt_floats(np.zeros((0, 3))) == "" and list(fmt_rows(np.zeros((2, 0)))) == ["", ""]


class TestStreamedFile:
    """save writes a model file a line at a time and load_model reads it a
    line at a time: the same bytes as dumps and loads_model, without the
    whole text in memory."""

    def test_a_row_that_cannot_be_written_leaves_the_earlier_file(self, tmp_path):
        path = tmp_path / "knn.model"
        sparse_knn(30, 50).save(path)
        before = path.read_bytes()
        rows = sparse_knn(30, 50, seed=1).rows.dense()
        rows[-1, 7] = np.nan  # the last line made, after the file is begun
        bad = KnnModel(("neg", "pos"), 50, 1, "euclidean", 3.0, dense_csr(rows),
                       np.arange(30) % 2)
        with pytest.raises(ModelError, match="non-finite"):
            bad.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["knn.model"]

    def test_zeros_and_the_smallest_subnormal_keep_their_bits(self, tmp_path):
        # mostly zeros, so the cells go through the sparse writer and reader
        cells = [0.0] * 12 + [-0.0, 5e-324, -5e-324, 1.0]
        rows = np.array([cells, cells[::-1], [0.0] * 16])
        model = KnnModel(("neg", "pos"), 16, 1, "euclidean", 3.0, dense_csr(rows), [0, 1, 0])
        path = tmp_path / "knn.model"
        model.save(path)
        text = path.read_text(encoding="utf-8")
        assert "\nrow " + " ".join(["0.0"] * 12 + ["-0.0", "5e-324", "-5e-324", "1.0"]) in text
        for clone in (load_model(path), loads_model(text)):
            assert clone.rows.dense().tobytes() == rows.tobytes()

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_a_knn_file_with_other_line_ends_loads(self, tmp_path, end):
        model = sparse_knn(40, 300, density=0.05)
        path = tmp_path / "knn.model"
        path.write_bytes(model.dumps().replace("\n", end).encode())
        assert load_model(path).dumps() == model.dumps()

    def test_a_stray_byte_mid_file_is_not_valid_utf8(self, tmp_path):
        # far past the first block the reader decodes, and named at its
        # place in the file
        data = sparse_knn(60, 400).dumps().encode()
        cut = data.index(b"0.0 ", len(data) * 3 // 5)
        path = tmp_path / "knn.model"
        path.write_bytes(data[:cut] + b"\xff" + data[cut + 1:])
        with pytest.raises(ModelError) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{str(path)!r} is not valid UTF-8: ")
        assert f"in position {cut}:" in str(exc.value)

    def test_a_knn_model_loads_from_a_pipe(self, tmp_path):
        # a pipe has no size, so it is read whole to bound the matrix
        import threading

        model = sparse_knn(40, 300, density=0.05)
        fifo = tmp_path / "knn.fifo"
        os.mkfifo(fifo)

        def write():
            with open(fifo, "w", encoding="utf-8") as fh:
                fh.write(model.dumps())

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            assert load_model(fifo).dumps() == model.dumps()
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_rows_too_few_for_their_matrix_are_rejected_before_it_is_made(self, tmp_path):
        # as TestCorruptInput's case, from a file: the matrix would take 74.5 GiB
        n = 100_000
        text = TRAINERS["knn"](training_matrix()).dumps()
        head, rows = text.split("\nlabels ")[0], text.split("\nrow ", 1)[1]
        path = tmp_path / "knn.model"
        path.write_text(f"{head}\nlabels {' '.join(['0'] * n)}\nrow {' '.join(['0.0'] * n)}"
                        f"\nrow {rows}".replace("feature_width 4", f"feature_width {n}"),
                        encoding="utf-8")
        with pytest.raises(ModelError, match=f"expected {n} 'row' lines of {n} values"):
            load_model(path)

    def test_the_rows_are_bounded_by_the_bytes_left_after_the_labels(self, tmp_path):
        # 10^5 labels take 200 KB, which would hold 10^5 rows of one value;
        # the 24 rows after them do not
        n = 100_000
        text = TRAINERS["knn"](training_matrix()).dumps()
        head, rows = text.split("\nlabels ")[0], text.split("\nrow ", 1)[1]
        path = tmp_path / "knn.model"
        path.write_text(f"{head}\nlabels {' '.join(['0'] * n)}\nrow {rows}"
                        .replace("feature_width 4", "feature_width 1"), encoding="utf-8")
        with pytest.raises(ModelError, match=f"expected {n} 'row' lines of 1 values"):
            load_model(path)

    def test_saving_a_wide_knn_model_holds_about_one_line(self, tmp_path):
        # 800 x 1919, a Zipf-width training set: 6.4 MB of text, which
        # dumps holds twice over
        import tracemalloc

        model = sparse_knn(800, 1919)
        path = tmp_path / "knn.model"
        tracemalloc.start()
        try:
            model.save(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 6_000_000
        assert peak < size / 20, (peak, size)

    def test_loading_a_file_holds_about_the_rows_alone(self, tmp_path):
        import tracemalloc

        model = sparse_knn(300, 400)
        path = tmp_path / "knn.model"
        model.save(path)
        tracemalloc.start()
        try:
            clone = load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = model.rows.dense()
        assert clone.rows.dense().tobytes() == rows.tobytes()
        assert peak < 1.1 * rows.nbytes, (peak, rows.nbytes)


class TestCorruptInput:
    def good_text(self):
        return TRAINERS["mnb"](training_matrix()).dumps()

    def test_wrong_magic(self):
        with pytest.raises(ModelError):
            loads_model("rusent-model v2\n" + self.good_text().split("\n", 1)[1])

    def test_empty(self):
        with pytest.raises(ModelError):
            loads_model("")

    def test_missing_end(self):
        text = self.good_text()
        with pytest.raises(ModelError):
            loads_model(text.rsplit("end", 1)[0])

    def test_unknown_variant(self):
        text = self.good_text().replace("variant mnb", "variant magic")
        with pytest.raises(ModelError):
            loads_model(text)

    def test_truncated_body(self):
        lines = self.good_text().splitlines()
        with pytest.raises(ModelError):
            loads_model("\n".join(lines[:6] + ["end"]) + "\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelError):
            load_model(tmp_path / "nope.model")

    @pytest.mark.parametrize("variant, old, new", [
        ("mnb", "feature_width 4", "feature_width x"),
        ("dtree-stump", "feature_width 4", "feature_width -4"),
        ("knn", "class pos\n", "class pos\nclass pos\n"),
        ("knn", "distance euclidean", "distance chebyshev"),
        ("knn", "distance euclidean\np 3.0", "distance minkowski\np 0.0"),
        ("mlp", "activation logistic", "activation relu"),
        ("svm", "epochs 5", "epochs 5 7"),
        # values the constructor refuses
        ("mnb", "alpha 1.0", "alpha 0.0"),
        ("knn", "k 3", "k 0"),
        ("knn", "labels 0 1 0", "labels 0 2 0"),
        # rows of 4 values: a header's width alone must not size the matrix
        ("knn", "feature_width 4", "feature_width 1000000000000"),
        ("dtree", "min_leaf 1", "min_leaf 0"),
        ("rforest", "features_per_split 2", "features_per_split 5"),
        ("adaboost", "rounds 4", "rounds 3"),
        ("svm", "lambda 0.001", "lambda 0.0"),
        ("svm", "epochs 5", "epochs 0"),
        ("mlp", "batch_size 16", "batch_size 0"),
    ])
    def test_bad_field_is_rejected(self, variant, old, new):
        # a stump is a single leaf, which names no feature
        trainers = {**TRAINERS, "dtree-stump": lambda m: train_dtree(m, max_depth=0)}
        text = trainers[variant](training_matrix()).dumps()
        assert old in text and loads_model(text).dumps() == text
        with pytest.raises(ModelError):
            loads_model(text.replace(old, new, 1))

    def test_a_negative_stage_count_is_rejected(self):
        text = TRAINERS["adaboost"](training_matrix()).dumps()
        head = text[:text.index("stages ")]
        assert loads_model(head + "stages 0\nend\n").stages == []
        with pytest.raises(ModelError):
            loads_model(head + "stages -1\nend\n")

    def test_knn_rows_too_few_for_their_matrix_are_rejected_before_it_is_made(self):
        # 10^5 labels and a first row of 10^5 values, 600 KB of text: the
        # matrix they declare would take 74.5 GiB
        n = 100_000
        text = TRAINERS["knn"](training_matrix()).dumps()
        head, rows = text.split("\nlabels ")[0], text.split("\nrow ", 1)[1]
        wide = (f"{head}\nlabels {' '.join(['0'] * n)}\nrow {' '.join(['0.0'] * n)}\nrow {rows}"
                .replace("feature_width 4", f"feature_width {n}"))
        with pytest.raises(ModelError, match=f"expected {n} 'row' lines of {n} values"):
            loads_model(wide)

    def test_split_feature_past_the_width_is_rejected(self):
        text = TRAINERS["dtree"](training_matrix()).dumps()
        lines = text.splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("split "))
        lines[i] = "split 4 " + lines[i].split(" ")[2]  # feature_width is 4
        with pytest.raises(ModelError):
            loads_model("\n".join(lines) + "\n")

    @pytest.mark.parametrize("variant", ["dtree", "bagging", "adaboost"])
    @pytest.mark.parametrize("leaf_class", ["2", "-1", "0.5", "1e300"])
    def test_leaf_class_outside_the_classes_is_rejected(self, variant, leaf_class):
        lines = TRAINERS[variant](training_matrix()).dumps().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("leaf "))
        words = lines[i].split(" ")
        lines[i] = " ".join(["leaf", leaf_class] + words[2:])  # two classes
        with pytest.raises(ModelError):
            loads_model("\n".join(lines) + "\n")

    @pytest.mark.parametrize("variant", ["bagging", "rforest"])
    def test_dropping_a_class_is_rejected(self, variant):
        text = TRAINERS[variant](training_matrix()).dumps()
        with pytest.raises(ModelError):
            loads_model(text.replace("class pos\n", "", 1))

    def test_float_repr_survives_exactly(self):
        m = training_matrix()
        model = train_svm(m, epochs=7, seed=5)
        clone = loads_model(model.dumps())
        assert np.array_equal(clone.weights, model.weights)
        assert clone.bias == model.bias


def line_mutants(text):
    """(name, text) for each mutation of each line after the magic line:
    dropped, cut at half its length, doubled, with " nan" appended, with
    its last value replaced by nan, and for a split line with its feature
    index set to 99."""
    lines = text.splitlines()
    for i in range(1, len(lines)):
        line = lines[i]
        words = line.split(" ")
        edits = {
            "drop": [],
            "truncate": [line[: len(line) // 2]],
            "duplicate": [line, line],
            "append nan": [line + " nan"],
            "last nan": [" ".join(words[:-1] + ["nan"])],
        }
        if words[0] == "split":
            edits["feature 99"] = [" ".join(["split", "99"] + words[2:])]
        for name, new in edits.items():
            yield f"line {i + 1} {name}", "\n".join(lines[:i] + new + lines[i + 1:]) + "\n"


@pytest.mark.parametrize("variant", sorted(TRAINERS))
def test_every_line_mutant_is_rejected_or_loads_canonically(variant):
    """A mutated model file either raises ModelError, or loads, dumps to
    the same text and predicts."""
    m = training_matrix()
    for name, text in line_mutants(TRAINERS[variant](m).dumps()):
        try:
            model = loads_model(text)
        except ModelError:
            continue
        assert model.dumps() == text, name
        model.predict_indices(m)


def byte_mutants(data, seed, count):
    """(name, bytes) for `count` seeded mutations of data: a bit flipped, a
    byte deleted, a byte inserted (often a separator, a digit or a byte
    that is not UTF-8), or the file truncated."""
    rng = SplitMix64(seed)
    inserts = b"\n\r -.0e9\xff"
    for _ in range(count):
        kind = rng.next_below(4)
        at = rng.next_below(len(data))
        if kind == 0:
            bit = rng.next_below(8)
            yield f"flip {at}:{bit}", data[:at] + bytes([data[at] ^ 1 << bit]) + data[at + 1:]
        elif kind == 1:
            yield f"delete {at}", data[:at] + data[at + 1:]
        elif kind == 2:
            byte = inserts[rng.next_below(len(inserts))]
            yield f"insert {at}:{byte}", data[:at] + bytes([byte]) + data[at:]
        else:
            yield f"truncate {at}", data[:at]


@pytest.mark.parametrize("variant", sorted(TRAINERS))
def test_every_byte_mutant_of_a_model_file_loads_or_raises_model_error(variant, tmp_path):
    """A model file with a byte flipped, deleted or inserted, or cut short,
    either loads through load_model, and then predicts, or raises
    ModelError: never another exception (which the CLI reports as exit 3)."""
    m = training_matrix()
    data = TRAINERS[variant](m).dumps().encode("utf-8")
    path = tmp_path / f"{variant}.model"
    loaded = 0
    for name, mutant in byte_mutants(data, seed=len(variant), count=150):
        path.write_bytes(mutant)
        try:
            model = load_model(path)
        except ModelError:
            continue
        loaded += 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a mutated weight may overflow
            assert model.predict_indices(m).shape == (len(m.labels),), name
    assert loaded > 0  # some mutants load: a flip inside a digit, say


@pytest.mark.parametrize("variant", ["mnb", "knn", "dtree", "bagging", "adaboost", "svm", "mlp"])
def test_a_model_of_no_features_round_trips(variant):
    # array lines of zero values are written as the key and a space
    m = make_matrix(np.zeros((4, 0)), ["neg", "pos", "neg", "pos"])
    text = TRAINERS[variant](m).dumps()
    assert loads_model(text).dumps() == text


# -- the kNN body: the row reader against a reader of one word at a time ----

def knn_text(rows: list[str], width: int, n: int) -> str:
    """A kNN model file of n training rows over `width` features, whose row
    lines are "row " and each of `rows`."""
    labels = " ".join(str(i % 2) for i in range(n))
    lines = [MAGIC, "variant knn", f"feature_width {width}", "class neg", "class pos", "k 1",
             "distance euclidean", "p 3.0", f"labels {labels}"]
    return "\n".join(lines + [f"row {rest}" for rest in rows] + ["end"]) + "\n"


def oracle_rows(text: str):
    """The rows of a kNN model file as a Csr, read one line and one word at a
    time: split at spaces, each word that is not "0.0" cast, the line's
    values checked. Or the ModelError text loads_model gives for them."""
    lines = text.split("\n")[:-1]
    first = next(i for i, line in enumerate(lines) if line.startswith("labels ")) + 1
    width, count = int(lines[2].split(" ")[1]), len(lines[first - 1].split(" ")) - 1
    if 2 * count * width > sum(len(line) + 1 for line in lines[first:]):
        return f"corrupt model file: line {first + 1}: expected {count} 'row' lines of {width} values"
    counts, indices, data = [0], [], []
    for pos in range(first, first + count):
        if not lines[pos].startswith("row "):
            return f"corrupt model file: line {pos + 1}: expected 'row'"
        rest = lines[pos][len("row "):]
        words = rest.split(" ") if rest else []
        if len(words) != width:
            return f"corrupt model file: line {pos + 1}: 'row' needs {width} values, not {len(words)}"
        cells = [i for i, word in enumerate(words) if word != "0.0"]
        try:
            values = [float(words[i]) for i in cells]
        except ValueError as exc:
            return f"corrupt model file: {exc}"
        if not all(map(math.isfinite, values)):
            return f"corrupt model file: line {pos + 1}: 'row' holds a non-finite value"
        counts.append(len(cells))
        indices += cells
        data += values
    return Csr(np.cumsum(counts), np.array(indices, dtype=np.intp),
               np.array(data, dtype=np.float64), width)


def loaded_rows(text: str):
    """loads_model(text)'s rows, or the text of the ModelError it raises."""
    try:
        return loads_model(text).rows
    except ModelError as exc:
        return str(exc)


def assert_same_rows(got, expected):
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        assert got.indptr.tolist() == expected.indptr.tolist()
        assert got.indices.tolist() == expected.indices.tolist()
        assert got.data.tobytes() == expected.data.tobytes()


#: words a row may hold besides "0.0": zeros the Csr drops or keeps, an
#: empty word (two spaces), words float() refuses or casts to a non-finite
#: value, and words of three code points that are not zero
ODD_WORDS = ["-0.0", "0", "0e5", "", "nan", "inf", "1_0", "\u0661\u0662", "x", "\ud800"]
BODY_WORDS = st.one_of(st.sampled_from(ODD_WORDS),
                       st.floats(allow_nan=False, allow_infinity=False).map(repr))


@st.composite
def knn_bodies(draw):
    """A kNN model file whose rows hold runs of "0.0" at their start, middle
    and end around other words, and may have one bad line: one value too
    many or too few, a value moved to the next line, a wrong key, or "end"
    one row early."""
    width = draw(st.sampled_from([0, 1, 2, 40]))
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(n):
        words = ["0.0"] * width
        places = draw(st.lists(st.integers(0, width - 1), unique=True, max_size=min(width, 4))
                      ) if width else []
        for i in places:
            words[i] = draw(BODY_WORDS)
        rows.append(words)
    at = draw(st.integers(0, n - 1))
    edit = draw(st.sampled_from(["none", "none", "one more", "one less", "moved", "key", "early end"]))
    if edit == "one more":
        rows[at].append(draw(BODY_WORDS))
    elif edit == "one less" and width:
        rows[at].pop()
    elif edit == "moved" and width and at + 1 < n:
        rows[at + 1].insert(0, rows[at].pop())
    lines = [" ".join(words) for words in rows]
    if edit == "early end":
        lines.pop()
    text = knn_text(lines, width, n)
    return text.replace(f"\nrow {lines[at]}\n", f"\nrox {lines[at]}\n", 1) if edit == "key" else text


@given(text=knn_bodies(), budget=st.sampled_from([0, 16, 256, sparse.DENSE_BUDGET]))
@settings(max_examples=500)
def test_the_row_reader_reads_what_a_word_reader_reads(text, budget):
    """loads_model gives the word-at-a-time oracle's rows, bit for bit, or
    its error, whether a block of lines holds one line or all of them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sparse, "DENSE_BUDGET", budget)
        got = loaded_rows(text)
    assert_same_rows(got, oracle_rows(text))


def test_the_row_reader_reads_a_wide_model_as_a_word_reader_does():
    # many blocks of a few lines each, with signed and subnormal values
    rng = np.random.default_rng(3)
    rows = np.where(rng.random((120, 700)) < 0.05, rng.standard_normal((120, 700)), 0.0)
    rows[::5, ::9] *= 1e-310
    rows[1, :3] = -0.0
    text = KnnModel(("neg", "pos"), 700, 1, "euclidean", 3.0, dense_csr(rows),
                    np.arange(120) % 2).dumps()
    assert_same_rows(loaded_rows(text), oracle_rows(text))


@given(data=st.data())
@settings(max_examples=300)
def test_cell_words_are_the_words_of_the_dense_row(data):
    size = data.draw(st.sampled_from([0, 1, 2, 40]))
    cells = sorted(data.draw(st.sets(st.integers(0, size - 1)))) if size else []
    values = data.draw(st.lists(FINITE, min_size=len(cells), max_size=len(cells)))
    dense = ["0.0"] * size
    for i, value in zip(cells, values):
        dense[i] = repr(value)
    assert _cell_words(cells, values, "0.0 " * size) == " ".join(dense)


class TestTheFirstBadRowIsTheOneReported:
    """A block of lines reads ahead of the line it casts, but the error is
    that of the first bad line in the file, as when lines were read one at
    a time. Six rows of five values, rows 1-6 on lines 10-15: all of them
    in one block."""

    ROWS = ["0.0 1.5 0.0 0.0 2.0", "0.0 0.0 0.0 0.0 0.0", "3.0 0.0 0.0 0.0 0.0",
            "0.0 0.0 0.0 0.0 4.0", "0.0 0.0 5.0 0.0 0.0", "0.0 6.0 0.0 0.0 0.0"]

    def load(self, edits: dict[int, str], n: int = 6) -> str:
        rows = [edits.get(i, rest) for i, rest in enumerate(self.ROWS, 1)]
        with pytest.raises(ModelError) as exc:
            loads_model(knn_text([r for r in rows if r is not None], 5, n))
        return str(exc.value).removeprefix("corrupt model file: ")

    def test_the_rows_load(self):
        assert loads_model(knn_text(self.ROWS, 5, 6)).rows.data.tolist() == [
            1.5, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_an_uncastable_word_before_a_short_row(self):
        assert self.load({3: "x 0.0 0.0 0.0 0.0", 5: "0.0 0.0 5.0 0.0"}) == (
            "could not convert string to float: 'x'")

    def test_an_uncastable_word_before_a_wrong_key(self):
        edits = {3: "0.0 0.0 0.0 0.0 x", 5: None}
        rows = [edits.get(i, rest) for i, rest in enumerate(self.ROWS, 1)]
        text = knn_text([r for r in rows if r is not None], 5, 6).replace(
            "row 0.0 6.0", "rows 0.0 6.0")
        with pytest.raises(ModelError, match="could not convert string to float: 'x'$"):
            loads_model(text)

    def test_a_non_finite_value_before_an_uncastable_word(self):
        assert self.load({2: "0.0 nan 0.0 0.0 0.0", 3: "x 0.0 0.0 0.0 0.0"}) == (
            "line 11: 'row' holds a non-finite value")

    def test_a_short_row_before_an_uncastable_word(self):
        assert self.load({4: "0.0 0.0 0.0 4.0", 5: "x 0.0 0.0 0.0 0.0"}) == (
            "line 13: 'row' needs 5 values, not 4")

    def test_an_uncastable_word_before_a_non_finite_value_in_its_row(self):
        assert self.load({4: "inf 0.0 x 0.0 0.0"}) == "could not convert string to float: 'x'"

    def test_end_one_row_early(self):
        assert self.load({6: None}) == "line 15: expected 'row'"


# -- the constructor is the one check of what a model holds ---------------

NEG_POS = ("neg", "pos")
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=5e-324, allow_infinity=False)
NOT_POSITIVE = st.sampled_from([0.0, -1.0, math.inf, math.nan])
SEEDS = st.integers(-2**70, 2**70)


def leaf(n_classes=2):
    return Tree([(-1, 0.0, 0, [1.0] + [0.0] * (n_classes - 1))])


def sometimes(draw, good, bad):
    """A draw of `good`, or one time in eight a draw of `bad`, a value the
    constructor must refuse (or dumps, for a class value with a line break)."""
    return draw(bad if draw(st.integers(0, 7)) == 7 else good)


def params(draw, shape):
    """A float array of `shape`, or one time in eight of a shape one longer."""
    longer = shape[:-1] + (shape[-1] + 1,)
    return sometimes(draw, hnp.arrays(np.float64, shape, elements=FINITE),
                     hnp.arrays(np.float64, longer, elements=FINITE))


@st.composite
def trees(draw, width, n_classes):
    """A tree whose nodes read_tree accepts: split features below width and
    leaf classes below n_classes, which only the reader checks."""
    leaf_nodes = st.builds(lambda c, p: [(-1, 0.0, c, p)], st.integers(0, n_classes - 1),
                           st.lists(FINITE, min_size=n_classes, max_size=n_classes))
    nodes = leaf_nodes if width == 0 else st.recursive(
        leaf_nodes,
        lambda sub: st.builds(lambda f, t, left, right: [(f, t, -1, [0.0] * n_classes)]
                              + left + right, st.integers(0, width - 1), FINITE, sub, sub),
        max_leaves=4)
    return Tree(draw(nodes))


@st.composite
def constructions(draw, variant):
    """A call of the variant's constructor, as a function of no arguments,
    with arguments of the right types, now and then one out of range."""
    n_classes = 2 if variant in ("svm", "adaboost") else draw(st.integers(1, 3))
    pool = st.sampled_from(["neg", "pos", "neu", "", "a b"])
    classes = tuple(sometimes(
        draw, st.lists(pool, min_size=n_classes, max_size=n_classes, unique=True),
        st.sampled_from([["neg", "neg"], ["neg", "c\rd"], ["neg", "pos", "neu"], ["pos"]])))
    n_classes = len(classes)
    width = draw(st.sampled_from([0, 1, 3]))

    def make(cls, *args):
        return lambda: cls(classes, width, *args)

    if variant == "mnb":
        return make(MultinomialNBModel, sometimes(draw, POSITIVE, NOT_POSITIVE),
                    params(draw, (n_classes,)), params(draw, (n_classes, width)))
    if variant == "knn":
        labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=1, max_size=3))
        labels += sometimes(draw, st.just([]), st.sampled_from([[-1], [n_classes]]))
        k = sometimes(draw, st.integers(1, len(labels)), st.sampled_from([0, len(labels) + 1]))
        metric = sometimes(draw, st.sampled_from(DISTANCES), st.just("chebyshev"))
        return make(KnnModel, k, metric, sometimes(draw, POSITIVE, NOT_POSITIVE),
                    dense_csr(params(draw, (len(labels), width))), labels)
    if variant == "svm":
        return make(LinearSvmModel, params(draw, (width,)), draw(FINITE),
                    sometimes(draw, POSITIVE, NOT_POSITIVE),
                    sometimes(draw, st.integers(1, 3), st.sampled_from([0, -1])), draw(SEEDS))
    if variant == "mlp":
        hidden = sometimes(draw, st.lists(st.integers(1, 3), min_size=1, max_size=2),
                           st.sampled_from([[], [0], [2, -1]]))
        sizes = [width, *hidden, n_classes]
        size = max(0, sum((a + 1) * b for a, b in zip(sizes, sizes[1:])))
        return make(MlpModel, hidden, params(draw, (size,)),
                    sometimes(draw, st.sampled_from(ACTIVATIONS), st.just("relu")),
                    sometimes(draw, POSITIVE, NOT_POSITIVE),
                    sometimes(draw, st.integers(0, 3), st.just(-1)),
                    sometimes(draw, st.integers(1, 3), st.just(0)), draw(SEEDS))
    # TreeConfig checks its arguments when made, so it is made in the call
    config = (sometimes(draw, st.sampled_from([None, 0, 3]), st.just(-1)),
              sometimes(draw, st.integers(1, 2), st.just(0)))
    forest = draw(st.lists(trees(width, n_classes), min_size=1, max_size=3))
    if variant == "dtree":
        return lambda: DecisionTreeModel(classes, width, forest[0], TreeConfig(*config))
    if variant == "adaboost":
        stages = [(draw(FINITE), tree) for tree in forest]
        rounds = sometimes(draw, st.integers(len(stages), 4),
                           st.sampled_from([0, len(stages) - 1]))
        return lambda: AdaBoostModel(classes, width, stages, TreeConfig(*config), rounds)
    forest = sometimes(draw, st.just(forest), st.just([]))
    seed = draw(SEEDS)
    if variant == "bagging":
        return lambda: BaggingModel(classes, width, forest, TreeConfig(*config), seed)
    fps = sometimes(draw, st.integers(1, max(width, 1)), st.sampled_from([0, width + 1]))
    return lambda: RandomForestModel(classes, width, forest, TreeConfig(*config), seed, fps)


@pytest.mark.parametrize("variant", sorted(TRAINERS))
@given(data=st.data())
@settings(max_examples=150)
def test_a_model_its_constructor_accepts_is_refused_by_dumps_or_reloads(variant, data):
    """The constructor is the one check of a model's values: dumps refuses
    what it cannot write, and loads_model reads back all else it writes."""
    make = data.draw(constructions(variant))
    try:
        text = make().dumps()
    except ModelError:
        return
    assert loads_model(text).dumps() == text


BAD_MODELS = {
    "mnb alpha 0": lambda: MultinomialNBModel(NEG_POS, 1, 0.0, np.zeros(2), np.zeros((2, 1))),
    "mnb log_likelihood of another width": lambda: MultinomialNBModel(
        NEG_POS, 1, 1.0, np.zeros(2), np.zeros((2, 2))),
    "svm with 3 classes": lambda: LinearSvmModel(
        ("neg", "neu", "pos"), 1, np.zeros(1), 0.0, 1e-3, 5, 0),
    "svm lam 0": lambda: LinearSvmModel(NEG_POS, 1, np.zeros(1), 0.0, 0.0, 5, 0),
    "svm epochs 0": lambda: LinearSvmModel(NEG_POS, 1, np.zeros(1), 0.0, 1e-3, 0, 0),
    "svm weights of another width": lambda: LinearSvmModel(
        NEG_POS, 1, np.zeros(2), 0.0, 1e-3, 5, 0),
    "adaboost rounds 0": lambda: AdaBoostModel(NEG_POS, 1, [], TreeConfig(1), 0),
    "adaboost more stages than rounds": lambda: AdaBoostModel(
        NEG_POS, 1, [(1.0, leaf()), (1.0, leaf())], TreeConfig(1), 1),
    "bagging with no trees": lambda: BaggingModel(NEG_POS, 1, [], TreeConfig(), 0),
    "rforest with no trees": lambda: RandomForestModel(NEG_POS, 1, [], TreeConfig(), 0, 1),
    "rforest features_per_split 0": lambda: RandomForestModel(
        NEG_POS, 1, [leaf()], TreeConfig(), 0, 0),
    "mlp hidden [0]": lambda: MlpModel(NEG_POS, 1, [0], np.zeros(2), "logistic", 0.1, 1, 1, 0),
    "knn label 5 of 2 classes": lambda: KnnModel(
        NEG_POS, 1, 1, "euclidean", 3.0, dense_csr(np.zeros((1, 1))), [5]),
    "knn rows narrower than feature_width": lambda: KnnModel(
        NEG_POS, 2, 1, "euclidean", 3.0, dense_csr(np.zeros((1, 1))), [0]),
    "repeated class values": lambda: DecisionTreeModel(("neg", "neg"), 1, leaf(), TreeConfig()),
    "negative feature_width": lambda: DecisionTreeModel(NEG_POS, -1, leaf(), TreeConfig()),
}


@pytest.mark.parametrize("name", sorted(BAD_MODELS))
def test_a_model_that_loads_model_would_refuse_is_refused_when_made(name):
    with pytest.raises(ModelError):
        BAD_MODELS[name]()


def three_class_matrix():
    m = training_matrix()
    return make_matrix(m.rows, m.labels, ("neg", "pos", "neu"))


@pytest.mark.parametrize("train", [
    lambda m: train_mnb(m, alpha=0.0),
    lambda m: train_knn(m, k=0),
    lambda m: train_dtree(m, min_leaf=0),
    lambda m: train_bagging(m, m=0),
    lambda m: train_rforest(m, m=0),
    lambda m: train_rforest(m, features_per_split=0),
    lambda m: train_rforest(m, features_per_split=5),
    lambda m: train_adaboost(m, rounds=0),
    lambda m: train_svm(m, lam=0.0),
    lambda m: train_svm(m, epochs=0),
    lambda m: train_mlp(m, hidden=[0]),
    lambda m: train_mlp(m, learning_rate=math.inf),
    lambda m: train_svm(three_class_matrix()),
    lambda m: train_adaboost(three_class_matrix()),
])
def test_a_bad_hyperparameter_fails_before_any_numpy_warning(train):
    m = training_matrix()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError):
            train(m)
