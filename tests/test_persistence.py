import math
import warnings

import numpy as np
import pytest
import hypothesis.extra.numpy as hnp
from hypothesis import given, settings
from hypothesis import strategies as st

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
from rusent.classifiers.base import MAGIC, load_model, loads_model
from rusent.classifiers.tree import Tree
from rusent.errors import ModelError
from rusent.rng import SplitMix64

from conftest import make_matrix


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
        assert clone.scores(m.rows).tobytes() == model.scores(m.rows).tobytes()

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
    assert clone.predict_indices(m.rows).tolist() == model.predict_indices(m.rows).tolist()


def test_a_model_file_with_crlf_line_ends_loads(tmp_path):
    model = TRAINERS["dtree"](training_matrix())
    path = tmp_path / "dtree.model"
    path.write_bytes(model.dumps().replace("\n", "\r\n").encode())
    assert load_model(path).dumps() == model.dumps()


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
        model.predict_indices(m.rows)


@pytest.mark.parametrize("variant", ["mnb", "knn", "dtree", "bagging", "adaboost", "svm", "mlp"])
def test_a_model_of_no_features_round_trips(variant):
    # array lines of zero values are written as the key and a space
    m = make_matrix(np.zeros((4, 0)), ["neg", "pos", "neg", "pos"])
    text = TRAINERS[variant](m).dumps()
    assert loads_model(text).dumps() == text


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
                    params(draw, (len(labels), width)), labels)
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
        NEG_POS, 1, 1, "euclidean", 3.0, np.zeros((1, 1)), [5]),
    "knn rows narrower than feature_width": lambda: KnnModel(
        NEG_POS, 2, 1, "euclidean", 3.0, np.zeros((1, 1)), [0]),
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
