import numpy as np
import pytest

from rusent.classifiers import (
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
        for row in m.rows:
            assert clone.predict_scores(row) == model.predict_scores(row)

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
    ])
    def test_bad_field_is_rejected(self, variant, old, new):
        # a stump is a single leaf, which names no feature
        trainers = {**TRAINERS, "dtree-stump": lambda m: train_dtree(m, max_depth=0)}
        text = trainers[variant](training_matrix()).dumps()
        assert old in text and loads_model(text).dumps() == text
        with pytest.raises(ModelError):
            loads_model(text.replace(old, new, 1))

    def test_split_feature_past_the_width_is_rejected(self):
        text = TRAINERS["dtree"](training_matrix()).dumps()
        lines = text.splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("split "))
        lines[i] = "split 4 " + lines[i].split(" ")[2]  # feature_width is 4
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
