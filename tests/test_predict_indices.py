"""The batch prediction path agrees with per-row prediction."""

import numpy as np
import pytest

from rusent.arff import load_text_directory
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
from rusent.corpus import SplitSpec, split
from rusent.errors import ModelError
from rusent.evaluation import evaluate
from rusent.synth import generate_corpus
from rusent.vectorize import fit, transform

CASES = {
    "mnb": ("count", lambda m: train_mnb(m)),
    "knn": ("count", lambda m: train_knn(m, k=3)),
    "knn-tfidf": ("tfidf", lambda m: train_knn(m, k=5)),
    "knn-tfidf-manhattan": ("tfidf", lambda m: train_knn(m, k=5, distance="manhattan")),
    "dtree": ("count", lambda m: train_dtree(m, max_depth=6)),
    "bagging": ("count", lambda m: train_bagging(m, m=3, seed=1)),
    "rforest": ("count", lambda m: train_rforest(m, m=3, seed=1)),
    "adaboost": ("count", lambda m: train_adaboost(m, rounds=5)),
    "svm": ("count", lambda m: train_svm(m, epochs=5, seed=2)),
    "mlp": ("count", lambda m: train_mlp(m, hidden=[4], epochs=3, seed=3)),
}


@pytest.fixture(scope="module")
def matrices(tmp_path_factory):
    """weighting -> (train, test) matrices of a small synth corpus."""
    root = tmp_path_factory.mktemp("corpus")
    generate_corpus(root, per_class=150, seed=0)
    train, test = split(load_text_directory(root), SplitSpec(0.8, stratified=True, seed=7))
    out = {}
    for weighting in ("count", "tfidf"):
        space = fit(train, weighting=weighting)
        out[weighting] = (transform(space, train), transform(space, test))
    return out


def first_max(scores):
    return max(range(len(scores)), key=lambda i: (scores[i], -i))


@pytest.mark.parametrize("case", sorted(CASES))
def test_predict_indices_equals_per_row_predict(case, matrices):
    weighting, trainer = CASES[case]
    train, test = matrices[weighting]
    model = trainer(train)
    X = np.vstack([test.rows, train.rows[:100]])
    indices = model.predict_indices(X)
    assert indices.dtype == np.intp and indices.shape == (X.shape[0],)
    assert [model.class_values[i] for i in indices] == [model.predict(x) for x in X]
    if model.variant != "mnb":  # MNB takes its argmax in log space
        assert indices.tolist() == [first_max(model.predict_scores(x)) for x in X]


def test_evaluate_tallies_the_batch_predictions(matrices):
    train, test = matrices["count"]
    model = train_knn(train, k=3)
    report = evaluate(model, test)
    predicted = [model.predict(x) for x in test.rows]
    correct = sum(p == a for p, a in zip(predicted, test.labels))
    assert report.correct == correct and report.total == len(test.labels)


@pytest.mark.parametrize("variant", ["mnb", "dtree"])
def test_predict_indices_checks_the_shape(variant, matrices):
    model = CASES[variant][1](matrices["count"][0])
    width = model.feature_width
    for bad in (np.zeros(width), np.zeros((2, width + 1)), np.zeros((1, 1, width))):
        with pytest.raises(ModelError):
            model.predict_indices(bad)
    assert model.predict_indices(np.zeros((0, width))).tolist() == []
