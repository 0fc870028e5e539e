"""The batch prediction path agrees with one-row prediction."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rusent.arff import load_text_directory
from rusent.classifiers import (
    ALGORITHMS,
    train_adaboost,
    train_bagging,
    train_dtree,
    train_knn,
    train_mlp,
    train_mnb,
    train_rforest,
    train_svm,
)
from rusent.classifiers.base import _REGISTRY, Model, _first_max
from rusent.corpus import SplitSpec, split
from rusent.errors import ModelError
from rusent.evaluation import evaluate
from rusent.synth import generate_corpus
from rusent.vectorize import fit, transform

from conftest import dense_csr

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
    indices = model.predict_indices(dense_csr(X))
    assert indices.dtype == np.intp and indices.shape == (X.shape[0],)
    assert indices.tolist() == [model.predict_indices(dense_csr(x[None]))[0] for x in X]
    assert indices.tolist() == [first_max(model.scores(dense_csr(x[None]))[0].tolist())
                                for x in X]


def test_every_variant_predicts_by_models_one_rule():
    assert sorted(_REGISTRY) == sorted(ALGORITHMS)
    assert [v for v, cls in sorted(_REGISTRY.items())
            if cls.predict_indices is not Model.predict_indices] == []


def test_evaluate_tallies_the_batch_predictions(matrices):
    train, test = matrices["count"]
    model = train_knn(train, k=3)
    report = evaluate(model, test)
    predicted = [model.class_values[model.predict_indices(dense_csr(x[None]))[0]]
                 for x in test.rows]
    correct = sum(p == a for p, a in zip(predicted, test.labels))
    assert report.correct == correct and report.total == len(test.labels)


VARIANTS = ["mnb", "knn", "dtree", "bagging", "rforest", "adaboost", "svm", "mlp"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_predict_indices_checks_the_shape(variant, matrices):
    # only a Csr of the model's width is scored: a plain ndarray or list of
    # the right shape is refused, as it is not coerced
    train = matrices["count"][0]
    model = CASES[variant][1](train)
    width = model.feature_width
    bad_inputs = (train.rows, train.rows.tolist(), np.zeros(width), 0.0,
                  dense_csr(np.zeros((2, width + 1))), dense_csr(np.zeros((2, width - 1))))
    for bad in bad_inputs:
        for method in (model.predict_indices, model.scores):
            with pytest.raises(ModelError):
                method(bad)
    assert model.predict_indices(dense_csr(np.zeros((0, width)))).tolist() == []
    assert model.scores(dense_csr(np.zeros((0, width)))).shape == (0, len(model.class_values))


def scalar_first_max(scores):
    """The row-by-row first maximum under `>`: the reference for _first_max."""
    best = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best]:
            best = i
    return best


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0, 0.5]
score_matrices = st.integers(1, 5).flatmap(
    lambda classes: st.lists(
        st.lists(st.sampled_from(SPECIAL) | st.floats(), min_size=classes, max_size=classes),
        max_size=8,
    ).map(lambda rows: np.array(rows, dtype=np.float64).reshape(-1, classes))
)


@given(score_matrices)
@example(np.array([[np.nan, 1.0, 2.0]]))  # a first NaN keeps index 0
@example(np.array([[1.0, np.nan, 2.0], [2.0, np.nan, 1.0]]))  # a later NaN is passed over
@example(np.array([[-np.inf, np.nan, -np.inf]]))
@example(np.array([[-0.0, 0.0], [0.0, -0.0]]))  # equal scores: the first wins
@example(np.array([[np.inf, np.inf], [3.0, 3.0]]))
@example(np.zeros((0, 3)))
@example(np.array([[np.nan], [-np.inf], [1.0]]))  # one column
def test_first_max_equals_the_scalar_loop(scores):
    got = _first_max(scores)
    assert got.shape == (scores.shape[0],)
    assert got.tolist() == [scalar_first_max(row.tolist()) for row in scores]
