"""Row-alone scores: a model's scores of a row are a function of that row's
cells alone, bit for bit, whatever other rows share its batch, and the bits
of the MNB, SVM and MLP scores do not depend on the BLAS kernel."""

import os
import subprocess
import sys

import numpy as np
import pytest

from rusent.arff import load_text_directory, parse_arff
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
from rusent.sparse import Csr
from rusent.synth import generate_corpus
from rusent.vectorize import fit, transform

from conftest import dense_csr, zipf_corpus

TRAINERS = {
    "mnb": lambda m: train_mnb(m),
    "knn": lambda m: train_knn(m, k=3),
    "dtree": lambda m: train_dtree(m, max_depth=6),
    "bagging": lambda m: train_bagging(m, m=3, seed=1),
    "rforest": lambda m: train_rforest(m, m=3, seed=1),
    "adaboost": lambda m: train_adaboost(m, rounds=5),
    "svm": lambda m: train_svm(m, epochs=3, seed=2),
    "mlp": lambda m: train_mlp(m, hidden=[16, 8], epochs=3, seed=3),
    "mlp-tanh": lambda m: train_mlp(m, hidden=[8], activation="tanh", epochs=3, seed=3),
}


@pytest.fixture(scope="module")
def splits(tmp_path_factory):
    """corpus -> (train, test) count matrices: a small synth corpus (31
    terms) and a Zipf-like one (about 1500 terms, about 1% non-zero)."""
    root = tmp_path_factory.mktemp("synth")
    generate_corpus(root, per_class=150, seed=0)
    out = {}
    for name, dataset in (("synth", load_text_directory(root)),
                          ("zipf", parse_arff(zipf_corpus(500, seed=5)))):
        train, test = split(dataset, SplitSpec(0.8, stratified=True, seed=7))
        space = fit(train, weighting="count")
        out[name] = (transform(space, train), transform(space, test))
    return out


@pytest.fixture(scope="module")
def models(splits):
    """(corpus, variant) -> the model trained on that corpus."""
    return {(corpus, v): trainer(train) for corpus, (train, _) in splits.items()
            for v, trainer in TRAINERS.items()}


def rows_of(X: Csr, rows) -> Csr:
    """The Csr of the given rows of X, in that order."""
    rows = np.asarray(rows, dtype=np.intp)
    starts, ends = X.indptr[rows], X.indptr[rows + 1]
    pos = np.concatenate([np.arange(lo, hi) for lo, hi in zip(starts, ends)] + [[]]).astype(np.intp)
    return Csr(np.append(0, np.cumsum(ends - starts)), X.indices[pos], X.data[pos], X.width)


def stacked(X: Csr, extra) -> Csr:
    """X with the dense rows `extra` below it."""
    tail = dense_csr(extra)
    return Csr(np.concatenate([X.indptr, X.indptr[-1] + tail.indptr[1:]]),
               np.concatenate([X.indices, tail.indices]),
               np.concatenate([X.data, tail.data]), X.width)


def test_rows_of_and_stacked_make_the_rows_they_name(splits):
    _, test = splits["zipf"]
    picks = [3, 0, 3, test.n_rows - 1]
    assert rows_of(test, picks).dense().tobytes() == test.dense(picks).tobytes()
    extra = np.zeros((2, test.width))
    extra[1, 4] = -0.0
    both = stacked(test, extra)
    assert both.dense().tobytes() == np.vstack([test.dense(), extra]).tobytes()
    assert both.n_rows == test.n_rows + 2 and both.indptr[-1] == test.indptr[-1] + 1


@pytest.mark.parametrize("corpus", ["synth", "zipf"])
@pytest.mark.parametrize("variant", sorted(TRAINERS))
def test_each_rows_scores_alone_are_its_scores_in_the_batch(splits, models, corpus, variant):
    _, test = splits[corpus]
    model = models[corpus, variant]
    # the test rows, a row with no stored cells and one whose only stored
    # cells are -0.0 and a 1.0
    extra = np.zeros((2, test.width))
    extra[1, 0], extra[1, test.width - 1] = -0.0, 1.0
    X = stacked(test, extra)
    batch = model.scores(X)
    assert batch.shape == (X.n_rows, len(model.class_values))
    for i in range(X.n_rows):
        assert model.scores(rows_of(X, [i])).tobytes() == batch[i:i + 1].tobytes(), i
    # another batch of the same rows: reversed, each row twice
    order = np.repeat(np.arange(X.n_rows)[::-1], 2)
    assert model.scores(rows_of(X, order)).tobytes() == batch[order].tobytes()
    assert model.scores(rows_of(X, [])).shape == (0, len(model.class_values))


# Each child process loads the models and the test rows saved by the test,
# and saves what each model makes of them, to compare with this process's
# bits. Only the child gets the setting.
CHILD = """
import sys
import numpy as np
from rusent.classifiers.base import load_model
from rusent.sparse import Csr
root = sys.argv[1]
for corpus in ("synth", "zipf"):
    cells = np.load(f"{root}/{corpus}.npz")
    X = Csr(cells["indptr"], cells["indices"], cells["data"], int(cells["width"]))
    for name in sys.argv[2:]:
        model = load_model(f"{root}/{corpus}-{name}.model")
        np.save(f"{root}/out/{corpus}-{name}-predict.npy", model.predict_indices(X))
        np.save(f"{root}/out/{corpus}-{name}-scores.npy", model.scores(X))
"""

# numpy's own AVX-512 loops off (the X86_V4 group in numpy 2.4, its parts
# in older numpy; a name numpy does not know is passed over)
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
SETTINGS = {
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "nehalem": {"OPENBLAS_CORETYPE": "Nehalem"},
    "no-avx512": NO_AVX512,
}


@pytest.fixture(scope="module")
def saved(splits, models, tmp_path_factory):
    """A directory of every model and test matrix, and this process's
    outputs of them: name -> array."""
    root = tmp_path_factory.mktemp("saved")
    mine = {}
    for corpus, (_, test) in splits.items():
        np.savez(root / f"{corpus}.npz", indptr=test.indptr, indices=test.indices,
                 data=test.data, width=test.width)
        for name in TRAINERS:
            model = models[corpus, name]
            model.save(root / f"{corpus}-{name}.model")
            mine[f"{corpus}-{name}-predict"] = model.predict_indices(test)
            mine[f"{corpus}-{name}-scores"] = model.scores(test)
    return root, mine


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_scores_have_the_same_bits_under_other_cpu_settings(saved, setting):
    root, mine = saved
    out = root / "out"
    out.mkdir(exist_ok=True)
    for stale in out.iterdir():
        stale.unlink()
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, **SETTINGS[setting],
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", CHILD, str(root), *TRAINERS], env=env, check=True,
                   timeout=300)
    # MLP scores go through numpy's exp (and tanh), whose SIMD loops round
    # their own way, so those hold across BLAS kernels only
    simd = ("mlp-scores", "mlp-tanh-scores")
    drifted = []
    for name, bits in sorted(mine.items()):
        if setting in ("haswell", "nehalem") or not name.endswith(simd):
            got = np.load(out / f"{name}.npy")
            if got.tobytes() != bits.tobytes():
                drifted.append(name)
    assert drifted == []
