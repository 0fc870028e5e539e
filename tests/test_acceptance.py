"""End-to-end acceptance checks.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line so the suite output
doubles as a release checklist. Numbered oracles:

 1. ARFF round trip over the golden corpus, byte-stable, < 1 s
 2. metric formulas on a constructed 400-instance confusion matrix
 3. naive-bayes hand-computed probability oracle
 4. entropy/gain oracle and depth-1 separation
 5. k-NN brute-force equivalence on random data, < 5 s
 6. AdaBoost weight-update identity and stump-beating ensemble
 7. MLP finite-difference gradient check and XOR
 8. SVM separable blob accuracy and grid-search objective oracle, < 10 s
 9. full pipeline on the synthetic corpus: 8 classifiers, >= 90% each, < 60 s
10. seed-42 model files match frozen SHA-256 hashes (determinism)
"""

import contextlib
import glob
import hashlib
import json
import math
import os
import time

import numpy as np
import pytest

from rusent.arff import Dataset, load_text_directory, parse_arff, write_arff
from rusent.classifiers import (
    TreeConfig,
    train_adaboost,
    train_knn,
    train_mnb,
    train_svm,
)
from rusent.classifiers.mlp import init_mlp, train_mlp
from rusent.classifiers.svm import svm_objective
from rusent.classifiers.tree import entropy, grow_tree, tree_predict_batch
from rusent.cli import main
from rusent.corpus import SplitSpec, split
from rusent.evaluation import ConfusionMatrix, metrics_from_matrix
from rusent.rng import SplitMix64
from rusent.synth import generate_corpus
from rusent.vectorize import FeatureMatrix

from conftest import make_matrix, predicted
from test_adaboost import NONSEP_LABELS, NONSEP_ROWS, best_stump_accuracy
from test_knn import brute_force_predict
from test_mlp import XOR, finite_difference_grads
from test_tree import is_leaf, walk_splits

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@contextlib.contextmanager
def criterion(number):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL")
        raise
    print(f"ACCEPTANCE {number}: PASS")


def test_criterion_1_arff_round_trip():
    with criterion(1):
        started = time.perf_counter()
        files = sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.arff")))
        assert len(files) == 20
        for path in files:
            with open(path, "rb") as fh:
                original = parse_arff(fh.read())
            text = write_arff(original)
            assert parse_arff(text) == original
            assert write_arff(parse_arff(text)) == text  # byte-stable
        assert time.perf_counter() - started < 1.0


def test_criterion_2_metric_formulas():
    with criterion(2):
        # 359 of 400 correct
        matrix = ConfusionMatrix(tp=192, fp=27, fn=14, tn=167, positive_class="pos")
        report = metrics_from_matrix(matrix, "mnb")
        assert report.total == 400 and report.correct == 359
        assert report.accuracy * 100.0 == pytest.approx(89.75, abs=0)
        p, r = 0.93, 0.96
        f = 2 * p * r / (p + r)
        assert f == pytest.approx(0.9448, abs=5e-5)
        check = metrics_from_matrix(ConfusionMatrix(93, 7, 0, 0, "pos"), "x")
        assert abs(2 * p * r / (p + r) - f) < 1e-9
        assert check.f_measure == pytest.approx(
            2 * check.precision * check.recall / (check.precision + check.recall),
            abs=1e-9,
        )


def test_criterion_3_mnb_hand_oracle():
    with criterion(3):
        # vocabulary (achi, gari, kharab); pos: "achi gari", "achi";
        # neg: "kharab gari", "kharab"
        m = make_matrix(
            [[1, 1, 0], [1, 0, 0], [0, 1, 1], [0, 0, 1]],
            ["pos", "pos", "neg", "neg"],
            ("neg", "pos"),
        )
        model = train_mnb(m, alpha=1.0)
        from rusent.classifiers.base import loads_model

        persisted = loads_model(model.dumps())
        pos_probs = (3 / 6, 2 / 6, 1 / 6)
        neg_probs = (1 / 6, 2 / 6, 3 / 6)
        for mod in (model, persisted):
            likes = np.exp(mod.log_likelihood)
            for i in range(3):
                assert likes[1, i] == pytest.approx(pos_probs[i], abs=1e-12)
                assert likes[0, i] == pytest.approx(neg_probs[i], abs=1e-12)
            x = np.array([[1.0, 1.0, 0.0]])
            post = mod.log_posteriors(x)[0]
            assert post[1] == pytest.approx(
                math.log(0.5 * pos_probs[0] * pos_probs[1]), abs=1e-12
            )
            assert post[0] == pytest.approx(
                math.log(0.5 * neg_probs[0] * neg_probs[1]), abs=1e-12
            )
            assert predicted(mod, x) == ["pos"]


def test_criterion_4_entropy_and_gain():
    with criterion(4):
        assert entropy(np.array([9.0, 5.0])) == pytest.approx(0.9403, abs=1e-4)
        rng = SplitMix64(3)
        X = np.array([[float(rng.next_below(5)) for _ in range(4)] for _ in range(40)])
        y = np.array([rng.next_below(2) for _ in range(40)], dtype=np.intp)
        w = np.ones(40)
        labels = [("neg", "pos")[c] for c in y]
        tree = grow_tree(make_matrix(X, labels), w, TreeConfig())
        splits = list(walk_splits(tree, X, y, w, 2))
        assert splits  # the noisy data forces at least one split
        for _, gain in splits:
            assert gain > 0.0
        sep = make_matrix(
            [[0.0], [1.0], [5.0], [6.0]], ["neg", "neg", "pos", "pos"], ("neg", "pos")
        )
        from rusent.classifiers import train_dtree

        model = train_dtree(sep)
        assert not is_leaf(model.tree, 0)
        assert is_leaf(model.tree, 1) and is_leaf(model.tree, model.tree.right[0])


def test_criterion_5_knn_brute_force_equivalence():
    with criterion(5):
        started = time.perf_counter()
        rng = SplitMix64(11)
        n, d = 200, 20
        rows = [[rng.uniform(-10, 10) for _ in range(d)] for _ in range(n)]
        class_values = ("neg", "pos")
        labels = [class_values[rng.next_below(2)] for _ in range(n)]
        m = make_matrix(rows, labels, class_values)
        queries = [[rng.uniform(-10, 10) for _ in range(d)] for _ in range(40)]
        for metric in ("euclidean", "manhattan", "minkowski"):
            for k in (1, 3, 5):
                model = train_knn(m, k=k, distance=metric, p=3.0)
                assert predicted(model, queries) == [
                    brute_force_predict(rows, labels, class_values, q, k, metric, 3.0)
                    for q in queries
                ]
        assert time.perf_counter() - started < 5.0


def test_criterion_6_adaboost_identity_and_stump():
    with criterion(6):
        m = make_matrix(NONSEP_ROWS, NONSEP_LABELS, ("neg", "pos"))
        model = train_adaboost(m, rounds=3)
        y = m.y
        weights = np.full(len(y), 1.0 / len(y))
        for alpha, root in model.stages:
            miss = tree_predict_batch(root, m.rows) != y
            weights = weights * np.where(miss, math.exp(alpha), math.exp(-alpha))
            weights /= weights.sum()
            assert weights[miss].sum() == pytest.approx(0.5, abs=1e-9)
        stump_best = best_stump_accuracy(NONSEP_ROWS, NONSEP_LABELS)
        assert stump_best < 1.0
        acc = np.mean(np.array(predicted(model, m.rows)) == m.labels)
        assert acc > stump_best


def test_criterion_7_mlp_gradients_and_xor():
    with criterion(7):
        probe = make_matrix(
            [[0.3, -1.2], [2.0, 0.5], [-0.7, 0.1]],
            ["neg", "pos", "neg"],
            ("neg", "pos"),
        )
        net = init_mlp(probe, hidden=[3], seed=4)
        X, y = probe.rows, probe.y
        _, gw, gb = net.gradients(X, y)
        fw, fb = finite_difference_grads(net, X, y, step=1e-5)
        worst = 0.0
        for a, b in zip(gw + gb, fw + fb):
            denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
            worst = max(worst, float(np.max(np.abs(a - b) / denom)))
        assert worst < 1e-4
        xor_model = train_mlp(XOR, hidden=[8], learning_rate=0.5, epochs=2000,
                              batch_size=4, seed=1)
        assert predicted(xor_model, XOR.rows) == XOR.labels


def test_criterion_8_svm_blob_and_objective():
    with criterion(8):
        started = time.perf_counter()
        rng = SplitMix64(9)
        rows, labels = [], []
        for _ in range(20):
            rows.append([rng.uniform(-1, 1) - 2.0, rng.uniform(-1, 1)])
            labels.append("neg")
        for _ in range(20):
            rows.append([rng.uniform(-1, 1) + 2.0, rng.uniform(-1, 1)])
            labels.append("pos")
        m = make_matrix(rows, labels, ("neg", "pos"))
        lam = 0.05
        model = train_svm(m, lam=lam, epochs=1000, seed=0)
        assert predicted(model, m.rows) == m.labels
        signs = np.where(m.y == 1, 1.0, -1.0)
        achieved = svm_objective(model.weights, model.bias, m.rows, signs, lam)
        best = np.inf
        for w0 in np.linspace(-2, 2, 41):
            for w1 in np.linspace(-2, 2, 41):
                for b in np.linspace(-2, 2, 21):
                    best = min(
                        best,
                        svm_objective(np.array([w0, w1]), b, m.rows, signs, lam),
                    )
        assert achieved <= best * 1.05 + 1e-9
        assert time.perf_counter() - started < 10.0


def _pipeline_inputs(root):
    """Seeded synthetic corpus, stratified 1600/400 split, on-disk ARFFs."""
    corpus = os.path.join(root, "corpus")
    generate_corpus(corpus, per_class=1000, seed=0)
    dataset = load_text_directory(corpus)
    train, test = split(dataset, SplitSpec(0.8, stratified=True, seed=7))
    train_path = os.path.join(root, "train.arff")
    test_path = os.path.join(root, "test.arff")
    with open(train_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(write_arff(train))
    with open(test_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(write_arff(test))
    return train_path, test_path


def test_criterion_9_end_to_end_pipeline(tmp_path, capsys):
    with criterion(9):
        started = time.perf_counter()
        train_path, test_path = _pipeline_inputs(str(tmp_path))
        out_a = str(tmp_path / "run_a")
        out_b = str(tmp_path / "run_b")
        for out_dir in (out_a, out_b):
            code = main([
                "compare", "--train", train_path, "--test", test_path,
                "--out-dir", out_dir, "--seed", "42",
            ])
            assert code == 0
        assert time.perf_counter() - started < 60.0

        table = open(os.path.join(out_a, "report.txt"), encoding="utf-8").read()
        lines = table.rstrip("\n").split("\n")
        assert lines[0].split() == [
            "classifier", "total", "correct", "incorrect",
            "accuracy%", "precision", "recall", "f-measure",
        ]
        assert len(lines) == 2 + 8 + 1  # header + rule + 8 classifiers + footer

        payload = json.loads(open(os.path.join(out_a, "report.json")).read())
        assert len(payload["reports"]) == 8
        for report in payload["reports"]:
            assert report["accuracy"] >= 0.90, (report["model"], report["accuracy"])

        for name in ("report.txt", "report.json"):
            a = open(os.path.join(out_a, name), "rb").read()
            b = open(os.path.join(out_b, name), "rb").read()
            assert a == b


# SHA-256 of each model file produced by criterion 10's seed-42 run.
# Regenerate with: sha256sum <out>/models/*.model
FROZEN_MODEL_HASHES = {
    "adaboost": "f7af2f353f295faacb600889db650c4a58a43776efd6e45735d66939a7ec6573",
    "bagging": "62fb3ba39b89898c385075d0f2b679c04e03b6dda19780e79810a72d8eae0696",
    "dtree": "5c599eae72c8b7961b44fd58a0a5186c62c66a3e0acb386bbc5b6c22e122cd88",
    "knn": "ac4358def3af4c439435bc12ca8a357c2adb31cd359251cdbe2cae41aa0cb387",
    "mlp": "f87f42bd1acaa7860f439d45a21985257023170c847e53b80f148a529ddd96bf",
    "mnb": "449ec6f18a1d80cdedb6516efe489d6844aaddab3fec838d05f9d187803bcadf",
    "rforest": "d838aa0bf1c52aae4c742d3c0f47d7517179af3f38400beb31cb64170cdd7a4e",
    "svm": "34f7d09d493006dbece002fd0123335e86521145d86434a605fe350fc88ad4b2",
}


def test_criterion_10_deterministic_model_bytes(tmp_path, capsys):
    with criterion(10):
        train_path, test_path = _pipeline_inputs(str(tmp_path))
        out_dir = str(tmp_path / "out")
        code = main([
            "compare", "--train", train_path, "--test", test_path,
            "--out-dir", out_dir, "--seed", "42",
        ])
        assert code == 0
        for algorithm, expected in sorted(FROZEN_MODEL_HASHES.items()):
            path = os.path.join(out_dir, "models", f"{algorithm}.model")
            digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
            assert digest == expected, f"{algorithm} model bytes drifted"
