import numpy as np
import pytest

from rusent.classifiers import train_svm
from rusent.classifiers.svm import svm_objective
from rusent.errors import ModelError
from rusent.rng import SplitMix64

from conftest import dense_csr, make_matrix, predicted


def blob_matrix(n_per_class=20, seed=0, gap=4.0):
    """Two well-separated gaussian-ish blobs in 2-D."""
    rng = SplitMix64(seed)
    rows, labels = [], []
    for _ in range(n_per_class):
        rows.append([rng.uniform(-1, 1) - gap / 2, rng.uniform(-1, 1)])
        labels.append("neg")
    for _ in range(n_per_class):
        rows.append([rng.uniform(-1, 1) + gap / 2, rng.uniform(-1, 1)])
        labels.append("pos")
    return make_matrix(rows, labels, ("neg", "pos"))


class TestTraining:
    def test_separable_blobs_reach_full_training_accuracy(self):
        m = blob_matrix()
        model = train_svm(m, lam=1e-3, epochs=100, seed=0)
        assert predicted(model, m) == m.labels

    def test_margin_signs(self):
        m = blob_matrix()
        model = train_svm(m)
        assert model.scores(dense_csr([[-3.0, 0.0]]))[0, 1] < 0
        assert model.scores(dense_csr([[3.0, 0.0]]))[0, 1] > 0
        lo, hi = model.scores(dense_csr([[3.0, 0.0]]))[0]
        assert lo == -hi

    def test_objective_decreases_with_more_epochs(self):
        m = blob_matrix(seed=5)
        signs = np.where(m.y == 1, 1.0, -1.0)
        short = train_svm(m, lam=1e-2, epochs=2, seed=1)
        long = train_svm(m, lam=1e-2, epochs=200, seed=1)
        f = lambda mod: svm_objective(mod.weights, mod.bias, m, signs, 1e-2)
        assert f(long) < f(short)

    def test_deterministic_for_seed(self):
        m = blob_matrix(seed=3)
        assert train_svm(m, seed=7).dumps() == train_svm(m, seed=7).dumps()
        assert train_svm(m, seed=7).dumps() != train_svm(m, seed=8).dumps()

    def test_tiny_symmetric_set_separated(self):
        rows = [[-2.0, 0.0], [-2.1, 0.3], [2.0, 0.0], [2.1, 0.3]]
        m = make_matrix(rows, ["neg", "neg", "pos", "pos"], ("neg", "pos"))
        model = train_svm(m, lam=0.05, epochs=200, seed=0)
        assert predicted(model, rows) == ["neg", "neg", "pos", "pos"]
        assert model.weights[0] > 0.0


class TestObjective:
    def test_zero_model_objective_is_one(self):
        m = blob_matrix()
        signs = np.where(m.y == 1, 1.0, -1.0)
        assert svm_objective(np.zeros(2), 0.0, m, signs, 1e-3) == pytest.approx(1.0)

    def test_hand_value(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        signs = np.array([1.0, -1.0])
        w = np.array([0.5, 0.0])
        # lam/2 * 0.25 + mean(max(0, 1-0.5), max(0, 1-0.5)) = 0.125 + 0.5
        assert svm_objective(w, 0.0, dense_csr(X), signs, 1.0) == pytest.approx(0.625, abs=1e-12)

    def test_final_objective_near_grid_search_optimum(self):
        m = blob_matrix(seed=9)
        signs = np.where(m.y == 1, 1.0, -1.0)
        lam = 0.05
        model = train_svm(m, lam=lam, epochs=1000, seed=0)
        got = svm_objective(model.weights, model.bias, m, signs, lam)
        # brute-force grid over (w0, w1, b)
        best = np.inf
        for w0 in np.linspace(-2, 2, 41):
            for w1 in np.linspace(-2, 2, 41):
                for b in np.linspace(-2, 2, 21):
                    best = min(best, svm_objective(np.array([w0, w1]), b, m, signs, lam))
        assert got <= best * 1.05 + 1e-9


class TestValidation:
    def test_multiclass_rejected(self):
        m = make_matrix([[0.0], [1.0], [2.0]], ["a", "b", "c"], ("a", "b", "c"))
        with pytest.raises(ModelError):
            train_svm(m)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ModelError):
            train_svm(blob_matrix(), lam=0.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ModelError, match="lambda"):
            train_svm(blob_matrix(), lam=lam)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ModelError):
            train_svm(blob_matrix(), epochs=0)
