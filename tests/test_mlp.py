import numpy as np
import pytest

from rusent.classifiers import train_mlp
from rusent.classifiers.base import loads_model
from rusent.classifiers.mlp import MlpModel, _init_mlp, init_mlp
from rusent.errors import ModelError
from rusent.rng import SplitMix64

from conftest import dense_csr, make_matrix, predicted

XOR = make_matrix(
    [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
    ["neg", "pos", "pos", "neg"],
    ("neg", "pos"),
)


def finite_difference_grads(model, X, y, step=1e-5):
    """Central finite differences of the loss over every parameter."""
    grads_w = [np.zeros_like(W) for W in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]
    for params, grads in ((model.weights, grads_w), (model.biases, grads_b)):
        for P, G in zip(params, grads):
            flat_p = P.reshape(-1)
            flat_g = G.reshape(-1)
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + step
                hi = model.loss(X, y)
                flat_p[i] = orig - step
                lo = model.loss(X, y)
                flat_p[i] = orig
                flat_g[i] = (hi - lo) / (2 * step)
    return grads_w, grads_b


class TestGradients:
    @pytest.mark.parametrize("activation", ["logistic", "tanh"])
    def test_backprop_matches_finite_differences(self, activation):
        m = make_matrix(
            [[0.3, -1.2], [2.0, 0.5], [-0.7, 0.1]],
            ["neg", "pos", "neg"],
            ("neg", "pos"),
        )
        model = init_mlp(m, hidden=[3], activation=activation, seed=4)
        X, y = m.rows, m.y
        _, gw, gb = model.gradients(X, y)
        fw, fb = finite_difference_grads(model, X, y)
        for a, b in zip(gw + gb, fw + fb):
            denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
            assert np.max(np.abs(a - b) / denom) < 1e-4

    @pytest.mark.parametrize("activation", ["logistic", "tanh"])
    def test_one_full_batch_epoch_steps_by_the_gradients(self, activation):
        # training and gradients() share one kernel: after one epoch of one
        # batch every parameter is init - lr * g, bit for bit, where g comes
        # from gradients() on the rows in the epoch's shuffled order
        m = make_matrix(
            [[0.3, -1.2, 0.0], [2.0, 0.5, 1.0], [-0.7, 0.1, 0.0], [0.0, 0.0, 3.0],
             [1.5, -0.2, 0.4], [0.2, 0.9, -1.1], [-2.0, 0.0, 0.6]],
            ["neg", "pos", "neu", "neg", "pos", "neu", "pos"],
            ("neg", "neu", "pos"),
        )
        n, lr, seed = 7, 0.3, 11
        rng = SplitMix64(seed)
        start = _init_mlp(rng, m, [4, 3], activation, lr, 1, n, seed)
        order = list(range(n))
        rng.shuffle(order)
        _, gw, gb = start.gradients(m.rows[order], m.y[order])
        trained = train_mlp(m, hidden=[4, 3], activation=activation, learning_rate=lr,
                            epochs=1, batch_size=n, seed=seed)
        for p, p0, g in zip(trained.weights + trained.biases,
                            start.weights + start.biases, gw + gb):
            assert p.tobytes() == (p0 - lr * g).tobytes()

    def test_gradient_loss_matches_loss(self):
        model = init_mlp(XOR, hidden=[4], seed=0)
        X, y = XOR.rows, XOR.y
        loss, _, _ = model.gradients(X, y)
        assert loss == pytest.approx(model.loss(X, y), abs=1e-12)


class TestTraining:
    def test_learns_xor(self):
        model = train_mlp(XOR, hidden=[8], learning_rate=0.5, epochs=2000,
                          batch_size=4, seed=1)
        assert predicted(model, XOR) == XOR.labels

    def test_scores_sum_to_one(self):
        model = train_mlp(XOR, hidden=[3], epochs=5, seed=0)
        scores = model.scores(dense_csr([[0.5, 0.5]]))[0]
        assert sum(scores) == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_zero_epochs_keeps_initial_weights(self):
        trained = train_mlp(XOR, hidden=[3], epochs=0, seed=6)
        fresh = init_mlp(XOR, hidden=[3], epochs=0, seed=6)
        for a, b in zip(trained.weights, fresh.weights):
            assert np.array_equal(a, b)
        assert all(np.all(b == 0.0) for b in trained.biases)

    def test_deterministic_for_seed(self):
        a = train_mlp(XOR, hidden=[4], epochs=30, seed=12)
        b = train_mlp(XOR, hidden=[4], epochs=30, seed=12)
        assert a.dumps() == b.dumps()

    def test_training_reduces_loss(self):
        X, y = XOR.rows, XOR.y
        start = init_mlp(XOR, hidden=[8], seed=2).loss(X, y)
        end = train_mlp(XOR, hidden=[8], learning_rate=0.5, epochs=500,
                        batch_size=4, seed=2).loss(X, y)
        assert end < start

    def test_init_bounds(self):
        model = init_mlp(XOR, hidden=[5], seed=9)
        r0 = np.sqrt(6.0 / (2 + 5))
        r1 = np.sqrt(6.0 / (5 + 2))
        assert np.all(np.abs(model.weights[0]) <= r0)
        assert np.all(np.abs(model.weights[1]) <= r1)


def textbook_step(model, X, y):
    """The pass the mlp module documents, one expression per line with
    np.matmul: (softmax output, dW list, db list) of the mean
    cross-entropy of the rows X against the classes y."""
    last = len(model.weights) - 1
    acts = [X]
    for li, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(acts[-1], W) + b
        if li == last:
            z = np.exp(z - np.max(z, axis=1)[:, None])
            z = z / np.sum(z, axis=1)[:, None]
        elif model.activation == "logistic":
            z = 1.0 / (1.0 + np.exp(-z))
        else:
            z = np.tanh(z)
        acts.append(z)
    delta = (acts[-1] - np.eye(model.sizes[-1])[y]) / len(y)
    grads_w, grads_b = [None] * (last + 1), [None] * (last + 1)
    for li in range(last, -1, -1):
        grads_w[li] = np.matmul(acts[li].T, delta)
        grads_b[li] = np.sum(delta, axis=0)
        if li > 0:
            a = acts[li]
            deriv = a * (1.0 - a) if model.activation == "logistic" else 1.0 - a * a
            delta = np.matmul(delta, model.weights[li].T) * deriv
    return acts[-1], grads_w, grads_b


def textbook_scores(model, X):
    """The scoring pass the mlp module documents: textbook_step's forward
    pass, each product a @ W taken as +0.0 and then a[:, i] * W[i] added
    for i = 0, 1, ..., every cell of the dense rows X included."""
    last = len(model.weights) - 1
    a = X
    for li, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = np.zeros((len(X), W.shape[1]))
        for i in range(W.shape[0]):
            z = z + a[:, i:i + 1] * W[i]
        z = z + b
        if li == last:
            z = np.exp(z - np.max(z, axis=1)[:, None])
            z = z / np.sum(z, axis=1)[:, None]
        elif model.activation == "logistic":
            z = 1.0 / (1.0 + np.exp(-z))
        else:
            z = np.tanh(z)
        a = z
    return a


def plan_matrix(classes):
    """37 rows of 6 features, a third of the cells 0, in `classes` classes."""
    gen = np.random.default_rng(classes)
    rows = gen.standard_normal((37, 6)) * (gen.random((37, 6)) < 0.67)
    names = ("neg", "neu", "pos")[:classes]
    return make_matrix(rows, [names[i % classes] for i in range(37)], names)


@pytest.mark.parametrize("activation", ["logistic", "tanh"])
@pytest.mark.parametrize("classes", [2, 3])
@pytest.mark.parametrize("hidden", [[1], [3, 5], [32, 32]], ids=str)
class TestTheStepPlan:
    """The replayed plan gives the bits of the textbook step, for layer
    widths that share the hidden buffer unequally and batches of every
    shape training makes."""

    @pytest.mark.parametrize("rows", [1, 5, 16])
    def test_gradients_are_the_textbook_ones(self, hidden, classes, activation, rows):
        m = plan_matrix(classes)
        model = init_mlp(m, hidden=hidden, activation=activation, seed=3)
        X, y = m.rows[:rows], m.y[:rows]
        loss, gw, gb = model.gradients(X, y)
        probs, tw, tb = textbook_step(model, X, y)
        for a, b in zip(gw + gb, tw + tb):
            assert a.tobytes() == b.tobytes()
        assert loss == float(-np.log(np.maximum(probs[np.arange(rows), y], 1e-300)).mean())

    def test_scores_are_the_textbook_forward_in_row_order(self, hidden, classes, activation):
        # every layer sums each row's stored cells alone (row_sums), its
        # input's and then its activations'; a +0.0 cell would add nothing
        # to such a sum, so this is the textbook's fold over every cell
        # (-0.0 cells included)
        m = plan_matrix(classes)
        model = train_mlp(m, hidden=hidden, activation=activation, epochs=2, seed=4)
        assert np.signbit(m.data).any() and (m.data == 0).any()
        assert model.scores(m).tobytes() == textbook_scores(model, m.rows).tobytes()

    @pytest.mark.parametrize("batch_size", [1, 16])  # 16: two full batches and one of 5
    def test_an_epoch_steps_as_the_textbook_does(self, hidden, classes, activation,
                                                 batch_size):
        m, lr, seed = plan_matrix(classes), 0.3, 5
        rng = SplitMix64(seed)
        ref = _init_mlp(rng, m, hidden, activation, lr, 1, batch_size, seed)
        order = list(range(37))
        rng.shuffle(order)
        for start in range(0, 37, batch_size):
            batch = order[start:start + batch_size]
            _, gw, gb = textbook_step(ref, m.rows[batch], m.y[batch])
            grads = np.concatenate([g.reshape(-1) for pair in zip(gw, gb) for g in pair])
            ref.params -= lr * grads
        trained = train_mlp(m, hidden=hidden, activation=activation, learning_rate=lr,
                            epochs=1, batch_size=batch_size, seed=seed)
        assert trained.params.tobytes() == ref.params.tobytes()
        # a second call builds its own plan: none of the first one's views
        # into buffers or parameters carries over
        again = train_mlp(m, hidden=hidden, activation=activation, learning_rate=lr,
                          epochs=1, batch_size=batch_size, seed=seed)
        assert again.dumps() == trained.dumps()


THREE_CLASSES = make_matrix(
    [[0.3, -1.2, 0.0], [2.0, 0.5, 1.0], [-0.7, 0.1, 0.0], [0.0, 0.0, 3.0],
     [1.5, -0.2, 0.4], [0.2, 0.9, -1.1]],
    ["neg", "pos", "neu", "neg", "pos", "neu"],
    ("neg", "neu", "pos"),
)


class TestParameterBuffer:
    """The model's weights and biases are views into its one flat buffer,
    laid out in the model file's body order."""

    def trained(self):
        return train_mlp(THREE_CLASSES, hidden=[4, 3], epochs=3, batch_size=4, seed=2)

    def test_weights_and_biases_are_views_into_params(self):
        model = self.trained()
        assert model.sizes == [3, 4, 3, 3]
        assert model.params.dtype == np.float64 and model.params.ndim == 1
        for p in model.weights + model.biases:
            assert np.shares_memory(p, model.params)

    def test_params_are_the_body_rows_in_file_order(self):
        model = self.trained()
        rows = [line.split(" ")[2:] for line in model.dumps().splitlines()
                if line.startswith(("w ", "b "))]
        body = np.array([float(v) for row in rows for v in row])
        assert model.params.tobytes() == body.tobytes()

    def test_a_loaded_model_has_the_same_buffer(self):
        model = self.trained()
        clone = loads_model(model.dumps())
        assert clone.sizes == model.sizes
        assert clone.params.tobytes() == model.params.tobytes()
        for p in clone.weights + clone.biases:
            assert np.shares_memory(p, clone.params)

    def test_loss_reads_the_live_parameters(self):
        model = init_mlp(THREE_CLASSES, hidden=[4], seed=1)
        X, y = THREE_CLASSES.rows, THREE_CLASSES.y
        before = model.loss(X, y)
        model.params *= 0.0  # every score equal: the loss is ln(3)
        assert model.loss(X, y) != before
        assert model.loss(X, y) == pytest.approx(np.log(3.0), abs=1e-12)


class TestNonFiniteParameters:
    """Only a model in memory can hold a non-finite parameter: save and load
    refuse them."""

    @pytest.mark.parametrize("hidden", [[4], [4, 3]], ids=str)
    def test_a_zero_activation_times_an_infinite_weight_adds_nothing(self, hidden):
        # tanh of the zero row's +0.0 sums is +0.0 at every hidden unit, and
        # a +0.0 activation is skipped as a +0.0 input cell is, so infinite
        # weights out of it change no score (the fold over every cell gave
        # NaN: +0.0 * inf)
        model = init_mlp(THREE_CLASSES, hidden=hidden, activation="tanh", seed=1)
        model.biases[-1][...] = [0.5, -1.0, 2.0]
        zero_row = dense_csr([[0.0, 0.0, 0.0]])
        finite = model.scores(zero_row)
        for W in model.weights:
            W[...] = np.inf
        assert model.scores(zero_row).tobytes() == finite.tobytes()
        assert np.isfinite(model.loss(np.zeros((1, 3)), np.array([2])))
        with pytest.raises(ModelError, match="non-finite"):
            model.dumps()


class TestValidation:
    def test_empty_hidden_rejected(self):
        with pytest.raises(ModelError):
            init_mlp(XOR, hidden=[])

    def test_bad_activation_rejected(self):
        with pytest.raises(ModelError):
            init_mlp(XOR, hidden=[3], activation="relu")

    def test_nonpositive_learning_rate_rejected(self):
        with pytest.raises(ModelError):
            init_mlp(XOR, hidden=[3], learning_rate=0.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(ModelError, match="learning rate"):
            train_mlp(XOR, hidden=[3], learning_rate=rate)

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ModelError):
            init_mlp(XOR, hidden=[3], batch_size=0)

    @pytest.mark.parametrize("length", [5, 16, 18])
    def test_a_buffer_of_the_wrong_length_is_rejected(self, length):
        # 2 features, hidden [3], 2 classes: (2 + 1) * 3 + (3 + 1) * 2 = 17 values
        with pytest.raises(ModelError, match="params must be 17 values"):
            MlpModel(("neg", "pos"), 2, [3], np.zeros(length), "logistic", 0.1, 1, 1, 0)
