import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rusent.classifiers import train_adaboost, train_bagging, train_dtree, train_rforest
from rusent.classifiers import tree
from rusent.classifiers.base import TreeConfig, loads_model
from rusent.classifiers.tree import _best_split, _entropy_rows, entropy, grow_tree, tree_apply
from rusent.errors import ModelError
from rusent.rng import SplitMix64

from conftest import make_matrix


class TestEntropy:
    def test_uniform_binary_is_one_bit(self):
        assert entropy(np.array([5.0, 5.0])) == pytest.approx(1.0, abs=1e-12)

    def test_pure_is_zero(self):
        assert entropy(np.array([7.0, 0.0])) == 0.0

    def test_empty_is_zero(self):
        assert entropy(np.array([0.0, 0.0])) == 0.0

    def test_nine_five(self):
        # -(9/14)log2(9/14) - (5/14)log2(5/14)
        assert entropy(np.array([9.0, 5.0])) == pytest.approx(
            0.9402859586706311, abs=1e-12
        )

    def test_scale_invariant(self):
        a = np.array([3.0, 1.0, 2.0])
        assert entropy(a) == pytest.approx(entropy(a * 17.5), abs=1e-12)


def walk_splits(node, X, y, weights, n_classes):
    """Yield (node, gain recomputed from first principles) for internal nodes."""
    if node.is_leaf:
        return
    cw = np.zeros(n_classes)
    np.add.at(cw, y, weights)
    mask = X[:, node.feature] <= node.threshold
    lcw = np.zeros(n_classes)
    np.add.at(lcw, y[mask], weights[mask])
    rcw = cw - lcw
    total = cw.sum()
    gain = entropy(cw) - (lcw.sum() * entropy(lcw) + rcw.sum() * entropy(rcw)) / total
    yield node, gain
    yield from walk_splits(node.left, X[mask], y[mask], weights[mask], n_classes)
    yield from walk_splits(node.right, X[~mask], y[~mask], weights[~mask], n_classes)


def walk_leaves(root, X, y):
    """Yield (depth, rows, labels) for every leaf of a tree grown on X, y,
    left to right; without recursion, so any depth can be walked."""
    stack = [(root, X, y, 0)]
    while stack:
        node, X, y, depth = stack.pop()
        if node.is_leaf:
            yield depth, X, y
            continue
        mask = X[:, node.feature] <= node.threshold
        stack.append((node.right, X[~mask], y[~mask], depth + 1))
        stack.append((node.left, X[mask], y[mask], depth + 1))


def candidate_gains(X, y, min_leaf):
    """Unit-weight information gain of every split the tree may consider:
    each midpoint between distinct values of each feature that leaves at
    least min_leaf rows on both sides, recomputed from first principles."""
    parent = entropy(np.bincount(y, minlength=2).astype(float))
    for f in range(X.shape[1]):
        values = sorted(set(X[:, f].tolist()))
        for lo, hi in zip(values, values[1:]):
            left = X[:, f] <= (lo + hi) / 2.0
            if min(left.sum(), (~left).sum()) < min_leaf:
                continue
            children = sum(
                side.sum() * entropy(np.bincount(y[side], minlength=2).astype(float))
                for side in (left, ~left)
            )
            yield parent - children / len(y)


# rounding noise in a recomputed small-count gain is ~1e-16, while a real
# gain on these datasets is above 1e-3; a split between them is "positive"
GAIN_NOISE = 1e-9


class TestGrowth:
    def test_perfect_single_feature_gives_depth_one_tree(self, separable_1d):
        model = train_dtree(separable_1d)
        root = model.root
        assert not root.is_leaf
        assert root.feature == 0
        assert root.threshold == pytest.approx(6.0)
        assert root.left.is_leaf and root.right.is_leaf
        for row, label in zip(separable_1d.rows, separable_1d.labels):
            assert model.predict(row) == label

    def test_gain_tie_breaks_to_lowest_feature(self):
        # both features separate the classes perfectly; feature 0 must win
        m = make_matrix([[0, 0], [1, 1]], ["neg", "pos"], ("neg", "pos"))
        model = train_dtree(m)
        assert model.root.feature == 0

    def test_pure_node_is_leaf(self):
        m = make_matrix([[0.0], [1.0]], ["pos", "pos"], ("neg", "pos"))
        model = train_dtree(m)
        assert model.root.is_leaf
        assert model.predict([5.0]) == "pos"

    def test_max_depth_zero_is_majority_stump(self):
        m = make_matrix([[0.0], [1.0], [2.0]], ["neg", "pos", "pos"], ("neg", "pos"))
        model = train_dtree(m, max_depth=0)
        assert model.root.is_leaf
        assert model.root.class_index == 1

    def test_min_leaf_blocks_small_splits(self):
        m = make_matrix([[0.0], [1.0], [2.0], [3.0]],
                        ["neg", "neg", "neg", "pos"], ("neg", "pos"))
        model = train_dtree(m, min_leaf=2)
        # the only pure split (3 vs 1) is forbidden; 2-2 split has gain
        # H(3,1) - 0.5*H(2,0) - 0.5*H(1,1) = 0.8113 - 0.5 > 0
        assert not model.root.is_leaf
        assert model.root.threshold == pytest.approx(1.5)

    def test_leaf_majority_tie_breaks_to_lowest_class(self):
        m = make_matrix([[0.0], [0.0]], ["pos", "neg"], ("neg", "pos"))
        model = train_dtree(m)
        assert model.root.is_leaf
        assert model.predict([0.0]) == "neg"

    def test_duplicate_conflicting_rows_leaf_distribution(self):
        m = make_matrix([[1.0], [1.0], [1.0]], ["pos", "pos", "neg"], ("neg", "pos"))
        model = train_dtree(m)
        leaf = model.root
        assert leaf.is_leaf
        assert leaf.distribution.tolist() == pytest.approx([1 / 3, 2 / 3], abs=1e-12)

    def test_empty_matrix_rejected(self):
        m = make_matrix(np.zeros((0, 2)), [], ("neg", "pos"))
        with pytest.raises(ModelError):
            train_dtree(m)

    def test_weighted_growth_follows_weights(self):
        # unweighted, majority at x<=0.5 is neg; weight flips it to pos
        m = make_matrix([[0.0], [0.0], [0.0], [1.0]],
                        ["neg", "neg", "pos", "pos"], ("neg", "pos"))
        w = np.array([1.0, 1.0, 5.0, 1.0])
        model = train_dtree(m, sample_weights=w)
        node = tree_apply(model.root, np.array([0.0]))
        assert node.class_index == 1


# Adjacent sorted values whose plain midpoint (a + b) / 2 does not fall in
# [a, b): above about 9e307 the sum overflows to inf (or to -inf below
# -9e307), and between adjacent doubles it can round up to b. A threshold
# outside [a, b) sends both rows to one side, so the split separates nothing.
EDGE_PAIRS = [
    (1.7e308, 1.79e308),
    (-1.79e308, -1.7e308),
    (1.0 + 2.0**-52, 1.0 + 2.0**-51),
]


class TestThresholdEdges:
    @pytest.mark.parametrize("a, b", EDGE_PAIRS)
    def test_threshold_lies_in_a_to_b(self, a, b):
        X = np.array([[a], [b]])
        _, feature, threshold = _best_split(X, np.array([0, 1]), np.ones(2), 2, 1, range(1))
        assert feature == 0
        assert math.isfinite(threshold)
        assert a <= threshold < b

    @pytest.mark.parametrize("a, b", EDGE_PAIRS)
    def test_tree_separates_the_two_rows_at_depth_one(self, a, b):
        m = make_matrix([[a], [b]], ["neg", "pos"])
        model = train_dtree(m, max_depth=40)
        root = model.root
        assert not root.is_leaf
        assert root.left.is_leaf and root.right.is_leaf
        assert [model.predict([a]), model.predict([b])] == ["neg", "pos"]
        assert loads_model(model.dumps()).dumps() == model.dumps()


class TestProperties:
    datasets = st.lists(
        st.tuples(
            st.lists(st.integers(0, 4).map(float), min_size=3, max_size=3),
            st.sampled_from(["pos", "neg"]),
        ),
        min_size=2,
        max_size=25,
    )

    @given(datasets)
    @settings(max_examples=80, deadline=None)
    def test_every_accepted_split_has_positive_gain(self, docs):
        rows = np.array([r for r, _ in docs])
        y = np.array([0 if l == "neg" else 1 for _, l in docs])
        w = np.ones(len(y))
        root = grow_tree(rows, y, w, 2, None, 1)
        for _, gain in walk_splits(root, rows, y, w, 2):
            assert gain > 0.0

    # A tree need not fit consistent training data: on XOR-type data no
    # single split has positive gain at the root, so growth stops there.
    # What holds is the documented stopping rule, checked leaf by leaf.
    @given(datasets, st.sampled_from([None, 0, 1, 2, 3]), st.integers(1, 3))
    @example(
        [([0.0, 0.0, 1.0], "pos"), ([0.0, 1.0, 0.0], "pos"),
         ([0.0, 0.0, 0.0], "neg"), ([0.0, 1.0, 1.0], "neg")],
        None, 1,
    )
    # a small positive gain (about 0.009 bits) must still split the root
    @example(
        [([0.0, 0.0, 0.0], "neg")] * 5 + [([0.0, 0.0, 0.0], "pos")] * 4
        + [([1.0, 0.0, 0.0], "neg")] * 4 + [([1.0, 0.0, 0.0], "pos")] * 5,
        None, 1,
    )
    @settings(max_examples=60, deadline=None)
    def test_every_leaf_is_pure_or_at_a_stopping_rule(self, docs, max_depth, min_leaf):
        rows = np.array([r for r, _ in docs])
        y = np.array([0 if l == "neg" else 1 for _, l in docs])
        w = np.ones(len(y))
        root = grow_tree(rows, y, w, 2, max_depth, min_leaf)
        for depth, X, ys in walk_leaves(root, rows, y):
            stopped = (
                len(set(ys.tolist())) == 1
                or (max_depth is not None and depth >= max_depth)
                or len(ys) < 2 * min_leaf
            )
            if not stopped:
                gains = list(candidate_gains(X, ys, min_leaf))
                assert all(g <= GAIN_NOISE for g in gains), (depth, X.tolist(), ys.tolist())

    # power-of-two scales keep every float product exact; arbitrary scales
    # can flip ties between mathematically equal gains via rounding noise
    @given(datasets, st.sampled_from([0.25, 0.5, 2.0, 4.0]))
    @settings(max_examples=40, deadline=None)
    def test_uniform_weight_scaling_changes_nothing(self, docs, scale):
        rows = np.array([r for r, _ in docs])
        y = np.array([0 if l == "neg" else 1 for _, l in docs])
        a = grow_tree(rows, y, np.ones(len(y)), 2, None, 1)
        b = grow_tree(rows, y, np.full(len(y), scale), 2, None, 1)

        def shape(n):
            if n.is_leaf:
                return ("leaf", n.class_index)
            return ("split", n.feature, n.threshold, shape(n.left), shape(n.right))

        assert shape(a) == shape(b)


def reference_best_split(X, y, w, n_classes, min_leaf, features):
    """The split search one feature at a time: the oracle that the blocked
    search in tree.py must match bit for bit."""
    n = X.shape[0]
    total_cw = np.zeros(n_classes)
    np.add.at(total_cw, y, w)
    total_w = total_cw.sum()
    parent_h = entropy(total_cw)
    best = None
    for f in features:
        order = np.argsort(X[:, f], kind="stable")
        xv = X[order, f]
        boundaries = np.nonzero(xv[1:] != xv[:-1])[0]  # split between i and i+1
        if boundaries.size == 0:
            continue
        counts = boundaries + 1
        valid = (counts >= min_leaf) & (n - counts >= min_leaf)
        boundaries = boundaries[valid]
        if boundaries.size == 0:
            continue
        cw = np.zeros((n, n_classes))
        cw[np.arange(n), y[order]] = w[order]
        cum = cw.cumsum(axis=0)
        left_cw = cum[boundaries]
        right_cw = total_cw - left_cw
        left_w = left_cw.sum(axis=1)
        right_w = right_cw.sum(axis=1)
        gains = parent_h - (left_w * _entropy_rows(left_cw) + right_w * _entropy_rows(right_cw)) / total_w
        i = int(np.argmax(gains))  # first max = lowest threshold
        gain = float(gains[i])
        if best is None or gain > best[0]:
            thr = float((xv[boundaries[i]] + xv[boundaries[i] + 1]) / 2.0)
            best = (gain, f, thr)
    return best


def split_bits(best):
    """A split result with its floats as exact bit patterns (-0.0 != 0.0)."""
    if best is None:
        return None
    gain, feature, threshold = best
    return gain.hex(), int(feature), threshold.hex()


@st.composite
def split_problems(draw):
    """(X, y, w, n_classes, min_leaf, features, block budget) for _best_split."""
    n = draw(st.integers(1, 24))
    n_classes = draw(st.sampled_from([2, 3]))
    # negative, repeated and non-dyadic values, and constant columns,
    # which the search drops from their block
    value = st.integers(-3, 4).map(lambda v: v / 3.0)
    base = draw(st.lists(
        st.one_of(st.lists(value, min_size=n, max_size=n), value.map(lambda v: [v] * n)),
        min_size=1, max_size=5,
    ))
    # columns drawn from the base columns with repeats: duplicate columns
    # give equal partitions, so their gains tie exactly
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=9))
    X = np.array([base[j] for j in picks]).T.reshape(n, len(picks))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    if draw(st.booleans()):
        w = np.ones(n)
    else:  # AdaBoost-like: positive, non-dyadic, normalized to sum 1
        w = np.array(draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n)))
        w /= w.sum()
    min_leaf = draw(st.integers(1, 3))
    d = X.shape[1]
    if draw(st.booleans()):
        features = range(d)
    else:  # a random-forest subset: distinct and sorted
        features = sorted(draw(st.sets(st.integers(0, d - 1), min_size=1)))
    # budgets of under one, one, two and three features per block, or the default
    budget = draw(st.sampled_from([1, n, 2 * n, 3 * n + 1, tree._BLOCK_ENTRIES]))
    return X, y, w, n_classes, min_leaf, features, budget


class TestBlockedSplitSearch:
    @given(split_problems())
    # copies of one separating column (1, 3, 5) in blocks of one feature
    # each, under non-dyadic weights: the first copy must win the tie
    @example((
        np.column_stack([[1.0, 0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0, 2.0]] * 3),
        np.array([0, 0, 1, 1, 1]), np.array([0.1, 0.3, 0.2, 0.15, 0.25]), 2, 1, range(6), 5,
    ))
    @settings(max_examples=300)
    def test_matches_the_per_feature_loop_bit_for_bit(self, problem):
        X, y, w, n_classes, min_leaf, features, budget = problem
        expected = reference_best_split(X, y, w, n_classes, min_leaf, features)
        with mock.patch.object(tree, "_BLOCK_ENTRIES", budget):
            got = _best_split(X, y, w, n_classes, min_leaf, features)
        assert split_bits(got) == split_bits(expected)


def wide_count_matrix(rows=600, width=2000, terms=30, seed=2024):
    """A seeded sparse count matrix (about 1.5% non-zero) whose terms follow
    a skewed distribution, with a mild per-class preference for even or
    odd columns so that trees grow several levels."""
    rng = SplitMix64(seed)
    X = np.zeros((rows, width))
    labels = []
    for i in range(rows):
        label = rng.next_below(2)
        labels.append(("neg", "pos")[label])
        for t in range(terms):
            col = rng.next_below(rng.next_below(width) + 1)
            if t % 6 == 0:
                col = col // 2 * 2 + label
            X[i, col] += 1.0
    return make_matrix(X, labels)


# Taken from the per-feature split search, before it was replaced by the
# blocked one. At 600 rows a node's 2000 features span many blocks.
WIDE_MODEL_HASHES = {
    "dtree": "7aec1a981ced041ddce6222f61c61bfc5794fec484b143dedcb08d6eda293a9f",
    "bagging": "9da901b26a77ec34de3e51d43031e50df65312a932299d2b948b105231050ff1",
    "rforest": "f5e9a4b69c153444d4be557c85b57444368c94295cbe9e8120caea1d7105cb2e",
    "adaboost-depth1": "446ba53f4b0842898cc0590c5a88156448b3abfb3c6d148b97d457377a21ba00",
    "adaboost-depth2": "b9f4af74ca5f0485c0959b884f4409440ce3afab950626f5c881dda52de8b4c6",
}

WIDE_TRAINERS = {
    "dtree": lambda m: train_dtree(m, max_depth=6),
    "bagging": lambda m: train_bagging(m, m=3, base=TreeConfig(6, 2), seed=5),
    "rforest": lambda m: train_rforest(m, m=3, base=TreeConfig(6, 1), seed=5),
    "adaboost-depth1": lambda m: train_adaboost(m, rounds=6, weak=TreeConfig(1, 1)),
    "adaboost-depth2": lambda m: train_adaboost(m, rounds=6, weak=TreeConfig(2, 3)),
}


@pytest.fixture(scope="module")
def wide_matrix():
    return wide_count_matrix()


@pytest.mark.parametrize("name", sorted(WIDE_TRAINERS))
def test_tree_model_bytes_on_a_wide_matrix(wide_matrix, name):
    text = WIDE_TRAINERS[name](wide_matrix).dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == WIDE_MODEL_HASHES[name]


def test_a_1100_deep_tree_grows_without_recursion():
    # on x = 0..2199 with labels i(i+1)/2 mod 2 (0,1,1,0,0,1,1,0,...) every
    # split peels off one pair of rows, so the unrestricted tree is a chain
    n = 2200
    X = np.arange(n, dtype=float)[:, None]
    y = np.array([(i * (i + 1) // 2) % 2 for i in range(n)])
    root = grow_tree(X, y, np.ones(n), 2, None, 1)
    leaves = list(walk_leaves(root, X, y))
    assert len(leaves) == 1101
    assert max(depth for depth, _, _ in leaves) == 1100
    assert all(len(set(ys.tolist())) == 1 for _, _, ys in leaves)



def chain_model_text(depth):
    """A dtree model file whose splits form one left-leaning chain of the
    given depth: node i tests x0 <= depth - i - 0.5 and its right child is
    a leaf of class i % 2."""
    lines = ["rusent-model v1", "variant dtree", "feature_width 1",
             "class neg", "class pos", "max_depth -1", "min_leaf 1"]
    lines += [f"split 0 {depth - i - 0.5!r}" for i in range(depth)]
    lines.append("leaf 0 1.0 0.0")
    lines += [f"leaf {i % 2} {float(1 - i % 2)!r} {float(i % 2)!r}"
              for i in reversed(range(depth))]
    return "\n".join(lines + ["end"]) + "\n"


def test_deep_chain_loads_and_dumps_byte_for_byte():
    text = chain_model_text(5000)
    model = loads_model(text)
    assert model.dumps() == text
    # x = k leaves the chain at node depth - k, to its right leaf
    for k in (0, 1, 2, 2500, 4999):
        expected = 0 if k == 0 else (5000 - k) % 2
        assert model.predict([float(k)]) == ("neg", "pos")[expected]
