import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rusent.classifiers import train_dtree
from rusent.classifiers.tree import entropy, grow_tree, tree_apply
from rusent.errors import ModelError

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


def walk_leaves(node, X, y, depth=0):
    """Yield (depth, rows, labels) for every leaf of a tree grown on X, y."""
    if node.is_leaf:
        yield depth, X, y
        return
    mask = X[:, node.feature] <= node.threshold
    yield from walk_leaves(node.left, X[mask], y[mask], depth + 1)
    yield from walk_leaves(node.right, X[~mask], y[~mask], depth + 1)


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
