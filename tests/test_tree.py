import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rusent.classifiers import train_adaboost, train_bagging, train_dtree, train_rforest
from rusent.classifiers.base import MAGIC, BodyReader, TreeConfig, loads_model
from rusent.classifiers.tree import (
    Tree, _entropy_rows, _node_split, _restrict, entropy, grow_tree, read_tree,
    tree_lines, tree_predict_batch,
)
from rusent.errors import ModelError
from rusent.rng import SplitMix64

from conftest import make_matrix, predicted


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


def is_leaf(tree, i=0):
    return tree.feature[i] < 0


def walk_splits(tree, X, y, weights, n_classes, i=0):
    """Yield (node index, gain recomputed from first principles) for the
    internal nodes of the subtree at node i."""
    if is_leaf(tree, i):
        return
    cw = np.zeros(n_classes)
    np.add.at(cw, y, weights)
    mask = X[:, tree.feature[i]] <= tree.threshold[i]
    lcw = np.zeros(n_classes)
    np.add.at(lcw, y[mask], weights[mask])
    rcw = cw - lcw
    total = cw.sum()
    gain = entropy(cw) - (lcw.sum() * entropy(lcw) + rcw.sum() * entropy(rcw)) / total
    yield i, gain
    yield from walk_splits(tree, X[mask], y[mask], weights[mask], n_classes, i + 1)
    yield from walk_splits(tree, X[~mask], y[~mask], weights[~mask], n_classes, tree.right[i])


def walk_leaves(tree, X, y):
    """Yield (depth, rows, labels) for every leaf of a tree grown on X, y,
    left to right; without recursion, so any depth can be walked."""
    stack = [(0, X, y, 0)]
    while stack:
        i, X, y, depth = stack.pop()
        if is_leaf(tree, i):
            yield depth, X, y
            continue
        mask = X[:, tree.feature[i]] <= tree.threshold[i]
        stack.append((tree.right[i], X[~mask], y[~mask], depth + 1))
        stack.append((i + 1, X[mask], y[mask], depth + 1))


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
        tree = model.tree
        assert not is_leaf(tree, 0)
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(6.0)
        assert is_leaf(tree, 1) and is_leaf(tree, tree.right[0])
        for row, label in zip(separable_1d.rows, separable_1d.labels):
            assert predicted(model, [row]) == [label]

    def test_gain_tie_breaks_to_lowest_feature(self):
        # both features separate the classes perfectly; feature 0 must win
        m = make_matrix([[0, 0], [1, 1]], ["neg", "pos"], ("neg", "pos"))
        model = train_dtree(m)
        assert model.tree.feature[0] == 0

    def test_pure_node_is_leaf(self):
        m = make_matrix([[0.0], [1.0]], ["pos", "pos"], ("neg", "pos"))
        model = train_dtree(m)
        assert is_leaf(model.tree, 0)
        assert predicted(model, [[5.0]]) == ["pos"]

    def test_max_depth_zero_is_majority_stump(self):
        m = make_matrix([[0.0], [1.0], [2.0]], ["neg", "pos", "pos"], ("neg", "pos"))
        model = train_dtree(m, max_depth=0)
        assert is_leaf(model.tree, 0)
        assert model.tree.leaf_class[0] == 1

    def test_min_leaf_blocks_small_splits(self):
        m = make_matrix([[0.0], [1.0], [2.0], [3.0]],
                        ["neg", "neg", "neg", "pos"], ("neg", "pos"))
        model = train_dtree(m, min_leaf=2)
        # the only pure split (3 vs 1) is forbidden; 2-2 split has gain
        # H(3,1) - 0.5*H(2,0) - 0.5*H(1,1) = 0.8113 - 0.5 > 0
        assert not is_leaf(model.tree, 0)
        assert model.tree.threshold[0] == pytest.approx(1.5)

    def test_leaf_majority_tie_breaks_to_lowest_class(self):
        m = make_matrix([[0.0], [0.0]], ["pos", "neg"], ("neg", "pos"))
        model = train_dtree(m)
        assert is_leaf(model.tree, 0)
        assert predicted(model, [[0.0]]) == ["neg"]

    def test_duplicate_conflicting_rows_leaf_distribution(self):
        m = make_matrix([[1.0], [1.0], [1.0]], ["pos", "pos", "neg"], ("neg", "pos"))
        model = train_dtree(m)
        assert is_leaf(model.tree, 0)
        assert model.tree.distribution[0].tolist() == pytest.approx([1 / 3, 2 / 3], abs=1e-12)

    def test_empty_matrix_rejected(self):
        m = make_matrix(np.zeros((0, 2)), [], ("neg", "pos"))
        with pytest.raises(ModelError):
            train_dtree(m)

    def test_weighted_growth_follows_weights(self):
        # unweighted, majority at x<=0.5 is neg; weight flips it to pos
        m = make_matrix([[0.0], [0.0], [0.0], [1.0]],
                        ["neg", "neg", "pos", "pos"], ("neg", "pos"))
        w = np.array([1.0, 1.0, 5.0, 1.0])
        grown = grow_tree(m, w, TreeConfig())
        assert tree_predict_batch(grown, np.array([[0.0]])).tolist() == [1]


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
        _, feature, threshold = best_split(X, np.array([0, 1]), np.ones(2), 2, 1, range(1))
        assert feature == 0
        assert math.isfinite(threshold)
        assert a <= threshold < b

    @pytest.mark.parametrize("a, b", EDGE_PAIRS)
    def test_tree_separates_the_two_rows_at_depth_one(self, a, b):
        m = make_matrix([[a], [b]], ["neg", "pos"])
        model = train_dtree(m, max_depth=40)
        tree = model.tree
        assert not is_leaf(tree, 0)
        assert is_leaf(tree, 1) and is_leaf(tree, tree.right[0])
        assert predicted(model, [[a]]) + predicted(model, [[b]]) == ["neg", "pos"]
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
        tree = grow_tree(matrix_of(rows, y), w, TreeConfig())
        for _, gain in walk_splits(tree, rows, y, w, 2):
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
        tree = grow_tree(matrix_of(rows, y), w, TreeConfig(max_depth, min_leaf))
        for depth, X, ys in walk_leaves(tree, rows, y):
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
        a = grow_tree(matrix_of(rows, y), np.ones(len(y)), TreeConfig())
        b = grow_tree(matrix_of(rows, y), np.full(len(y), scale), TreeConfig())

        def shape(t, i=0):
            if is_leaf(t, i):
                return ("leaf", int(t.leaf_class[i]))
            return ("split", int(t.feature[i]), float(t.threshold[i]),
                    shape(t, i + 1), shape(t, t.right[i]))

        assert shape(a) == shape(b)


def matrix_of(X, y=None, n_classes=2):
    """A matrix with rows X over n_classes classes, whose labels are the
    class indices y (all class 0 when None)."""
    classes = tuple(f"c{c}" for c in range(n_classes))
    y = np.zeros(len(X), dtype=int) if y is None else y
    return make_matrix(X, [classes[c] for c in y], classes)


def best_split(X, y, w, n_classes, min_leaf, features):
    """Best (gain, feature, threshold) over the candidate features at a node
    holding every row of X, or None: one step of grow_tree's search. Weights
    that are all 1.0 go in as integer ones, the counted search."""
    total_cw = np.zeros(n_classes)
    np.add.at(total_cw, y, w)
    entries = _restrict(matrix_of(X).columns, list(features))
    ones = np.ones(X.shape[0], dtype=np.intp)
    w = ones if (w == 1.0).all() else w
    return _node_split(np.arange(X.shape[0]), entries, y, w, ones, total_cw, min_leaf)


def reference_best_split(X, y, w, n_classes, min_leaf, features):
    """The split search one feature at a time, over every row of each column:
    the oracle that the search over non-zero entries in tree.py must match
    bit for bit."""
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
    """(X, y, w, n_classes, min_leaf, features) for best_split."""
    n = draw(st.integers(1, 24))
    n_classes = draw(st.sampled_from([2, 3]))
    # negative, repeated and non-dyadic values, and -0.0, which sorts
    # among the zeros
    value = st.sampled_from([0.0, -0.0] + [v / 3.0 for v in (1, -1, 2, -2, 3, -3, 4)])
    mostly_zero = st.sampled_from([0.0, 0.0, 0.0, 0.0, -0.0, 1.0, 4 / 3, -2 / 3])
    negative_only = st.sampled_from([0.0, 0.0, -0.0, -1 / 3, -1.0])
    positive_only = st.sampled_from([0.0, 0.0, -0.0, 1 / 3, 1.0])
    base = draw(st.lists(
        st.one_of(
            *(st.lists(v, min_size=n, max_size=n)
              for v in (value, mostly_zero, negative_only, positive_only)),
            # constant columns, all-zero ones among them
            value.map(lambda v: [v] * n),
            st.just([0.0] * n),
        ),
        min_size=1, max_size=5,
    ))
    # columns drawn from the base columns with repeats: duplicate columns
    # give equal partitions, so their gains tie exactly
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=9))
    X = np.array([base[j] for j in picks]).T.reshape(n, len(picks))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    if draw(st.booleans()):  # a bootstrap sample: rows repeated, others left out
        rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        X, y = X[rows], y[rows]
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
    return X, y, w, n_classes, min_leaf, features


class TestBlockedSplitSearch:
    @given(split_problems())
    # copies of one separating column (1, 3, 5) under non-dyadic weights:
    # the first copy must win the tie
    @example((
        np.column_stack([[1.0, 0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0, 2.0]] * 3),
        np.array([0, 0, 1, 1, 1]), np.array([0.1, 0.3, 0.2, 0.15, 0.25]), 2, 1, range(6),
    ))
    @settings(max_examples=300)
    def test_matches_the_per_feature_loop_bit_for_bit(self, problem):
        expected = reference_best_split(*problem)
        assert split_bits(best_split(*problem)) == split_bits(expected)


class TestColumns:
    @given(split_problems())
    @settings(max_examples=100)
    def test_of_a_matrix_equals_the_sorted_dense_scan(self, problem):
        X = problem[0]
        rows, cols = np.nonzero(X)
        values = X[rows, cols]
        order = np.lexsort((values, cols))
        expected = rows[order], cols[order], values[order]
        for got, want in zip(matrix_of(X).columns, expected, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @given(split_problems(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_counts_grow_the_tree_of_the_drawn_rows(self, problem, data):
        # a bootstrap sample as a count per row grows, bit for bit, the tree
        # of the sample's rows copied out, and draws the same feature subsets
        X, y, _, n_classes, _, _ = problem
        n, d = X.shape
        row = st.integers(0, n - 1)
        indices = np.array(data.draw(st.lists(row, min_size=1, max_size=2 * n)), dtype=np.intp)
        max_depth = data.draw(st.sampled_from([None, 2]))
        min_leaf = data.draw(st.sampled_from([1, 2]))
        subset_size = data.draw(st.sampled_from([None, 1, max(1, d - 1)]))
        seed = data.draw(st.integers(0, 2**64 - 1))
        rngs = SplitMix64(seed), SplitMix64(seed)
        config = TreeConfig(max_depth, min_leaf)
        counted = grow_tree(matrix_of(X, y, n_classes), np.bincount(indices, minlength=n),
                            config, rng=rngs[0], subset_size=subset_size)
        copied = grow_tree(matrix_of(X[indices], y[indices], n_classes),
                           np.ones(indices.size, dtype=np.intp), config,
                           rng=rngs[1], subset_size=subset_size)
        for name in Tree.__slots__:
            a, b = getattr(counted, name), getattr(copied, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert rngs[0].next_uint64() == rngs[1].next_uint64()


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


# Taken from the per-feature split search, before the blocked search and
# then the search over non-zero entries replaced it. At 600 rows AdaBoost's
# fold over the zeros of 2000 features takes more than one _FOLD_ENTRIES
# matrix.
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


def mixed_sign_matrix(matrix):
    """The wide count matrix with every third column negated (its zeros
    become -0.0 and sort above its values) and every seventh shifted down
    by one (its zeros become -1.0 and its ones 0.0, so the zero run sits
    between negative and positive values)."""
    X = matrix.rows.copy()
    cols = np.arange(X.shape[1])
    X[:, cols % 3 == 2] *= -1.0
    X[:, cols % 7 == 5] -= 1.0
    return make_matrix(X, matrix.labels)


# Taken from the search over every row of each column, before it was
# replaced by the search over each column's non-zero entries.
MIXED_SIGN_MODEL_HASHES = {
    "dtree": "155072f2066f1749ce2a12909a2f85d0bce7b72b5558d7703e52d315a43c10fa",
    "bagging": "9a3fec55c36975dcebb77c6135780e5008f41e358b04be014e99a11b6389e28a",
    "rforest": "f8215667f80a0605c1dc0aed56b5deaa473989e7995dc28bc5be28da122b4c5a",
    "adaboost-depth1": "32833eb95672171391ba56e5fb20eb6decb98d2296147757e996568ce886c937",
    "adaboost-depth2": "f3087d90f00726200c4c40f943e2afa1a0bf55911ca03fe9eef9ce3bf16ecc29",
}


@pytest.mark.parametrize("name", sorted(WIDE_TRAINERS))
def test_tree_model_bytes_on_a_mixed_sign_matrix(wide_matrix, name):
    text = WIDE_TRAINERS[name](mixed_sign_matrix(wide_matrix)).dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == MIXED_SIGN_MODEL_HASHES[name]


def test_a_1100_deep_tree_grows_without_recursion():
    # on x = 0..2199 with labels i(i+1)/2 mod 2 (0,1,1,0,0,1,1,0,...) every
    # split peels off one pair of rows, so the unrestricted tree is a chain
    n = 2200
    X = np.arange(n, dtype=float)[:, None]
    y = np.array([(i * (i + 1) // 2) % 2 for i in range(n)])
    tree = grow_tree(matrix_of(X, y), np.ones(n), TreeConfig())
    leaves = list(walk_leaves(tree, X, y))
    assert len(leaves) == 1101
    assert max(depth for depth, _, _ in leaves) == 1100
    assert all(len(set(ys.tolist())) == 1 for _, _, ys in leaves)



def walk_one(tree, x):
    """The index of the leaf one row reaches, walked row by row: the
    reference for the batch walk."""
    i = 0
    while not is_leaf(tree, i):
        i = i + 1 if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return i


def split_nodes(tree):
    stack, out = [0], []
    while stack:
        i = stack.pop()
        if not is_leaf(tree, i):
            out.append(i)
            stack += (i + 1, tree.right[i])
    return out


def batch_walk_problem():
    """A 3-class training matrix with repeated values, so rows tie at
    thresholds."""
    rng = np.random.default_rng(11)
    X = rng.integers(-3, 4, size=(90, 4)).astype(float)
    y = (X[:, 0] + 2 * X[:, 1] - X[:, 2] > 0).astype(int) + (X[:, 3] > 1)
    return make_matrix(X, [("a", "b", "c")[i] for i in y], ("a", "b", "c"))


def batch_walk_queries(X, trees):
    """Training rows, rows at, just below and just above every split
    threshold, rows holding NaN, +-inf or -0.0 in each feature, and an
    all -0.0 row."""
    rows = [X]
    for tree in trees:
        for i in split_nodes(tree):
            threshold = tree.threshold[i]
            for value in (threshold, np.nextafter(threshold, -np.inf),
                          np.nextafter(threshold, np.inf)):
                row = X[:5].copy()
                row[:, tree.feature[i]] = value
                rows.append(row)
    for value in (np.nan, np.inf, -np.inf, -0.0):
        for f in range(X.shape[1]):
            row = X[:3].copy()
            row[:, f] = value
            rows.append(row)
    rows.append(np.full((1, X.shape[1]), -0.0))
    return np.vstack(rows)


def model_trees(model):
    if model.variant == "dtree":
        return [model.tree]
    if model.variant == "adaboost":
        return [tree for _, tree in model.stages]
    return model.trees


class TestBatchWalk:
    """tree_predict_batch and every tree model's scores equal the row-by-row
    walk bit for bit, on grown trees and on trees read back from text."""

    @pytest.fixture(scope="class")
    def models(self):
        m = batch_walk_problem()
        binary = make_matrix(m.rows, ["neg" if l == "a" else "pos" for l in m.labels])
        grown = [
            train_dtree(m),
            train_dtree(m, max_depth=2, min_leaf=4),
            train_bagging(m, m=4, seed=3),
            train_rforest(m, m=4, features_per_split=2, seed=3),
            train_adaboost(binary, rounds=6, weak=TreeConfig(max_depth=2)),
        ]
        return m.rows, grown + [loads_model(model.dumps()) for model in grown]

    def test_tree_predict_batch(self, models):
        X, trained = models
        for model in trained:
            Q = batch_walk_queries(X, model_trees(model))
            for tree in model_trees(model):
                got = tree_predict_batch(tree, Q)
                assert got.dtype == np.intp
                assert got.tolist() == [tree.leaf_class[walk_one(tree, q)] for q in Q]
                assert tree_predict_batch(tree, Q[:0]).shape == (0,)

    def test_scores(self, models):
        X, trained = models
        for model in trained:
            Q = batch_walk_queries(X, model_trees(model))
            expected = []
            for q in Q:
                if model.variant == "dtree":
                    expected.append(model.tree.distribution[walk_one(model.tree, q)])
                elif model.variant == "adaboost":
                    margin = 0.0
                    for alpha, tree in model.stages:
                        margin += alpha * (1.0 if tree.leaf_class[walk_one(tree, q)] == 1 else -1.0)
                    expected.append([-margin, margin])
                else:
                    votes = np.zeros(len(model.class_values))
                    for tree in model.trees:
                        votes[tree.leaf_class[walk_one(tree, q)]] += 1.0
                    expected.append(votes / len(model.trees))
            got = model.scores(Q)
            assert got.tobytes() == np.array(expected).tobytes(), model.variant
            assert model.scores(Q[:0]).shape == (0, len(model.class_values))

    def test_a_deep_chain_read_from_text(self):
        model = loads_model(chain_model_text(1500))
        Q = np.array([[v] for v in (-1.0, 0.5, 0.0, -0.0, 1499.5, 1500.0, np.nan, np.inf,
                                    -np.inf, 700.0, 700.5, 701.0)])
        assert model.scores(Q).tobytes() == np.array(
            [model.tree.distribution[walk_one(model.tree, q)] for q in Q]).tobytes()


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
        assert predicted(model, [[float(k)]]) == [("neg", "pos")[expected]]


def right_children(tree):
    """The right child of every node (-1 at a leaf), found by reading the
    preorder nodes with a stack of the child slots still to fill: the
    oracle for Tree.right."""
    right = [-1] * tree.feature.size
    slots = [None]  # per slot, the split it is the right child of, or None
    for i, feature in enumerate(tree.feature.tolist()):
        parent = slots.pop()
        if parent is not None:
            right[parent] = i
        if feature >= 0:
            slots += (i, None)  # the left child's slot on top
    assert not slots
    return right


def reread(lines):
    """A tree over 3 features and 2 classes read back from its lines, with
    the reader checked to stop at the tree's last line."""
    reader = BodyReader([MAGIC, "variant dtree", "feature_width 3",
                         "class neg", "class pos"] + lines + ["end"])
    tree = read_tree(reader)
    reader.end()
    return tree


@st.composite
def tree_lines_text(draw):
    """The lines of a random preorder tree over 3 features and 2 classes."""
    lines, unread, splits = [], 1, draw(st.integers(0, 40))
    real = st.floats(allow_nan=False, allow_infinity=False)
    while unread:
        if splits and draw(st.booleans()):
            lines.append(f"split {draw(st.integers(0, 2))} {draw(real)!r}")
            splits, unread = splits - 1, unread + 1
        else:
            p = draw(st.floats(0.0, 1.0))
            lines.append(f"leaf {draw(st.integers(0, 1))} {p!r} {1.0 - p!r}")
            unread -= 1
    return lines


class TestFlatTree:
    """Tree.right, worked out from subtree sizes, equals the stack oracle,
    and writing then reading a tree gives back the same lines, on grown
    trees and on trees read from text."""

    @staticmethod
    def check(tree):
        assert tree.right.tolist() == right_children(tree)
        lines = tree_lines(tree)
        assert tree_lines(reread(lines)) == lines

    @given(TestProperties.datasets, st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=40)
    def test_grown_trees(self, docs, max_depth):
        m = make_matrix([r for r, _ in docs], [l for _, l in docs])
        base = TreeConfig(max_depth)
        grown = [
            train_dtree(m, max_depth=max_depth),
            train_bagging(m, m=3, base=base, seed=1),
            train_rforest(m, m=3, features_per_split=2, base=base, seed=1),
            train_adaboost(m, rounds=4, weak=base),
        ]
        for model in grown + [loads_model(model.dumps()) for model in grown]:
            for tree in model_trees(model):
                self.check(tree)

    @given(tree_lines_text())
    @example(["leaf 1 0.0 1.0"])
    @example(chain_model_text(40).split("\n")[7:-2])
    @settings(max_examples=150)
    def test_trees_read_from_text(self, lines):
        tree = reread(lines)
        self.check(tree)
        assert tree_lines(tree) == lines
