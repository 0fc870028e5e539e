"""Decision tree with information-gain threshold splits.

Each internal node tests one numeric feature against a threshold
(instances with value <= threshold go left). Split selection maximizes
information gain

    G = H(parent) - sum_side (W_side / W) * H(side)

with entropy H = -sum_c p_c log2(p_c) over (optionally weighted) class
proportions. Candidate thresholds are the midpoints between consecutive
distinct sorted feature values (the lower value where the midpoint is not
below the upper one). Growth stops at purity, max_depth, min_leaf, or
when no candidate split has positive gain.

Each row's weight is an integer instance count (one for dtree, the
row's draws in a bootstrap sample for bagging and the random forest), or
a float (AdaBoost's weights, folded; each row is one instance). min_leaf
counts instances.

Random-forest support: when `subset_size` is given and smaller than the
feature count, each node draws that many distinct features from the
passed generator before evaluating splits (preorder: a node draws before
its left subtree, which draws before the right). When subset_size covers
every feature the draw is skipped entirely, making the forest reduce
exactly to bagging.

Gain ties break toward the feature that comes first in the candidate
list (the lowest index: the list is range(d) or a sorted subset), then the
lowest threshold; leaf majorities break toward the lowest class index.

Split search and model bytes. The search reads each feature's non-zero
entries only: column_entries of the matrix, its non-zero cells ordered by
column, which a learner sorts once and grows each of its trees on.
With non-dyadic weights (AdaBoost) a gain's last bits depend on the order
of every addition, so the search fixes that order; the model bytes stay
fixed only while it holds:

* a feature's sorted order is its negative values, then its zeros (0.0
  and -0.0) in row order, then its positive values, equal values in row
  order: the order a stable sort of the whole column gives;
* its candidate boundaries lie between neighbouring distinct non-zero
  values in that order and at the two edges of its zeros, each leaving
  min_leaf instances on both sides;
* under counts (dtree, bagging, random forest), class weights are sums of
  counts, exact in any order: the zeros' counts are the node's class
  counts less the feature's non-zero counts;
* under float weights each class's left weight at a boundary is the
  sequential fold, one addition after another as cumsum makes it, of that
  class's weights in sorted order: through the negatives, on over the
  class's zero rows in row order, then through the positives. A row of
  another class adds 0.0, which changes no bit of a sum of weights, so
  the folds skip such rows or pad with 0.0;
* the node's class totals are summed in row order (np.bincount adds
  each row's weight in turn), and the node's entropy and every
  candidate's gain come from one elementwise formula (_entropy_rows) on
  (rows, classes) weights;
* the first maximum wins: in candidate-list order, then lowest threshold.

A node holds an index array into column_entries: the root's picks the
entries of its drawn rows, and a split filters its node's array by the
side each row goes to, which keeps their order, so below the root
nothing is sorted and no dense matrix is copied. A node gathers the
entries its array picks only when it may split. Working memory grows
with the non-zero entries, except for the fold over the zeros, whose
matrix holds about DENSE_BUDGET values (sparse.py) at a time.

A Tree holds arrays over its nodes in preorder, the model file's order:
`feature` and `threshold` (-1 and 0.0 at a leaf), `right`, a split's
right child (-1 at a leaf), `leaf_class` (-1 at a split) and
`distribution`, a leaf's class proportions (zeros at a split). A split's
left child is always the next node. tree_leaves moves all rows down one
level per step, so its Python steps grow with the depth, not the node
count. Nothing recurses, so a tree of any depth grows, loads and scores.
"""

from __future__ import annotations

import numpy as np

from .. import sparse
from ..errors import ModelError
from ..sparse import Csr, ranges
from .base import Model, TreeConfig, fmt_floats

_GAIN_EPS = 1e-12


class Tree:
    """Arrays over a tree's nodes in preorder (see the module docstring),
    made from each node's (feature, threshold, leaf_class, distribution)."""

    __slots__ = ("feature", "threshold", "right", "leaf_class", "distribution")

    def __init__(self, nodes):
        feature, threshold, leaf_class, distribution = zip(*nodes)
        # one backward pass: the right child of split i follows its left
        # subtree, which starts at i + 1 and spans size[i + 1] nodes
        size, right = [1] * len(nodes), [-1] * len(nodes)
        for i in reversed(range(len(nodes))):
            if feature[i] >= 0:
                right[i] = i + 1 + size[i + 1]
                size[i] += size[i + 1] + size[right[i]]
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.right = np.array(right, dtype=np.intp)
        self.leaf_class = np.array(leaf_class, dtype=np.intp)
        self.distribution = np.array(distribution, dtype=np.float64)


def entropy(class_weights: np.ndarray) -> float:
    """Entropy in bits of a per-class weight (or count) vector."""
    return float(_entropy_rows(class_weights[None])[0])


def _entropy_rows(cw: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of a (rows, classes) weight matrix: the
    terms -p log2(p) of its class proportions, a zero weight's term 0.0,
    summed along the row (0.0 for a row of zeros)."""
    totals = cw.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0.0, totals, 1.0)
    p = cw / safe
    terms = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return -terms.sum(axis=1)


def _threshold(a: float, b: float) -> float:
    """The split point between sorted distinct values a < b: their midpoint,
    or a where the midpoint does not fall in [a, b) (a + b overflows, or
    the midpoint of adjacent doubles rounds to b), so the rows <= it are
    exactly those <= a."""
    mid = (a + b) / 2.0
    return mid if a <= mid < b else a


def _restrict(entries, features):
    """The entries of the given features: each one's run, in `features` order."""
    rows, cols, values = entries
    features = np.asarray(features, dtype=cols.dtype)
    idx = ranges(np.searchsorted(cols, features), np.searchsorted(cols, features, side="right"))
    return rows[idx], cols[idx], values[idx]


def _folds(out, start, values, first, lens):
    """Set out[first[k]:first[k] + lens[k]] to the running sums of that
    slice of `values`, folded left to right from start[k] with one rounding
    per addition, as cumsum folds. Slices whose lengths share a power of
    two share one zero-padded cumsum: adding 0.0 to a sum of weights
    changes no bit."""
    group = np.frexp(lens)[1]
    for g in np.unique(group[lens > 0]):
        ks = np.flatnonzero(group == g)
        idx = ranges(first[ks], first[ks] + lens[ks])
        row = np.repeat(np.arange(ks.size), lens[ks])
        col = idx - np.repeat(first[ks] - 1, lens[ks])
        M = np.zeros((ks.size, int(lens[ks].max()) + 1))
        M[:, 0] = start[ks]
        M[row, col] = values[idx]
        np.cumsum(M, axis=1, out=M)
        out[idx] = M[row, col]


def _zero_run_folds(end, w_c, dense, at, feature):
    """Continue end[k], for each feature k where dense[k], over one class's
    weights w_c (its rows of the node, in row order) of the rows that are
    zero in feature k. The class's entries in those features, at w_c index
    `at` in feature `feature` (ascending), are masked to 0.0 in that
    feature's column. A sum along the rows of a C-ordered matrix adds one
    row after another, so each column's sum is one fold: numpy sums
    pairwise only along the contiguous axis, which is why M has a spare
    last column (a one-column matrix would be contiguous down its rows)."""
    d = dense.nonzero()[0]
    slot = (np.cumsum(dense) - 1)[feature]
    step = max(1, sparse.DENSE_BUDGET // (w_c.size + 1))
    for lo in range(0, d.size, step):
        ks = d[lo:lo + step]
        i, j = np.searchsorted(slot, (lo, lo + ks.size))
        M = np.empty((w_c.size + 1, ks.size + 1))
        M[0] = 0.0
        M[0, :-1] = end[ks]
        M[1:] = w_c[:, None]
        M[1 + at[i:j], slot[i:j] - lo] = 0.0
        end[ks] = np.add.reduce(M, axis=0)[:-1]


def _node_split(rows, entries, y, w, counts, total_cw, min_leaf):
    """Best (gain, feature, threshold) for the node holding `rows` (root row
    indices, ascending), or None. `entries` are the node's non-zero entries
    of its candidate features: one run per feature, in candidate order,
    each ordered by value with ties in row order. `counts` are the rows'
    instance counts, which integer weights `w` are. See the module
    docstring for the order of every addition."""
    er, ec, ev = entries
    if ev.size == 0:
        return None
    m, n_classes = rows.size, total_cw.size
    edges = np.concatenate(([True], ec[1:] != ec[:-1], [True])).nonzero()[0]
    first, lens = edges[:-1], edges[1:] - edges[:-1]
    n_runs = first.size
    run = np.repeat(np.arange(n_runs), lens)
    kneg = np.bincount(run[ev < 0.0], minlength=n_runs)
    has_zeros = lens < m
    # tokens: each feature's negative entries, its zeros as one token of
    # value 0.0 (when it has any), then its positive entries
    t_lens = lens + has_zeros
    t_first = np.cumsum(t_lens) - t_lens
    zrun = has_zeros.nonzero()[0]
    t_zero = (t_first + kneg)[zrun]
    is_entry = np.ones(ev.size + zrun.size, dtype=bool)
    is_entry[t_zero] = False
    t_entry = is_entry.nonzero()[0]
    t_value = np.zeros(is_entry.size)
    t_value[t_entry] = ev
    t_run = np.repeat(np.arange(n_runs), t_lens)
    # class counts through each token, from the start of its feature's
    # tokens: sums of whole numbers, exact in any order
    ye, ce = y[er], counts[er]
    run_counts = np.bincount(run * n_classes + ye, weights=ce, minlength=n_runs * n_classes)
    run_counts = run_counts.reshape(n_runs, n_classes)
    class_counts = np.zeros((is_entry.size + 1, n_classes))
    class_counts[t_entry + 1, ye] = ce
    node_counts = np.bincount(y[rows], weights=counts[rows], minlength=n_classes)
    class_counts[t_zero + 1] = node_counts - run_counts[zrun]
    np.cumsum(class_counts, axis=0, out=class_counts)
    # a boundary follows token t when token t + 1 is of the same feature
    # and holds another value; it must leave min_leaf instances on each side
    b = ((t_run[1:] == t_run[:-1]) & (t_value[1:] != t_value[:-1])).nonzero()[0]
    run_b = t_run[b]
    left_counts = class_counts[b + 1] - class_counts[t_first[run_b]]
    left_size = left_counts.sum(axis=1)
    valid = (left_size >= min_leaf) & (left_size <= node_counts.sum() - min_leaf)
    b, run_b, left_cw = b[valid], run_b[valid], left_counts[valid]
    if b.size == 0:
        return None
    if w.dtype.kind != "i":
        # class c's weight left of each token: its weights folded in the
        # feature's sorted order, 0.0 for rows of other classes
        left_cw = np.empty((b.size, n_classes))
        fold, t_fold = np.empty(ev.size), np.empty(is_entry.size)
        y_rows = y[rows]
        node_index = np.empty(y.size, dtype=np.intp)
        node_index[rows] = np.arange(m)
        e_index = node_index[er]  # each entry's index among the node's rows
        for c in range(n_classes):
            entry_c = ye == c
            wc = np.where(entry_c, w[er], 0.0)
            end = np.zeros(n_runs)  # each feature's fold through its negatives, then its zeros
            if kneg.any():
                _folds(fold, end, wc, first, kneg)
                end[kneg > 0] = fold[(first + kneg - 1)[kneg > 0]]
            row_c = y_rows == c
            w_c = w[rows[row_c]]
            # a feature with no entry of class c is zero in all its rows
            dense = has_zeros & (run_counts[:, c] > 0)
            if w_c.size:
                end[has_zeros & ~dense] = np.cumsum(w_c)[-1]
            if dense.any():
                masked = entry_c & dense[run]
                rank = np.cumsum(row_c) - 1  # a node row's index among the class's rows
                _zero_run_folds(end, w_c, dense, rank[e_index[masked]], run[masked])
            _folds(fold, end, wc, first + kneg, lens - kneg)
            t_fold[t_entry] = fold
            t_fold[t_zero] = end[zrun]
            left_cw[:, c] = t_fold[b]
    sides = np.concatenate((left_cw, total_cw - left_cw))
    side_w = sides.sum(axis=1)
    side_h = _entropy_rows(sides)
    k = b.size
    gains = entropy(total_cw) - (side_w[:k] * side_h[:k] + side_w[k:] * side_h[k:]) / total_cw.sum()
    i = int(np.argmax(gains))  # first max: earliest feature, then lowest threshold
    t = b[i]
    return float(gains[i]), int(ec[first[run_b[i]]]), _threshold(float(t_value[t]), float(t_value[t + 1]))


def column_entries(matrix: Csr) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of the matrix's non-zero cells (0.0 and -0.0 are
    both zeros), ordered by column, then value, with ties in row order."""
    nonzero = matrix.data != 0
    rows, cols, values = matrix.row_of()[nonzero], matrix.indices[nonzero], matrix.data[nonzero]
    order = np.lexsort((values, cols))  # stable: ties keep the row-major order
    return rows[order], cols[order], values[order]


def grow_tree(matrix, columns, weights: np.ndarray, config: TreeConfig, rng=None,
              subset_size: int | None = None) -> Tree:
    """Grow a tree on a FeatureMatrix's labels `y` and `columns`, its
    column_entries (the same whatever the weights), within config, in
    preorder: a node is split (and draws its feature subset of subset_size
    from rng) before its left subtree, which is grown before its right one.

    `weights` holds one value per matrix row: integer instance counts, or
    float weights (see the module docstring). A row counted 0 times is in
    no node.

    A node holds its rows (ascending indices into the matrix) and an index
    array into `columns`, which picks the rows' non-zero entries in the
    `columns` order; a node that may split gathers those entries. A split
    sends each row to one side by its value in the split feature (a row
    with no entry there holds 0.0) and filters the node's index array by
    its entries' side, which keeps their order. An explicit stack replaces
    recursion, so depth is not bounded by the interpreter's recursion
    limit. A split hands each child its own rows and index array and
    drops the node's, so the pending right subtrees on the stack hold
    disjoint rows: at most one index per entry in all, whatever the
    depth."""
    n, d = matrix.shape
    y, n_classes = matrix.y, len(matrix.class_values)
    max_depth, min_leaf = config.max_depth, config.min_leaf
    counts = weights if weights.dtype.kind == "i" else np.ones(n, dtype=np.intp)
    er, ec, ev = columns
    goes_left = np.empty(n, dtype=bool)
    no_distribution = np.zeros(n_classes)
    nodes = []
    stack = [(np.flatnonzero(counts), np.flatnonzero(counts[er] > 0), 0)]
    while stack:
        rows, at, depth = stack.pop()
        cw = np.bincount(y[rows], weights=weights[rows], minlength=n_classes)
        can_split = (
            counts[rows].sum() >= 2 * min_leaf
            and (max_depth is None or depth < max_depth)
            and np.count_nonzero(cw) > 1
        )
        if can_split:
            entries = node_rows, node_cols, node_values = er[at], ec[at], ev[at]
            candidates = entries
            if subset_size is not None and subset_size < d:
                candidates = _restrict(entries, rng.sample_indices(d, subset_size))
            best = _node_split(rows, candidates, y, weights, counts, cw, min_leaf)
            if best is not None and best[0] > _GAIN_EPS:
                _, feature, threshold = best
                nodes.append((feature, threshold, -1, no_distribution))
                lo, hi = np.searchsorted(node_cols, (feature, feature + 1))
                goes_left[rows] = 0.0 <= threshold
                goes_left[node_rows[lo:hi]] = node_values[lo:hi] <= threshold
                left = goes_left[rows]
                keep = goes_left[node_rows]
                stack.append((rows[~left], at[~keep], depth + 1))
                stack.append((rows[left], at[keep], depth + 1))
                continue
        total = cw.sum()
        distribution = cw / total if total > 0.0 else np.full(n_classes, 1.0 / n_classes)
        nodes.append((-1, 0.0, int(np.argmax(cw)), distribution))
    return Tree(nodes)


def tree_leaves(tree: Tree, X: Csr) -> np.ndarray:
    """The index of the leaf each row of X reaches, shape (n,). The walk
    moves every row still at a split down one level per step, reading one
    cell of each (X.at): left where x[feature] <= threshold, so NaN goes right."""
    at = np.zeros(X.n_rows, dtype=np.intp)
    rows = np.flatnonzero(tree.feature[at] >= 0)
    while rows.size:
        node = at[rows]
        left = X.at(rows, tree.feature[node]) <= tree.threshold[node]
        at[rows] = np.where(left, node + 1, tree.right[node])
        rows = rows[tree.feature[at[rows]] >= 0]
    return at


def tree_predict_batch(tree: Tree, X: Csr) -> np.ndarray:
    """The leaf class index of every row of X, shape (n,)."""
    return tree.leaf_class[tree_leaves(tree, X)]


def tree_lines(tree: Tree) -> list[str]:
    """Preorder serialization: `split f thr` / `leaf class p0 p1 ...`."""
    return [f"split {f} {fmt_floats(t)}" if f >= 0 else f"leaf {c} {fmt_floats(p)}"
            for f, t, c, p in zip(tree.feature.tolist(), tree.threshold.tolist(),
                                  tree.leaf_class.tolist(), tree.distribution)]


def read_tree(reader) -> Tree:
    """Read one preorder tree written by tree_lines. Split features and leaf
    classes must be in range; a leaf holds a value per class."""
    n_classes = len(reader.class_values)
    no_distribution = np.zeros(n_classes)
    nodes = []
    unread = 1  # subtrees still to read: a split opens two, each node closes one
    while unread:
        if reader.at("split"):
            feature, threshold = reader.reals("split", 2).tolist()
            nodes.append((_index(feature, reader.feature_width), threshold, -1, no_distribution))
            unread += 1
        else:
            leaf = reader.reals("leaf", 1 + n_classes)
            nodes.append((-1, 0.0, _index(leaf[0], n_classes), leaf[1:]))
            unread -= 1
    return Tree(nodes)


def _index(value: float, n: int) -> int:
    if not (float(value).is_integer() and 0 <= value < n):
        raise ValueError(f"{value!r} is not an index below {n}")
    return int(value)


class DecisionTreeModel(Model):
    variant = "dtree"

    def __init__(self, class_values, feature_width, tree: Tree, config: TreeConfig):
        super().__init__(class_values, feature_width)
        self.tree = tree
        self.config = config

    def scores(self, X) -> np.ndarray:
        return self.tree.distribution[tree_leaves(self.tree, self.check_matrix(X))]

    def _body_lines(self):
        yield from self.config.lines()
        yield from tree_lines(self.tree)

    @classmethod
    def _from_body(cls, reader):
        config = reader.tree_config()
        return cls(reader.class_values, reader.feature_width, read_tree(reader), config)


def train_dtree(matrix, max_depth: int | None = None, min_leaf: int = 1) -> DecisionTreeModel:
    """Grow a tree on a FeatureMatrix, every instance counted once."""
    config = TreeConfig(max_depth, min_leaf)
    if matrix.n_rows == 0:
        raise ModelError("cannot train a tree on an empty matrix")
    tree = grow_tree(matrix, column_entries(matrix), np.ones(len(matrix.y), dtype=np.intp),
                     config)
    return DecisionTreeModel(matrix.class_values, matrix.width, tree, config)
