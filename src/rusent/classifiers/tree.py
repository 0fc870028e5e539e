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

Instance weights make this the weak learner for boosting: class
proportions inside the entropy use weight mass, while min_leaf keeps
counting raw instances.

Random-forest support: when `subset_size` is given and smaller than the
feature count, each node draws that many distinct features from the
passed generator before evaluating splits (preorder: a node draws before
its left subtree, which draws before the right). When subset_size covers
every feature the draw is skipped entirely, making the forest reduce
exactly to bagging.

Gain ties break toward the feature that comes first in the candidate
list (the lowest index: the list is range(d) or a sorted subset), then the
lowest threshold; leaf majorities break toward the lowest class index.

Split search and model bytes. With non-dyadic weights (AdaBoost) a gain's
last bits depend on the order of every addition, so the search fixes that
order; the model bytes stay fixed only while it holds:

* each feature's rows are ordered by a stable sort of its values (ties
  keep row order);
* each class's left-side weight at a boundary is a sequential prefix sum
  (cumsum) of that class's weights in this order, never a pairwise sum;
* the node's class totals are summed in row order (np.add.at), and every
  candidate's gain comes from the same elementwise formula on its
  (candidates, classes) rows of left weights;
* the first maximum wins: in candidate-list order, then lowest threshold.

Features are scored a block at a time, so one argsort, one cumsum per
class and one gain evaluation cover many features instead of a dozen
small numpy calls per feature. A block of an n-row node has
_BLOCK_ENTRIES // n features (at least one), so each scratch array holds
about _BLOCK_ENTRIES values: scratch memory stays fixed as the vocabulary
grows, and the search never copies the whole node matrix. Features
constant within the node are dropped from their block before sorting.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from .base import Model, TreeConfig, fmt_floats

_GAIN_EPS = 1e-12

# Scratch entries per block of features: each of the block's (features x
# rows) arrays holds at most this many values, whatever the node's width.
_BLOCK_ENTRIES = 1 << 16


class TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "class_index", "distribution")

    def __init__(self):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.class_index = -1
        self.distribution = None  # leaf-only: weighted class proportions

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def entropy(class_weights: np.ndarray) -> float:
    """Entropy in bits of a per-class weight (or count) vector."""
    total = class_weights.sum()
    if total <= 0.0:
        return 0.0
    p = class_weights[class_weights > 0.0] / total
    return float(-(p * np.log2(p)).sum())


def _entropy_rows(cw: np.ndarray) -> np.ndarray:
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


def _best_split(X, y, w, n_classes, min_leaf, features):
    """Best (gain, feature, threshold) over the candidate features, or None.

    Features are scored a block at a time, in `features` order; see the
    module docstring for the evaluation order that keeps results fixed."""
    n = X.shape[0]
    total_cw = np.zeros(n_classes)
    np.add.at(total_cw, y, w)
    total_w = total_cw.sum()
    parent_h = entropy(total_cw)
    class_w = [np.where(y == c, w, 0.0) for c in range(n_classes)]
    # boundary i lies between sorted rows i and i + 1; it leaves i + 1 rows
    # on the left, so both sides keep min_leaf rows for lo <= i < hi
    lo, hi = min_leaf - 1, n - min_leaf
    feats = np.asarray(features, dtype=np.intp)
    step = max(1, _BLOCK_ENTRIES // n)
    best = None
    for start in range(0, feats.size, step):
        block = feats[start:start + step]
        cols = X.T[block]  # (features, rows), each column contiguous
        varying = cols.min(axis=1) != cols.max(axis=1)
        block, cols = block[varying], cols[varying]
        if block.size == 0:
            continue
        order = np.argsort(cols, axis=1, kind="stable")
        # sorted values do not depend on how ties are ordered, so a plain
        # sort finds the boundaries faster than a gather through `order`
        xs = np.sort(cols, axis=1)
        fi, bi = np.nonzero(xs[:, lo + 1:hi + 1] != xs[:, lo:hi])  # feature-major
        if fi.size == 0:
            continue
        bi += lo
        left_cw = np.empty((fi.size, n_classes))
        for c in range(n_classes):
            left_cw[:, c] = class_w[c][order].cumsum(axis=1)[fi, bi]
        right_cw = total_cw - left_cw
        left_w = left_cw.sum(axis=1)
        right_w = right_cw.sum(axis=1)
        gains = parent_h - (left_w * _entropy_rows(left_cw) + right_w * _entropy_rows(right_cw)) / total_w
        i = int(np.argmax(gains))  # first max: earliest feature, then lowest threshold
        gain = float(gains[i])
        if best is None or gain > best[0]:
            f, rows = fi[i], order[fi[i]]
            a, b = float(cols[f, rows[bi[i]]]), float(cols[f, rows[bi[i] + 1]])
            best = (gain, int(block[f]), _threshold(a, b))
    return best


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    n_classes: int,
    max_depth: int | None,
    min_leaf: int,
    rng=None,
    subset_size: int | None = None,
) -> TreeNode:
    """Grow a tree in preorder: a node is split (and draws its feature
    subset) before its left subtree, which is grown before its right one.

    An explicit stack replaces recursion, so depth is not bounded by the
    interpreter's recursion limit. A split hands each child a copy of its
    rows and drops the node's own, so the pending right subtrees on the
    stack hold disjoint rows: at most one copy of X in all, whatever the
    depth."""
    root = TreeNode()
    stack = [(root, X, y, weights, 0)]
    while stack:
        node, Xn, yn, wn, depth = stack.pop()
        cw = np.zeros(n_classes)
        np.add.at(cw, yn, wn)
        n = Xn.shape[0]
        can_split = (
            n >= 2 * min_leaf
            and (max_depth is None or depth < max_depth)
            and np.count_nonzero(cw) > 1
        )
        if can_split:
            d = Xn.shape[1]
            if subset_size is not None and subset_size < d:
                features = rng.sample_indices(d, subset_size)
            else:
                features = range(d)
            best = _best_split(Xn, yn, wn, n_classes, min_leaf, features)
            if best is not None and best[0] > _GAIN_EPS:
                _, node.feature, node.threshold = best
                mask = Xn[:, node.feature] <= node.threshold
                node.left, node.right = TreeNode(), TreeNode()
                stack.append((node.right, Xn[~mask], yn[~mask], wn[~mask], depth + 1))
                stack.append((node.left, Xn[mask], yn[mask], wn[mask], depth + 1))
                continue
        total = cw.sum()
        node.distribution = cw / total if total > 0.0 else np.full(n_classes, 1.0 / n_classes)
        node.class_index = int(np.argmax(cw))
    return root


def tree_apply(node: TreeNode, x: np.ndarray) -> TreeNode:
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node


def tree_predict_batch(node: TreeNode, X: np.ndarray) -> np.ndarray:
    return np.array([tree_apply(node, row).class_index for row in X], dtype=np.intp)


def tree_lines(node: TreeNode) -> list[str]:
    """Preorder serialization: `split f thr` / `leaf class p0 p1 ...`.
    Iterative, so a tree of any depth serializes."""
    lines = []
    stack = [node]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            lines.append(f"leaf {node.class_index} {fmt_floats(node.distribution)}")
        else:
            lines.append(f"split {node.feature} {fmt_floats(node.threshold)}")
            stack += (node.right, node.left)
    return lines


def read_tree(reader) -> TreeNode:
    """Read one preorder tree written by tree_lines, iteratively like it. Split
    features and leaf classes must be in range; a leaf holds a value per class."""
    n_classes = len(reader.class_values)
    root = TreeNode()
    pending = [root]  # nodes not yet read, the next one on top
    while pending:
        node = pending.pop()
        if reader.at("split"):
            feature, node.threshold = reader.reals("split", 2).tolist()
            node.feature = _index(feature, reader.feature_width)
            node.left, node.right = TreeNode(), TreeNode()
            pending += (node.right, node.left)
        else:
            leaf = reader.reals("leaf", 1 + n_classes)
            node.class_index, node.distribution = _index(leaf[0], n_classes), leaf[1:]
    return root


def _index(value: float, n: int) -> int:
    if not (float(value).is_integer() and 0 <= value < n):
        raise ValueError(f"{value!r} is not an index below {n}")
    return int(value)


class DecisionTreeModel(Model):
    variant = "dtree"

    def __init__(self, class_values, feature_width, root: TreeNode, config: TreeConfig):
        super().__init__(class_values, feature_width)
        self.root = root
        self.config = config

    def predict_scores(self, x) -> list[float]:
        vec = self.check_vector(x)
        return [float(p) for p in tree_apply(self.root, vec).distribution]

    def _body_lines(self) -> list[str]:
        return self.config.lines() + tree_lines(self.root)

    @classmethod
    def _from_body(cls, reader):
        config = reader.tree_config()
        return cls(reader.class_values, reader.feature_width, read_tree(reader), config)


def train_dtree(matrix, max_depth: int | None = None, min_leaf: int = 1,
                sample_weights: np.ndarray | None = None) -> DecisionTreeModel:
    """Grow a tree on a FeatureMatrix. sample_weights (if given) must be
    positive and is used for boosting; it does not need to sum to 1 here."""
    config = TreeConfig(max_depth, min_leaf)
    if matrix.rows.shape[0] == 0:
        raise ModelError("cannot train a tree on an empty matrix")
    y = matrix.label_indices()
    if sample_weights is None:
        sample_weights = np.ones(len(y))
    root = grow_tree(
        matrix.rows, y, np.asarray(sample_weights, dtype=np.float64),
        len(matrix.class_values), config.max_depth, config.min_leaf,
    )
    return DecisionTreeModel(matrix.class_values, matrix.width, root, config)
