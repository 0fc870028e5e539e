"""Bootstrap-aggregated tree ensembles: bagging and random forest.

Member i derives its own splitmix64 stream from (seed, i), so training
members in any order (or in parallel) yields the identical ensemble.
Each member's stream is consumed in a documented order: first the n
bootstrap index draws, then (random forest only) the per-node feature
subset draws in preorder.

Prediction is a majority vote over member class predictions, ties broken
toward the lowest class index; scores are vote fractions.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from ..rng import SplitMix64, derive
from .base import Model, TreeConfig
from .tree import grow_tree, read_tree, tree_apply, tree_lines


class _VotingTreeEnsemble(Model):
    def __init__(self, class_values, feature_width, trees, base: TreeConfig, seed: int):
        super().__init__(class_values, feature_width)
        self.trees = list(trees)
        self.base = base
        self.seed = int(seed)

    def predict_scores(self, x) -> list[float]:
        vec = self.check_vector(x)
        votes = np.zeros(len(self.class_values))
        for root in self.trees:
            votes[tree_apply(root, vec).class_index] += 1.0
        return [float(v) / len(self.trees) for v in votes]

    def _body_lines(self) -> list[str]:
        lines = [f"m {len(self.trees)}", f"seed {self.seed}"] + self.base.lines("base_")
        for i, root in enumerate(self.trees):
            lines.append(f"member {i}")
            lines.extend(tree_lines(root))
        return lines

    @classmethod
    def _from_body(cls, reader, *extra):
        m = reader.integer("m", lo=1)
        seed = reader.integer("seed", lo=None)
        base = reader.tree_config("base_")
        trees = []
        for i in range(m):
            reader.integer("member", lo=i, hi=i)
            trees.append(read_tree(reader))
        return cls(reader.class_values, reader.feature_width, trees, base, seed, *extra)


class BaggingModel(_VotingTreeEnsemble):
    variant = "bagging"


class RandomForestModel(_VotingTreeEnsemble):
    variant = "rforest"

    def __init__(self, class_values, feature_width, trees, base, seed, features_per_split):
        super().__init__(class_values, feature_width, trees, base, seed)
        self.features_per_split = int(features_per_split)

    def _body_lines(self):
        return [f"features_per_split {self.features_per_split}"] + super()._body_lines()

    @classmethod
    def _from_body(cls, reader):
        fps = reader.integer("features_per_split", lo=1, hi=reader.feature_width)
        return super()._from_body(reader, fps)


def bootstrap_indices(rng: SplitMix64, n: int) -> np.ndarray:
    """The rows of one bootstrap sample: n draws of rng.next_below(n), in
    order, taken as one block."""
    return (rng.block(n) % np.uint64(n)).astype(np.intp)


def _bootstrap_trees(matrix, m, base: TreeConfig, seed, subset_size):
    if m < 1:
        raise ModelError("ensemble size m must be >= 1")
    X = matrix.rows
    y = matrix.label_indices()
    n = X.shape[0]
    if n == 0:
        raise ModelError("cannot train an ensemble on an empty matrix")
    n_classes = len(matrix.class_values)
    trees = []
    for i in range(m):
        rng = SplitMix64(derive(seed, i))
        indices = bootstrap_indices(rng, n)
        trees.append(
            grow_tree(
                X[indices], y[indices], np.ones(n), n_classes,
                base.max_depth, base.min_leaf,
                rng=rng, subset_size=subset_size,
            )
        )
    return trees


def train_bagging(matrix, m: int = 10, base: TreeConfig = TreeConfig(), seed: int = 0) -> BaggingModel:
    trees = _bootstrap_trees(matrix, m, base, seed, subset_size=None)
    return BaggingModel(matrix.class_values, matrix.width, trees, base, seed)


def train_rforest(
    matrix,
    m: int = 10,
    features_per_split: int | None = None,
    base: TreeConfig = TreeConfig(),
    seed: int = 0,
) -> RandomForestModel:
    d = matrix.width
    if features_per_split is None:
        features_per_split = int(np.ceil(np.sqrt(d)))  # ceil(sqrt(d)) default
    if not 1 <= features_per_split <= d:
        raise ModelError(f"features_per_split must be in [1, {d}]")
    trees = _bootstrap_trees(matrix, m, base, seed, subset_size=features_per_split)
    return RandomForestModel(
        matrix.class_values, matrix.width, trees, base, seed, features_per_split
    )
