"""Bootstrap-aggregated tree ensembles: bagging and random forest.

Member i derives its own splitmix64 stream from (seed, i), so training
members in any order (or in parallel) yields the identical ensemble.
Each member's stream is consumed in a documented order: first the n
bootstrap index draws, then (random forest only) the per-node feature
subset draws in preorder. A bootstrap sample is a count per training row,
the times it was drawn; every member grows on the training matrix's one
`columns`, weighted by its counts.

Prediction is a majority vote over member class predictions, ties broken
toward the lowest class index; scores are vote fractions.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from ..rng import SplitMix64, derive
from .base import Model, TreeConfig
from .tree import grow_tree, read_tree, tree_lines, tree_predict_batch


class _VotingTreeEnsemble(Model):
    def __init__(self, class_values, feature_width, trees, base: TreeConfig, seed: int):
        super().__init__(class_values, feature_width)
        self.trees = list(trees)
        if not self.trees:
            raise ModelError("an ensemble needs at least one tree")
        self.base = base
        self.seed = int(seed)

    def scores(self, X) -> np.ndarray:
        X = self.check_matrix(X)
        votes = np.zeros((X.shape[0], len(self.class_values)))
        rows = np.arange(X.shape[0])
        for tree in self.trees:
            votes[rows, tree_predict_batch(tree, X)] += 1.0
        return votes / len(self.trees)

    def _body_lines(self) -> list[str]:
        lines = [f"m {len(self.trees)}", f"seed {self.seed}"] + self.base.lines("base_")
        for i, tree in enumerate(self.trees):
            lines.append(f"member {i}")
            lines.extend(tree_lines(tree))
        return lines

    @classmethod
    def _from_body(cls, reader, *extra):
        m = reader.count("m")
        seed = reader.integer("seed")
        base = reader.tree_config("base_")
        trees = []
        for i in range(m):
            if reader.rest("member") != str(i):
                raise ValueError(f"line {reader.pos}: expected 'member {i}'")
            trees.append(read_tree(reader))
        return cls(reader.class_values, reader.feature_width, trees, base, seed, *extra)


class BaggingModel(_VotingTreeEnsemble):
    variant = "bagging"


class RandomForestModel(_VotingTreeEnsemble):
    variant = "rforest"

    def __init__(self, class_values, feature_width, trees, base, seed, features_per_split):
        super().__init__(class_values, feature_width, trees, base, seed)
        self.features_per_split = check_features_per_split(features_per_split, self.feature_width)

    def _body_lines(self):
        return [f"features_per_split {self.features_per_split}"] + super()._body_lines()

    @classmethod
    def _from_body(cls, reader):
        return super()._from_body(reader, reader.integer("features_per_split"))


def check_features_per_split(features_per_split: int, width: int) -> int:
    """The random forest's subset size, which must lie in [1, width]."""
    if not 1 <= features_per_split <= width:
        raise ModelError(f"features_per_split must be in [1, {width}], not {features_per_split}")
    return int(features_per_split)


def bootstrap_indices(rng: SplitMix64, n: int) -> np.ndarray:
    """The rows of one bootstrap sample: n draws of rng.next_below(n), in
    order, taken as one block."""
    return (rng.block(n) % np.uint64(n)).astype(np.intp)


def _bootstrap_trees(matrix, m, base: TreeConfig, seed, subset_size):
    n = matrix.y.size
    if n == 0:
        raise ModelError("cannot train an ensemble on an empty matrix")
    trees = []
    for i in range(m):
        rng = SplitMix64(derive(seed, i))
        counts = np.bincount(bootstrap_indices(rng, n), minlength=n)
        trees.append(grow_tree(matrix, counts, base, rng=rng, subset_size=subset_size))
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
    check_features_per_split(features_per_split, d)  # before any tree grows
    trees = _bootstrap_trees(matrix, m, base, seed, subset_size=features_per_split)
    return RandomForestModel(matrix.class_values, d, trees, base, seed, features_per_split)
