"""AdaBoost over depth-limited decision trees (binary classes only).

Classes map to signs: the lower class index is -1, the higher is +1 (the
same convention the linear SVM uses). Per round t:

* fit the weak tree on the current instance weights (weighted entropy),
* weighted error e_t = sum of weights of misclassified instances,
* stage weight a_t = 0.5 * ln((1 - e_t) / e_t),
* multiply misclassified weights by exp(a_t), the rest by exp(-a_t),
  renormalize to sum 1.

That update makes the round-t learner's weighted error under the new
weights exactly 0.5. Degenerate rounds: e_t = 0 caps a_t at ln(1e10)/2
and stops; e_t >= 0.5 discards the round and stops.

The ensemble predicts sign(sum_t a_t h_t(x)), a zero sum going to the
lower class index; scores are the (-margin, margin) pair.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ModelError
from .base import Model, TreeConfig, fmt_floats, require_binary
from .tree import grow_tree, read_tree, tree_lines, tree_predict_batch

ALPHA_CAP = math.log(1e10) / 2.0


class AdaBoostModel(Model):
    variant = "adaboost"

    def __init__(self, class_values, feature_width, stages, weak: TreeConfig, rounds: int):
        super().__init__(class_values, feature_width)
        require_binary(self.class_values)
        self.stages = list(stages)  # (alpha, tree) pairs
        self.weak = weak
        self.rounds = int(rounds)
        if self.rounds < 1 or len(self.stages) > self.rounds:
            raise ModelError(f"rounds {self.rounds} is below 1 or its {len(self.stages)} stages")

    def scores(self, X) -> np.ndarray:
        X = self.check_matrix(X)
        margin = np.zeros(X.shape[0])  # summed stage by stage, which fixes its bits
        for alpha, tree in self.stages:
            margin += alpha * np.where(tree_predict_batch(tree, X) == 1, 1.0, -1.0)
        return np.stack([-margin, margin], axis=1)

    def _body_lines(self):
        lines = [f"rounds {self.rounds}"] + self.weak.lines("weak_") + [f"stages {len(self.stages)}"]
        for i, (alpha, tree) in enumerate(self.stages):
            lines.append(f"stage {i} {fmt_floats(alpha)}")
            lines.extend(tree_lines(tree))
        return lines

    @classmethod
    def _from_body(cls, reader):
        rounds = reader.integer("rounds")
        weak = reader.tree_config("weak_")
        n_stages = reader.count("stages")
        stages = [(reader.real(f"stage {i}"), read_tree(reader)) for i in range(n_stages)]
        return cls(reader.class_values, reader.feature_width, stages, weak, rounds)


def train_adaboost(
    matrix,
    rounds: int = 10,
    weak: TreeConfig = TreeConfig(max_depth=1),
) -> AdaBoostModel:
    model = AdaBoostModel(matrix.class_values, matrix.width, [], weak, rounds)
    X, y = matrix.rows, matrix.y
    n = X.shape[0]
    if n == 0:
        raise ModelError("cannot boost an empty matrix")
    weights = np.full(n, 1.0 / n)
    for _ in range(rounds):
        tree = grow_tree(matrix, weights, weak)
        preds = tree_predict_batch(tree, X)
        miss = preds != y
        eps = float(weights[miss].sum())
        if eps <= 0.0:
            model.stages.append((ALPHA_CAP, tree))
            break
        if eps >= 0.5:
            break
        alpha = 0.5 * math.log((1.0 - eps) / eps)
        model.stages.append((alpha, tree))
        weights = weights * np.where(miss, math.exp(alpha), math.exp(-alpha))
        weights /= weights.sum()
    return model
