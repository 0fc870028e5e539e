import numpy as np
import pytest

from rusent.classifiers import train_bagging, train_dtree, train_rforest
from rusent.classifiers.base import TreeConfig
from rusent.errors import ModelError
from rusent.rng import SplitMix64

from conftest import dense_csr, make_matrix, predicted
from test_tree import is_leaf


def random_matrix(n, d, seed, class_values=("neg", "pos")):
    rng = SplitMix64(seed)
    rows = [[rng.uniform(0, 4) for _ in range(d)] for _ in range(n)]
    # noisy linear concept so trees have something to learn
    labels = [
        class_values[1] if sum(r[:2]) + rng.uniform(-1, 1) > 4.0 else class_values[0]
        for r in rows
    ]
    if len(set(labels)) < 2:  # pragma: no cover - seed choice avoids this
        labels[0] = class_values[0]
        labels[1] = class_values[1]
    return make_matrix(rows, labels, class_values)


class TestBagging:
    def test_deterministic_for_seed(self):
        m = random_matrix(40, 3, seed=5)
        a = train_bagging(m, m=5, seed=9)
        b = train_bagging(m, m=5, seed=9)
        assert a.dumps() == b.dumps()

    def test_different_seeds_differ(self):
        m = random_matrix(40, 3, seed=5)
        assert train_bagging(m, m=5, seed=1).dumps() != train_bagging(m, m=5, seed=2).dumps()

    def test_members_differ_from_each_other(self):
        m = random_matrix(60, 3, seed=8)
        model = train_bagging(m, m=6, seed=0)
        from rusent.classifiers.tree import tree_lines
        serialized = ["\n".join(tree_lines(t)) for t in model.trees]
        assert len(set(serialized)) > 1

    def test_vote_fraction_scores(self):
        m = random_matrix(30, 2, seed=3)
        model = train_bagging(m, m=5, seed=0)
        scores = model.scores(dense_csr(m.rows[:1]))[0]
        assert sum(scores) == pytest.approx(1.0)
        assert all(s in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0) for s in scores)

    def test_single_member_on_full_sample_space(self):
        # a 1-instance matrix has only one possible bootstrap, so the lone
        # member is the plain tree
        m = make_matrix([[1.0], [1.0]], ["pos", "pos"], ("neg", "pos"))
        model = train_bagging(m, m=1, seed=0)
        assert predicted(model, [[1.0]]) == ["pos"]

    def test_zero_members_rejected(self):
        m = random_matrix(10, 2, seed=0)
        with pytest.raises(ModelError):
            train_bagging(m, m=0)

    def test_large_ensemble_tracks_single_tree_on_training_data(self):
        m = random_matrix(50, 3, seed=11)
        tree = train_dtree(m)
        bag = train_bagging(m, m=25, seed=0)
        tree_acc = np.mean(np.array(predicted(tree, m)) == m.labels)
        bag_acc = np.mean(np.array(predicted(bag, m)) == m.labels)
        assert bag_acc >= tree_acc - 0.15


class TestRandomForest:
    def test_full_feature_subset_equals_bagging(self):
        m = random_matrix(40, 4, seed=2)
        bag = train_bagging(m, m=6, seed=7)
        forest = train_rforest(m, m=6, features_per_split=4, seed=7)
        from rusent.classifiers.tree import tree_lines
        assert [tree_lines(t) for t in forest.trees] == [tree_lines(t) for t in bag.trees]

    def test_default_subset_is_ceil_sqrt(self):
        m = random_matrix(30, 5, seed=4)
        assert train_rforest(m, m=2, seed=0).features_per_split == 3  # ceil(sqrt(5))

    def test_subset_bounds_enforced(self):
        m = random_matrix(10, 3, seed=1)
        with pytest.raises(ModelError):
            train_rforest(m, features_per_split=0)
        with pytest.raises(ModelError):
            train_rforest(m, features_per_split=4)

    def test_deterministic_for_seed(self):
        m = random_matrix(40, 6, seed=6)
        a = train_rforest(m, m=4, seed=3)
        b = train_rforest(m, m=4, seed=3)
        assert a.dumps() == b.dumps()

    def test_restricted_subset_changes_trees(self):
        m = random_matrix(60, 6, seed=13)
        bag = train_bagging(m, m=8, seed=5)
        forest = train_rforest(m, m=8, features_per_split=1, seed=5)
        assert bag.dumps() != forest.dumps()

    def test_base_config_respected(self):
        m = random_matrix(40, 4, seed=9)
        model = train_rforest(m, m=3, base=TreeConfig(max_depth=1), seed=0)

        def depth(tree, i=0):
            if is_leaf(tree, i):
                return 0
            return 1 + max(depth(tree, i + 1), depth(tree, tree.right[i]))

        assert all(depth(t) <= 1 for t in model.trees)
