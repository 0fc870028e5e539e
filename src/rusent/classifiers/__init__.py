"""Eight trainable classifiers behind one train/predict contract.

All training functions take a vectorized FeatureMatrix; stochastic ones
also take a 64-bit seed and are fully deterministic for a fixed seed (see
rusent.rng for the generator contract).
"""

from .adaboost import AdaBoostModel, train_adaboost
from .base import Model, TreeConfig, load_model, loads_model
from .ensemble import BaggingModel, RandomForestModel, train_bagging, train_rforest
from .knn import DISTANCES, KnnModel, train_knn
from .mlp import ACTIVATIONS, MlpModel, init_mlp, train_mlp
from .mnb import MultinomialNBModel, train_mnb
from .svm import LinearSvmModel, svm_objective, train_svm
from .tree import DecisionTreeModel, entropy, train_dtree

#: CLI-facing algorithm names in the order the toolkit reports them.
ALGORITHMS = ("mnb", "knn", "dtree", "bagging", "rforest", "adaboost", "svm", "mlp")

__all__ = [
    "ALGORITHMS",
    "ACTIVATIONS",
    "DISTANCES",
    "AdaBoostModel",
    "BaggingModel",
    "DecisionTreeModel",
    "KnnModel",
    "LinearSvmModel",
    "MlpModel",
    "Model",
    "MultinomialNBModel",
    "RandomForestModel",
    "TreeConfig",
    "entropy",
    "init_mlp",
    "load_model",
    "loads_model",
    "svm_objective",
    "train_adaboost",
    "train_bagging",
    "train_dtree",
    "train_knn",
    "train_mlp",
    "train_mnb",
    "train_rforest",
    "train_svm",
]
