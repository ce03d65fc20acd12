"""Tree ensembles: split-randomised training, scoring and size summary.

An ensemble is a plain sequence of trees. ``train_ensemble`` grows one in
which each tree picks every split uniformly among its top-20
information-gain candidates, so independently seeded trees disagree near
class boundaries. The ensemble posterior either averages per-tree posteriors
or counts per-tree argmax votes; the vote form is what the uncertainty
envelope consumes. The Bayesian sampler's retained trees go through the same
scorer and the same size summary, so both techniques are judged by one
function each.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .tree import DecisionTree, _feature_matrix, grow_randomized, leaf_posterior_matrix, tree_size

__all__ = [
    "EnsembleConfig",
    "best_single_tree",
    "default_min_leaf",
    "ensemble_mean_size",
    "ensemble_posterior_matrix",
    "train_ensemble",
]

# Pruning rule: large training sets afford a coarser pruning factor.
LARGE_TRAIN_THRESHOLD = 300
MIN_LEAF_LARGE = 30
MIN_LEAF_SMALL = 5


@dataclass(frozen=True)
class EnsembleConfig:
    """Training settings for a randomised ensemble.

    min_leaf=None applies the size rule: 30 when the training set has more
    than 300 points, else 5.
    """

    n_trees: int = 200
    min_leaf: int | None = None
    top_k: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError(f"need n_trees >= 1, got {self.n_trees}")
        if self.top_k < 1:
            raise ValueError(f"need top_k >= 1, got {self.top_k}")
        if self.min_leaf is not None and self.min_leaf < 1:
            raise ValueError(f"need min_leaf >= 1, got {self.min_leaf}")


def default_min_leaf(train_size: int) -> int:
    return MIN_LEAF_LARGE if train_size > LARGE_TRAIN_THRESHOLD else MIN_LEAF_SMALL


def train_ensemble(
    train: Dataset, config: EnsembleConfig = EnsembleConfig()
) -> tuple[DecisionTree, ...]:
    """Grow config.n_trees randomised trees with independent seed streams.

    Per-tree seeds derive from config.seed as SeedSequence((seed, tree_index)),
    so any tree is reproducible in isolation.
    """
    min_leaf = config.min_leaf if config.min_leaf is not None else default_min_leaf(train.n)
    return tuple(
        grow_randomized(
            train,
            min_leaf=min_leaf,
            top_k=config.top_k,
            seed=np.random.SeedSequence((config.seed, i)),
        )
        for i in range(config.n_trees)
    )


def ensemble_posterior_matrix(
    trees: Sequence[DecisionTree], features: np.ndarray, mode: str = "vote", alpha: float = 1.0
) -> np.ndarray:
    """Ensemble class posteriors for every row of a feature matrix, (n, C).

    vote: fraction of trees whose argmax lands on each class (per-tree argmax
    ties break toward the lower class index). average: mean of the per-tree
    leaf posteriors (n_c + alpha)/(n + C*alpha). A tree object that occurs
    several times (a rejected MH step keeps its state) is evaluated once and
    weighted by its number of occurrences. Every tree must have the class
    count of the first, or ValueError names the first that does not; features
    that are not 2-D raise ValueError naming the shape.
    """
    if len(trees) < 1:
        raise ValueError("ensemble is empty")
    if mode not in ("average", "vote"):
        raise ValueError(f"unknown mode {mode!r}; expected 'vote' or 'average'")
    num_classes = trees[0].root.counts.size
    distinct: dict[int, list] = {}
    for i, tree in enumerate(trees):
        if tree.root.counts.size != num_classes:
            raise ValueError(f"tree {i} has {tree.root.counts.size} classes, but tree 0 has {num_classes}")
        distinct.setdefault(id(tree), [tree, 0])[1] += 1

    features = _feature_matrix(features)
    out = np.zeros((features.shape[0], num_classes))
    rows = np.arange(features.shape[0])
    for tree, weight in distinct.values():
        posterior = leaf_posterior_matrix(tree, features, alpha=alpha)
        if mode == "average":
            out += weight * posterior
        else:
            out[rows, np.argmax(posterior, axis=1)] += weight
    out /= len(trees)
    return out


def best_single_tree(trees: Sequence[DecisionTree], validation: Dataset) -> tuple[int, float]:
    """Index and accuracy of the tree with best argmax accuracy on validation.

    Ties go to the lowest tree index.
    """
    accuracies = np.empty(len(trees))
    for i, tree in enumerate(trees):
        predicted = np.argmax(leaf_posterior_matrix(tree, validation.features), axis=1)
        accuracies[i] = np.mean(predicted == validation.labels)
    best = int(np.argmax(accuracies))
    return best, float(accuracies[best])


def ensemble_mean_size(trees: Sequence[DecisionTree]) -> tuple[float, float]:
    """Sample mean and sample standard deviation of the trees' leaf counts."""
    if len(trees) < 1:
        raise ValueError("ensemble is empty")
    sizes = np.array([tree_size(tree) for tree in trees], dtype=np.float64)
    std = float(sizes.std(ddof=1)) if sizes.size > 1 else 0.0
    return float(sizes.mean()), std
