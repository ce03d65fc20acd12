"""Tree ensembles: split-randomised training, scoring and size summary.

An ensemble is a plain sequence of trees. ``train_ensemble`` grows one in
which each tree picks every split uniformly among its top-20
information-gain candidates, so independently seeded trees disagree near
class boundaries. The ensemble posterior either averages per-tree posteriors
or counts per-tree argmax votes; the vote form is what the uncertainty
envelope consumes. The Bayesian sampler's retained trees go through the same
scorer and the same size summary, so both techniques are judged by one
function each. The scorer keeps one row order for all the trees of a call,
in which every node's rows form one slice. A sampler tree splits like its
predecessor above its move, so the rows above the move are not re-routed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .tree import DecisionTree, _feature_matrix, _route, _router, grow_randomized, leaf_posterior_matrix, tree_size

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
    than 300 points, else 5. The seed is an argument of train_ensemble.
    """

    n_trees: int = 200
    min_leaf: int | None = None
    top_k: int = 20

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
    train: Dataset, config: EnsembleConfig = EnsembleConfig(), seed=0
) -> tuple[DecisionTree, ...]:
    """Grow config.n_trees randomised trees with independent seed streams.

    Per-tree seeds derive from seed as SeedSequence((seed, tree_index)), so
    any tree is reproducible in isolation.
    """
    min_leaf = config.min_leaf if config.min_leaf is not None else default_min_leaf(train.n)
    return tuple(
        grow_randomized(
            train,
            min_leaf=min_leaf,
            top_k=config.top_k,
            seed=np.random.SeedSequence((seed, i)),
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
    that are not 2-D, or an alpha that is not finite and > 0, raise
    ValueError.

    All distinct trees share one router: where a tree splits like the
    previous one, at a position and above it, the rows are not re-routed,
    and a subtree shared by reference is left out with its rows. After a
    sampler move, only the moved subtree's slices are partitioned again;
    randomised trees share no split and route all. Vote mode credits a row's
    weight to its label when the label changes, an exact integer sum, so
    both modes equal scoring each tree alone.
    """
    if len(trees) < 1:
        raise ValueError("ensemble is empty")
    if mode not in ("average", "vote"):
        raise ValueError(f"unknown mode {mode!r}; expected 'vote' or 'average'")
    if not 0 < alpha < np.inf:  # NaN fails both comparisons
        raise ValueError(f"need finite alpha > 0, got {alpha}")
    num_classes = trees[0].root.counts.size
    distinct: dict[int, list] = {}
    for i, tree in enumerate(trees):
        if tree.root.counts.size != num_classes:
            raise ValueError(f"tree {i} has {tree.root.counts.size} classes, but tree 0 has {num_classes}")
        distinct.setdefault(id(tree), [tree, 0])[1] += 1

    features = _feature_matrix(features)
    n = features.shape[0]
    router = _router(features)
    out = np.zeros((n, num_classes))
    posterior = np.empty((n, num_classes))  # average: the previous tree's, per row
    label = np.zeros(n, dtype=np.intp)  # vote: the previous tree's argmax, per row
    since, total, previous = np.zeros(n), 0, None  # vote: total weight when label[row] was set
    for tree, weight in distinct.values():
        routed = _route(tree.root, router, alpha, previous)
        previous = tree.root
        if mode == "average":
            for rows, leaf in routed:
                posterior[rows] = leaf
            out += weight * posterior
        else:
            new = label.copy()
            for rows, leaf in routed:
                new[rows] = np.argmax(leaf)
            changed = np.flatnonzero(new != label)
            out[changed, label[changed]] += total - since[changed]
            since[changed] = total
            label = new
            total += weight
    if mode == "vote":
        out[np.arange(n), label] += total - since
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
    """Sample mean and sample standard deviation of the trees' leaf counts.

    A tree object that occurs several times (a rejected MH step keeps its
    state) is walked once.
    """
    if len(trees) < 1:
        raise ValueError("ensemble is empty")
    leaves: dict[int, int] = {}
    for tree in trees:
        if id(tree) not in leaves:
            leaves[id(tree)] = tree_size(tree)
    sizes = np.array([leaves[id(tree)] for tree in trees], dtype=np.float64)
    std = float(sizes.std(ddof=1)) if sizes.size > 1 else 0.0
    return float(sizes.mean()), std
