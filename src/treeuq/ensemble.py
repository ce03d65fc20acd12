"""Tree ensembles: split-randomised training, scoring and size summary.

An ensemble is a plain sequence of trees. ``train_ensemble`` grows one in
which each tree picks every split uniformly among its top-20
information-gain candidates, so independently seeded trees disagree near
class boundaries. The ensemble posterior either averages per-tree posteriors
or counts per-tree argmax votes; the vote form is what the uncertainty
envelope consumes. The Bayesian sampler's retained trees go through the same
scorer and the same size summary, so both techniques are judged by one
function each. A tree routes a row left when ``x[feature] <= threshold``,
and gives it the class probabilities of the leaf it reaches, smoothed by a
symmetric Dirichlet count (alpha=1 is Laplace (+1) smoothing, so no class
ever gets exactly zero probability). One tree alone is scored as an ensemble
of one, by the same sums. The scorer keeps one row order for all the trees
of a call, in which every node's rows form one slice. A sampler tree splits
like its predecessor above its move, so the rows above the move are not
re-routed, and in vote mode only the re-routed rows are compared and
credited: the cost of a tree follows the rows its move touched, not the
size of the test set.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _require_ints
from .tree import DecisionTree, TreeNode, _check_rule, grow_randomized, tree_size

__all__ = [
    "EnsembleConfig",
    "best_single_tree",
    "ensemble_mean_size",
    "ensemble_posterior_matrix",
    "leaf_posterior_matrix",
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
        _require_ints(self, ("n_trees", "top_k"), minimum=1)
        if self.min_leaf is not None:
            _require_ints(self, ("min_leaf",), minimum=1)


def train_ensemble(
    train: Dataset, config: EnsembleConfig = EnsembleConfig(), seed=0
) -> tuple[DecisionTree, ...]:
    """Grow config.n_trees randomised trees with independent seed streams.

    Per-tree seeds derive from seed as SeedSequence((seed, tree_index)), so
    any tree is reproducible in isolation.
    """
    min_leaf = config.min_leaf
    if min_leaf is None:
        min_leaf = MIN_LEAF_LARGE if train.n > LARGE_TRAIN_THRESHOLD else MIN_LEAF_SMALL
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

    All distinct trees share one row order: where a tree splits like the
    previous one, at a position and above it, the rows are not re-routed,
    and a subtree shared by reference is left out with its rows. After a
    sampler move, only the moved subtree's slices are partitioned again;
    randomised trees share no split and route all. Vote mode looks only at
    the re-routed rows (the others keep their leaf, so their label), and a
    row whose label changes credits the weight its old label held: exact
    integer sums, so both modes equal scoring each tree alone.
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
    order, mids = np.arange(n), {}  # the row order and split points _route keeps
    out = np.zeros((n, num_classes))
    if mode == "average":
        posterior = np.empty((n, num_classes))  # the previous tree's posterior, per row
    else:
        credits = out.reshape(-1)  # out[row, c] is credits[row * num_classes + c]
        label = np.zeros(n, dtype=np.intp)  # the previous tree's argmax, per row
    previous, total = None, 0  # vote: the weight of the trees so far
    for tree, weight in distinct.values():
        routed = _route(tree.root, features, order, mids, alpha, previous)
        previous = tree.root
        if mode == "average":
            for rows, leaf in routed:
                posterior[rows] = leaf
            out += weight * posterior
            continue
        # Only a routed row can change label: the others sit under a subtree
        # shared by reference, in the same leaf. A label held from weight t0
        # to t1 gets t1 - t0, as -t0 when it starts and +t1 when it ends.
        if routed:
            sizes = [rows.size for rows, _ in routed]
            rows = order if sum(sizes) == n else np.concatenate([rows for rows, _ in routed])
            new = np.repeat([leaf.argmax() for _, leaf in routed], sizes)
            old = label[rows]
            moved = old != new
            rows, new = rows[moved], new[moved]
            label[rows] = new
            rows *= num_classes
            credits[rows + old[moved]] += total
            credits[rows + new] -= total
        total += weight
    if mode == "vote":
        out[np.arange(n), label] += total
    out /= len(trees)
    return out


def leaf_posterior_matrix(tree: DecisionTree, features: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Smoothed leaf posteriors of one tree for every row of a feature matrix, (n, C).

    Each row gets the class probabilities (n_c + alpha) / (n + C * alpha) of
    the leaf it reaches: the average-mode posterior of an ensemble of one
    tree, bit for bit. Its input checks are that scorer's, with the same
    ValueError messages.
    """
    return ensemble_posterior_matrix((tree,), features, "average", alpha)


def _feature_matrix(features) -> np.ndarray:
    """features as a float array; ValueError naming the shape unless it is 2-D."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D (rows, columns), got shape {features.shape}")
    return features


def _route(
    root: TreeNode, features: np.ndarray, order: np.ndarray, mids: dict[int, int], alpha: float,
    previous: TreeNode | None = None,
):
    """(rows, leaf posterior) for each leaf of root that rows of features reach.

    ``order`` is a permutation of the rows in which every node's rows form
    one slice, and ``mids`` says where each internal node's slice splits,
    keyed by tree position (root 1, children 2p and 2p + 1); both are
    updated in place. ``previous`` is the root routed last with them, if
    any. The walk descends both trees by position. While a node and every
    node above it split like the previous tree's, its rows are where that
    tree left them: its stored mid is reused, and a node that is the
    previous one itself is left out with its rows. Below the first changed
    split, each slice of the row order is partitioned in place. The rows are
    views into that order, valid until the next route. Every split not
    shared by reference is checked, even without rows, so one on a column
    that features lacks, or at a non-finite threshold, raises ValueError.
    """
    routed = []
    stack = [(root, previous, 1, 0, order.size)]
    while stack:
        node, old, position, lo, hi = stack.pop()
        if node is old:
            continue
        if node.left is None:
            if hi > lo:
                counts = node.counts.astype(np.float64)
                routed.append((order[lo:hi], (counts + alpha) / (counts.sum() + alpha * counts.size)))
            continue
        _check_rule(node.feature, node.threshold, features.shape[1])
        if old is not None and old.feature == node.feature and old.threshold == node.threshold:
            mid = mids[position]
        else:
            old = None
            rows = order[lo:hi]
            # indexing the column view is about twice as fast as features[rows, feature]
            goes_left = features[:, node.feature][rows] <= node.threshold
            left, right = rows.compress(goes_left), rows.compress(~goes_left)
            mid = lo + left.size
            order[lo:mid], order[mid:hi] = left, right
            mids[position] = mid
        stack.append((node.right, old and old.right, 2 * position + 1, mid, hi))
        stack.append((node.left, old and old.left, 2 * position, lo, mid))
    return routed


def best_single_tree(trees: Sequence[DecisionTree], validation: Dataset) -> tuple[int, float]:
    """Index and accuracy of the tree with best argmax accuracy on validation.

    Ties go to the lowest tree index.
    """
    if len(trees) < 1:
        raise ValueError("ensemble is empty")
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
