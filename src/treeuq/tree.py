"""Binary axis-aligned classification trees.

One node type serves both techniques: internal nodes carry a split rule,
terminal nodes carry per-class training counts. Routing convention is
``x[feature] <= threshold`` goes left. Split quality is Shannon information
gain in bits; terminal-node class probabilities use Laplace (+1) smoothing so
no class ever gets exactly zero probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .data import Dataset

__all__ = [
    "DecisionTree",
    "SplitRule",
    "TreeNode",
    "enumerate_splits",
    "grow_randomized",
    "information_gain",
    "leaf_posterior_matrix",
    "parse_tree",
    "serialize_tree",
    "top_k_splits",
    "tree_size",
    "walk",
]


class SplitRule(NamedTuple):
    """Axis-aligned question: is x[feature] <= threshold?"""

    feature: int
    threshold: float


# SplitRule._make without its Python-level frame and length check: a node can
# have thousands of candidates, and building their rules is a large share of
# the split search
_new_rule = partial(tuple.__new__, SplitRule)


class TreeNode:
    """Node of a binary tree; a leaf iff both children are None.

    ``counts`` holds the per-class training counts of the points reaching the
    node; ``indices`` optionally caches which training rows those are (only the
    sampler's trees keep them; prediction does not need them). ``cache`` is
    None except on the sampler's nodes: their builder sets it once, when it
    makes the node, to the Dataset they were built on and values derived
    from it and the node's own fields; the sampler checks that Dataset only
    at a tree's root. Nothing writes to a node after it is built, so every
    cached value stays exact.
    """

    __slots__ = ("feature", "threshold", "left", "right", "counts", "indices", "cache")

    def __init__(self, counts, feature=None, threshold=None, left=None, right=None, indices=None):
        self.counts = np.asarray(counts, dtype=np.int64)
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.indices = indices
        self.cache = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class DecisionTree:
    """Binary classification tree; its class count is the length of root.counts."""

    root: TreeNode


def walk(root: TreeNode) -> tuple[list[TreeNode], list[TreeNode], list[TreeNode]]:
    """Leaves, internal nodes and prunable nodes of a tree, each in preorder.

    A prunable node is an internal node whose two children are leaves.
    """
    leaves: list[TreeNode] = []
    internals: list[TreeNode] = []
    prunable: list[TreeNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.left is None:
            leaves.append(node)
            continue
        internals.append(node)
        if node.left.left is None and node.right.left is None:
            prunable.append(node)
        stack.append(node.right)
        stack.append(node.left)
    return leaves, internals, prunable


def tree_size(tree: DecisionTree) -> int:
    """Number of terminal nodes."""
    return len(walk(tree.root)[0])


def _check_features(tree: DecisionTree, columns: int) -> None:
    """Raise ValueError if a split of tree reads a column the data lacks."""
    feature = max((node.feature for node in walk(tree.root)[1]), default=-1)
    if feature >= columns:
        raise ValueError(f"tree splits on feature {feature}, but the data has {columns} columns")


def _feature_matrix(features) -> np.ndarray:
    """features as a float array; ValueError naming the shape unless it is 2-D."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D (rows, columns), got shape {features.shape}")
    return features


def _entropy_bits(counts: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row of a count matrix."""
    counts = np.asarray(counts, dtype=np.float64)
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / totals
        terms = np.where(counts > 0, p * np.log2(np.where(counts > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def _gain_bits(parent: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Entropy reduction of splitting parent rows into left/right rows."""
    n = parent.sum(axis=-1)
    n_left = left.sum(axis=-1)
    n_right = right.sum(axis=-1)
    return _entropy_bits(parent) - (n_left * _entropy_bits(left) + n_right * _entropy_bits(right)) / n


def information_gain(parent_counts, left_counts, right_counts) -> float:
    """Information gain in bits of a split of parent_counts into the children.

    Raises:
        ValueError: if the child counts do not sum to the parent counts or the
            parent has fewer than 2 points.
    """
    parent = np.asarray(parent_counts, dtype=np.int64)
    left = np.asarray(left_counts, dtype=np.int64)
    right = np.asarray(right_counts, dtype=np.int64)
    if not np.array_equal(left + right, parent):
        raise ValueError("left and right counts must sum to the parent counts")
    if parent.sum() < 2:
        raise ValueError("parent must contain at least 2 points")
    return float(_gain_bits(parent[None, :], left[None, :], right[None, :])[0])


def enumerate_splits(data: Dataset, min_leaf: int) -> list[tuple[SplitRule, float]]:
    """All candidate splits of a node's data with their information gains.

    One candidate per (feature, midpoint between consecutive distinct sorted
    values); candidates leaving fewer than min_leaf points in either child are
    dropped. Candidates are ordered by feature index, then threshold.

    Every feature is scored in one pass: the columns are sorted together, and
    the gains of all candidates come from one ``_gain_bits`` call. Each gain
    equals ``information_gain`` of the candidate's counts bit for bit.
    """
    n = data.n
    if n < 2:
        return []
    onehot = np.zeros((n, data.num_classes), dtype=np.int64)
    onehot[np.arange(n), data.labels] = 1
    parent = onehot.sum(axis=0)

    order = np.argsort(data.features, axis=0, kind="stable")
    sorted_values = np.take_along_axis(data.features, order, axis=0)
    # cut i puts sorted rows 0..i of a column on the left
    left_sizes = np.arange(1, n)
    valid = sorted_values[:-1] != sorted_values[1:]
    valid &= ((left_sizes >= min_leaf) & (n - left_sizes >= min_leaf))[:, None]
    columns, cuts = np.nonzero(valid.T)
    if cuts.size == 0:
        return []
    left = np.cumsum(onehot[order], axis=0)[cuts, columns]
    right = parent[None, :] - left
    # one parent row, so its entropy is computed once and is the same for
    # every candidate, as in information_gain
    gains = _gain_bits(parent[None, :], left, right)
    thresholds = (sorted_values[cuts, columns] + sorted_values[cuts + 1, columns]) / 2.0
    rules = map(_new_rule, zip(columns.tolist(), thresholds.tolist()))
    return list(zip(rules, gains.tolist()))


def top_k_splits(
    candidates: list[tuple[SplitRule, float]], k: int
) -> list[tuple[SplitRule, float]]:
    """The k highest-gain candidates; ties go to lower feature, then threshold.

    Only the candidates whose gain reaches the k-th largest gain can rank in
    the top k, so only those are sorted; keeping every tie at that cut-off
    gives the same result as sorting the whole list.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if len(candidates) > k:
        gains = np.fromiter((gain for _, gain in candidates), np.float64, len(candidates))
        cutoff = np.partition(gains, len(gains) - k)[len(gains) - k]
        candidates = [candidates[i] for i in np.flatnonzero(gains >= cutoff).tolist()]
    ranked = sorted(candidates, key=lambda c: (-c[1], c[0].feature, c[0].threshold))
    return ranked[:k]


def leaf_posterior_matrix(tree: DecisionTree, features: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Smoothed leaf posteriors for every row of a feature matrix, (n, C).

    Each row gets the class probabilities (n_c + alpha) / (n + C * alpha) of
    the leaf it reaches; ``alpha`` is the symmetric Dirichlet smoothing count,
    and alpha=1 is Laplace smoothing. Features that are not 2-D, or a split
    on a column that features lacks, raise ValueError.
    """
    features = _feature_matrix(features)
    _check_features(tree, features.shape[1])
    num_classes = tree.root.counts.size
    out = np.empty((features.shape[0], num_classes))

    def fill(node: TreeNode, rows: np.ndarray) -> None:
        if rows.size == 0:
            return
        if node.is_leaf:
            counts = node.counts.astype(np.float64)
            out[rows] = (counts + alpha) / (counts.sum() + alpha * num_classes)
            return
        goes_left = features[rows, node.feature] <= node.threshold
        fill(node.left, rows[goes_left])
        fill(node.right, rows[~goes_left])

    fill(tree.root, np.arange(features.shape[0]))
    return out


def grow_randomized(data: Dataset, min_leaf: int, top_k: int = 20, seed=None) -> DecisionTree:
    """Grow a tree choosing each split uniformly among the top-k candidates.

    Recursion stops at pure nodes, nodes with fewer than 2*min_leaf points,
    or nodes with no valid candidate. Deterministic given seed; with top_k=1
    this is greedy CART.
    """
    if min_leaf < 1:
        raise ValueError(f"need min_leaf >= 1, got {min_leaf}")
    if top_k < 1:
        raise ValueError(f"need top_k >= 1, got {top_k}")
    rng = np.random.default_rng(seed)

    def build(indices: np.ndarray) -> TreeNode:
        node_data = data.subset(indices)
        counts = node_data.class_counts()
        if np.count_nonzero(counts) <= 1 or node_data.n < 2 * min_leaf:
            return TreeNode(counts)
        candidates = enumerate_splits(node_data, min_leaf)
        if not candidates:
            return TreeNode(counts)
        best = top_k_splits(candidates, top_k)
        rule, _ = best[rng.integers(len(best))]
        del candidates  # an ancestor's list is not needed while its subtrees grow
        goes_left = node_data.features[:, rule.feature] <= rule.threshold
        return TreeNode(
            counts,
            feature=rule.feature,
            threshold=rule.threshold,
            left=build(indices[goes_left]),
            right=build(indices[~goes_left]),
        )

    root = build(np.arange(data.n))
    return DecisionTree(root)


def serialize_tree(tree: DecisionTree) -> str:
    """Line-oriented text form: one preorder line per node.

    Internal nodes: ``<id> split <feature> <threshold>``; terminal nodes:
    ``<id> leaf <count> <count> ...``. The preorder of a full binary tree
    reconstructs the shape without child pointers.
    """
    lines: list[str] = []

    def emit(node: TreeNode) -> None:
        node_id = len(lines)
        if node.is_leaf:
            counts = " ".join(str(int(c)) for c in node.counts)
            lines.append(f"{node_id} leaf {counts}")
        else:
            lines.append(f"{node_id} split {node.feature} {node.threshold!r}")
            emit(node.left)
            emit(node.right)

    emit(tree.root)
    return "\n".join(lines) + "\n"


def _parse_line(number: int, line: str, num_classes: int) -> tuple[int, float] | np.ndarray:
    """(feature, threshold) of a split line, or the counts of a leaf line."""
    parts = line.split()
    kind = parts[1] if len(parts) > 1 else None
    try:
        if kind == "leaf":
            counts = np.array([int(c) for c in parts[2:]], dtype=np.int64)
            if counts.shape == (num_classes,) and counts.min() >= 0:
                return counts
        elif kind == "split" and len(parts) == 4:
            feature, threshold = int(parts[2]), float(parts[3])
            if feature >= 0 and np.isfinite(threshold):
                return feature, threshold
    except ValueError:
        pass
    raise ValueError(
        f"tree line {number}: expected '<id> split <feature >= 0> <finite threshold>' "
        f"or '<id> leaf' and {num_classes} counts >= 0, got {line.strip()!r}"
    )


def parse_tree(text: str, num_classes: int) -> DecisionTree:
    """Inverse of serialize_tree; a malformed line raises ValueError naming it."""
    lines = text.strip().splitlines()
    pos = 0

    def build() -> TreeNode:
        nonlocal pos
        if pos >= len(lines):
            raise ValueError("truncated tree text")
        parsed = _parse_line(pos + 1, lines[pos], num_classes)
        pos += 1
        if isinstance(parsed, np.ndarray):
            return TreeNode(parsed)
        left = build()
        right = build()
        return TreeNode(
            left.counts + right.counts, feature=parsed[0], threshold=parsed[1], left=left, right=right
        )

    root = build()
    if pos != len(lines):
        raise ValueError("trailing lines after tree")
    return DecisionTree(root)
