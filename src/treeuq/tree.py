"""Binary axis-aligned classification trees.

One node type serves both techniques: internal nodes carry a split rule,
terminal nodes carry per-class training counts. A split sends
``x[feature] <= threshold`` left. Split quality is Shannon information gain
in bits. Scoring rows with a tree lives in the ensemble module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset

__all__ = [
    "DecisionTree",
    "TreeNode",
    "enumerate_splits",
    "grow_randomized",
    "parse_tree",
    "serialize_tree",
    "top_k_splits",
    "tree_size",
    "walk",
]


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


def _check_rule(feature: int, threshold: float, columns: int) -> None:
    """Raise ValueError unless a split reads one of columns at a finite threshold.

    The feature must be an int or a numpy integer; a bool, which Python would
    read as column 0 or 1, is neither.
    """
    if not (type(feature) is int or isinstance(feature, np.integer)) or not 0 <= feature < columns:
        raise ValueError(f"tree splits on feature {feature!r}, but the data has {columns} columns")
    if not -np.inf < threshold < np.inf:  # NaN fails both comparisons
        raise ValueError(f"tree splits on feature {feature} at threshold {threshold}, which is not finite")


def _entropy_bits(counts: np.ndarray, totals) -> np.ndarray:
    """Shannon entropy in bits of each row of a count matrix; totals are its row sums."""
    counts = np.asarray(counts, dtype=np.float64)
    p = counts / np.asarray(totals, dtype=np.float64)[..., None]
    terms = np.where(counts > 0, p * np.log2(np.where(counts > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


# One row per split candidate; enumerate_splits returns it, top_k_splits ranks it.
_SPLIT_DTYPE = np.dtype([("feature", np.int64), ("threshold", np.float64), ("gain", np.float64)])


def enumerate_splits(data: Dataset, min_leaf: int) -> np.ndarray:
    """All candidate splits of a node's data, one structured record each.

    The records have the fields ``feature`` (int64), ``threshold`` and
    ``gain`` (float64); ``.tolist()`` gives the same candidates as
    ``(feature, threshold, gain)`` tuples of Python int, float and float.
    One candidate per (feature, midpoint between consecutive distinct sorted
    values); a candidate sends ``x[feature] <= threshold`` left, and its gain
    is the information gain in bits. Candidates leaving fewer than min_leaf
    points in either child are dropped. Candidates are ordered by feature
    index, then threshold.

    Every feature is scored in one pass: the columns are sorted together, and
    the gains of all candidates come from their cumulative class counts, with
    each side's size read off its cut.
    """
    n = data.n
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
    left = np.cumsum(onehot[order], axis=0)[cuts, columns]
    right = parent[None, :] - left
    n_left = cuts + 1
    n_right = n - n_left
    candidates = np.empty(cuts.size, _SPLIT_DTYPE)
    candidates["feature"] = columns
    candidates["threshold"] = (sorted_values[cuts, columns] + sorted_values[cuts + 1, columns]) / 2.0
    # one parent row, so its entropy is computed once and is the same for
    # every candidate
    children = n_left * _entropy_bits(left, n_left) + n_right * _entropy_bits(right, n_right)
    candidates["gain"] = _entropy_bits(parent[None, :], n) - children / n
    return candidates


def top_k_splits(candidates: np.ndarray, k: int) -> np.ndarray:
    """The k highest-gain records of an ``enumerate_splits`` array, best first.

    Ties go to lower feature, then lower threshold; equal records keep their
    input order, as ``sorted`` with the key (-gain, feature, threshold) would
    keep them on the ``.tolist()`` tuples. A gain that is not finite raises
    ValueError before any ranking.

    Only the candidates whose gain reaches the k-th largest gain can rank in
    the top k, so only those are sorted; keeping every tie at that cut-off
    gives the same result as sorting the whole array.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    gains = candidates["gain"]
    finite = np.isfinite(gains)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"candidate {bad} has gain {gains[bad]}, which is not finite")
    if len(candidates) > k:
        cutoff = np.partition(gains, len(gains) - k)[len(gains) - k]
        candidates = candidates[gains >= cutoff]
    ranked = np.lexsort((candidates["threshold"], candidates["feature"], -candidates["gain"]))
    return candidates[ranked[:k]]


def grow_randomized(data: Dataset, min_leaf: int, top_k: int = 20, seed=None) -> DecisionTree:
    """Grow a tree choosing each split uniformly among the top-k candidates.

    Recursion stops at pure nodes, nodes with fewer than 2*min_leaf points,
    or nodes with no valid candidate. Each node searched calls
    ``enumerate_splits`` once and, if it has a candidate, ``top_k_splits``
    once; the drawn record is read with ``.item()``, so every split keeps a
    Python int feature and a Python float threshold. Deterministic given
    seed; with top_k=1 this is greedy CART.
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
        if candidates.size == 0:
            return TreeNode(counts)
        best = top_k_splits(candidates, top_k)
        feature, threshold, _ = best[rng.integers(len(best))].item()
        del candidates  # an ancestor's array is not needed while its subtrees grow
        goes_left = node_data.features[:, feature] <= threshold
        return TreeNode(
            counts,
            feature=feature,
            threshold=threshold,
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
