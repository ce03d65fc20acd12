"""Binary axis-aligned classification trees.

One node type serves both techniques: internal nodes carry a split rule,
terminal nodes carry per-class training counts. A split sends
``x[feature] <= threshold`` left. Split quality is Shannon information gain
in bits. Scoring rows with a tree lives in the ensemble module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _is_int, _require_int

__all__ = [
    "DecisionTree",
    "TreeNode",
    "enumerate_splits",
    "grow_randomized",
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
    if not _is_int(feature) or not 0 <= feature < columns:
        raise ValueError(f"tree splits on feature {feature!r}, but the data has {columns} columns")
    if not -np.inf < threshold < np.inf:  # NaN fails both comparisons
        raise ValueError(f"tree splits on feature {feature} at threshold {threshold}, which is not finite")


def _class_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of the class rows of a (classes, K) array, bit for bit that of its transpose.

    The result is ``np.ascontiguousarray(terms.T).sum(axis=1)``. numpy adds
    fewer than 8 terms in sequence from 0.0, so below 8 classes the rows are
    added that way here, each addition covering all K columns, with no
    transposed copy. From 8 classes up, numpy sums that copy itself.
    """
    if len(terms) >= 8:
        return np.ascontiguousarray(terms.T).sum(axis=1)
    total = 0.0
    for row in terms:
        total = total + row
    return total


def _entropy_bits(counts: np.ndarray, totals) -> np.ndarray:
    """Shannon entropy in bits of each column of a (classes, K) count matrix.

    ``totals`` are its column sums. The terms are summed by ``_class_sum``,
    so each entropy is bit for bit that of the (K, classes) layout summed
    along its rows. An absent class has p = 0 and adds 0 * log2(1) = 0. The
    terms are computed in place, to keep the peak memory of a wide node down.
    """
    p = counts / totals
    terms = np.where(counts > 0, p, 1.0)
    np.log2(terms, out=terms)
    terms *= p
    return -_class_sum(terms)


# One row per split candidate; enumerate_splits returns it, top_k_splits ranks it.
_SPLIT_DTYPE = np.dtype([("feature", np.int64), ("threshold", np.float64), ("gain", np.float64)])


def enumerate_splits(data: Dataset, min_leaf: int, order: np.ndarray | None = None) -> np.ndarray:
    """All candidate splits of a node's data, one structured record each.

    The records have the fields ``feature`` (int64), ``threshold`` and
    ``gain`` (float64); ``.tolist()`` gives the same candidates as
    ``(feature, threshold, gain)`` tuples of Python int, float and float.
    One candidate per (feature, midpoint between consecutive distinct sorted
    values); a candidate sends ``x[feature] <= threshold`` left, and its gain
    is the information gain in bits. Candidates leaving fewer than min_leaf
    points in either child are dropped, and a min_leaf that is not an
    integer >= 1 raises ValueError. Candidates are ordered by feature index,
    then threshold.

    ``order`` is an (m, k) array, k >= 1, whose row j lists the same k rows
    of data (the node's rows) sorted by column j; the result is that of
    ``enumerate_splits(data.subset(order[0]), min_leaf)``. Another shape
    raises ValueError, and a row out of range IndexError. ``grow_randomized``
    passes each node its slice of the one order it keeps per tree. Without
    it, the node is all of data, its columns sorted here with one stable
    ``argsort``. Rows with equal values may come in any order: a cut falls
    only between distinct values, so the result is the same.

    Every feature is scored in one column-major pass: the gains of all
    candidates come from their cumulative class counts, with each side's
    size read off its cut. The counts are laid out as (classes, candidates),
    and entropy sums them as ``_class_sum`` does, so every gain is bit for
    bit that of the (candidates, classes) layout.
    """
    _require_int("min_leaf", min_leaf)
    if min_leaf < 1:
        raise ValueError(f"need min_leaf >= 1, got {min_leaf}")
    m = data.m
    if order is None:
        order = np.argsort(data.features.T, axis=1, kind="stable")
    order = np.asarray(order)
    if order.ndim != 2 or order.shape[0] != m or order.shape[1] < 1:
        raise ValueError(f"order must have shape ({m}, k) with k >= 1, got {order.shape}")
    n = order.shape[1]  # the node's rows
    sorted_values = data.features.take(order * m + np.arange(m)[:, None])
    # cut i of a column puts its sorted rows 0..i on the left; the cuts from
    # first to stop - 1 leave min_leaf rows on each side
    first, stop = min_leaf - 1, max(n - min_leaf, min_leaf - 1)
    valid = np.zeros((m, n), dtype=bool)
    valid[:, first:stop] = sorted_values[:, first:stop] != sorted_values[:, first + 1 : stop + 1]
    at = np.flatnonzero(valid)  # feature * n + cut: by feature, then threshold
    columns = at // n
    n_left = at - columns * n + 1
    n_right = n - n_left
    classes = np.arange(data.num_classes)[:, None, None]
    below = np.cumsum(data.labels.take(order) == classes, axis=2).reshape(len(classes), -1)
    left = below.take(at, axis=1)
    parent = below[:, n - 1 : n]  # all of column 0: the node's class counts
    # one parent column, so its entropy is computed once and is the same for
    # every candidate
    children = n_left * _entropy_bits(left, n_left) + n_right * _entropy_bits(parent - left, n_right)
    gain = _entropy_bits(parent, n) - children / n
    candidates = np.empty(at.size, _SPLIT_DTYPE)
    candidates["feature"] = columns
    candidates["threshold"] = (sorted_values.take(at) + sorted_values.take(at + 1)) / 2.0
    candidates["gain"] = gain
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
    _require_int("k", k)
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

    The columns are sorted once per tree, into one (m, n) order of data's
    rows in which every node's rows form one slice of each column's order.
    A node reads data through its slice: it counts its classes there,
    passes the slice to ``enumerate_splits``, and a split partitions the
    slice stably in place. So no node sorts again or copies its rows, and
    the tree keeps one order at any depth.
    """
    _require_int("min_leaf", min_leaf)
    _require_int("top_k", top_k)
    if min_leaf < 1:
        raise ValueError(f"need min_leaf >= 1, got {min_leaf}")
    if top_k < 1:
        raise ValueError(f"need top_k >= 1, got {top_k}")
    rng = np.random.default_rng(seed)
    m = data.m
    order = np.argsort(data.features.T, axis=1, kind="stable")

    def split(lo: int, hi: int) -> tuple[int, float, int] | None:
        """Draw the split of the node on order[:, lo:hi] and partition its slice.

        Returns (feature, threshold, end of the left child's slice), or None
        without a candidate. Its arrays die on return, before the subtrees grow.
        """
        block = order[:, lo:hi]
        candidates = enumerate_splits(data, min_leaf, block)
        if candidates.size == 0:
            return None
        best = top_k_splits(candidates, top_k)
        feature, threshold, _ = best[rng.integers(len(best))].item()
        goes_left = data.features[:, feature][block] <= threshold
        rows, goes_left = block.ravel(), goes_left.ravel()
        left, right = rows.compress(goes_left), rows.compress(~goes_left)
        mid = lo + left.size // m
        order[:, lo:mid], order[:, mid:hi] = left.reshape(m, -1), right.reshape(m, -1)
        return feature, threshold, mid

    def build(lo: int, hi: int) -> TreeNode:
        counts = np.bincount(data.labels[order[0, lo:hi]], minlength=data.num_classes)
        if np.count_nonzero(counts) <= 1 or hi - lo < 2 * min_leaf:
            return TreeNode(counts)
        chosen = split(lo, hi)
        if chosen is None:
            return TreeNode(counts)
        feature, threshold, mid = chosen
        return TreeNode(counts, feature=feature, threshold=threshold, left=build(lo, mid),
                        right=build(mid, hi))

    root = build(0, data.n)
    # build's closure holds build itself; emptying that cell frees this
    # tree's order now rather than at the next garbage collection
    del build
    return DecisionTree(root)
