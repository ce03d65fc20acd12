"""A line-oriented text form of decision trees, for tests.

Tests use it to compare trees and pin their hashes, and to build trees by
hand; no program path reads or writes trees as text.
"""

from __future__ import annotations

import numpy as np

from treeuq.tree import DecisionTree, TreeNode


def serialize_tree(tree: DecisionTree) -> str:
    """Line-oriented text form: one preorder line per node.

    Internal nodes: ``<id> split <feature> <threshold>``; terminal nodes:
    ``<id> leaf <count> <count> ...``. The preorder of a full binary tree
    reconstructs the shape without child pointers.
    """
    lines: list[str] = []
    stack = [tree.root]  # a loop, not a recursive closure: no reference cycle
    while stack:
        node = stack.pop()
        if node.is_leaf:
            counts = " ".join(str(int(c)) for c in node.counts)
            lines.append(f"{len(lines)} leaf {counts}")
        else:
            lines.append(f"{len(lines)} split {node.feature} {node.threshold!r}")
            stack += (node.right, node.left)
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
    # Preorder, read in a loop rather than a recursive closure (which would
    # leave a reference cycle): each split waits on the stack with the
    # children it has so far, and a finished node joins the split above it.
    waiting: list[tuple[tuple[int, float], list[TreeNode]]] = []
    root = None
    for number, line in enumerate(lines, 1):
        if root is not None:
            raise ValueError("trailing lines after tree")
        parsed = _parse_line(number, line, num_classes)
        if not isinstance(parsed, np.ndarray):
            waiting.append((parsed, []))
            continue
        node = TreeNode(parsed)
        while waiting and len(waiting[-1][1]) == 1:
            (feature, threshold), (left,) = waiting.pop()
            node = TreeNode(
                left.counts + node.counts, feature=feature, threshold=threshold, left=left, right=node
            )
        if waiting:
            waiting[-1][1].append(node)
        else:
            root = node
    if root is None:
        raise ValueError("truncated tree text")
    return DecisionTree(root)
