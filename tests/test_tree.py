"""Tree growth, split scoring, prediction, and serialization."""

import math

import numpy as np
import pytest

from treeuq import (
    Dataset,
    DecisionTree,
    TreeNode,
    enumerate_splits,
    grow_randomized,
    information_gain,
    leaf_posterior,
    leaf_posterior_matrix,
    make_benchmark_mixture,
    parse_tree,
    predict,
    sample_mixture,
    serialize_tree,
    top_k_splits,
    tree_size,
)
from treeuq.tree import walk


def oracle_entropy(counts) -> float:
    """Independent plain-python entropy in bits."""
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log2(p)
    return h


def oracle_gain(parent, left, right) -> float:
    n = sum(parent)
    return (
        oracle_entropy(parent)
        - sum(left) / n * oracle_entropy(left)
        - sum(right) / n * oracle_entropy(right)
    )


def oracle_splits(data: Dataset, min_leaf: int):
    """Exhaustive partition scorer: every (feature, midpoint) candidate."""
    out = []
    for j in range(data.m):
        values = sorted(set(data.features[:, j]))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            mask = data.features[:, j] <= threshold
            n_left = int(mask.sum())
            if n_left < min_leaf or data.n - n_left < min_leaf:
                continue
            left = [int(np.sum(data.labels[mask] == c)) for c in range(data.num_classes)]
            right = [int(np.sum(data.labels[~mask] == c)) for c in range(data.num_classes)]
            parent = [l + r for l, r in zip(left, right)]
            out.append(((j, threshold), oracle_gain(parent, left, right)))
    return out


def random_dataset(rng, n, m=2, num_classes=2, grid=None):
    if grid is None:
        features = rng.standard_normal((n, m))
    else:
        features = rng.integers(0, grid, size=(n, m)).astype(float)
    labels = rng.integers(0, num_classes, size=n)
    labels[: num_classes] = np.arange(num_classes)
    return Dataset(features, labels, num_classes, tuple(f"f{i}" for i in range(m)))


class TestInformationGain:
    def test_pure_split_of_balanced_parent(self):
        assert information_gain([2, 2], [2, 0], [0, 2]) == pytest.approx(1.0)

    def test_uninformative_split(self):
        assert information_gain([2, 2], [1, 1], [1, 1]) == pytest.approx(0.0)

    def test_pure_split_of_3_2_parent(self):
        gain = information_gain([3, 2], [3, 0], [0, 2])
        assert gain == pytest.approx(0.9710, abs=1e-4)
        assert gain == pytest.approx(oracle_gain([3, 2], [3, 0], [0, 2]), abs=1e-12)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sum to the parent"):
            information_gain([3, 2], [3, 0], [1, 2])

    def test_tiny_parent_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            information_gain([1, 0], [1, 0], [0, 0])

    def test_non_negative_and_matches_oracle_on_random_counts(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            parent = rng.integers(0, 8, size=3)
            if parent.sum() < 2:
                continue
            left = np.array([rng.integers(0, c + 1) for c in parent])
            right = parent - left
            gain = information_gain(parent, left, right)
            assert gain >= -1e-12
            assert gain == pytest.approx(oracle_gain(parent, left, right), abs=1e-12)


class TestEnumerateSplits:
    def test_midpoints_of_distinct_values(self):
        data = Dataset([[1.0], [2.0], [3.0]], [0, 0, 1], 2, ("x",))
        cands = enumerate_splits(data, min_leaf=1)
        assert [(rule.feature, rule.threshold) for rule, _ in cands] == [(0, 1.5), (0, 2.5)]

    def test_constant_feature_yields_no_candidates(self):
        data = Dataset([[1.0], [1.0], [1.0]], [0, 0, 1], 2, ("x",))
        assert enumerate_splits(data, min_leaf=1) == []

    def test_min_leaf_exclusion(self):
        data = Dataset([[float(i)] for i in range(6)], [0, 0, 0, 1, 1, 1], 2, ("x",))
        thresholds = [r.threshold for r, _ in enumerate_splits(data, min_leaf=2)]
        assert thresholds == [1.5, 2.5, 3.5]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, 12, m=2, grid=6)
        got = enumerate_splits(data, min_leaf=1)
        expected = oracle_splits(data, min_leaf=1)
        assert [(r.feature, r.threshold) for r, _ in got] == [key for key, _ in expected]
        for (_, gain), (_, oracle) in zip(got, expected):
            assert gain == pytest.approx(oracle, abs=1e-12)


class TestTopKSplits:
    def test_top_two_by_gain(self):
        from treeuq import SplitRule

        cands = [(SplitRule(0, 0.5), 0.9), (SplitRule(0, 1.5), 0.5), (SplitRule(0, 2.5), 0.7)]
        top = top_k_splits(cands, 2)
        assert [g for _, g in top] == [0.9, 0.7]

    def test_fewer_candidates_than_k(self):
        from treeuq import SplitRule

        cands = [(SplitRule(0, float(i)), 0.1 * i) for i in range(5)]
        assert len(top_k_splits(cands, 20)) == 5

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(8)
        from treeuq import SplitRule

        cands = [
            (SplitRule(int(rng.integers(3)), float(rng.integers(10))), float(rng.choice([0.1, 0.2, 0.3])))
            for _ in range(100)
        ]
        got = top_k_splits(cands, 20)
        expected = sorted(cands, key=lambda c: (-c[1], c[0].feature, c[0].threshold))[:20]
        assert got == expected

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            top_k_splits([], 0)


class TestLeafPosterior:
    def test_laplace_smoothing(self):
        assert leaf_posterior([3, 1]) == pytest.approx([4 / 6, 2 / 6])

    def test_empty_leaf_uniform(self):
        assert leaf_posterior([0, 0]) == pytest.approx([0.5, 0.5])

    def test_balanced_counts_uniform(self):
        assert leaf_posterior([5, 5]) == pytest.approx([0.5, 0.5])


class TestPredict:
    def test_single_leaf_tree(self):
        tree = DecisionTree(TreeNode([9, 1]), num_classes=2)
        assert predict(tree, [0.0]) == pytest.approx([10 / 12, 2 / 12])

    def test_depth_one_routing(self):
        tree = DecisionTree(
            TreeNode(
                [5, 5],
                feature=0,
                threshold=0.5,
                left=TreeNode([5, 0]),
                right=TreeNode([0, 5]),
            ),
            num_classes=2,
        )
        assert predict(tree, [0.4, 9.9])[0] == pytest.approx(6 / 7)
        assert predict(tree, [0.6, -9.9])[1] == pytest.approx(6 / 7)

    def test_boundary_goes_left(self):
        tree = DecisionTree(
            TreeNode([5, 5], feature=0, threshold=0.5, left=TreeNode([5, 0]), right=TreeNode([0, 5])),
            num_classes=2,
        )
        assert predict(tree, [0.5])[0] == pytest.approx(6 / 7)

    def test_matrix_agrees_with_pointwise(self):
        data = sample_mixture(make_benchmark_mixture(), 80, 2)
        tree = grow_randomized(data, min_leaf=3, seed=4)
        matrix = leaf_posterior_matrix(tree, data.features)
        for i in range(data.n):
            assert matrix[i] == pytest.approx(predict(tree, data.features[i]))


class TestGrowRandomized:
    def test_too_small_to_split(self):
        data = random_dataset(np.random.default_rng(0), 8)
        tree = grow_randomized(data, min_leaf=5, seed=0)
        assert tree_size(tree) == 1

    def test_pure_dataset_single_leaf(self):
        data = Dataset(np.random.default_rng(0).standard_normal((10, 2)), [0] * 10, 2, ("a", "b"))
        tree = grow_randomized(data, min_leaf=1, seed=0)
        assert tree_size(tree) == 1

    def test_same_seed_identical(self):
        data = sample_mixture(make_benchmark_mixture(), 120, 5)
        a = grow_randomized(data, min_leaf=5, seed=42)
        b = grow_randomized(data, min_leaf=5, seed=42)
        assert serialize_tree(a) == serialize_tree(b)

    def test_min_leaf_invariant_and_count_conservation(self):
        data = sample_mixture(make_benchmark_mixture(), 150, 6)
        tree = grow_randomized(data, min_leaf=5, seed=7)
        leaves, internals, _ = walk(tree.root)
        for node in leaves:
            assert node.counts.sum() >= tree.min_leaf
        for node in internals:
            assert np.array_equal(node.counts, node.left.counts + node.right.counts)

    def test_top_k_one_is_greedy_and_seed_free(self):
        data = sample_mixture(make_benchmark_mixture(), 100, 8)
        a = grow_randomized(data, min_leaf=5, top_k=1, seed=1)
        b = grow_randomized(data, min_leaf=5, top_k=1, seed=999)
        assert serialize_tree(a) == serialize_tree(b)


class TestTreeSize:
    def test_single_leaf(self):
        assert tree_size(DecisionTree(TreeNode([1, 1]), 2)) == 1

    def test_depth_one(self):
        tree = DecisionTree(
            TreeNode([2, 2], feature=0, threshold=0.0, left=TreeNode([2, 0]), right=TreeNode([0, 2])), 2
        )
        assert tree_size(tree) == 2
        leaves, internals, prunable = walk(tree.root)
        assert leaves == [tree.root.left, tree.root.right]
        assert internals == prunable == [tree.root]

    def test_complete_depth_three(self):
        def complete(depth):
            if depth == 0:
                return TreeNode([1, 1])
            return TreeNode(
                [1, 1], feature=0, threshold=0.0, left=complete(depth - 1), right=complete(depth - 1)
            )

        tree = DecisionTree(complete(3), 2)
        assert tree_size(tree) == 8
        leaves, internals, prunable = walk(tree.root)
        assert (len(leaves), len(internals), len(prunable)) == (8, 7, 4)
        # preorder: the root first, then the whole left subtree
        assert internals[:3] == [tree.root, tree.root.left, tree.root.left.left]
        assert leaves[0] is tree.root.left.left.left


class TestSerialization:
    def test_round_trip(self):
        data = sample_mixture(make_benchmark_mixture(), 90, 12)
        tree = grow_randomized(data, min_leaf=4, seed=3)
        text = serialize_tree(tree)
        back = parse_tree(text, num_classes=2, min_leaf=tree.min_leaf)
        assert serialize_tree(back) == text
        for x in data.features[:10]:
            assert predict(back, x) == pytest.approx(predict(tree, x))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_tree("0 blob 1 2\n", num_classes=2)
