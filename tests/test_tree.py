"""Tree growth, split scoring, prediction, and serialization."""

import gc
import math
import weakref

import numpy as np
import pytest

from treeuq import (
    Dataset,
    McmcConfig,
    ensemble_posterior_matrix,
    make_benchmark_mixture,
    sample_mixture,
)
from treeuq import ensemble
from treeuq import tree as tree_module
from treeuq.ensemble import leaf_posterior_matrix
from treeuq.mcmc import log_marginal_likelihood, log_prior, propose_move, refresh_counts, run_chain
from treeuq.tree import (
    DecisionTree,
    TreeNode,
    enumerate_splits,
    grow_randomized,
    parse_tree,
    serialize_tree,
    top_k_splits,
    tree_size,
    walk,
)


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


def reference_entropy_bits(counts: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row of a count matrix, its totals summed here."""
    counts = np.asarray(counts, dtype=np.float64)
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / totals
        terms = np.where(counts > 0, p * np.log2(np.where(counts > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def reference_gain_bits(parent: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Entropy reduction of splitting parent rows into left/right rows.

    The formula ``enumerate_splits`` used before it read each side's size off
    its cut; its gains must still equal this bit for bit.
    """
    n = parent.sum(axis=-1)
    n_left = left.sum(axis=-1)
    n_right = right.sum(axis=-1)
    return reference_entropy_bits(parent) - (
        n_left * reference_entropy_bits(left) + n_right * reference_entropy_bits(right)
    ) / n


def information_gain(parent_counts, left_counts, right_counts) -> float:
    """Gain in bits of one split, through ``reference_gain_bits``.

    The reference each ``enumerate_splits`` gain must equal bit for bit.
    """
    parent = np.asarray(parent_counts, dtype=np.int64)
    left = np.asarray(left_counts, dtype=np.int64)
    right = np.asarray(right_counts, dtype=np.int64)
    if not np.array_equal(left + right, parent):
        raise ValueError("left and right counts must sum to the parent counts")
    if parent.sum() < 2:
        raise ValueError("parent must contain at least 2 points")
    return float(reference_gain_bits(parent[None, :], left[None, :], right[None, :])[0])


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


def loop_splits(data: Dataset, min_leaf: int):
    """Per-feature split search, one numpy pass per column.

    This is the scorer ``enumerate_splits`` replaced; with fewer than 8
    classes its float operations are the reference the one-pass version must
    match bit for bit. (From 8 classes on, numpy may sum this loop's
    broadcast parent entropy in another order, depending on how many
    candidates the feature has, so it can differ in the last bit.)
    """
    n = data.n
    if n < 2:
        return []
    onehot = np.zeros((n, data.num_classes), dtype=np.int64)
    onehot[np.arange(n), data.labels] = 1
    parent = onehot.sum(axis=0)
    candidates = []
    for j in range(data.m):
        values = data.features[:, j]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        cuts = np.flatnonzero(sorted_values[:-1] != sorted_values[1:])
        left_sizes = cuts + 1
        cuts = cuts[(left_sizes >= min_leaf) & (n - left_sizes >= min_leaf)]
        if cuts.size == 0:
            continue
        left = np.cumsum(onehot[order], axis=0)[cuts]
        right = parent[None, :] - left
        gains = reference_gain_bits(np.broadcast_to(parent, left.shape), left, right)
        thresholds = (sorted_values[cuts] + sorted_values[cuts + 1]) / 2.0
        candidates.extend((j, float(t), float(g)) for t, g in zip(thresholds, gains))
    return candidates


def full_sort_top_k(candidates, k):
    return sorted(candidates, key=lambda c: (-c[2], c[0], c[1]))[:k]


def as_candidates(triples):
    """(feature, threshold, gain) triples as an ``enumerate_splits`` array."""
    return np.array(triples, dtype=tree_module._SPLIT_DTYPE)


def reference_grow(data: Dataset, min_leaf: int, top_k: int, seed) -> DecisionTree:
    """``grow_randomized`` on the list helpers: ``loop_splits`` + ``full_sort_top_k``.

    Each node is a fresh, fully checked Dataset, and the rng is drawn in the
    same order, so the trees must match ``grow_randomized`` exactly.
    """
    rng = np.random.default_rng(seed)

    def build(indices):
        node_data = Dataset(data.features[indices], data.labels[indices], data.num_classes,
                            data.feature_names)
        counts = node_data.class_counts()
        if np.count_nonzero(counts) <= 1 or node_data.n < 2 * min_leaf:
            return TreeNode(counts)
        candidates = loop_splits(node_data, min_leaf)
        if not candidates:
            return TreeNode(counts)
        best = full_sort_top_k(candidates, top_k)
        feature, threshold, _ = best[rng.integers(len(best))]
        goes_left = node_data.features[:, feature] <= threshold
        return TreeNode(counts, feature=feature, threshold=threshold,
                        left=build(indices[goes_left]), right=build(indices[~goes_left]))

    return DecisionTree(build(np.arange(data.n)))


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
        assert cands.dtype == tree_module._SPLIT_DTYPE
        assert [(feature, threshold) for feature, threshold, _ in cands.tolist()] == [(0, 1.5), (0, 2.5)]

    def test_constant_feature_yields_no_candidates(self):
        data = Dataset([[1.0], [1.0], [1.0]], [0, 0, 1], 2, ("x",))
        cands = enumerate_splits(data, min_leaf=1)
        assert cands.dtype == tree_module._SPLIT_DTYPE and cands.tolist() == []
        # below two rows there is nothing to cut
        assert enumerate_splits(data.subset([0]), min_leaf=1).dtype == tree_module._SPLIT_DTYPE

    def test_min_leaf_exclusion(self):
        data = Dataset([[float(i)] for i in range(6)], [0, 0, 0, 1, 1, 1], 2, ("x",))
        thresholds = [threshold for _, threshold, _ in enumerate_splits(data, min_leaf=2).tolist()]
        assert thresholds == [1.5, 2.5, 3.5]

    @pytest.mark.parametrize("min_leaf", [0, -3])
    def test_min_leaf_below_one_rejected_before_sorting(self, min_leaf, monkeypatch):
        def must_not_sort(*args, **kwargs):
            raise AssertionError("sorted before checking min_leaf")

        monkeypatch.setattr(np, "argsort", must_not_sort)
        data = Dataset([[float(i)] for i in range(6)], [0, 0, 0, 1, 1, 1], 2, ("x",))
        with pytest.raises(ValueError, match=f"need min_leaf >= 1, got {min_leaf}"):
            enumerate_splits(data, min_leaf)

    def test_order_of_another_shape_rejected(self):
        data = Dataset([[float(i), -float(i)] for i in range(6)], [0, 0, 0, 1, 1, 1], 2, ("x", "y"))
        whole = np.argsort(data.features.T, axis=1, kind="stable")
        assert enumerate_splits(data, 1, whole).tobytes() == enumerate_splits(data, 1).tobytes()
        for order in (whole.T, whole[:1], whole[:, :5]):
            with pytest.raises(ValueError, match=r"order must have shape \(2, 6\)"):
                enumerate_splits(data, 1, order)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, 12, m=2, grid=6)
        got = enumerate_splits(data, min_leaf=1).tolist()
        expected = oracle_splits(data, min_leaf=1)
        assert [(feature, threshold) for feature, threshold, _ in got] == [key for key, _ in expected]
        for (_, _, gain), (_, oracle) in zip(got, expected):
            assert gain == pytest.approx(oracle, abs=1e-12)


    @pytest.mark.parametrize("seed", range(12))
    def test_bit_identical_to_the_per_feature_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 90))
        m = int(rng.integers(1, 7))
        num_classes = 2 + seed % 2
        # coarse grids give long runs of tied values; one column is constant
        data = random_dataset(rng, max(n, num_classes), m=m, num_classes=num_classes,
                              grid=int(rng.integers(2, 12)))
        features = data.features.copy()
        features[:, int(rng.integers(m))] = 0.25
        if seed % 3 == 0:
            features += rng.standard_normal(features.shape) * 1e-3 * (features > 2)
        data = Dataset(features, data.labels, num_classes, data.feature_names)
        for min_leaf in range(1, 6):
            got = enumerate_splits(data, min_leaf)
            assert got.dtype == tree_module._SPLIT_DTYPE
            got = got.tolist()
            expected = loop_splits(data, min_leaf)
            assert got == expected
            assert [gain for _, _, gain in got] == [gain for _, _, gain in expected]
            for candidate in got:
                assert type(candidate) is tuple
                assert [type(value) for value in candidate] == [int, float, float]

    def test_bit_identical_on_the_wide_mixture(self):
        data = sample_mixture(make_benchmark_mixture(), 200, 9)
        wide = Dataset(
            np.round(np.hstack([data.features, data.features * 3.0]), 1),
            data.labels, 2, ("a", "b", "c", "d"),
        )
        for min_leaf in (1, 5):
            got = enumerate_splits(wide, min_leaf)
            assert got.dtype == tree_module._SPLIT_DTYPE
            assert got.tolist() == loop_splits(wide, min_leaf)


    # numpy sums fewer than 8 terms in sequence, 8 to 128 as eight partial
    # sums, and splits longer runs in two: the class counts straddle each rule
    @pytest.mark.parametrize("num_classes", [2, 3, 7, 8, 9, 12, 16, 129])
    def test_each_gain_is_information_gain_bit_for_bit(self, num_classes):
        rng = np.random.default_rng(num_classes)
        data = random_dataset(rng, 150, m=4, num_classes=num_classes, grid=9)
        for feature, threshold, gain in enumerate_splits(data, min_leaf=2).tolist():
            goes_left = data.features[:, feature] <= threshold
            left = np.bincount(data.labels[goes_left], minlength=num_classes)
            right = np.bincount(data.labels[~goes_left], minlength=num_classes)
            assert gain == information_gain(left + right, left, right)


class TestTopKSplits:
    def test_top_two_by_gain(self):
        cands = as_candidates([(0, 0.5, 0.9), (0, 1.5, 0.5), (0, 2.5, 0.7)])
        top = top_k_splits(cands, 2)
        assert top.dtype == tree_module._SPLIT_DTYPE
        assert [g for _, _, g in top.tolist()] == [0.9, 0.7]

    def test_fewer_candidates_than_k(self):
        cands = as_candidates([(0, float(i), 0.1 * i) for i in range(5)])
        assert len(top_k_splits(cands, 20)) == 5

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(8)
        cands = [
            (int(rng.integers(3)), float(rng.integers(10)), float(rng.choice([0.1, 0.2, 0.3])))
            for _ in range(100)
        ]
        got = top_k_splits(as_candidates(cands), 20)
        expected = sorted(cands, key=lambda c: (-c[2], c[0], c[1]))[:20]
        assert got.dtype == tree_module._SPLIT_DTYPE
        assert got.tolist() == expected
        for candidate in got.tolist():
            assert [type(value) for value in candidate] == [int, float, float]

    def test_all_equal_gains(self):
        cands = [(f, float(t), 0.25) for f in (2, 0, 1) for t in (3, 1, 2)]
        for k in (1, 4, 9, 10):
            assert top_k_splits(as_candidates(cands), k).tolist() == full_sort_top_k(cands, k)

    def test_tie_group_straddling_the_cut_off(self):
        rng = np.random.default_rng(3)
        for trial in range(40):
            size = int(rng.integers(2, 60))
            cands = [
                (int(rng.integers(4)), float(rng.integers(6)),
                 float(rng.choice([0.1, 0.2, 0.2 + 1e-17, 0.3, 1 / 3])))
                for _ in range(size)
            ]
            for k in range(1, size + 2):
                got = top_k_splits(as_candidates(cands), k)
                assert got.dtype == tree_module._SPLIT_DTYPE
                assert got.tolist() == full_sort_top_k(cands, k)

    def test_fewer_candidates_than_k_keeps_all_sorted(self):
        cands = [(1, 0.5, 0.2), (0, 1.5, 0.2), (0, 0.5, 0.7)]
        assert top_k_splits(as_candidates(cands), 20).tolist() == full_sort_top_k(cands, 20)
        assert top_k_splits(as_candidates(cands[:1]), 1).tolist() == cands[:1]
        empty = top_k_splits(as_candidates([]), 5)
        assert empty.dtype == tree_module._SPLIT_DTYPE and empty.tolist() == []

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            top_k_splits(as_candidates([]), 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gain_rejected_for_every_k(self, bad):
        # a NaN used to drop out at the partition cut-off or rank first
        cands = as_candidates([(0, 0.5, 0.3), (0, 1.5, bad), (1, 0.5, 0.2), (1, 1.5, bad)])
        for k in (1, 2, 3, 4, 20):
            with pytest.raises(ValueError, match=f"candidate 1 has gain {bad}, which is not finite"):
                top_k_splits(cands, k)


def point_posterior(tree, x):
    """The posterior of one point, through the matrix scorer."""
    return leaf_posterior_matrix(tree, [x])[0]


class TestLeafPosterior:
    """Laplace smoothing (n_c + 1) / (n + C) of a single-leaf tree."""

    def leaf(self, counts):
        return point_posterior(DecisionTree(TreeNode(counts)), [0.0])

    def test_laplace_smoothing(self):
        assert self.leaf([3, 1]) == pytest.approx([4 / 6, 2 / 6])

    def test_empty_leaf_uniform(self):
        assert self.leaf([0, 0]) == pytest.approx([0.5, 0.5])

    def test_balanced_counts_uniform(self):
        assert self.leaf([5, 5]) == pytest.approx([0.5, 0.5])

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_bad_alpha_rejected_before_routing(self, alpha, monkeypatch):
        # alpha=-1 once gave [[1.333, -0.333]] here, which is not a distribution
        def must_not_route(*args, **kwargs):
            raise AssertionError("a tree was routed before alpha was checked")

        monkeypatch.setattr(ensemble, "_route", must_not_route)
        with pytest.raises(ValueError, match="need finite alpha > 0"):
            leaf_posterior_matrix(DecisionTree(TreeNode([5, 0])), [[0.0]], alpha=alpha)


class TestPredict:
    def test_single_leaf_tree(self):
        tree = DecisionTree(TreeNode([9, 1]))
        assert point_posterior(tree, [0.0]) == pytest.approx([10 / 12, 2 / 12])

    def test_depth_one_routing(self):
        tree = DecisionTree(
            TreeNode(
                [5, 5],
                feature=0,
                threshold=0.5,
                left=TreeNode([5, 0]),
                right=TreeNode([0, 5]),
            )
        )
        assert point_posterior(tree, [0.4, 9.9])[0] == pytest.approx(6 / 7)
        assert point_posterior(tree, [0.6, -9.9])[1] == pytest.approx(6 / 7)

    def test_boundary_goes_left(self):
        tree = DecisionTree(
            TreeNode([5, 5], feature=0, threshold=0.5, left=TreeNode([5, 0]), right=TreeNode([0, 5]))
        )
        assert point_posterior(tree, [0.5])[0] == pytest.approx(6 / 7)

    def test_one_dimensional_features_rejected(self):
        split = TreeNode([5, 5], feature=0, threshold=0.5, left=TreeNode([5, 0]), right=TreeNode([0, 5]))
        for tree in (DecisionTree(TreeNode([9, 1])), DecisionTree(split)):
            for score in (leaf_posterior_matrix, lambda t, x: ensemble_posterior_matrix([t], x)):
                with pytest.raises(ValueError, match=r"must be 2-D .* shape \(3,\)"):
                    score(tree, np.array([0.1, 0.6, 0.9]))

    def test_matrix_agrees_with_pointwise(self):
        # route each training row down the tree by hand: every leaf must hold
        # the class counts of the rows that reach it, and each row must get
        # exactly the smoothed counts of its leaf, by the same float operations
        data = sample_mixture(make_benchmark_mixture(), 80, 2)
        chain_config = McmcConfig(restarts=1, burn_in=30, post_burn_in=1, max_leaves=12)
        grown = grow_randomized(data, min_leaf=3, seed=4)
        sampled = run_chain(data, chain_config, seed=4)[-1].tree
        for tree in (grown, sampled):
            leaves = walk(tree.root)[0]
            assert len(leaves) > 2
            rows_of = {id(leaf): [] for leaf in leaves}
            for row, x in enumerate(data.features):
                node = tree.root
                while not node.is_leaf:
                    node = node.left if x[node.feature] <= node.threshold else node.right
                rows_of[id(node)].append(row)
            for alpha in (1.0, 0.5, 2.0):
                expected = np.empty((data.n, 2))
                for leaf in leaves:
                    rows = np.array(rows_of[id(leaf)], dtype=np.int64)
                    assert np.array_equal(leaf.counts, np.bincount(data.labels[rows], minlength=2))
                    counts = leaf.counts.astype(np.float64)
                    expected[rows] = (counts + alpha) / (counts.sum() + alpha * counts.size)
                assert np.array_equal(leaf_posterior_matrix(tree, data.features, alpha), expected)


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
            assert node.counts.sum() >= 5
        for node in internals:
            assert np.array_equal(node.counts, node.left.counts + node.right.counts)

    def test_top_k_one_is_greedy_and_seed_free(self):
        data = sample_mixture(make_benchmark_mixture(), 100, 8)
        a = grow_randomized(data, min_leaf=5, top_k=1, seed=1)
        b = grow_randomized(data, min_leaf=5, top_k=1, seed=999)
        assert serialize_tree(a) == serialize_tree(b)


    @pytest.mark.parametrize("columns", [2, 12, 32])
    @pytest.mark.parametrize("rounded", [False, True])
    def test_matches_the_list_reference_grower(self, columns, rounded):
        rng = np.random.default_rng(columns)
        mixture = sample_mixture(make_benchmark_mixture(), 90, columns)
        features = np.hstack([mixture.features, rng.standard_normal((90, columns - 2))])
        if rounded:  # half-unit grid: tied values, thresholds and gains
            features = np.round(features * 2.0) / 2.0
        data = Dataset(features, mixture.labels, 2, tuple(f"f{i}" for i in range(columns)))
        for min_leaf in (1, 5):
            for top_k in (1, 3, 20, 10_000):
                for seed in range(3):
                    expected = serialize_tree(reference_grow(data, min_leaf, top_k, seed))
                    assert serialize_tree(grow_randomized(data, min_leaf, top_k, seed)) == expected

    @pytest.mark.parametrize("columns", [2, 32])
    def test_one_search_call_of_each_per_searched_node(self, columns, monkeypatch):
        # the benchmark's tracer counts nodes and candidates from exactly these
        # calls, taking len() of each enumerate_splits result
        results = {"enumerate_splits": [], "top_k_splits": []}
        for name, calls in results.items():
            def counted(*args, _original=getattr(tree_module, name), _calls=calls, **kwargs):
                _calls.append(_original(*args, **kwargs))
                return _calls[-1]

            monkeypatch.setattr(tree_module, name, counted)
        rng = np.random.default_rng(columns)
        mixture = sample_mixture(make_benchmark_mixture(), 120, columns)
        # whole-unit values on 2 columns leave impure nodes with no valid cut
        features = np.round(np.hstack([mixture.features, rng.standard_normal((120, columns - 2))]))
        data = Dataset(features, mixture.labels, 2, tuple(f"f{i}" for i in range(columns)))
        min_leaf = 2
        leaves, internals, _ = walk(grow_randomized(data, min_leaf, seed=4).root)
        uncut = [leaf for leaf in leaves
                 if np.count_nonzero(leaf.counts) > 1 and leaf.counts.sum() >= 2 * min_leaf]
        assert columns == 32 or uncut
        assert len(results["enumerate_splits"]) == len(internals) + len(uncut)
        assert len(results["top_k_splits"]) == len(internals)
        for calls in results.values():
            assert all(result.dtype == tree_module._SPLIT_DTYPE for result in calls)
            assert sum(map(len, calls)) == sum(len(result.tolist()) for result in calls)

    @pytest.mark.parametrize("case", ["3 classes", "5 classes", "signed zeros"])
    def test_matches_the_list_reference_grower_beyond_two_classes(self, case, monkeypatch):
        # every search the grower makes must give the same bytes from the
        # grower's row order as from a fresh sort of the node's data
        searches = []

        def checked(data, min_leaf, order=None, _original=tree_module.enumerate_splits):
            got = _original(data, min_leaf, order)
            assert order is not None
            assert got.tobytes() == _original(data, min_leaf).tobytes()
            searches.append(len(got))
            return got

        monkeypatch.setattr(tree_module, "enumerate_splits", checked)
        rng = np.random.default_rng(len(case))
        num_classes = {"3 classes": 3, "5 classes": 5}.get(case, 2)
        data = random_dataset(rng, 150, m=5, num_classes=num_classes, grid=8)
        if case == "signed zeros":
            features = data.features.copy()
            features[:, 1] = rng.choice([-1.0, -0.0, 0.0, 1.0], data.n)
            zeros = features[:, 1][features[:, 1] == 0.0]
            assert np.signbit(zeros).any() and not np.signbit(zeros).all()
            data = Dataset(features, data.labels, num_classes, data.feature_names)
        for min_leaf in (1, 4):
            for top_k in (1, 20):
                for seed in range(3):
                    expected = serialize_tree(reference_grow(data, min_leaf, top_k, seed))
                    assert serialize_tree(grow_randomized(data, min_leaf, top_k, seed)) == expected
        assert len(searches) > 100 and sum(searches) > 0

    def test_one_argsort_per_tree_freed_on_return(self, monkeypatch):
        # the split search reads each node's slice of the tree's one row order;
        # a node that sorted its own block would grow the same tree, slower.
        # The order must not outlive the call waiting for a garbage collection.
        calls = []

        def counted(*args, _original=np.argsort, **kwargs):
            result = _original(*args, **kwargs)
            calls.append((args[0].shape, weakref.ref(result)))
            return result

        monkeypatch.setattr(np, "argsort", counted)
        rng = np.random.default_rng(32)
        mixture = sample_mixture(make_benchmark_mixture(), 200, 32)
        data = Dataset(np.hstack([mixture.features, rng.standard_normal((200, 30))]),
                       mixture.labels, 2, tuple(f"f{i}" for i in range(32)))
        gc.disable()
        try:
            for seed in range(3):
                calls.clear()
                tree = grow_randomized(data, min_leaf=2, seed=seed)
                assert len(walk(tree.root)[1]) > 10
                assert [shape for shape, _ in calls] == [(32, 200)]
                assert calls[0][1]() is None
        finally:
            gc.enable()

    def test_top_k_below_one_rejected_at_entry(self):
        # pure data never reaches the split search, two-class data would
        pure = Dataset(np.random.default_rng(0).standard_normal((10, 2)), [0] * 10, 2, ("a", "b"))
        mixed = sample_mixture(make_benchmark_mixture(), 40, 3)
        for data in (pure, mixed):
            for top_k in (0, -1):
                with pytest.raises(ValueError, match="top_k >= 1, got"):
                    grow_randomized(data, 5, top_k=top_k)


class TestTreeSize:
    def test_single_leaf(self):
        assert tree_size(DecisionTree(TreeNode([1, 1]))) == 1

    def test_depth_one(self):
        tree = DecisionTree(
            TreeNode([2, 2], feature=0, threshold=0.0, left=TreeNode([2, 0]), right=TreeNode([0, 2]))
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

        tree = DecisionTree(complete(3))
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
        back = parse_tree(text, num_classes=2)
        assert serialize_tree(back) == text
        rows = data.features[:10]
        assert leaf_posterior_matrix(back, rows) == pytest.approx(leaf_posterior_matrix(tree, rows))

    def test_no_reference_cycle_left_by_a_call(self):
        # a call must free what it built when it returns, not leave it for the
        # next garbage collection (a recursive closure refers to itself)
        data = sample_mixture(make_benchmark_mixture(), 200, 3)
        three = Dataset(np.random.default_rng(4).standard_normal((90, 2)), np.arange(90) % 3, 3, ("a", "b"))
        trees = (grow_randomized(data, min_leaf=2, seed=1), grow_randomized(three, min_leaf=2, seed=2))
        gc.disable()
        try:
            gc.collect()
            for tree in trees:
                text = serialize_tree(tree)
                assert gc.collect() == 0
                back = parse_tree(text, tree.root.counts.size)
                assert gc.collect() == 0
                assert serialize_tree(back) == text
        finally:
            gc.enable()

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_tree("0 blob 1 2\n", num_classes=2)
        # each malformed line is named, not surfaced as an IndexError or accepted
        for text, line in (
            ("0 split 0\n1 leaf 1 1\n2 leaf 1 1\n", 1),
            ("0\n", 1),
            ("0 split 0 nan\n1 leaf 1 1\n2 leaf 1 1\n", 1),
            ("0 split 0 0.5\n1 leaf -1 3\n2 leaf 1 1\n", 2),
            ("0 split 0 0.5\n1 leaf 1 1\n2 split -1 0.5\n3 leaf 1 1\n4 leaf 0 2\n", 3),
            ("0 split 0 0.5\n1 leaf 1 1\n2 leaf 1.5 1\n", 3),
        ):
            with pytest.raises(ValueError, match=f"tree line {line}:"):
                parse_tree(text, num_classes=2)
        # a split on a column the data lacks parses; each entry point that
        # routes data through the tree rejects it (see the test below)
        outside = parse_tree("0 split 5 0.5\n1 leaf 1 1\n2 leaf 1 1\n", num_classes=2)
        assert (outside.root.feature, outside.root.threshold) == (5, 0.5)


# a split that reads no real column of the data, and so names the feature, not
# an IndexError or a column counted from the end or read as 0 or 1: parse_tree
# rejects a negative feature or a non-finite threshold, but a hand-built
# TreeNode takes any
@pytest.mark.parametrize(
    "feature, threshold, match",
    [
        (5, 0.5, "feature 5, but the data has 2 columns"),
        (-1, 0.5, "feature -1, but the data has 2 columns"),
        (0.5, 0.5, "feature 0.5, but the data has 2 columns"),
        (True, 0.5, "feature True, but the data has 2 columns"),
        (0, math.nan, "feature 0 at threshold nan, which is not finite"),
        (1, -math.inf, "feature 1 at threshold -inf, which is not finite"),
    ],
    ids=[
        "feature-beyond-columns",
        "negative-feature",
        "float-feature",
        "bool-feature",
        "nan-threshold",
        "infinite-threshold",
    ],
)
@pytest.mark.parametrize(
    "use",
    [
        lambda tree, data: leaf_posterior_matrix(tree, data.features),
        lambda tree, data: leaf_posterior_matrix(tree, np.empty((0, 2))),
        lambda tree, data: ensemble_posterior_matrix([tree], data.features),
        lambda tree, data: refresh_counts(tree, data),
        lambda tree, data: log_prior(tree, 10, data),
        lambda tree, data: log_marginal_likelihood(tree, data),
        lambda tree, data: propose_move(tree, data, (0.25, 0.25, 0.25, 0.25), 0),
    ],
    ids=[
        "leaf_posterior_matrix",
        "leaf_posterior_matrix-0-rows",
        "ensemble_posterior_matrix",
        "refresh_counts",
        "log_prior",
        "log_marginal_likelihood",
        "propose_move",
    ],
)
def test_split_that_reads_no_real_column_is_rejected(feature, threshold, match, use):
    # the split sits below the root, so a check of the root alone misses it
    bad = TreeNode([1, 1], feature, threshold, left=TreeNode([1, 0]), right=TreeNode([0, 1]))
    tree = DecisionTree(TreeNode([1, 2], feature=0, threshold=0.5, left=bad, right=TreeNode([0, 1])))
    data = Dataset([[0.0, 1.0], [0.2, 0.0], [1.0, 0.5]], [0, 1, 1], 2, ("a", "b"))
    with pytest.raises(ValueError, match=match):
        use(tree, data)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: grow_randomized(Dataset([[0.0], [1.0]], [0, 1], 2, ("a",)), 0), "min_leaf >= 1, got 0"),
        (lambda: parse_tree("0 split 0 0.5\n1 leaf 1 1\n", num_classes=2), "truncated tree text"),
        (lambda: parse_tree("0 leaf 1 1\n1 leaf 2 0\n", num_classes=2), "trailing lines after tree"),
    ],
    ids=["grow-min-leaf-0", "parse-truncated", "parse-trailing-lines"],
)
def test_tree_input_checks_name_the_problem(call, match):
    with pytest.raises(ValueError, match=match):
        call()
