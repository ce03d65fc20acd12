"""Randomised ensemble training, posteriors, and best-single-tree selection."""

import re
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from treeuq import (
    Dataset,
    EnsembleConfig,
    McmcConfig,
    ensemble_posterior_matrix,
    envelope_rates,
    make_benchmark_mixture,
    run_with_restarts,
    sample_mixture,
    train_ensemble,
)
from treeuq import ensemble
from treeuq.ensemble import best_single_tree, ensemble_mean_size, leaf_posterior_matrix
from treeuq.mcmc import propose_move, run_chain, sample_prior_tree
from treeuq.tree import (
    DecisionTree,
    TreeNode,
    grow_randomized,
    tree_size,
)
from treetext import parse_tree, serialize_tree


def stump(class_index: int, total: int = 10, num_classes: int = 2) -> DecisionTree:
    """Single-leaf tree voting for class_index."""
    counts = np.zeros(num_classes, dtype=np.int64)
    counts[class_index] = total
    return DecisionTree(TreeNode(counts))


def point_posterior(trees, x, mode, alpha=1.0):
    return ensemble_posterior_matrix(trees, [x], mode=mode, alpha=alpha)[0]


def plain_loop(trees, features, mode, alpha):
    """Every distinct tree scored alone, in order of first occurrence, weighted by its occurrences."""
    distinct: dict[int, list] = {}
    for tree in trees:
        distinct.setdefault(id(tree), [tree, 0])[1] += 1
    features = np.asarray(features, dtype=np.float64)
    rows = np.arange(features.shape[0])
    expected = np.zeros((features.shape[0], trees[0].root.counts.size))
    for tree, weight in distinct.values():
        posterior = leaf_posterior_matrix(tree, features, alpha=alpha)
        assert posterior.shape == expected.shape
        if mode == "average":
            expected += weight * posterior
        else:
            expected[rows, np.argmax(posterior, axis=1)] += weight
    return expected / len(trees)


def must_not_route(*args, **kwargs):
    raise AssertionError("a tree was routed before the input was checked")


def split(feature, threshold, left, right):
    """Internal node over two children; its counts are theirs summed."""
    return TreeNode(left.counts + right.counts, feature, threshold, left, right)


def leaf(*counts):
    return TreeNode(counts)


def chain_trees(restarts: int, seed: int) -> list[DecisionTree]:
    """Retained trees of short sampler chains on 150 mixture rows."""
    data = sample_mixture(make_benchmark_mixture(), 150, 12)
    chain = run_with_restarts(data, McmcConfig(restarts=restarts, burn_in=60, post_burn_in=80), seed=seed)
    return [s.tree for s in chain.samples]


class TestEnsemblePosterior:
    def test_vote_counting_998_of_1000(self):
        trees = [stump(0)] * 998 + [stump(1)] * 2  # two tree objects, repeated
        post = point_posterior(trees, [0.0], mode="vote")
        assert post == pytest.approx([0.998, 0.002], abs=1e-15)

    def test_average_of_mirrored_stumps(self):
        post = point_posterior([stump(0, 5), stump(1, 5)], [0.0], mode="average")
        assert post == pytest.approx([0.5, 0.5])

    @pytest.mark.parametrize("alpha, expected", [(1.0, [4 / 6, 2 / 6]), (2.0, [5 / 8, 3 / 8])])
    def test_single_tree_is_its_smoothed_leaf(self, alpha, expected):
        tree = DecisionTree(TreeNode([3, 1]))
        assert point_posterior([tree], [0.0], "average", alpha) == pytest.approx(expected)
        assert point_posterior([tree] * 5, [0.0], "vote", alpha) == pytest.approx([1.0, 0.0])

    def test_identical_trees_agree_with_single_tree(self):
        data = sample_mixture(make_benchmark_mixture(), 100, 3)
        trees = train_ensemble(data, EnsembleConfig(n_trees=5, min_leaf=5), seed=1)
        clones = [trees[0]] * 7
        x = data.features[0]
        single = int(np.argmax(leaf_posterior_matrix(trees[0], [x])[0]))
        assert int(np.argmax(point_posterior(clones, x, mode="vote"))) == single
        assert int(np.argmax(point_posterior(clones, x, mode="average"))) == single

    @pytest.mark.parametrize("mode", ["vote", "average"])
    @pytest.mark.parametrize("alpha", [1.0, 2.5])
    def test_distinct_trees_match_a_plain_loop_bit_for_bit(self, mode, alpha):
        mixture = sample_mixture(make_benchmark_mixture(), 120, 4)
        two_class = train_ensemble(mixture, EnsembleConfig(n_trees=12, min_leaf=5), seed=3)
        # three classes, from growth, parsing and a sampler move: the class count comes from the trees
        rng = np.random.default_rng(5)
        three = Dataset(rng.standard_normal((60, 2)), np.arange(60) % 3, 3, ("a", "b"))
        proposal = propose_move(sample_prior_tree(three, 6, 2), three, (1.0, 0.0, 0.0, 0.0), 3)
        three_class = (
            grow_randomized(three, min_leaf=3, seed=1),
            parse_tree("0 split 1 0.0\n1 leaf 4 1 0\n2 leaf 0 2 7\n", 3),
            proposal.tree,
        )
        for trees, data in ((two_class, mixture), (three_class, three)):
            post = ensemble_posterior_matrix(trees, data.features, mode=mode, alpha=alpha)
            assert post.shape == (data.n, data.num_classes)
            assert np.array_equal(post, plain_loop(trees, data.features, mode, alpha))

    @pytest.mark.parametrize("mode", ["vote", "average"])
    @pytest.mark.parametrize("alpha", [1.0, 2.5])
    def test_trees_sharing_subtrees_match_a_plain_loop_bit_for_bit(self, mode, alpha):
        # the scorer re-routes only the rows below a tree's first split that
        # differs from the previous tree's; every case must still equal
        # scoring each tree alone
        spec = make_benchmark_mixture()
        train, test = sample_mixture(spec, 150, 12), sample_mixture(spec, 400, 13)
        chain = run_with_restarts(train, McmcConfig(restarts=3, burn_in=60, post_burn_in=80), seed=4)
        chain_trees = [s.tree for s in chain.samples]
        assert len({id(t) for t in chain_trees}) > 3 * 5  # several distinct trees per restart
        a, b = chain_trees[0], next(t for t in chain_trees if t is not chain_trees[0])
        # greedy clones: equal rules on distinct nodes, and a clone whose leaves
        # hold other counts, which must be scored from its own leaves
        def reversed_leaves(node):
            if node.is_leaf:
                return TreeNode(node.counts[::-1])
            left, right = reversed_leaves(node.left), reversed_leaves(node.right)
            return TreeNode(node.counts, node.feature, node.threshold, left, right)

        greedy = [grow_randomized(train, min_leaf=5, top_k=1, seed=s) for s in range(2)]
        relabelled = DecisionTree(reversed_leaves(greedy[0].root))
        assert serialize_tree(greedy[1]) == serialize_tree(greedy[0]) != serialize_tree(relabelled)
        rng = np.random.default_rng(3)
        three = Dataset(rng.standard_normal((90, 2)), np.arange(90) % 3, 3, ("a", "b"))
        three_chain = run_with_restarts(three, McmcConfig(restarts=3, burn_in=40, post_burn_in=40), seed=2)
        cases = (
            (chain_trees, test.features),
            ([greedy[0], relabelled, greedy[1], greedy[0]], test.features),
            ([a, b, a], test.features),
            ([a, a, b], test.features),  # the first tree carries the weight of both occurrences
            ([a, a], test.features),
            ([s.tree for s in three_chain.samples], three.features),
            (chain_trees, np.empty((0, 2))),
        )
        for trees, features in cases:
            post = ensemble_posterior_matrix(trees, features, mode=mode, alpha=alpha)
            assert post.shape == (features.shape[0], trees[0].root.counts.size)
            assert np.array_equal(post, plain_loop(trees, features, mode, alpha))

    @pytest.mark.parametrize("mode", ["vote", "average"])
    def test_slices_are_kept_by_position_and_redone_below_a_changed_split(self, mode):
        # the scorer reuses a node's slice bounds only where the previous tree
        # splits alike at the same position and above it
        features = np.random.default_rng(8).standard_normal((400, 2))
        # one node object at two positions; its clone at both positions of the
        # next tree splits alike but votes the other way
        shared = split(1, 0.25, leaf(6, 1), leaf(1, 6))
        clone = split(1, 0.25, leaf(1, 6), leaf(6, 1))
        t1 = DecisionTree(split(0, 0.0, leaf(5, 2), leaf(2, 5)))
        t2 = DecisionTree(split(0, 0.0, shared, shared))
        t3 = DecisionTree(split(0, 0.0, clone, clone))
        # a change move that keeps both subtrees by reference under a moved threshold
        below = split(1, -0.5, leaf(4, 1), leaf(1, 4)), split(1, 0.5, leaf(1, 3), leaf(3, 1))
        kept = DecisionTree(split(0, 0.0, *below))
        moved = DecisionTree(split(0, 0.7, *below))
        trees = chain_trees(restarts=2, seed=4)
        root = next(t.root for t in trees if not t.root.is_leaf)
        moved_root = DecisionTree(TreeNode(root.counts, root.feature, root.threshold + 0.3, root.left, root.right))
        cases = (
            [t1, t2, t3, t1],
            trees[::-1],
            [trees[i] for i in np.random.default_rng(1).permutation(len(trees))],
            [kept, moved, kept],
            [DecisionTree(root), moved_root, DecisionTree(root)],
        )
        for case in cases:
            post = ensemble_posterior_matrix(case, features, mode=mode)
            assert np.array_equal(post, plain_loop(case, features, mode, 1.0))

    @pytest.mark.parametrize("mode", ["vote", "average"])
    def test_long_three_class_chain_matches_a_plain_loop_bit_for_bit(self, mode):
        # vote mode updates only the rows each tree re-routes; over a long
        # chain, with its repeated tree objects, that must still equal
        # scoring every tree alone, on a test set far larger than the training set
        rng = np.random.default_rng(21)
        features = rng.standard_normal((150, 2))
        labels = (features[:, 0] > -0.3).astype(int) + (features[:, 1] > 0.4)
        three = Dataset(features, labels, 3, ("a", "b"))
        config = McmcConfig(restarts=1, burn_in=100, post_burn_in=400)
        trees = [s.tree for s in run_chain(three, config, seed=9)]
        assert len(trees) > len({id(t) for t in trees}) > 20  # repeats and moves
        test = rng.standard_normal((6000, 2)) * 1.5
        post = ensemble_posterior_matrix(trees, test, mode=mode)
        assert np.array_equal(post, plain_loop(trees, test, mode, 1.0))
        assert len(np.unique(np.argmax(post, axis=1))) == 3

    @pytest.mark.parametrize("mode", ["vote", "average"])
    def test_leaf_vote_flips_without_a_split_change(self, mode, monkeypatch):
        # the second tree keeps every split and the right subtree by reference,
        # but its left leaf votes the other way: only the left rows are routed
        # again, and they must change label while the right rows keep theirs
        features = np.random.default_rng(17).standard_normal((500, 2))
        right = split(1, 0.2, leaf(6, 1), leaf(1, 6))
        a = DecisionTree(split(0, 0.0, leaf(5, 1), right))
        b = DecisionTree(split(0, 0.0, leaf(1, 5), right))
        tied = DecisionTree(split(0, 0.0, leaf(3, 3), right))
        route, routed = ensemble._route, []

        def counting_route(*args):
            result = route(*args)
            routed.append(sum(rows.size for rows, _ in result))
            return result

        monkeypatch.setattr(ensemble, "_route", counting_route)
        left_rows = int(np.count_nonzero(features[:, 0] <= 0.0))
        for case in ([a, b], [a, b, a, b, b, a], [b, b, a, tied, a, b], [tied, b, a, a]):
            routed.clear()
            post = ensemble_posterior_matrix(case, features, mode=mode)
            assert routed[0] == len(features) and set(routed[1:]) == {left_rows}
            assert np.array_equal(post, plain_loop(case, features, mode, 1.0))

    @pytest.mark.parametrize("feature", [True, 1.0, np.float64(1.0)], ids=["bool", "float", "numpy-float"])
    def test_split_equal_to_the_previous_ones_is_still_checked(self, feature):
        # each feature compares equal to 1, so the slice bounds of the previous
        # tree's split on column 1 are reused, but the split must still fail
        good = DecisionTree(split(1, 0.0, leaf(2, 1), leaf(1, 2)))
        bad = DecisionTree(split(feature, 0.0, leaf(2, 1), leaf(1, 2)))
        message = re.escape(f"tree splits on feature {feature!r}, but the data has 2 columns")
        with pytest.raises(ValueError, match=message):
            ensemble_posterior_matrix([good, bad], np.zeros((3, 2)))

    @pytest.mark.parametrize("mode", ["vote", "average"])
    def test_concurrent_calls_equal_one_thread(self, mode):
        # the routing state lives in the call, so calls that route the same
        # trees in different orders at once do not see each other's state
        trees = chain_trees(restarts=2, seed=4)
        features = sample_mixture(make_benchmark_mixture(), 20000, 15).features
        orders = (trees, trees[::-1], trees, trees[::-1])
        expected = [ensemble_posterior_matrix(order, features, mode=mode) for order in orders[:2]]
        start = threading.Barrier(len(orders))

        def score(order):
            start.wait()
            return [ensemble_posterior_matrix(order, features, mode=mode) for _ in range(3)]

        with ThreadPoolExecutor(len(orders)) as pool:
            results = list(pool.map(score, orders))
        for i, posts in enumerate(results):
            for post in posts:
                assert np.array_equal(post, expected[i % 2])

    def test_consecutive_chain_trees_route_only_the_changed_rows(self, monkeypatch):
        data = sample_mixture(make_benchmark_mixture(), 150, 14)
        chain = run_with_restarts(data, McmcConfig(restarts=1, burn_in=60, post_burn_in=80), seed=6)
        trees = [s.tree for s in chain.samples]
        route, routed = ensemble._route, []

        def counting_route(*args):
            result = route(*args)
            routed.append(sum(rows.size for rows, _ in result))
            return result

        monkeypatch.setattr(ensemble, "_route", counting_route)
        ensemble_posterior_matrix(trees, data.features)
        assert routed[0] == data.n  # the first tree has no previous one
        assert len(routed) > 5 and max(routed[1:]) <= data.n
        assert sum(routed[1:]) < (len(routed) - 1) * data.n / 2

    @pytest.mark.parametrize("mode", ["vote", "average"])
    def test_repeated_tree_objects_weigh_like_distinct_copies(self, mode):
        data = sample_mixture(make_benchmark_mixture(), 120, 6)
        a, b, c = train_ensemble(data, EnsembleConfig(n_trees=3, min_leaf=5), seed=8)
        repeated = [a, a, b, a, c, c]
        copies = [parse_tree(serialize_tree(t), 2) for t in repeated]
        post = ensemble_posterior_matrix(repeated, data.features, mode=mode)
        assert np.allclose(post, ensemble_posterior_matrix(copies, data.features, mode=mode))
        if mode == "vote":
            assert np.array_equal(post * 6, np.round(post * 6))

    def test_vote_entries_are_multiples_and_sum_to_one(self):
        data = sample_mixture(make_benchmark_mixture(), 120, 9)
        trees = train_ensemble(data, EnsembleConfig(n_trees=40, min_leaf=5), seed=2)
        post = ensemble_posterior_matrix(trees, data.features[:25], mode="vote")
        scaled = post * 40
        assert np.allclose(scaled, np.round(scaled), atol=1e-9)
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_duplicating_a_tree_moves_vote_toward_its_class(self):
        data = sample_mixture(make_benchmark_mixture(), 100, 11)
        trees = train_ensemble(data, EnsembleConfig(n_trees=9, min_leaf=5), seed=5)
        x = data.features[3]
        for dup in range(len(trees)):
            bigger = list(trees) + [trees[dup]]
            winner = int(np.argmax(leaf_posterior_matrix(trees[dup], [x])[0]))
            before = point_posterior(trees, x, mode="vote")[winner]
            after = point_posterior(bigger, x, mode="vote")[winner]
            assert after >= before - 1e-12

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            point_posterior([stump(0)], [0.0], mode="median")

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ensemble_posterior_matrix([], [[0.0]])

    @pytest.mark.parametrize("mode", ["vote", "average"])
    def test_class_count_mismatch_names_the_tree_before_routing(self, mode, monkeypatch):
        monkeypatch.setattr(ensemble, "_route", must_not_route)
        two, three = stump(0), stump(2, num_classes=3)
        with pytest.raises(ValueError, match="tree 2 has 3 classes, but tree 0 has 2"):
            ensemble_posterior_matrix([two, two, three], [[0.0]], mode=mode)
        with pytest.raises(ValueError, match="tree 1 has 2 classes, but tree 0 has 3"):
            ensemble_posterior_matrix([three, two], [[0.0]], mode=mode)

    @pytest.mark.parametrize("mode", ["vote", "average"])
    def test_scalar_features_name_the_shape_before_routing(self, mode, monkeypatch):
        monkeypatch.setattr(ensemble, "_route", must_not_route)
        for features in (1.0, np.float64(1.0)):
            with pytest.raises(ValueError, match=r"must be 2-D .* shape \(\)"):
                ensemble_posterior_matrix([DecisionTree(TreeNode([3, 1]))], features, mode=mode)

    @pytest.mark.parametrize("mode", ["vote", "average"])
    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf])
    def test_bad_alpha_rejected_before_routing(self, mode, alpha, monkeypatch):
        monkeypatch.setattr(ensemble, "_route", must_not_route)
        with pytest.raises(ValueError, match="need finite alpha > 0"):
            ensemble_posterior_matrix([DecisionTree(TreeNode([5, 0]))], [[0.0]], mode=mode, alpha=alpha)


def grown_with(data, min_leaf: int, n_trees: int) -> list[str]:
    """Serialised trees grown with min_leaf on train_ensemble's seed-0 streams."""
    return [
        serialize_tree(grow_randomized(data, min_leaf, seed=np.random.SeedSequence((0, i))))
        for i in range(n_trees)
    ]


class TestTrainEnsemble:
    def test_small_train_uses_min_leaf_5(self):
        data = sample_mixture(make_benchmark_mixture(), 200, 1)
        trees = train_ensemble(data, EnsembleConfig(n_trees=3), seed=0)
        assert [serialize_tree(t) for t in trees] == grown_with(data, 5, 3) != grown_with(data, 30, 3)

    def test_large_train_uses_min_leaf_30(self):
        data = sample_mixture(make_benchmark_mixture(), 455, 1)
        trees = train_ensemble(data, EnsembleConfig(n_trees=2), seed=0)
        assert [serialize_tree(t) for t in trees] == grown_with(data, 30, 2) != grown_with(data, 5, 2)

    def test_explicit_min_leaf_wins(self):
        data = sample_mixture(make_benchmark_mixture(), 400, 1)
        trees = train_ensemble(data, EnsembleConfig(n_trees=2, min_leaf=7), seed=0)
        assert [serialize_tree(t) for t in trees] == grown_with(data, 7, 2) != grown_with(data, 30, 2)

    def test_same_seed_identical_ensemble(self):
        data = sample_mixture(make_benchmark_mixture(), 150, 2)
        a = train_ensemble(data, EnsembleConfig(n_trees=6, min_leaf=5), seed=21)
        b = train_ensemble(data, EnsembleConfig(n_trees=6, min_leaf=5), seed=21)
        assert [serialize_tree(t) for t in a] == [serialize_tree(t) for t in b]

    def test_trees_differ_across_the_ensemble(self):
        data = sample_mixture(make_benchmark_mixture(), 150, 2)
        trees = train_ensemble(data, EnsembleConfig(n_trees=8, min_leaf=5), seed=3)
        assert len({serialize_tree(t) for t in trees}) > 1


class TestBestSingleTree:
    def _validation(self):
        return Dataset([[0.0], [1.0]], [0, 1], 2, ("x",))

    def test_max_selection(self):
        # tree 0: always class 0 (50% here); tree 1: splits correctly (100%)
        good = DecisionTree(
            TreeNode([1, 1], feature=0, threshold=0.5, left=TreeNode([1, 0]), right=TreeNode([0, 1]))
        )
        index, accuracy = best_single_tree((stump(0), good, stump(0)), self._validation())
        assert (index, accuracy) == (1, 1.0)

    def test_tie_breaks_to_lowest_index(self):
        index, accuracy = best_single_tree((stump(0),) * 3, self._validation())
        assert index == 0
        assert accuracy == pytest.approx(0.5)

class TestEnsembleSizeStability:
    def test_accuracy_non_degrading_with_ensemble_size(self):
        spec = make_benchmark_mixture()
        train = sample_mixture(spec, 250, 51)
        test = sample_mixture(spec, 500, 52)
        trees = train_ensemble(train, EnsembleConfig(n_trees=200, min_leaf=5), seed=6)

        def accuracy(e):
            post = ensemble_posterior_matrix(e, test.features, mode="vote")
            return float(np.mean(np.argmax(post, axis=1) == test.labels))

        assert accuracy(trees) >= accuracy(trees[:10]) - 0.01


@pytest.mark.parametrize("trees", [[], ()], ids=["list", "tuple"])
def test_mean_size_of_no_trees_rejected(trees):
    with pytest.raises(ValueError, match="ensemble is empty"):
        ensemble_mean_size(trees)


def test_best_tree_of_no_trees_rejected():
    validation = sample_mixture(make_benchmark_mixture(), 10, 0)
    with pytest.raises(ValueError, match="ensemble is empty"):
        best_single_tree([], validation)


def test_mean_size_walks_each_tree_object_once(monkeypatch):
    trees = chain_trees(restarts=2, seed=4)
    assert len({id(t) for t in trees}) < len(trees)  # a rejected step keeps its tree
    copies = [parse_tree(serialize_tree(t), 2) for t in trees]
    walked = []

    def counting_size(tree):
        walked.append(tree)
        return tree_size(tree)

    monkeypatch.setattr(ensemble, "tree_size", counting_size)
    repeated = ensemble_mean_size(trees)
    assert len(walked) == len({id(t) for t in trees})
    sizes = np.array([tree_size(t) for t in trees], dtype=np.float64)
    assert repeated == ensemble_mean_size(copies) == (float(sizes.mean()), float(sizes.std(ddof=1)))


def test_vote_scoring_and_its_envelope_stay_within_their_peak_bytes_per_row():
    # numpy reports its buffers to tracemalloc, so the traced peak of one call
    # is the memory it needs on top of its input. The bounds are the peaks of
    # the scorer that copied every row's label per tree and of the row-wise
    # envelope reductions (82.49 and 35.09 bytes per row): a full-length
    # buffer more per tree, per class column or per batch exceeds them.
    spec = make_benchmark_mixture()
    chains = run_with_restarts(
        sample_mixture(spec, 250, 1), McmcConfig(restarts=2, burn_in=300, post_burn_in=200), 5
    )
    trees = [s.tree for s in chains.samples]
    test = sample_mixture(spec, 50_000, 2)

    def peak_bytes_per_row(call):
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        return result, peak / test.n

    post, scoring = peak_bytes_per_row(lambda: ensemble_posterior_matrix(trees, test.features, "vote"))
    _, envelope = peak_bytes_per_row(lambda: envelope_rates(post, test.labels, 0.9))
    assert scoring <= 82.5
    assert envelope <= 35.1
