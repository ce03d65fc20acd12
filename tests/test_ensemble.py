"""Randomised ensemble training, posteriors, and best-single-tree selection."""

import numpy as np
import pytest

from treeuq import (
    Dataset,
    DecisionTree,
    EnsembleConfig,
    TreeNode,
    best_single_tree,
    ensemble_posterior_matrix,
    grow_randomized,
    leaf_posterior_matrix,
    make_benchmark_mixture,
    parse_tree,
    propose_move,
    sample_mixture,
    sample_prior_tree,
    serialize_tree,
    train_ensemble,
)
from treeuq import ensemble


def stump(class_index: int, total: int = 10, num_classes: int = 2) -> DecisionTree:
    """Single-leaf tree voting for class_index."""
    counts = np.zeros(num_classes, dtype=np.int64)
    counts[class_index] = total
    return DecisionTree(TreeNode(counts))


def point_posterior(trees, x, mode, alpha=1.0):
    return ensemble_posterior_matrix(trees, [x], mode=mode, alpha=alpha)[0]


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
        trees = train_ensemble(data, EnsembleConfig(n_trees=5, min_leaf=5, seed=1))
        clones = [trees[0]] * 7
        x = data.features[0]
        single = int(np.argmax(leaf_posterior_matrix(trees[0], [x])[0]))
        assert int(np.argmax(point_posterior(clones, x, mode="vote"))) == single
        assert int(np.argmax(point_posterior(clones, x, mode="average"))) == single

    @pytest.mark.parametrize("mode", ["vote", "average"])
    @pytest.mark.parametrize("alpha", [1.0, 2.5])
    def test_distinct_trees_match_a_plain_loop_bit_for_bit(self, mode, alpha):
        mixture = sample_mixture(make_benchmark_mixture(), 120, 4)
        two_class = train_ensemble(mixture, EnsembleConfig(n_trees=12, min_leaf=5, seed=3))
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
            rows = np.arange(data.n)
            expected = np.zeros((data.n, data.num_classes))
            for tree in trees:
                posterior = leaf_posterior_matrix(tree, data.features, alpha=alpha)
                assert posterior.shape == (data.n, data.num_classes)
                if mode == "average":
                    expected += posterior
                else:
                    expected[rows, np.argmax(posterior, axis=1)] += 1.0
            expected /= len(trees)
            post = ensemble_posterior_matrix(trees, data.features, mode=mode, alpha=alpha)
            assert post.shape == (data.n, data.num_classes)
            assert np.array_equal(post, expected)

    @pytest.mark.parametrize("mode", ["vote", "average"])
    def test_repeated_tree_objects_weigh_like_distinct_copies(self, mode):
        data = sample_mixture(make_benchmark_mixture(), 120, 6)
        a, b, c = train_ensemble(data, EnsembleConfig(n_trees=3, min_leaf=5, seed=8))
        repeated = [a, a, b, a, c, c]
        copies = [parse_tree(serialize_tree(t), 2) for t in repeated]
        post = ensemble_posterior_matrix(repeated, data.features, mode=mode)
        assert np.allclose(post, ensemble_posterior_matrix(copies, data.features, mode=mode))
        if mode == "vote":
            assert np.array_equal(post * 6, np.round(post * 6))

    def test_vote_entries_are_multiples_and_sum_to_one(self):
        data = sample_mixture(make_benchmark_mixture(), 120, 9)
        trees = train_ensemble(data, EnsembleConfig(n_trees=40, min_leaf=5, seed=2))
        post = ensemble_posterior_matrix(trees, data.features[:25], mode="vote")
        scaled = post * 40
        assert np.allclose(scaled, np.round(scaled), atol=1e-9)
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_duplicating_a_tree_moves_vote_toward_its_class(self):
        data = sample_mixture(make_benchmark_mixture(), 100, 11)
        trees = train_ensemble(data, EnsembleConfig(n_trees=9, min_leaf=5, seed=5))
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
        def must_not_route(*args, **kwargs):
            raise AssertionError("a tree was routed before the class counts were checked")

        monkeypatch.setattr(ensemble, "leaf_posterior_matrix", must_not_route)
        two, three = stump(0), stump(2, num_classes=3)
        with pytest.raises(ValueError, match="tree 2 has 3 classes, but tree 0 has 2"):
            ensemble_posterior_matrix([two, two, three], [[0.0]], mode=mode)
        with pytest.raises(ValueError, match="tree 1 has 2 classes, but tree 0 has 3"):
            ensemble_posterior_matrix([three, two], [[0.0]], mode=mode)


    @pytest.mark.parametrize("mode", ["vote", "average"])
    def test_scalar_features_name_the_shape_before_routing(self, mode, monkeypatch):
        def must_not_route(*args, **kwargs):
            raise AssertionError("a tree was routed before the feature shape was checked")

        monkeypatch.setattr(ensemble, "leaf_posterior_matrix", must_not_route)
        for features in (1.0, np.float64(1.0)):
            with pytest.raises(ValueError, match=r"must be 2-D .* shape \(\)"):
                ensemble_posterior_matrix([DecisionTree(TreeNode([3, 1]))], features, mode=mode)


def grown_with(data, min_leaf: int, n_trees: int) -> list[str]:
    """Serialised trees grown with min_leaf on train_ensemble's seed-0 streams."""
    return [
        serialize_tree(grow_randomized(data, min_leaf, seed=np.random.SeedSequence((0, i))))
        for i in range(n_trees)
    ]


class TestTrainEnsemble:
    def test_small_train_uses_min_leaf_5(self):
        data = sample_mixture(make_benchmark_mixture(), 200, 1)
        trees = train_ensemble(data, EnsembleConfig(n_trees=3, seed=0))
        assert [serialize_tree(t) for t in trees] == grown_with(data, 5, 3) != grown_with(data, 30, 3)

    def test_large_train_uses_min_leaf_30(self):
        data = sample_mixture(make_benchmark_mixture(), 455, 1)
        trees = train_ensemble(data, EnsembleConfig(n_trees=2, seed=0))
        assert [serialize_tree(t) for t in trees] == grown_with(data, 30, 2) != grown_with(data, 5, 2)

    def test_explicit_min_leaf_wins(self):
        data = sample_mixture(make_benchmark_mixture(), 400, 1)
        trees = train_ensemble(data, EnsembleConfig(n_trees=2, min_leaf=7, seed=0))
        assert [serialize_tree(t) for t in trees] == grown_with(data, 7, 2) != grown_with(data, 30, 2)

    def test_same_seed_identical_ensemble(self):
        data = sample_mixture(make_benchmark_mixture(), 150, 2)
        a = train_ensemble(data, EnsembleConfig(n_trees=6, min_leaf=5, seed=21))
        b = train_ensemble(data, EnsembleConfig(n_trees=6, min_leaf=5, seed=21))
        assert [serialize_tree(t) for t in a] == [serialize_tree(t) for t in b]

    def test_trees_differ_across_the_ensemble(self):
        data = sample_mixture(make_benchmark_mixture(), 150, 2)
        trees = train_ensemble(data, EnsembleConfig(n_trees=8, min_leaf=5, seed=3))
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
        trees = train_ensemble(train, EnsembleConfig(n_trees=200, min_leaf=5, seed=6))

        def accuracy(e):
            post = ensemble_posterior_matrix(e, test.features, mode="vote")
            return float(np.mean(np.argmax(post, axis=1) == test.labels))

        assert accuracy(trees) >= accuracy(trees[:10]) - 0.01
