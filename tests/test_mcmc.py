"""Tree-space sampler: likelihood, prior, moves, chains, and predictions."""

import io
import itertools
import math

import numpy as np
import pytest
from scipy.special import gammaln

from treeuq import Dataset, McmcConfig, make_benchmark_mixture, run_with_restarts, sample_mixture
from treeuq.ensemble import ensemble_mean_size
from treeuq.mcmc import (
    ChainSample,
    PosteriorEnsemble,
    bayes_predictive_matrix,
    dirichlet_multinomial_log_marginal,
    log_marginal_likelihood,
    log_prior,
    propose_move,
    refresh_counts,
    run_chain,
    sample_prior_tree,
)
from treeuq.tree import DecisionTree, TreeNode, tree_size, walk
from treetext import serialize_tree


def continuous_dataset(seed=0, n=30, m=2):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, m))
    labels = rng.integers(0, 2, n)
    labels[0], labels[1] = 0, 1
    return Dataset(features, labels, 2, tuple(f"f{i}" for i in range(m)))


def oracle_dm_marginal(count_rows, alpha=1.0):
    """Independent gamma-function evaluation of the marginal likelihood."""
    total = 0.0
    for row in count_rows:
        n = sum(row)
        if n == 0:
            continue
        c = len(row)
        total += math.lgamma(c * alpha) - math.lgamma(n + c * alpha)
        total += sum(math.lgamma(x + alpha) - math.lgamma(alpha) for x in row)
    return total


def scipy_dm_marginal(count_rows, alpha):
    """The marginal likelihood as scipy's gammaln evaluated it, whole table at once."""
    counts = np.atleast_2d(np.asarray(count_rows, dtype=np.float64))
    num_classes = counts.shape[1]
    terms = (
        gammaln(num_classes * alpha)
        - gammaln(counts.sum(axis=1) + num_classes * alpha)
        + (gammaln(counts + alpha) - gammaln(alpha)).sum(axis=1)
    )
    return float(terms.sum())


class TestMarginalLikelihood:
    def test_single_leaf_hand_value(self):
        # Gamma(2)/Gamma(6) * Gamma(4)*Gamma(2) = 6/120 = 1/20
        data = Dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 0, 1], 2, ("x",))
        tree = DecisionTree(TreeNode([3, 1]))
        value = log_marginal_likelihood(tree, data, alpha=1.0)
        assert value == pytest.approx(math.log(1 / 20), abs=1e-12)
        assert value == pytest.approx(-2.9957, abs=1e-4)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_bad_alpha_rejected(self, alpha):
        # alpha 0 and -1 once gave nan here without a word
        data = Dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 0, 1], 2, ("x",))
        with pytest.raises(ValueError, match="need finite alpha > 0"):
            dirichlet_multinomial_log_marginal([[3, 1]], alpha)
        with pytest.raises(ValueError, match="need finite alpha > 0"):
            log_marginal_likelihood(DecisionTree(TreeNode([3, 1])), data, alpha)

    @pytest.mark.parametrize(
        "counts, problem",
        [
            ([[-1, 2]], "finite whole numbers >= 0, got -1$"),
            ([], r"at least one class column, got shape \(1, 0\)"),
            (np.zeros((3, 0)), r"at least one class column, got shape \(3, 0\)"),
            (np.zeros((2, 2, 2)), r"at least one class column, got shape \(2, 2, 2\)"),
            ([[0.5, 2]], "finite whole numbers >= 0, got 0.5$"),
            ([[math.nan, 1]], "finite whole numbers >= 0, got nan$"),
            ([[2, math.inf]], "finite whole numbers >= 0, got inf$"),
        ],
    )
    def test_bad_counts_rejected_before_any_term(self, monkeypatch, counts, problem):
        # [[-1, 2]] and [] once raised a bare math domain error, [[0.5, 2]]
        # returned -1.88 and [[nan, 1]] returned nan
        def no_lgamma(x):
            raise AssertionError("lgamma called")

        monkeypatch.setattr(math, "lgamma", no_lgamma)
        with pytest.raises(ValueError, match=problem):
            dirichlet_multinomial_log_marginal(counts, 1.0)

    def test_empty_leaf_contributes_zero(self):
        assert dirichlet_multinomial_log_marginal([[0, 0]], alpha=1.0) == 0.0
        # tree whose right leaf catches nothing scores like the single leaf
        data = Dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 0, 1], 2, ("x",))
        split = DecisionTree(
            TreeNode([3, 1], feature=0, threshold=99.0, left=TreeNode([3, 1]), right=TreeNode([0, 0]))
        )
        single = DecisionTree(TreeNode([3, 1]))
        assert log_marginal_likelihood(split, data, 1.0) == pytest.approx(
            log_marginal_likelihood(single, data, 1.0)
        )

    def test_matches_oracle_on_random_count_tables(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            rows = rng.integers(0, 9, size=(rng.integers(1, 5), 3)).tolist()
            for alpha in (0.5, 1.0, 2.0):
                assert dirichlet_multinomial_log_marginal(rows, alpha) == pytest.approx(
                    oracle_dm_marginal(rows, alpha), abs=1e-9
                )

    @pytest.mark.parametrize("num_classes", [2, 3, 8, 12])
    def test_matches_scipy_gammaln_on_large_tables(self, num_classes):
        rng = np.random.default_rng(num_classes)
        for _ in range(20):
            rows = rng.integers(0, 10**4 + 1, size=(rng.integers(1, 51), num_classes))
            rows[rng.random(rows.shape) < 0.3] = 0  # empty cells and some all-zero rows
            for alpha in (1e-3, 0.5, 1.0, 2.0, 7.5):
                assert dirichlet_multinomial_log_marginal(rows, alpha) == pytest.approx(
                    scipy_dm_marginal(rows, alpha), rel=1e-13, abs=1e-9
                )

    @pytest.mark.parametrize("num_classes", [3, 12])
    @pytest.mark.parametrize("alpha", [1e-3, 0.5, 1.0, 2.0, 7.5])
    def test_all_zero_rows_give_exactly_zero(self, num_classes, alpha):
        assert dirichlet_multinomial_log_marginal(np.zeros((4, num_classes), dtype=np.int64), alpha) == 0.0

    def test_pure_partitions_maximise_marginal_exhaustively(self):
        # 8 points, 4 of each class: every assignment into two non-empty leaves
        labels = [0, 0, 0, 0, 1, 1, 1, 1]
        best = -math.inf
        pure_scores = []
        for assignment in itertools.product([0, 1], repeat=8):
            if len(set(assignment)) < 2:
                continue
            leaf0 = [sum(1 for a, y in zip(assignment, labels) if a == 0 and y == c) for c in (0, 1)]
            leaf1 = [sum(1 for a, y in zip(assignment, labels) if a == 1 and y == c) for c in (0, 1)]
            score = oracle_dm_marginal([leaf0, leaf1])
            best = max(best, score)
            if min(leaf0) == 0 and min(leaf1) == 0:
                pure_scores.append(score)
        assert pure_scores
        assert max(pure_scores) == pytest.approx(best, abs=1e-12)


class TestLogPrior:
    def test_equal_structure_equal_prior(self):
        data = continuous_dataset(3, n=20)
        menu = np.sort(np.unique(data.features[:, 0]))[:-1]
        trees = [
            refresh_counts(
                DecisionTree(
                    TreeNode(
                        [0, 0], feature=0, threshold=float(t), left=TreeNode([0, 0]), right=TreeNode([0, 0])
                    )
                ),
                data,
            )
            for t in (menu[4], menu[11])
        ]
        priors = [log_prior(t, 10, data) for t in trees]
        assert priors[0] == pytest.approx(priors[1], abs=1e-12)
        # hand evaluation: -log(K_max) - log(catalan(1)) - log(m * menu size)
        expected = -math.log(10) - math.log(1) - math.log(2 * menu.size)
        assert priors[0] == pytest.approx(expected, abs=1e-12)

    def test_too_many_leaves_is_outside_support(self):
        data = continuous_dataset(4, n=20)
        tree = next(
            t for s in range(50) if tree_size(t := sample_prior_tree(data, 6, s)) >= 3
        )
        assert log_prior(tree, tree_size(tree) - 1, data) == -math.inf
        assert log_prior(tree, tree_size(tree), data) > -math.inf

    def test_empty_leaf_is_outside_support(self):
        data = continuous_dataset(5, n=20)
        tree = DecisionTree(
            TreeNode([0, 0], feature=0, threshold=1e9, left=TreeNode([0, 0]), right=TreeNode([0, 0]))
        )
        assert log_prior(tree, 10, data) == -math.inf
        values = np.sort(np.unique(data.features[:, 0]))

        def split(threshold, left=None):
            return TreeNode([0, 0], 0, float(threshold), left or TreeNode([0, 0]), TreeNode([0, 0]))

        # an empty left child: the threshold lies below every row
        assert log_prior(DecisionTree(split(values[0] - 1.0)), 10, data) == -math.inf
        # an empty leaf under an on-menu split: the left child's threshold is
        # on the root's menu but above every row the left child holds
        tree = DecisionTree(split(values[5], left=split(values[8])))
        leaves, _, _ = walk(refresh_counts(tree, data).root)
        assert [leaf.indices.size for leaf in leaves] == [6, 0, data.n - 6]
        assert log_prior(tree, 10, data) == -math.inf

    def test_off_menu_threshold_is_outside_support(self):
        data = continuous_dataset(6, n=20)
        values = np.sort(np.unique(data.features[:, 0]))
        midpoint = float((values[3] + values[4]) / 2)  # between observed values
        tree = DecisionTree(
            TreeNode([0, 0], feature=0, threshold=midpoint, left=TreeNode([0, 0]), right=TreeNode([0, 0]))
        )
        assert log_prior(tree, 10, data) == -math.inf


class TestProposeMove:
    def test_birth_on_single_leaf(self):
        data = continuous_dataset(7)
        tree = DecisionTree(TreeNode(data.class_counts(), indices=np.arange(data.n)))
        proposal = propose_move(tree, data, (1.0, 0.0, 0.0, 0.0), 3)
        assert proposal.kind == "birth"
        assert proposal.feasible
        assert tree_size(proposal.tree) == 2

    def test_death_on_single_leaf_infeasible(self):
        data = continuous_dataset(7)
        tree = DecisionTree(TreeNode(data.class_counts(), indices=np.arange(data.n)))
        proposal = propose_move(tree, data, (0.0, 1.0, 0.0, 0.0), 3)
        assert proposal.kind == "death"
        assert not proposal.feasible

    def test_change_on_single_leaf_infeasible(self):
        data = continuous_dataset(7)
        tree = DecisionTree(TreeNode(data.class_counts(), indices=np.arange(data.n)))
        for probs, kind in [((0, 0, 1.0, 0), "change_variable"), ((0, 0, 0, 1.0), "change_rule")]:
            proposal = propose_move(tree, data, probs, 3)
            assert proposal.kind == kind
            assert not proposal.feasible

    def test_move_kind_frequencies(self):
        data = continuous_dataset(8)
        tree = sample_prior_tree(data, 5, 99)
        rng = np.random.default_rng(12)
        n = 20_000
        counts = {}
        for _ in range(n):
            kind = propose_move(tree, data, (0.1, 0.1, 0.1, 0.7), rng).kind
            counts[kind] = counts.get(kind, 0) + 1
        for kind, expected in [
            ("birth", 0.1),
            ("death", 0.1),
            ("change_variable", 0.1),
            ("change_rule", 0.7),
        ]:
            assert abs(counts.get(kind, 0) / n - expected) < 0.02

    def test_proposals_keep_counts_consistent(self):
        data = continuous_dataset(9)
        tree = sample_prior_tree(data, 8, 4)
        rng = np.random.default_rng(5)
        for _ in range(200):
            proposal = propose_move(tree, data, (0.25, 0.25, 0.25, 0.25), rng)
            if proposal.tree is None:  # infeasible, or it left the support
                continue
            fresh = refresh_counts(proposal.tree, data)
            assert serialize_tree(fresh) == serialize_tree(proposal.tree)


def first_proposal(tree, data, probs, kind, seeds, wanted=lambda p: True):
    """The first built proposal of the given kind, over the seeds, that is wanted."""
    for seed in seeds:
        p = propose_move(tree, data, probs, np.random.SeedSequence(seed))
        if p.tree is not None and p.kind == kind and wanted(p):
            return p
    return None


class TestDetailedBalancePairing:
    @pytest.mark.parametrize(
        "kind, reverse_kind",
        [
            ("birth", "death"),
            ("death", "birth"),
            ("change_variable", "change_variable"),
            ("change_rule", "change_rule"),
        ],
    )
    def test_move_then_exact_reverse_cancels(self, kind, reverse_kind):
        base = continuous_dataset(0)
        features = base.features.copy()
        # tied values give the two features menus of different sizes, so a
        # change_variable ratio is not always 0
        features[:, 1] = np.round(features[:, 1] * 2.0) / 2.0
        data = Dataset(features, base.labels, 2, base.feature_names)
        probs = (0.3, 0.2, 0.15, 0.35)  # birth != death, so a swapped term shows
        k_max = 12

        def in_support_and_sharp(p):
            # only a threshold-only change keeps the menu, so its ratio is always 0
            sharp = kind == "change_rule" or p.log_ratio != 0.0
            return sharp and serialize_tree(p.tree) != start and log_prior(p.tree, k_max, data) > -math.inf

        for start_seed in range(3):
            tree = sample_prior_tree(data, 6, 99 + start_seed)
            start = serialize_tree(tree)
            forward = first_proposal(
                tree, data, probs, kind, ((13, start_seed, i) for i in range(2000)), in_support_and_sharp
            )
            assert forward is not None
            reverse = first_proposal(
                forward.tree, data, probs, reverse_kind, ((17, start_seed, i) for i in range(20000)),
                lambda p: serialize_tree(p.tree) == start,
            )
            assert reverse is not None
            ll1 = log_marginal_likelihood(tree, data, 1.0)
            lp1 = log_prior(tree, k_max, data)
            ll2 = log_marginal_likelihood(forward.tree, data, 1.0)
            lp2 = log_prior(forward.tree, k_max, data)
            log_accept_forward = (ll2 - ll1) + (lp2 - lp1) + forward.log_ratio
            log_accept_backward = (ll1 - ll2) + (lp1 - lp2) + reverse.log_ratio
            assert log_accept_forward + log_accept_backward == pytest.approx(0.0, abs=1e-9)


class TestRunChain:
    def test_retained_count_with_thinning(self):
        data = continuous_dataset(3, n=25)
        base = dict(restarts=1, burn_in=5, max_leaves=5)
        assert len(run_chain(data, McmcConfig(post_burn_in=20, thinning=1, **base), seed=1)) == 20
        assert len(run_chain(data, McmcConfig(post_burn_in=20, thinning=7, **base), seed=1)) == 3
        assert len(run_chain(data, McmcConfig(post_burn_in=2000, thinning=10, **base), seed=1)) == 200

    def test_same_seed_identical_sequence(self):
        data = continuous_dataset(4, n=25)
        config = McmcConfig(restarts=1, burn_in=10, post_burn_in=30, max_leaves=6)
        a = run_chain(data, config, seed=9)
        b = run_chain(data, config, seed=9)
        assert [serialize_tree(s.tree) for s in a] == [serialize_tree(s.tree) for s in b]

    def test_every_retained_sample_in_support(self):
        data = continuous_dataset(5, n=25)
        config = McmcConfig(restarts=1, burn_in=50, post_burn_in=100, max_leaves=6)
        for sample in run_chain(data, config, seed=3):
            assert log_prior(sample.tree, config.max_leaves, data) > -math.inf
            assert tree_size(sample.tree) <= config.max_leaves
            for leaf in walk(sample.tree.root)[0]:
                assert leaf.counts.sum() >= 1

    def test_blocked_support_always_rejected(self):
        # births from a single leaf with max_leaves=1 always hit a -inf prior
        data = continuous_dataset(1, n=12)
        config = McmcConfig(
            restarts=1, burn_in=30, post_burn_in=30, max_leaves=1, move_probs=(1.0, 0.0, 0.0, 0.0)
        )
        samples = run_chain(data, config, seed=3)
        assert len(samples) == 30
        assert all(s.tree is samples[0].tree for s in samples)
        assert tree_size(samples[0].tree) == 1

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_a_chain_never_returns_to_a_tree_it_has_left(self, seed):
        # a rejected step keeps the state object and an accepted one moves to
        # a new object, so the retained trees are runs of one object each
        data = sample_mixture(make_benchmark_mixture(), 250, 11)
        config = McmcConfig(restarts=1, burn_in=200, post_burn_in=2000)
        trees = [s.tree for s in run_chain(data, config, seed=seed)]
        runs = sum(1 for _ in itertools.groupby(trees, key=id))
        assert runs == len({id(tree) for tree in trees}) > 100


class TestRunWithRestarts:
    def test_pooled_sample_count(self):
        data = continuous_dataset(6, n=25)
        config = McmcConfig(restarts=4, burn_in=10, post_burn_in=30, thinning=7, max_leaves=5)
        ens = run_with_restarts(data, config, seed=2)
        assert ens.n == 4 * math.ceil(30 / 7)

    def test_single_restart_equals_run_chain(self):
        data = continuous_dataset(7, n=25)
        config = McmcConfig(restarts=1, burn_in=10, post_burn_in=25, max_leaves=5)
        seed = 8
        pooled = run_with_restarts(data, config, seed)
        direct = run_chain(data, config, restart_index=0, seed=np.random.SeedSequence((seed, 0)))
        assert [serialize_tree(s.tree) for s in pooled.samples] == [
            serialize_tree(s.tree) for s in direct
        ]

    def test_pooling_is_ordered_by_restart(self):
        data = continuous_dataset(8, n=25)
        config = McmcConfig(restarts=3, burn_in=5, post_burn_in=10, max_leaves=5)
        seed = 4
        ens = run_with_restarts(data, config, seed)
        order = [s.restart_index for s in ens.samples]
        assert order == sorted(order)
        # each restart's block is reproducible in isolation
        for restart in range(3):
            block = [s for s in ens.samples if s.restart_index == restart]
            alone = run_chain(
                data, config, restart_index=restart, seed=np.random.SeedSequence((seed, restart))
            )
            assert [serialize_tree(s.tree) for s in block] == [serialize_tree(s.tree) for s in alone]

    def test_trace_file(self):
        data = continuous_dataset(9, n=25)
        config = McmcConfig(restarts=2, burn_in=5, post_burn_in=10, max_leaves=5)
        trace = io.StringIO()
        ens = run_with_restarts(data, config, seed=6, trace=trace)
        lines = trace.getvalue().strip().splitlines()
        assert len(lines) == ens.n
        restart, step, leaves, log_post = lines[0].split()
        assert (int(restart), int(step)) == (0, 1)
        assert int(leaves) == tree_size(ens.samples[0].tree)
        float(log_post)


class TestBayesPredictive:
    def _posterior_ensemble(self, trees):
        return PosteriorEnsemble(
            samples=tuple(ChainSample(t, 0, i + 1) for i, t in enumerate(trees))
        )

    def test_single_sample_equals_leaf_posterior(self):
        tree = DecisionTree(TreeNode([3, 1]))
        ens = self._posterior_ensemble([tree])
        assert bayes_predictive_matrix(ens, [[0.0]], mode="average")[0] == pytest.approx([4 / 6, 2 / 6])

    def test_average_of_mirrored_samples(self):
        a = DecisionTree(TreeNode([5, 0]))
        b = DecisionTree(TreeNode([0, 5]))
        post = bayes_predictive_matrix(self._posterior_ensemble([a, b]), [[0.0]], mode="average")[0]
        assert post == pytest.approx([0.5, 0.5])

    def test_identical_samples_vote_one_hot(self):
        tree = DecisionTree(TreeNode([3, 1]))
        post = bayes_predictive_matrix(self._posterior_ensemble([tree] * 5), [[0.0]], mode="vote")[0]
        assert post == pytest.approx([1.0, 0.0])

    def test_vote_entries_multiples_of_one_over_n(self):
        data = continuous_dataset(10, n=25)
        config = McmcConfig(restarts=2, burn_in=20, post_burn_in=25, max_leaves=5)
        ens = run_with_restarts(data, config, seed=3)
        post = bayes_predictive_matrix(ens, data.features, mode="vote")
        scaled = post * ens.n
        assert np.allclose(scaled, np.round(scaled), atol=1e-9)

    def test_empty_posterior_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bayes_predictive_matrix(PosteriorEnsemble(samples=()), [[0.0]])

    def test_dirichlet_alpha_changes_smoothing(self):
        tree = DecisionTree(TreeNode([3, 1]))
        ens = self._posterior_ensemble([tree])
        post = bayes_predictive_matrix(ens, [[0.0]], mode="average", alpha=2.0)[0]
        assert post == pytest.approx([5 / 8, 3 / 8])


class TestEnsembleMeanSize:
    def _sized(self, sizes):
        def tree_of(k):
            node = TreeNode([1, 1])
            for _ in range(k - 1):
                node = TreeNode([1, 1], feature=0, threshold=0.0, left=TreeNode([1, 1]), right=node)
            return DecisionTree(node)

        return [tree_of(k) for k in sizes]

    def test_constant_sizes(self):
        assert ensemble_mean_size(self._sized([5, 5, 5])) == (5.0, 0.0)

    def test_two_sizes_sample_std(self):
        mean, std = ensemble_mean_size(self._sized([4, 6]))
        assert mean == pytest.approx(5.0)
        assert std == pytest.approx(math.sqrt(2.0))


class TestConfigValidation:
    def test_move_probs_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            McmcConfig(move_probs=(0.3, 0.3, 0.3, 0.3))

    def test_positive_counts_required(self):
        with pytest.raises(ValueError):
            McmcConfig(restarts=0)
        with pytest.raises(ValueError):
            McmcConfig(thinning=0)
        with pytest.raises(ValueError):
            McmcConfig(dirichlet_alpha=0.0)

    def test_prior_tree_needs_a_leaf(self):
        data = continuous_dataset()
        tree = sample_prior_tree(data, 6, 0)
        for k_max in (0, -2):
            with pytest.raises(ValueError, match="k_max >= 1, got"):
                sample_prior_tree(data, k_max, 0)
            # log_prior used to return -inf for every tree here
            with pytest.raises(ValueError, match=f"need k_max >= 1, got {k_max}"):
                log_prior(tree, k_max, data)

    def test_k_max_must_be_an_integer(self):
        # a float k_max used to give a finite, wrong prior (it adds -log k_max)
        data = continuous_dataset()
        tree = sample_prior_tree(data, 6, 0)
        for k_max in (3.5, 6.0, True):
            with pytest.raises(ValueError, match=f"k_max must be an integer, got {k_max!r}"):
                sample_prior_tree(data, k_max, 0)
            with pytest.raises(ValueError, match=f"k_max must be an integer, got {k_max!r}"):
                log_prior(tree, k_max, data)
        assert log_prior(tree, np.int64(6), data) == log_prior(tree, 6, data)

    def test_non_finite_or_misshapen_input_rejected(self):
        # a NaN passes the sum and sign checks, and a NaN birth probability
        # would make every draw a change_rule
        nan, inf = math.nan, math.inf
        for probs in ((nan, 0.1, 0.1, 0.7), (0.1, 0.1, 0.1, nan), (inf, 0.0, 0.0, 0.0), (0.5, 0.5), (0.2,) * 5):
            with pytest.raises(ValueError, match="move"):
                McmcConfig(move_probs=probs)
        for alpha in (nan, inf, -inf):
            with pytest.raises(ValueError, match="dirichlet_alpha"):
                McmcConfig(dirichlet_alpha=alpha)


@pytest.mark.parametrize(
    "settings, match",
    [
        ({"move_probs": (1.2, -0.2, 0.0, 0.0)}, "move probabilities must be non-negative"),
        ({"max_leaves": 0}, "need max_leaves >= 1, got 0"),
        ({"max_leaves": -3}, "need max_leaves >= 1, got -3"),
        ({"restarts": 0}, "need restarts >= 1, got 0"),
        ({"burn_in": 0}, "need burn_in >= 1, got 0"),
        ({"post_burn_in": 0}, "need post_burn_in >= 1, got 0"),
        # a field's bound is checked with its integer check, before move_probs
        ({"restarts": 0, "move_probs": (1.0,)}, "need restarts >= 1, got 0"),
        ({"restarts": 2.5}, "restarts must be an integer, got 2.5"),
        ({"burn_in": 10.0}, "burn_in must be an integer, got 10.0"),
        ({"post_burn_in": 1.5}, "post_burn_in must be an integer, got 1.5"),
        ({"max_leaves": 3.5}, "max_leaves must be an integer, got 3.5"),
        ({"thinning": 1.5}, "thinning must be an integer, got 1.5"),
        ({"thinning": True}, "thinning must be an integer, got True"),
    ],
    ids=[
        "negative-move-probability",
        "max-leaves-0",
        "max-leaves-negative",
        "restarts-0",
        "burn-in-0",
        "post-burn-in-0",
        "restarts-0-before-move-probs",
        "fractional-restarts",
        "float-burn-in",
        "fractional-post-burn-in",
        "fractional-max-leaves",
        "fractional-thinning",
        "bool-thinning",
    ],
)
def test_config_checks_name_the_problem(settings, match):
    with pytest.raises(ValueError, match=match):
        McmcConfig(**settings)
