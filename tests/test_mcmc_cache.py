"""The sampler's cached per-node terms against from-scratch evaluation.

Every state reached by a random sequence of feasible proposals must have a
cached prior and likelihood equal, bit for bit, to the values computed on a
freshly re-routed copy of the same tree, and to an independent evaluation of
the prior's definition. A change move that leaves the prior's support is cut
short and returns no tree; a full rebuild with np.unique menus, drawing from
the same generator in the same order, is the reference for every move kind:
for which moves those are, for every tree that is built and for the draws.
"""

import io
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeuq import Dataset, McmcConfig, ensemble_posterior_matrix
from treeuq import mcmc
from treeuq.data import load_csv, write_csv
from treeuq.mcmc import (
    dirichlet_multinomial_log_marginal,
    log_marginal_likelihood,
    log_prior,
    propose_move,
    refresh_counts,
    run_chain,
    sample_prior_tree,
)
from treeuq.tree import (
    DecisionTree,
    TreeNode,
    grow_randomized,
    tree_size,
    walk,
)
from treetext import parse_tree, serialize_tree

ALL_KINDS = (0.25, 0.25, 0.25, 0.25)


def oracle_log_prior(tree, k_max, data):
    """The prior's definition, evaluated node by node with no cached term."""
    leaves, internals, _ = walk(tree.root)
    num_leaves = len(leaves)
    if any(leaf.counts.sum() == 0 for leaf in leaves):
        return -math.inf
    log_rules = 0.0
    for node in internals:
        values = np.unique(data.features[node.indices, node.feature])
        menu = values[:-1]
        if menu.size == 0 or node.threshold not in menu:
            return -math.inf
        log_rules -= math.log(data.m * menu.size)
    if num_leaves > k_max:
        return -math.inf
    log_catalan = math.lgamma(2 * num_leaves - 1) - 2.0 * math.lgamma(num_leaves) - math.log(num_leaves)
    return -math.log(k_max) - log_catalan + log_rules


def reroute(node, data, indices):
    """A fresh copy of the subtree with data re-routed from indices down."""
    counts = np.bincount(data.labels[indices], minlength=data.num_classes)
    if node.is_leaf:
        return TreeNode(counts, indices=indices)
    goes_left = data.features[indices, node.feature] <= node.threshold
    left = reroute(node.left, data, indices[goes_left])
    right = reroute(node.right, data, indices[~goes_left])
    return TreeNode(counts, node.feature, node.threshold, left, right, indices)


def replaced(node, target, new):
    """A copy of the tree in which target is swapped for new."""
    if node is target:
        return new
    if node.is_leaf:
        return node
    left = replaced(node.left, target, new)
    right = replaced(node.right, target, new)
    return TreeNode(node.counts, node.feature, node.threshold, left, right)


def reference_move(tree, data, move_probs, seed):
    """A move of any kind built the plain way, drawing as propose_move does.

    seed may be a shared Generator: every draw is taken from it in the order
    propose_move takes it, including the infeasible exits. Menus come from
    np.unique and the whole proposed tree is re-routed from the root, so a
    proposal that leaves the prior's support is built too. Returns (kind,
    feasible, tree, log_ratio).
    """
    rng = np.random.default_rng(seed)
    p_birth, p_death, p_change_var, _ = move_probs
    r = rng.random()
    if r < p_birth + p_death:
        kind = "birth" if r < p_birth else "death"
    else:
        kind = "change_variable" if r < p_birth + p_death + p_change_var else "change_rule"
    infeasible = (kind, False, None, None)
    root = reroute(tree.root, data, np.arange(data.n))
    leaves, internals, prunable = walk(root)

    def menu(node, feature):
        return np.unique(data.features[node.indices, feature])[:-1]

    def proposed(node, new):
        new_root = reroute(replaced(root, node, new), data, np.arange(data.n))
        return DecisionTree(new_root)

    if kind == "birth":
        leaf = leaves[rng.integers(len(leaves))]
        feature = int(rng.integers(data.m))
        thresholds = menu(leaf, feature)
        if thresholds.size == 0:
            return infeasible
        threshold = float(thresholds[rng.integers(thresholds.size)])
        grown = proposed(leaf, TreeNode(leaf.counts, feature, threshold, leaf, leaf))
        log_ratio = (
            math.log(p_death)
            - math.log(p_birth)
            + math.log(len(leaves) * data.m * thresholds.size)
            - math.log(len(walk(grown.root)[2]))
        )
        return kind, True, grown, log_ratio
    if kind == "death":
        if not prunable:
            return infeasible
        node = prunable[rng.integers(len(prunable))]
        old_size = menu(node, node.feature).size
        if old_size == 0:
            return infeasible
        log_ratio = (
            math.log(p_birth)
            - math.log(p_death)
            + math.log(len(prunable))
            - math.log((len(leaves) - 1) * data.m * old_size)
        )
        return kind, True, proposed(node, TreeNode(node.counts)), log_ratio
    if not internals:
        return infeasible
    node = internals[rng.integers(len(internals))]
    feature = int(rng.integers(data.m)) if kind == "change_variable" else node.feature
    thresholds = menu(node, feature)
    if thresholds.size == 0:
        return infeasible
    log_ratio = 0.0
    if kind == "change_variable":
        old_size = menu(node, node.feature).size
        if old_size == 0:
            return infeasible
        log_ratio = math.log(thresholds.size) - math.log(old_size)
    threshold = float(thresholds[rng.integers(thresholds.size)])
    changed = TreeNode(node.counts, feature, threshold, node.left, node.right)
    return kind, True, proposed(node, changed), log_ratio


def check_against_reference(tree, data, k_max, rng, reference_rng):
    """One proposal from tree against the reference; returns it and whether it is in the support.

    Both generators must have taken the same draws afterwards.
    """
    proposal = propose_move(tree, data, ALL_KINDS, rng)
    kind, feasible, reference, log_ratio = reference_move(tree, data, ALL_KINDS, reference_rng)
    assert rng.random() == reference_rng.random()
    assert (proposal.kind, proposal.feasible) == (kind, feasible)
    if not feasible:
        return proposal, False
    in_support = oracle_log_prior(reference, k_max, data) > -math.inf
    if proposal.tree is None:
        # only a change move stops its rebuild, and only outside the support
        assert kind in ("change_variable", "change_rule") and not in_support
        return proposal, False
    assert serialize_tree(proposal.tree) == serialize_tree(reference)
    assert proposal.log_ratio == log_ratio
    return proposal, in_support


def make_dataset(seed, n, m, num_classes, grid):
    """Random data; a grid > 0 rounds features to multiples of 1/grid, so menus have ties."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, m))
    if grid:
        features = np.round(features * grid) / grid
    labels = rng.integers(0, num_classes, n)
    return Dataset(features, labels, num_classes, tuple(f"x{j}" for j in range(m)))


def check_state(tree, data, k_max, alpha):
    """Cached terms equal a from-scratch evaluation; returns the prior."""
    cached_prior = log_prior(tree, k_max, data)
    cached_lik = log_marginal_likelihood(tree, data, alpha)
    fresh = refresh_counts(tree, data)
    assert serialize_tree(fresh) == serialize_tree(tree)
    assert cached_prior == log_prior(fresh, k_max, data)
    assert cached_prior == oracle_log_prior(fresh, k_max, data)
    assert cached_lik == log_marginal_likelihood(fresh, data, alpha)
    counts = np.array([leaf.counts for leaf in walk(fresh.root)[0]])
    assert cached_lik == dirichlet_multinomial_log_marginal(counts, alpha)
    return cached_prior


@settings(max_examples=60, deadline=None)
@given(
    data_seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 40),
    m=st.integers(1, 3),
    num_classes=st.integers(2, 4),
    grid=st.sampled_from([0, 1, 2]),
    alpha=st.sampled_from([0.5, 1.0, 2.5]),
    k_max=st.integers(1, 10),
    start_seed=st.integers(0, 2**32 - 1),
    step_seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=40),
)
def test_cached_terms_equal_scratch_along_random_moves(
    data_seed, n, m, num_classes, grid, alpha, k_max, start_seed, step_seeds
):
    # moves into every proposal that is built, births past k_max included
    data = make_dataset(data_seed, n, m, num_classes, grid)
    tree = sample_prior_tree(data, k_max, start_seed)
    check_state(tree, data, k_max, alpha)
    for seed in step_seeds:
        proposal = propose_move(tree, data, ALL_KINDS, seed)
        if proposal.tree is not None:
            tree = proposal.tree
            check_state(tree, data, k_max, alpha)


@settings(max_examples=60, deadline=None)
@given(
    data_seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 40),
    m=st.integers(1, 3),
    num_classes=st.integers(2, 4),
    grid=st.sampled_from([0, 1, 2]),
    k_max=st.integers(2, 10),
    start_seed=st.integers(0, 2**32 - 1),
    walk_seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 40),
)
def test_moves_agree_with_a_full_rebuild(
    data_seed, n, m, num_classes, grid, k_max, start_seed, walk_seed, steps
):
    # a walk through supported states, both sides drawing from one generator
    # each; grid 1 and 2 give columns with ties, whose rounded zeros come in
    # both signs until the Dataset stores each as 0.0
    data = make_dataset(data_seed, n, m, num_classes, grid)
    tree = sample_prior_tree(data, k_max, start_seed)
    rng, reference_rng = np.random.default_rng(walk_seed), np.random.default_rng(walk_seed)
    for _ in range(steps):
        proposal, in_support = check_against_reference(tree, data, k_max, rng, reference_rng)
        if proposal.kind in ("change_variable", "change_rule") and proposal.feasible:
            # from a supported state a change is built exactly when it stays in
            assert (proposal.tree is not None) == in_support
        if in_support:
            tree = proposal.tree


def test_moves_from_a_tree_outside_the_chain_agree_with_a_full_rebuild():
    # Node 1 splits on x0, which is 0 on all of its rows: its own menu is
    # empty and its right leaf holds no row. A change_variable there is
    # infeasible before any threshold is drawn, whatever the new feature's
    # menu; so are a change_rule and a death there, and a birth below it.
    x0 = [0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0]
    x1 = [0.0, 1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 3.0]
    data = Dataset(np.column_stack([x0, x1]), [0, 1, 0, 1, 1, 0, 1, 0], 2, ("x0", "x1"))
    tree = parse_tree(
        "0 split 0 0.0\n1 split 0 0.5\n2 leaf 2 2\n3 leaf 0 0\n"
        "4 split 1 1.0\n5 leaf 1 1\n6 leaf 1 1\n",
        num_classes=2,
    )
    rng, reference_rng = np.random.default_rng(21), np.random.default_rng(21)
    infeasible = {kind: 0 for kind in ("birth", "death", "change_variable", "change_rule")}
    for _ in range(400):
        proposal, _ = check_against_reference(tree, data, 6, rng, reference_rng)
        infeasible[proposal.kind] += not proposal.feasible
    # every other node has a menu on both features, so each count comes from
    # node 1 or a leaf below it
    assert all(count > 0 for count in infeasible.values())


def test_walk_reaches_every_kind_and_both_kinds_of_unsupported_state():
    # A fixed long walk that moves only into supported states: every move
    # kind is applied, and change_rule proposals leave the prior's support
    # both by emptying a leaf and by putting a descendant's threshold off its
    # new menu. Such a proposal returns no tree, so the full rebuild of the
    # same draw tells which of the two happened.
    data = make_dataset(3, 30, 2, 3, grid=2)
    kinds = set()
    empty_leaf = off_menu = 0
    tree = sample_prior_tree(data, 12, 5)
    for step in range(1500):
        seed = np.random.SeedSequence((8, step))
        proposal = propose_move(tree, data, ALL_KINDS, seed)
        if not proposal.feasible:
            continue
        kinds.add(proposal.kind)
        if proposal.tree is None:
            assert proposal.kind in ("change_variable", "change_rule")
            _, _, reference, _ = reference_move(tree, data, ALL_KINDS, seed)
            assert oracle_log_prior(reference, 12, data) == -math.inf
            if proposal.kind == "change_rule":
                if any(leaf.counts.sum() == 0 for leaf in walk(reference.root)[0]):
                    empty_leaf += 1
                else:
                    off_menu += 1
        elif check_state(proposal.tree, data, 12, 1.0) > -math.inf:
            tree = proposal.tree
    assert kinds == {"birth", "death", "change_variable", "change_rule"}
    assert empty_leaf > 0
    assert off_menu > 0


def test_cache_built_on_another_dataset_is_not_reused():
    data = make_dataset(1, 30, 2, 2, grid=0)
    other = Dataset(data.features * 3.0, 1 - data.labels, 2, data.feature_names)
    tree = next(
        t for s in range(50) if len(walk((t := sample_prior_tree(data, 6, s)).root)[1]) >= 2
    )
    assert log_prior(tree, 6, data) == oracle_log_prior(tree, 6, data)
    log_marginal_likelihood(tree, data, 1.0)
    # same rows, rescaled features: every threshold is now off its menu
    assert log_prior(tree, 6, other) == -math.inf
    assert log_prior(tree, 6, data) == oracle_log_prior(tree, 6, data)
    for alpha in (1.0, 2.0):
        counts = np.array([leaf.counts for leaf in walk(tree.root)[0]])
        assert log_marginal_likelihood(tree, data, alpha) == dirichlet_multinomial_log_marginal(
            counts, alpha
        )


def test_tree_built_on_another_dataset_is_scored_on_the_given_one():
    a = make_dataset(1, 30, 2, 2, grid=0)
    b = make_dataset(2, 30, 2, 2, grid=0)
    tree = next(t for s in range(50) if len(walk((t := sample_prior_tree(a, 6, s)).root)[0]) >= 3)
    fresh = refresh_counts(tree, b)
    assert serialize_tree(fresh) != serialize_tree(tree)  # b routes differently
    assert mcmc._ensure_cached(fresh, b) is fresh
    assert log_marginal_likelihood(tree, b, 1.0) == log_marginal_likelihood(fresh, b, 1.0)
    assert log_prior(tree, 6, b) == oracle_log_prior(fresh, 6, b)
    for seed in range(20):
        proposal = propose_move(tree, b, ALL_KINDS, seed)
        if proposal.tree is not None:
            rerouted = refresh_counts(proposal.tree, b)
            assert serialize_tree(proposal.tree) == serialize_tree(rerouted)


def test_a_chain_never_reroutes_its_own_states(monkeypatch):
    # every state the sampler builds carries its Dataset in the root's cache,
    # so the public entry points a chain calls trust it as it is
    def reroute(tree, data):
        raise AssertionError("a chain state was re-routed")

    monkeypatch.setattr(mcmc, "refresh_counts", reroute)
    data = make_dataset(5, 30, 2, 2, grid=0)
    config = McmcConfig(restarts=1, burn_in=200, post_burn_in=200, max_leaves=3)
    starts = set()
    for seed in (0, 11):
        for loglik_fn in (None, lambda tree, data, alpha: 0.0):
            samples = run_chain(data, config, seed=seed, loglik_fn=loglik_fn)
            assert min(tree_size(s.tree) for s in samples) == 1  # deaths reach a single leaf
        starts.add(tree_size(mcmc.sample_prior_tree(data, 3, np.random.default_rng(seed))))
    assert 1 in starts  # some chains start from a single leaf


def node_objects(tree):
    """(node, cache, counts, indices) of every node: leaves, then internal nodes."""
    leaves, internals, _ = walk(tree.root)
    return [(node, node.cache, node.counts, node.indices) for node in leaves + internals]


def test_no_operation_writes_to_a_built_node():
    # a builder sets every field of a node once; scoring at several alphas,
    # the prior, proposals and an ensemble score leave each node holding the
    # very objects it was built with, and a leaf's cache its Dataset alone
    data = make_dataset(4, 40, 2, 3, grid=0)
    config = McmcConfig(restarts=1, burn_in=50, post_burn_in=100, max_leaves=8)
    trees = list({id(s.tree): s.tree for s in run_chain(data, config, seed=3)}.values())
    assert len(trees) > 5
    before = [node_objects(tree) for tree in trees]
    for tree in trees:
        for alpha in (1.0, 2.0, 0.5):
            log_marginal_likelihood(tree, data, alpha)
        log_prior(tree, 8, data)
        for seed in range(5):
            propose_move(tree, data, ALL_KINDS, seed)
    ensemble_posterior_matrix(trees, data.features, mode="average", alpha=2.0)
    for tree, objects in zip(trees, before):
        after = node_objects(tree)
        assert len(after) == len(objects)
        for old, new in zip(objects, after):
            assert all(a is b for a, b in zip(old, new))
        for leaf in walk(tree.root)[0]:
            assert len(leaf.cache) == 1 and leaf.cache[0] is data


def test_concurrent_scoring_at_two_alphas_equals_one_thread():
    # a guard: a race shows only in some runs, so a pass proves nothing alone
    data = make_dataset(6, 60, 2, 3, grid=0)
    config = McmcConfig(restarts=1, burn_in=100, post_burn_in=100, max_leaves=10)
    tree = max((s.tree for s in run_chain(data, config, seed=2)), key=tree_size)
    assert tree_size(tree) >= 3
    expected = {alpha: log_marginal_likelihood(tree, data, alpha) for alpha in (1.0, 2.0)}
    wrong = []

    def score(offset):
        for i in range(3000):
            alpha = 1.0 if (i + offset) % 2 else 2.0
            value = log_marginal_likelihood(tree, data, alpha)
            if value != expected[alpha]:
                wrong.append((alpha, value))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=score, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_a_chain_walks_each_tree_it_scores_once(monkeypatch):
    # the prior scores every tree a chain builds; the proposal, prior,
    # likelihood and trace line of one tree share its single walk
    walked, scored = [], []  # both keep their roots alive, so no id is reused

    def counting_walk(root):
        walked.append(root)
        return walk(root)

    def recording_log_prior(tree, k_max, data):
        scored.append(tree.root)
        return log_prior(tree, k_max, data)

    monkeypatch.setattr(mcmc, "walk", counting_walk)
    monkeypatch.setattr(mcmc, "log_prior", recording_log_prior)
    data = make_dataset(7, 60, 2, 2, grid=0)
    config = McmcConfig(restarts=1, burn_in=600, post_burn_in=600, max_leaves=10)
    run_chain(data, config, seed=9, trace=io.StringIO())
    distinct = {id(root) for root in scored}
    assert len(distinct) > 300
    assert {id(root) for root in walked} <= distinct
    assert len(walked) <= len(distinct)


def chain_text(data, config, seed):
    return [(s.step_index, serialize_tree(s.tree)) for s in run_chain(data, config, seed=seed)]


def test_walk_memo_is_safe_across_threads_and_rerouted_trees():
    # two chains on their own Dataset share the two-slot memo and evict each
    # other's entries; a race shows only in some runs, so a pass proves
    # nothing alone
    config = McmcConfig(restarts=1, burn_in=300, post_burn_in=300, max_leaves=10)
    jobs = [(make_dataset(8, 50, 2, 3, grid=0), 12), (make_dataset(9, 40, 3, 2, grid=2), 13)]
    expected = [chain_text(data, config, seed) for data, seed in jobs]
    got = [[], []]

    def run(k):
        data, seed = jobs[k]
        for _ in range(2):
            got[k].append(chain_text(data, config, seed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert got == [[expected[0]] * 2, [expected[1]] * 2]

    # a tree and its copy re-routed through another Dataset are scored in
    # turn: each by its own leaves, whichever of the two the memo holds
    a, b = make_dataset(1, 30, 2, 2, grid=0), make_dataset(2, 30, 2, 2, grid=0)
    tree = next(t for s in range(50) if tree_size(t := sample_prior_tree(a, 6, s)) >= 3)
    fresh = refresh_counts(tree, b)
    for _ in range(2):
        for t, data in ((tree, a), (fresh, b), (tree, b)):
            counts = np.array([leaf.counts for leaf in walk(refresh_counts(t, data).root)[0]])
            assert log_marginal_likelihood(t, data, 1.0) == dirichlet_multinomial_log_marginal(counts, 1.0)
            assert log_prior(t, 6, data) == oracle_log_prior(refresh_counts(t, data), 6, data)


def float_row_marginal(counts, alpha):
    """The likelihood summed over float count rows, term by term in the body's order."""
    counts = np.atleast_2d(np.asarray(counts, dtype=np.float64))
    concentration = counts.shape[1] * alpha
    total = 0.0
    for row in counts.tolist():
        total += math.lgamma(concentration) - math.lgamma(sum(row) + concentration)
        for count in row:
            total += math.lgamma(count + alpha) - math.lgamma(alpha)
    return total


@pytest.mark.parametrize("num_classes", [2, 3, 12])
def test_integer_leaf_rows_score_like_the_float_count_matrix(num_classes):
    data = make_dataset(num_classes, 80, 2, num_classes, grid=0)
    config = McmcConfig(restarts=1, burn_in=100, post_burn_in=200, max_leaves=12)
    trees = list({id(s.tree): s.tree for s in run_chain(data, config, seed=num_classes)}.values())
    assert max(tree_size(tree) for tree in trees) >= 4
    for tree in trees:
        counts = np.array([leaf.counts for leaf in walk(tree.root)[0]], dtype=np.float64)
        for alpha in (1e-3, 0.5, 1.0, 2.0, 7.5):
            value = log_marginal_likelihood(tree, data, alpha)
            assert same_float(value, dirichlet_multinomial_log_marginal(counts, alpha))
            assert same_float(value, float_row_marginal(counts, alpha))


def same_float(a, b):
    """Equal as floats and in the sign bit, so -0.0 and 0.0 differ."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def check_menus_against_unique(data, rows):
    """Rank-table menus at a node holding rows equal the np.unique ones.

    A node with no rows has an empty menu, so no threshold is on it.
    """
    for feature in range(data.m):
        values = np.unique(data.features[rows, feature])
        menu = mcmc._menu(data, rows, feature)
        assert menu.size == max(values.size - 1, 0)
        for i in range(menu.size):
            assert same_float(float(menu[i]), float(values[i]))
        candidates = np.concatenate([data.features[:, feature], [-0.0, 0.0, 0.25, 99.0, -99.0]])
        for threshold in candidates.tolist():
            cached_data, menu_size, term = mcmc._rule_cache(data, rows, feature, threshold)
            assert cached_data is data and menu_size == menu.size
            on_menu = threshold in values[:-1].tolist()
            assert term == (math.log(data.m * menu.size) if on_menu else None)


COLUMN_VALUES = st.sampled_from([-1.5, -0.5, -0.0, 0.0, 0.5, 1.0, 2.5])


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.tuples(COLUMN_VALUES, COLUMN_VALUES, st.floats(-3, 3)), min_size=1, max_size=30),
    picks=st.lists(st.booleans(), min_size=30, max_size=30),
)
@example(rows=[(-0.0, 0.5, 1.0), (0.0, 0.5, 2.0)], picks=[False] * 30)  # an empty node
def test_rank_table_menus_equal_unique_menus(rows, picks):
    # two tied columns that may hold both -0.0 and 0.0, and one continuous
    features = np.array(rows, dtype=np.float64)
    data = Dataset(features, np.zeros(len(rows), dtype=np.int64), 2, ("a", "b", "c"))
    assert not np.signbit(data.features[data.features == 0.0]).any()
    values, ranks = data.rank_table
    for j in range(data.m):
        column = data.features[:, j]
        assert np.array_equal(values[j], np.unique(column))
        assert np.array_equal(values[j][ranks[j]], column)
    subset = np.flatnonzero(picks[: data.n])
    for node_rows in (np.arange(data.n), subset):
        check_menus_against_unique(data, node_rows)


def test_every_menu_zero_is_positive(tmp_path):
    # a Dataset stores -0.0 as 0.0, so a node's menu holds 0.0 whichever
    # zeros its rows came with; the caller's array keeps its -0.0
    features = np.array([[-0.0], [0.0], [1.0], [-0.0]])
    built = Dataset(features, [0, 1, 0, 1], 2, ("x",))
    assert np.signbit(features[[0, 3], 0]).all() and built.features is not features
    path = tmp_path / "zeros.csv"
    path.write_text("x,class\n-0,a\n0,b\n1,a\n-0.0,b\n", encoding="utf-8")
    for data in (built, built.subset(np.array([3, 0, 2, 1])), load_csv(path, "class")):
        assert not np.signbit(data.features).any()
        for rows in ([0, 2], [1, 2], [3, 2], [0, 1, 2, 3], [1, 0, 2]):
            menu = mcmc._menu(data, np.array(rows), 0)
            assert menu.tolist() == [0.0] and not np.signbit(menu).any()
            check_menus_against_unique(data, np.array(rows))
    write_csv(built, tmp_path / "out.csv")
    assert "-0" not in (tmp_path / "out.csv").read_text(encoding="utf-8")


def test_rank_table_is_built_only_for_the_sampler():
    data = make_dataset(4, 30, 2, 2, grid=2)
    grow_randomized(data, min_leaf=1, top_k=5, seed=0)
    assert "rank_table" not in vars(data)
    sample_prior_tree(data, 6, 0)
    assert "rank_table" in vars(data)
