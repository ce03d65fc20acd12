"""The sampler's cached per-node terms against from-scratch evaluation.

Every state reached by a random sequence of feasible proposals must have a
cached prior and likelihood equal, bit for bit, to the values computed on a
freshly re-routed copy of the same tree, and to an independent evaluation of
the prior's definition.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from treeuq import (
    Dataset,
    log_marginal_likelihood,
    log_prior,
    propose_move,
    refresh_counts,
    sample_prior_tree,
    serialize_tree,
)
from treeuq.mcmc import _log_prior_cached, dirichlet_multinomial_log_marginal
from treeuq.tree import iter_nodes

ALL_KINDS = (0.25, 0.25, 0.25, 0.25)


def oracle_log_prior(tree, k_max, data):
    """The prior's definition, evaluated node by node with no cached term."""
    num_leaves = 0
    log_rules = 0.0
    for node in iter_nodes(tree.root):
        if node.is_leaf:
            num_leaves += 1
            if node.counts.sum() == 0:
                return -math.inf
            continue
        values = np.unique(data.features[node.indices, node.feature])
        menu = values[:-1]
        if menu.size == 0 or node.threshold not in menu:
            return -math.inf
        log_rules -= math.log(data.m * menu.size)
    if num_leaves > k_max:
        return -math.inf
    log_catalan = math.lgamma(2 * num_leaves - 1) - 2.0 * math.lgamma(num_leaves) - math.log(num_leaves)
    return -math.log(k_max) - log_catalan + log_rules


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
    cached_prior = _log_prior_cached(tree, k_max, data)
    cached_lik = log_marginal_likelihood(tree, data, alpha)
    fresh = refresh_counts(tree, data)
    assert serialize_tree(fresh) == serialize_tree(tree)
    assert cached_prior == log_prior(fresh, k_max, data)
    assert cached_prior == oracle_log_prior(fresh, k_max, data)
    assert cached_lik == log_marginal_likelihood(fresh, data, alpha)
    counts = np.array([leaf.counts for leaf in fresh.leaves()])
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
    # moves into every feasible proposal, unsupported ones included
    data = make_dataset(data_seed, n, m, num_classes, grid)
    tree = sample_prior_tree(data, k_max, start_seed)
    check_state(tree, data, k_max, alpha)
    for seed in step_seeds:
        proposal = propose_move(tree, data, ALL_KINDS, seed)
        if proposal.feasible:
            tree = proposal.tree
            check_state(tree, data, k_max, alpha)


def test_walk_reaches_every_kind_and_both_kinds_of_unsupported_state():
    # A fixed long walk that moves only into supported states: every move
    # kind is applied, and change_rule proposals leave the prior's support
    # both by emptying a leaf and by putting a descendant's threshold off its
    # new menu.
    data = make_dataset(3, 30, 2, 3, grid=2)
    rng = np.random.default_rng(8)
    kinds = set()
    empty_leaf = off_menu = 0
    tree = sample_prior_tree(data, 12, 5)
    for _ in range(1500):
        proposal = propose_move(tree, data, ALL_KINDS, rng)
        if not proposal.feasible:
            continue
        kinds.add(proposal.kind)
        if check_state(proposal.tree, data, 12, 1.0) > -math.inf:
            tree = proposal.tree
        elif proposal.kind == "change_rule":
            if any(leaf.counts.sum() == 0 for leaf in proposal.tree.leaves()):
                empty_leaf += 1
            else:
                off_menu += 1
    assert kinds == {"birth", "death", "change_variable", "change_rule"}
    assert empty_leaf > 0
    assert off_menu > 0


def test_cache_built_on_another_dataset_is_not_reused():
    data = make_dataset(1, 30, 2, 2, grid=0)
    other = Dataset(data.features * 3.0, 1 - data.labels, 2, data.feature_names)
    tree = next(
        t for s in range(50) if len((t := sample_prior_tree(data, 6, s)).internal_nodes()) >= 2
    )
    assert log_prior(tree, 6, data) == oracle_log_prior(tree, 6, data)
    log_marginal_likelihood(tree, data, 1.0)
    # same rows, rescaled features: every threshold is now off its menu
    assert log_prior(tree, 6, other) == -math.inf
    assert log_prior(tree, 6, data) == oracle_log_prior(tree, 6, data)
    for alpha in (1.0, 2.0):
        counts = np.array([leaf.counts for leaf in tree.leaves()])
        assert log_marginal_likelihood(tree, data, alpha) == dirichlet_multinomial_log_marginal(
            counts, alpha
        )
