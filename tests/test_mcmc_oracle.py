"""The sampler against the exact posterior over every tree in the support.

With six points and at most three leaves the support is small enough to
list: every tree whose rules come from their nodes' own menus. The exact
posterior over that list uses a prior and a likelihood written out here,
independently of treeuq.mcmc. Pooled, thinned chains must match it by a
chi-squared test and in total variation, and must never visit a tree
outside the list.
"""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from treeuq import Dataset, McmcConfig, run_chain

K_MAX = 3
ALPHA = 1.0
CHAINS = 4
BURN_IN = 500
POST_BURN_IN = 30_000
THINNING = 25
# fixed before any chain was run: the chains must not be rejected by a
# chi-squared test at this level, and must be this close in total variation
MIN_P_VALUE = 1e-3
MAX_TOTAL_VARIATION = 0.06


def menu(data, rows, feature):
    return np.unique(data.features[rows, feature])[:-1]


def subtrees(data, rows, max_leaves):
    """Every subtree over the rows with at most max_leaves leaves.

    Yields (key, leaf count, log rule factor, class counts of each leaf),
    where the rule factor is the product of 1/(m * menu size) over the
    subtree's internal nodes.
    """
    yield None, 1, 0.0, [np.bincount(data.labels[rows], minlength=data.num_classes)]
    if max_leaves < 2:
        return
    for feature in range(data.m):
        thresholds = menu(data, rows, feature)
        for threshold in thresholds:
            goes_left = data.features[rows, feature] <= threshold
            log_rule = -math.log(data.m * thresholds.size)
            for left in subtrees(data, rows[goes_left], max_leaves - 1):
                for right in subtrees(data, rows[~goes_left], max_leaves - left[1]):
                    yield (
                        (feature, float(threshold), left[0], right[0]),
                        left[1] + right[1],
                        log_rule + left[2] + right[2],
                        left[3] + right[3],
                    )


def exact_posterior(data):
    """Posterior probability of every tree in the support, keyed like tree_key."""
    log_post = {}
    for key, leaves, log_rules, counts in subtrees(data, np.arange(data.n), K_MAX):
        catalan = math.comb(2 * (leaves - 1), leaves - 1) // leaves
        log_prior = -math.log(K_MAX) - math.log(catalan) + log_rules
        c = data.num_classes
        log_lik = sum(
            math.lgamma(c * ALPHA)
            - math.lgamma(sum(row) + c * ALPHA)
            + sum(math.lgamma(x + ALPHA) - math.lgamma(ALPHA) for x in row)
            for row in np.array(counts).tolist()
        )
        assert key not in log_post
        log_post[key] = log_prior + log_lik
    top = max(log_post.values())
    weights = {key: math.exp(value - top) for key, value in log_post.items()}
    total = sum(weights.values())
    return {key: w / total for key, w in weights.items()}


def tree_key(node):
    if node.is_leaf:
        return None
    return (node.feature, node.threshold, tree_key(node.left), tree_key(node.right))


def sampled_frequencies(data, seed):
    config = McmcConfig(
        restarts=1,
        burn_in=BURN_IN,
        post_burn_in=POST_BURN_IN,
        thinning=THINNING,
        max_leaves=K_MAX,
        dirichlet_alpha=ALPHA,
    )
    counts = {}
    for chain in range(CHAINS):
        for sample in run_chain(data, config, seed=np.random.SeedSequence((seed, chain))):
            key = tree_key(sample.tree.root)
            counts[key] = counts.get(key, 0) + 1
    return counts


def distinct_two_class():
    features = [[0.1, 2.3], [0.4, 1.1], [0.9, 0.2], [1.3, 1.7], [1.8, 0.8], [2.2, 2.9]]
    return Dataset(features, [0, 0, 1, 0, 1, 1], 2, ("x", "y"))


def tied_three_class():
    features = [[0.5, 2.3], [0.5, 1.1], [1.0, 0.2], [1.5, 1.7], [1.5, 0.8], [2.0, 2.9]]
    return Dataset(features, [0, 1, 1, 2, 2, 0], 3, ("x", "y"))


@pytest.mark.parametrize(
    "make_data, support_size, seed",
    [(distinct_two_class, 91, 41), (tied_three_class, 61, 42)],
    ids=["distinct-two-class", "tied-three-class"],
)
def test_pooled_chains_match_the_exact_posterior(make_data, support_size, seed):
    data = make_data()
    posterior = exact_posterior(data)
    assert len(posterior) == support_size
    counts = sampled_frequencies(data, seed)
    assert set(counts) <= set(posterior), "a chain visited a tree outside the support"
    n = sum(counts.values())
    assert n == CHAINS * POST_BURN_IN // THINNING

    observed = np.array([counts.get(key, 0) for key in posterior], dtype=float)
    expected = np.array([posterior[key] for key in posterior]) * n
    total_variation = 0.5 * float(np.abs(observed - expected).sum()) / n
    assert expected.min() >= 5  # every cell is large enough for the chi-squared test
    statistic = float(((observed - expected) ** 2 / expected).sum())
    p_value = float(chi2.sf(statistic, expected.size - 1))
    assert p_value >= MIN_P_VALUE, f"chi2 {statistic:.1f} on {expected.size - 1} dof"
    assert total_variation <= MAX_TOTAL_VARIATION
