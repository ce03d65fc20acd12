"""Reversible-jump MCMC over binary classification trees, with restarts.

The sampler targets posterior(tree) = marginal_likelihood(tree) * prior(tree)
where the class probabilities in each terminal node have been integrated out
against a symmetric Dirichlet(alpha), so jumps only change tree structure.

Prior over trees (support: no empty leaf, every rule drawn from the node's
own split menu, leaf count K <= K_max):

    p(tree) = 1/K_max                    (uniform over leaf counts)
            * 1/catalan(K - 1)           (uniform over tree shapes given K)
            * prod_internal 1/(m * V)    (uniform rule per node)

where V is the size of the node's split menu: the distinct observed values of
the chosen feature at that node, excluding the maximum (thresholds equal to
the maximum would route everything left). With continuous features the rule
factors sum to one within every shape, so the leaf-count marginal of the
prior is exactly uniform on 1..K_max - the property the prior-sampling check
relies on.

Moves: birth (split a uniform leaf), death (collapse a uniform prunable
node), change_variable (redraw feature and threshold at a uniform internal
node), change_rule (redraw threshold only). The returned log proposal ratio
makes birth/death a reversible pair: it combines the leaf-vs-prunable-node
counts with the split-choice probability.

Cache invariant: a node's ``cache`` slot holds terms derived from the node's
own fields and one Dataset, and the Dataset is stored with them. An internal
node keeps ``(data, menu size, log(m * menu size))`` with ``None`` for the
log term when its threshold is off its menu; a leaf keeps ``(data, alpha,
Dirichlet-multinomial log marginal of its counts)``, or ``(data, None,
None)`` until it is first scored. Nodes are immutable and keep their
``indices``, so a term computed once stays exact, and path copies of an
unchanged node carry it. A cache stored with another Dataset (or, for a
leaf, another alpha) is recomputed, never reused. The public entry points
trust a tree's counts and rows only when its root is cached for the Dataset
they are given, and otherwise re-route that Dataset through a copy first;
every tree a chain builds has such a root, so a chain never re-routes. The
prior and the likelihood of a tree are the cached terms summed in preorder
with the same float operations a from-scratch evaluation uses, so they are
bit-identical to it; a move therefore only pays for the nodes it creates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .data import Dataset
from .ensemble import ensemble_posterior_matrix
from .tree import DecisionTree, TreeNode, tree_size, walk

# Not used in this module: the benchmark's tracer (perfbench/tracing.py)
# wraps this module's binding by name and reports a missing one.
from .tree import leaf_posterior_matrix  # noqa: F401

__all__ = [
    "ChainSample",
    "McmcConfig",
    "PosteriorEnsemble",
    "Proposal",
    "bayes_predictive_matrix",
    "dirichlet_multinomial_log_marginal",
    "ensemble_mean_size",
    "log_marginal_likelihood",
    "log_prior",
    "propose_move",
    "refresh_counts",
    "run_chain",
    "run_with_restarts",
    "sample_prior_tree",
]

MOVE_KINDS = ("birth", "death", "change_variable", "change_rule")


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings.

    The defaults reproduce the benchmark protocol: 50 restarts of 2000
    burn-in plus 2000 retained steps with move probabilities
    (birth, death, change_variable, change_rule) = (0.1, 0.1, 0.1, 0.7).
    """

    restarts: int = 50
    burn_in: int = 2000
    post_burn_in: int = 2000
    move_probs: tuple[float, float, float, float] = (0.1, 0.1, 0.1, 0.7)
    max_leaves: int = 50
    thinning: int = 1
    dirichlet_alpha: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if abs(sum(self.move_probs) - 1.0) > 1e-9:
            raise ValueError(f"move probabilities must sum to 1, got {self.move_probs}")
        if min(self.move_probs) < 0:
            raise ValueError("move probabilities must be non-negative")
        if self.restarts < 1 or self.burn_in < 1 or self.post_burn_in < 1:
            raise ValueError("restarts, burn_in and post_burn_in must all be >= 1")
        if self.max_leaves < 1:
            raise ValueError(f"need max_leaves >= 1, got {self.max_leaves}")
        if self.thinning < 1:
            raise ValueError(f"need thinning >= 1, got {self.thinning}")
        if self.dirichlet_alpha <= 0:
            raise ValueError(f"need dirichlet_alpha > 0, got {self.dirichlet_alpha}")


@dataclass(frozen=True)
class ChainSample:
    """One retained posterior tree sample."""

    tree: DecisionTree
    restart_index: int
    step_index: int


@dataclass(frozen=True)
class PosteriorEnsemble:
    """Pooled post-burn-in samples from all restarts, in restart order."""

    samples: tuple[ChainSample, ...]

    @property
    def n(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class Proposal:
    """A proposed transition; infeasible proposals count as rejected steps."""

    kind: str
    tree: DecisionTree | None
    log_ratio: float
    feasible: bool


def _leaf_log_marginals(counts, alpha: float) -> np.ndarray:
    """Per-row terms of dirichlet_multinomial_log_marginal.

    A row's term does not depend on the other rows, so terms computed in
    different batches are bit-identical to those of one batch.
    """
    counts = np.atleast_2d(np.asarray(counts, dtype=np.float64))
    num_classes = counts.shape[1]
    totals = counts.sum(axis=1)
    return (
        gammaln(num_classes * alpha)
        - gammaln(totals + num_classes * alpha)
        + (gammaln(counts + alpha) - gammaln(alpha)).sum(axis=1)
    )


def dirichlet_multinomial_log_marginal(counts, alpha: float) -> float:
    """Log marginal likelihood of class-count rows under Dirichlet(alpha) rates.

    Each row contributes log[Gamma(C*a)/Gamma(n+C*a) * prod_c Gamma(n_c+a)/Gamma(a)];
    an all-zero row contributes 0.
    """
    return float(_leaf_log_marginals(counts, alpha).sum())


def refresh_counts(tree: DecisionTree, data: Dataset) -> DecisionTree:
    """Re-route the training data through the tree, rebuilding counts/indices."""
    root = _rebuild_subtree(tree.root, data, np.arange(data.n))
    if not root.is_leaf:
        _rule_terms(root, data)  # caches the root for data, so the copy is trusted as it is
    return DecisionTree(root=root, num_classes=data.num_classes, min_leaf=tree.min_leaf)


def _ensure_cached(tree: DecisionTree, data: Dataset) -> DecisionTree:
    """The tree if the sampler built it on data, else a copy re-routed through data."""
    cache = tree.root.cache
    return tree if cache is not None and cache[0] is data else refresh_counts(tree, data)


def _leaf(counts, indices: np.ndarray, data: Dataset) -> TreeNode:
    """A leaf holding the given rows of data; its term is computed on first use."""
    leaf = TreeNode(counts, indices=indices)
    leaf.cache = (data, None, None)
    return leaf


def _split_menu(data: Dataset, indices: np.ndarray, feature: int) -> np.ndarray:
    """Thresholds at a node: distinct observed values excluding the maximum."""
    values = np.unique(data.features[indices, feature])
    return values[:-1]


def _log_catalan(j: int) -> float:
    """log of the j-th Catalan number (number of shapes with j+1 leaves)."""
    return math.lgamma(2 * j + 1) - 2.0 * math.lgamma(j + 1) - math.log(j + 1)


def _rule_terms(node: TreeNode, data: Dataset) -> tuple[int, float | None]:
    """Cached (menu size, log(m * menu size)) of an internal node.

    The log term is None when the threshold is not on the node's own menu.
    """
    cache = node.cache
    if cache is None or cache[0] is not data:
        values = np.unique(data.features[node.indices, node.feature])
        menu_size = values.size - 1
        term = None
        if menu_size >= 1:
            pos = int(np.searchsorted(values, node.threshold))
            if pos < menu_size and values[pos] == node.threshold:
                term = math.log(data.m * menu_size)
        cache = node.cache = (data, menu_size, term)
    return cache[1], cache[2]


def _leaf_terms(leaves: list[TreeNode], data: Dataset, alpha: float) -> list[float]:
    """Cached Dirichlet-multinomial term of each leaf; missing ones in one batch."""
    stale = [
        leaf for leaf in leaves
        if leaf.cache is None or leaf.cache[0] is not data or leaf.cache[1] != alpha
    ]
    if stale:
        terms = _leaf_log_marginals([leaf.counts for leaf in stale], alpha)
        for leaf, term in zip(stale, terms.tolist()):
            leaf.cache = (data, alpha, term)
    return [leaf.cache[2] for leaf in leaves]


def log_marginal_likelihood(tree: DecisionTree, data: Dataset, alpha: float = 1.0) -> float:
    """Dirichlet-multinomial log marginal likelihood of the tree's partition."""
    leaves, _, _ = walk(_ensure_cached(tree, data).root)
    return float(np.array(_leaf_terms(leaves, data, alpha)).sum())


def log_prior(tree: DecisionTree, k_max: int, data: Dataset) -> float:
    """Log prior of the tree; -inf outside the support.

    Support requires: leaf count <= k_max, no empty leaf, and every internal
    node's threshold taken from its own split menu.
    """
    return _log_prior_cached(_ensure_cached(tree, data), k_max, data)


def _log_prior_cached(tree: DecisionTree, k_max: int, data: Dataset) -> float:
    leaves, internals, _ = walk(tree.root)
    if len(leaves) > k_max or any(leaf.indices.size == 0 for leaf in leaves):
        return -math.inf
    log_rules = 0.0
    for node in internals:
        _, term = _rule_terms(node, data)
        if term is None:
            return -math.inf
        log_rules -= term
    return -math.log(k_max) - _log_catalan(len(leaves) - 1) + log_rules


def _copy_replace(node: TreeNode, target: TreeNode, replacement: TreeNode) -> TreeNode | None:
    """Copy of the path from node down to target with target swapped out.

    Untouched subtrees are shared by reference; returns None if target does
    not occur below node.
    """
    if node is target:
        return replacement
    if node.is_leaf:
        return None
    new_left = _copy_replace(node.left, target, replacement)
    if new_left is not None:
        copy = TreeNode(
            node.counts, node.feature, node.threshold, new_left, node.right, node.indices
        )
    else:
        new_right = _copy_replace(node.right, target, replacement)
        if new_right is None:
            return None
        copy = TreeNode(
            node.counts, node.feature, node.threshold, node.left, new_right, node.indices
        )
    copy.cache = node.cache
    return copy


def _rebuild_subtree(
    node: TreeNode, data: Dataset, indices: np.ndarray, keep_unchanged: bool = False
) -> TreeNode:
    """Same structure and rules as node, data re-routed from indices down.

    With keep_unchanged, a subtree whose node already holds exactly these
    rows is kept as it is, cached terms included.
    """
    if (
        keep_unchanged
        and node.indices is not None
        and node.indices.size == indices.size
        and np.array_equal(node.indices, indices)
    ):
        return node
    counts = np.bincount(data.labels[indices], minlength=data.num_classes)
    if node.is_leaf:
        return _leaf(counts, indices, data)
    goes_left = data.features[indices, node.feature] <= node.threshold
    return TreeNode(
        counts,
        feature=node.feature,
        threshold=node.threshold,
        left=_rebuild_subtree(node.left, data, indices[goes_left], keep_unchanged),
        right=_rebuild_subtree(node.right, data, indices[~goes_left], keep_unchanged),
        indices=indices,
    )


def _grow_leaf(leaves: list[TreeNode], data: Dataset, rng) -> tuple[int, TreeNode | None, int]:
    """Birth draw: split a uniform leaf on a uniform feature at a uniform menu value.

    Returns (position of the leaf in ``leaves``, grown node, menu size); the
    grown node is None when the drawn feature has no menu at that leaf.
    """
    position = int(rng.integers(len(leaves)))
    leaf = leaves[position]
    feature = int(rng.integers(data.m))
    menu = _split_menu(data, leaf.indices, feature)
    if menu.size == 0:
        return position, None, 0
    threshold = float(menu[rng.integers(menu.size)])
    goes_left = data.features[leaf.indices, feature] <= threshold
    left_idx, right_idx = leaf.indices[goes_left], leaf.indices[~goes_left]
    grown = TreeNode(
        leaf.counts,
        feature=feature,
        threshold=threshold,
        left=_leaf(np.bincount(data.labels[left_idx], minlength=data.num_classes), left_idx, data),
        right=_leaf(np.bincount(data.labels[right_idx], minlength=data.num_classes), right_idx, data),
        indices=leaf.indices,
    )
    grown.cache = (data, menu.size, math.log(data.m * menu.size))
    return position, grown, menu.size


def _log(x: float) -> float:
    return math.log(x) if x > 0 else -math.inf


def propose_move(tree: DecisionTree, data: Dataset, move_probs, seed) -> Proposal:
    """Draw a move kind from move_probs and propose the corresponding jump.

    The log_ratio field is log q(proposed -> current) - log q(current ->
    proposed); for births and deaths it combines the leaf/prunable-node
    counts with the split-choice probability so the pair is reversible.
    Structurally impossible moves return feasible=False (the caller treats
    them as rejected steps).
    """
    tree = _ensure_cached(tree, data)
    rng = np.random.default_rng(seed)
    p_birth, p_death, p_change_var, p_change_rule = move_probs
    r = rng.random()
    if r < p_birth:
        kind = "birth"
    elif r < p_birth + p_death:
        kind = "death"
    elif r < p_birth + p_death + p_change_var:
        kind = "change_variable"
    else:
        kind = "change_rule"

    root = tree.root
    num_features = data.m
    leaves, internals, prunable = walk(root)

    if kind == "birth":
        position, grown, menu_size = _grow_leaf(leaves, data, rng)
        if grown is None:
            return Proposal(kind, None, -math.inf, False)
        leaf = leaves[position]
        new_root = _copy_replace(root, leaf, grown)
        # the grown node becomes prunable; the leaf's parent stops being so
        parent_was_prunable = any(p.left is leaf or p.right is leaf for p in prunable)
        prunable_after = len(prunable) + 1 - parent_was_prunable
        log_ratio = (
            _log(p_death)
            - _log(p_birth)
            + math.log(len(leaves) * num_features * menu_size)
            - math.log(prunable_after)
        )
        proposed = DecisionTree(new_root, tree.num_classes, tree.min_leaf)
        return Proposal(kind, proposed, log_ratio, True)

    if kind == "death":
        if not prunable:
            return Proposal(kind, None, -math.inf, False)
        node = prunable[rng.integers(len(prunable))]
        menu_size, _ = _rule_terms(node, data)
        if menu_size < 1:
            return Proposal(kind, None, -math.inf, False)
        collapsed = _leaf(node.counts, node.indices, data)
        new_root = _copy_replace(root, node, collapsed)
        leaves_after = len(leaves) - 1
        log_ratio = (
            _log(p_birth)
            - _log(p_death)
            + math.log(len(prunable))
            - math.log(leaves_after * num_features * menu_size)
        )
        proposed = DecisionTree(new_root, tree.num_classes, tree.min_leaf)
        return Proposal(kind, proposed, log_ratio, True)

    if not internals:
        return Proposal(kind, None, -math.inf, False)
    node = internals[rng.integers(len(internals))]

    # change_rule keeps the feature and redraws the threshold only
    new_feature = int(rng.integers(num_features)) if kind == "change_variable" else node.feature
    menu = _split_menu(data, node.indices, new_feature)
    if menu.size == 0:
        return Proposal(kind, None, -math.inf, False)
    log_ratio = 0.0
    if kind == "change_variable":
        old_menu_size, _ = _rule_terms(node, data)
        if old_menu_size < 1:
            return Proposal(kind, None, -math.inf, False)
        log_ratio = math.log(menu.size) - math.log(old_menu_size)
    new_threshold = float(menu[rng.integers(menu.size)])

    indices = node.indices
    goes_left = data.features[indices, new_feature] <= new_threshold
    rebuilt = TreeNode(
        node.counts,
        feature=new_feature,
        threshold=new_threshold,
        left=_rebuild_subtree(node.left, data, indices[goes_left], keep_unchanged=True),
        right=_rebuild_subtree(node.right, data, indices[~goes_left], keep_unchanged=True),
        indices=indices,
    )
    rebuilt.cache = (data, menu.size, math.log(data.m * menu.size))
    new_root = _copy_replace(root, node, rebuilt)
    proposed = DecisionTree(new_root, tree.num_classes, tree.min_leaf)
    return Proposal(kind, proposed, log_ratio, True)


def _transition(tree, log_lik, log_pri, data, config, rng, loglik_fn):
    """One MH step from a state with cached log likelihood/prior."""
    proposal = propose_move(tree, data, config.move_probs, rng)
    if not proposal.feasible:
        return tree, log_lik, log_pri, False
    u = rng.random()
    new_pri = _log_prior_cached(proposal.tree, config.max_leaves, data)
    if new_pri == -math.inf:
        return tree, log_lik, log_pri, False
    new_lik = loglik_fn(proposal.tree, data, config.dirichlet_alpha)
    log_accept = (new_lik - log_lik) + (new_pri - log_pri) + proposal.log_ratio
    if _log(u) < log_accept:
        return proposal.tree, new_lik, new_pri, True
    return tree, log_lik, log_pri, False


def sample_prior_tree(data: Dataset, k_max: int, seed) -> DecisionTree:
    """Random initial tree: grow from a single leaf to a uniform leaf count.

    Each growth step splits a uniform leaf on a uniform feature and a uniform
    menu threshold; growth stops early if no leaf can be split.
    """
    rng = np.random.default_rng(seed)
    target_leaves = int(rng.integers(1, k_max + 1))
    root = _leaf(data.class_counts(), np.arange(data.n), data)
    leaves = [root]  # in preorder: a grown leaf's children take its place
    attempts = 0
    while len(leaves) < target_leaves and attempts < 20 * k_max:
        attempts += 1
        position, grown, _ = _grow_leaf(leaves, data, rng)
        if grown is None:
            continue
        root = _copy_replace(root, leaves[position], grown)
        leaves[position : position + 1] = [grown.left, grown.right]
    return DecisionTree(root, data.num_classes)


def run_chain(
    data: Dataset,
    config: McmcConfig,
    restart_index: int = 0,
    seed=None,
    loglik_fn=None,
    trace=None,
) -> list[ChainSample]:
    """One restart: burn in, then retain every thinning-th post-burn-in state.

    ``loglik_fn`` is a diagnostics hook replacing the marginal likelihood
    (e.g. a constant function turns the chain into a prior sampler). ``trace``
    is an optional writable text stream receiving one line per retained
    sample: restart, step, leaf count, log posterior.
    """
    if data.n < 1:
        raise ValueError("cannot run a chain on an empty dataset")
    rng = np.random.default_rng(seed)
    loglik = loglik_fn if loglik_fn is not None else log_marginal_likelihood
    tree = sample_prior_tree(data, config.max_leaves, rng)
    log_lik = loglik(tree, data, config.dirichlet_alpha)
    log_pri = _log_prior_cached(tree, config.max_leaves, data)

    for _ in range(config.burn_in):
        tree, log_lik, log_pri, _ = _transition(tree, log_lik, log_pri, data, config, rng, loglik)

    samples: list[ChainSample] = []
    for step in range(1, config.post_burn_in + 1):
        tree, log_lik, log_pri, _ = _transition(tree, log_lik, log_pri, data, config, rng, loglik)
        if (step - 1) % config.thinning == 0:
            samples.append(ChainSample(tree=tree, restart_index=restart_index, step_index=step))
            if trace is not None:
                trace.write(
                    f"{restart_index} {step} {tree_size(tree)} {log_lik + log_pri:.6f}\n"
                )
    return samples


def run_with_restarts(
    data: Dataset, config: McmcConfig, loglik_fn=None, trace_path=None
) -> PosteriorEnsemble:
    """Pool retained samples from config.restarts independent chains.

    Chain seeds derive from config.seed as SeedSequence((seed, restart)), so
    the pooled ensemble does not depend on execution order.
    """
    trace = open(trace_path, "w", encoding="utf-8") if trace_path is not None else None
    try:
        samples: list[ChainSample] = []
        for restart in range(config.restarts):
            samples.extend(
                run_chain(
                    data,
                    config,
                    restart_index=restart,
                    seed=np.random.SeedSequence((config.seed, restart)),
                    loglik_fn=loglik_fn,
                    trace=trace,
                )
            )
    finally:
        if trace is not None:
            trace.close()
    return PosteriorEnsemble(samples=tuple(samples))


def bayes_predictive_matrix(
    ens: PosteriorEnsemble, features: np.ndarray, mode: str = "average", alpha: float = 1.0
) -> np.ndarray:
    """Posterior class probabilities for each feature row, (n, C).

    The retained samples scored by ``ensemble_posterior_matrix``: every
    sample counts once, so a tree kept over several steps weighs more.
    """
    return ensemble_posterior_matrix([s.tree for s in ens.samples], features, mode, alpha)


def ensemble_mean_size(ens: PosteriorEnsemble) -> tuple[float, float]:
    """Sample mean and sample standard deviation of the leaf counts."""
    if ens.n < 1:
        raise ValueError("posterior ensemble is empty")
    sizes = np.array([tree_size(sample.tree) for sample in ens.samples], dtype=np.float64)
    std = float(sizes.std(ddof=1)) if sizes.size > 1 else 0.0
    return float(sizes.mean()), std
