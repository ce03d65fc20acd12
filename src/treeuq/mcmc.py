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
counts with the split-choice probability. Every move picks one node, builds
its replacement and path-copies the route from it to the root. A birth or a
change draws a rule from the node's menu, and one split builder routes the
node's rows and rebuilds both children from templates: the leaf itself for
a birth, the old children for a change.

A change move checks the support while it re-routes the rows below the
changed node: it stops at the first rebuilt node whose threshold is off its
new menu (a node the move empties always lies below one), and the proposal
then carries no tree (``tree is None``). Such a proposal is still feasible
and is rejected like any proposal outside the support. Births and deaths
cannot empty a leaf or push a threshold off its menu. One helper,
``_menu``, gives a node's menu both to a draw and to the support check: the
node's rows mark their ranks in a mask over ``Dataset.rank_table``, so no
menu is sorted, and every threshold is one of the node's own values (a
Dataset holds no -0.0, so a zero threshold is 0.0). A node with no rows has
an empty menu (size 0).

Cache invariant: a builder sets a node's ``cache`` slot once, when it makes
the node, and nothing writes to the node afterwards. The slot holds the
Dataset the node is built on, and for an internal node the terms derived
from its own fields and that Dataset: ``(data, menu size, log(m * menu
size))``, with ``None`` for the log term when its threshold is off its
menu. A leaf keeps ``(data,)`` alone; the likelihood scores all leaf counts
of a tree in one batch, as integer rows, with the one likelihood body that
``dirichlet_multinomial_log_marginal`` calls on float rows (a whole number
below 2**53 converts to float exactly, so both give the same bits). A
tree's nodes are all built on one Dataset, so the root's Dataset is the
whole tree's. ``_ensure_cached`` is the only place that checks it: the
public entry points use a tree as it is when its root is cached for the
Dataset they are given, and otherwise re-route that Dataset through a copy
first; every tree a chain builds has such a root, so a chain never
re-routes. A node's structure, counts and ``indices`` never change, so a
term computed once stays exact, and path copies of an unchanged node carry
it. The prior of a tree is the cached terms summed in preorder with the
same float operations a from-scratch evaluation uses, so it is
bit-identical to it; a move therefore only pays for the nodes it creates
and for one batch of leaf terms.

The invariant also makes a tree's walk lists a function of its root object,
so ``_parts`` memoises the walks of the last two roots: a step asks for its
state, twice for its proposal (prior, likelihood), and the next step for
whichever of the two it kept, so a chain walks each tree it builds once.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _require_int, _require_ints
from .ensemble import ensemble_posterior_matrix
from .tree import DecisionTree, TreeNode, _check_rule, walk

# Not used in this module: the benchmark's tracer (perfbench/tracing.py)
# wraps this module's binding by name and reports a missing one.
from .ensemble import leaf_posterior_matrix  # noqa: F401

__all__ = [
    "ChainSample",
    "McmcConfig",
    "PosteriorEnsemble",
    "Proposal",
    "bayes_predictive_matrix",
    "dirichlet_multinomial_log_marginal",
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
    The seed is an argument of run_chain and run_with_restarts.
    """

    restarts: int = 50
    burn_in: int = 2000
    post_burn_in: int = 2000
    move_probs: tuple[float, float, float, float] = (0.1, 0.1, 0.1, 0.7)
    max_leaves: int = 50
    thinning: int = 1
    dirichlet_alpha: float = 1.0

    def __post_init__(self) -> None:
        _require_ints(self, ("restarts", "burn_in", "post_burn_in", "max_leaves", "thinning"))
        if len(self.move_probs) != len(MOVE_KINDS):
            raise ValueError(f"need one move probability per kind {MOVE_KINDS}, got {self.move_probs}")
        if not all(math.isfinite(p) for p in self.move_probs):
            raise ValueError(f"move probabilities must be finite, got {self.move_probs}")
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
        if not 0 < self.dirichlet_alpha < math.inf:  # NaN fails both comparisons
            raise ValueError(f"need finite dirichlet_alpha > 0, got {self.dirichlet_alpha}")


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
    """A proposed transition; infeasible proposals count as rejected steps.

    ``tree`` is None when the proposal is infeasible, and when a feasible
    change move left the prior's support (its rebuild stopped there); the
    caller rejects that like any proposal with a zero prior.
    """

    kind: str
    tree: DecisionTree | None
    log_ratio: float
    feasible: bool


# what propose_move returns for a move the tree cannot make, one per kind
_INFEASIBLE = {kind: Proposal(kind, None, -math.inf, False) for kind in MOVE_KINDS}


def dirichlet_multinomial_log_marginal(counts, alpha: float) -> float:
    """Log marginal likelihood of class-count rows under Dirichlet(alpha) rates.

    Each row contributes log[Gamma(C*a)/Gamma(n+C*a) * prod_c Gamma(n_c+a)/Gamma(a)];
    an all-zero row contributes exactly 0. The terms are summed left to right
    with ``math.lgamma``, so values agree with scipy's ``gammaln`` to a few
    ulps, not bit for bit. Counts must form rows of at least one class
    column and be finite whole numbers >= 0; other counts, and an alpha
    that is not finite and > 0, raise ValueError before any term is summed.
    """
    counts = np.atleast_2d(np.asarray(counts, dtype=np.float64))
    if counts.ndim != 2 or counts.shape[1] == 0:
        raise ValueError(f"counts must be rows of at least one class column, got shape {counts.shape}")
    wrong = ~np.isfinite(counts) | (counts < 0) | (counts != np.floor(counts))
    if wrong.any():
        raise ValueError(f"counts must be finite whole numbers >= 0, got {counts[wrong][0]:g}")
    return _log_marginal(counts.tolist(), counts.shape[1], alpha)


def _log_marginal(rows, num_classes: int, alpha: float) -> float:
    """The likelihood body over rows of whole-number counts, int or float alike."""
    if not 0 < alpha < math.inf:  # NaN fails both comparisons
        raise ValueError(f"need finite alpha > 0, got {alpha}")
    concentration = num_classes * alpha
    lgamma_concentration = math.lgamma(concentration)
    lgamma_alpha = math.lgamma(alpha)
    total = 0.0
    for row in rows:
        total += lgamma_concentration - math.lgamma(sum(row) + concentration)
        for count in row:
            total += math.lgamma(count + alpha) - lgamma_alpha
    return total


def refresh_counts(tree: DecisionTree, data: Dataset) -> DecisionTree:
    """Re-route the training data through the tree, rebuilding counts/indices.

    Every rebuilt node is cached for data, so the copy is trusted as it is. A
    split on a column that data lacks, or at a non-finite threshold, raises
    ValueError.
    """
    return DecisionTree(_rebuild_subtree(tree.root, data, np.arange(data.n)))


def _ensure_cached(tree: DecisionTree, data: Dataset) -> DecisionTree:
    """The tree if the sampler built it on data, else a copy re-routed through data."""
    cache = tree.root.cache
    return tree if cache is not None and cache[0] is data else refresh_counts(tree, data)


def _leaf(counts, indices: np.ndarray, data: Dataset) -> TreeNode:
    """A leaf holding the given rows of data, cached as ``(data,)``.

    A root can be a leaf, and ``_ensure_cached`` reads the root's Dataset.
    """
    leaf = TreeNode(counts, indices=indices)
    leaf.cache = (data,)
    return leaf


def _menu(data: Dataset, indices: np.ndarray, feature: int) -> np.ndarray:
    """A node's split menu: its distinct values of feature, ascending, without the maximum.

    A threshold equal to the maximum would route every row left. The rows
    mark their ranks in a mask over ``Dataset.rank_table``, so nothing is
    sorted; a Dataset stores -0.0 as 0.0, so the menu holds no -0.0.
    """
    values, ranks = data.rank_table
    present = np.zeros(values[feature].size, dtype=bool)
    present[ranks[feature][indices]] = True
    return values[feature][present][:-1]


def _log_catalan(j: int) -> float:
    """log of the j-th Catalan number (number of shapes with j+1 leaves)."""
    return math.lgamma(2 * j + 1) - 2.0 * math.lgamma(j + 1) - math.log(j + 1)


def _rule_cache(data: Dataset, indices: np.ndarray, feature: int, threshold: float) -> tuple:
    """Cache entry (data, menu size, log(m * menu size)) of a rule at a node.

    The log term is None when the threshold is not on the node's own menu.
    """
    menu = _menu(data, indices, feature)
    i = menu.searchsorted(threshold)
    on_menu = i < menu.size and menu[i] == threshold
    return data, menu.size, math.log(data.m * menu.size) if on_menu else None


@functools.lru_cache(maxsize=2)
def _parts(root: TreeNode) -> tuple[list[TreeNode], list[TreeNode], list[TreeNode]]:
    """walk(root), memoised for the last two roots; the lists are read only."""
    return walk(root)


def log_marginal_likelihood(tree: DecisionTree, data: Dataset, alpha: float = 1.0) -> float:
    """Dirichlet-multinomial log marginal likelihood of the tree's partition."""
    leaves, _, _ = _parts(_ensure_cached(tree, data).root)
    return _log_marginal([leaf.counts.tolist() for leaf in leaves], data.num_classes, alpha)


def log_prior(tree: DecisionTree, k_max: int, data: Dataset) -> float:
    """Log prior of the tree; -inf outside the support.

    Support requires: leaf count <= k_max, no empty leaf, and every internal
    node's threshold taken from its own split menu. An empty leaf needs no
    scan: the split above it has no rows (menu size 0) or sends them all one
    way, and neither threshold is on its node's menu.
    """
    _require_int("k_max", k_max)
    leaves, internals, _ = _parts(_ensure_cached(tree, data).root)
    if len(leaves) > k_max:
        return -math.inf
    log_rules = 0.0
    for node in internals:
        term = node.cache[2]
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
    left = _copy_replace(node.left, target, replacement)
    right = node.right if left is not None else _copy_replace(node.right, target, replacement)
    if right is None:
        return None
    copy = TreeNode(node.counts, node.feature, node.threshold, left or node.left, right, node.indices)
    copy.cache = node.cache
    return copy


def _rebuild_subtree(
    node: TreeNode, data: Dataset, indices: np.ndarray, keep_unchanged: bool = False
) -> TreeNode | None:
    """Same structure and rules as node, data re-routed from indices down.

    Every rebuilt node is cached for data. With keep_unchanged, a subtree
    whose node already holds exactly these rows is kept as it is, cached
    terms included, and the rebuild returns None at the first rebuilt node
    whose threshold is off its own menu. An on-menu threshold sends rows
    both ways, so a node that a move empties always lies below such a node.
    Both index arrays are the sampler's intp rows, so equal bytes are equal rows.
    """
    if keep_unchanged and node.indices.size == indices.size and node.indices.tobytes() == indices.tobytes():
        return node
    counts = np.bincount(data.labels[indices], minlength=data.num_classes)
    if node.is_leaf:
        return _leaf(counts, indices, data)
    _check_rule(node.feature, node.threshold, data.m)
    cache = _rule_cache(data, indices, node.feature, node.threshold)
    if keep_unchanged and cache[2] is None:
        return None
    return _build_split(
        counts, indices, node.feature, node.threshold, cache, node.left, node.right, data, keep_unchanged
    )


def _build_split(counts, indices, feature, threshold, cache, left, right, data, keep_unchanged):
    """A new internal node over indices whose children rebuild the two templates.

    The rule routes the rows, and each side is rebuilt from its template by
    _rebuild_subtree; returns None when either rebuild stops. cache is the
    node's rule entry, taken as it is.
    """
    goes_left = data.features[:, feature][indices] <= threshold
    new_left = _rebuild_subtree(left, data, indices[goes_left], keep_unchanged)
    new_right = new_left and _rebuild_subtree(right, data, indices[~goes_left], keep_unchanged)
    if new_right is None:
        return None
    node = TreeNode(counts, feature, threshold, new_left, new_right, indices)
    node.cache = cache
    return node


def _draw_split(node: TreeNode, feature: int, data: Dataset, rng) -> tuple[TreeNode | None, int]:
    """Put a uniform menu threshold of feature at node, over the node's rows.

    A leaf is split with itself as both templates (a birth; its rows go both
    ways, so it is never kept); an internal node keeps its children as
    templates, and every subtree whose rows the new rule leaves alone (a
    change). Returns (new node, menu size); the node is None when the menu
    is empty (size 0) or when a change left the support.
    """
    menu = _menu(data, node.indices, feature)
    if menu.size == 0:
        return None, 0
    threshold = float(menu[rng.integers(menu.size)])
    cache = (data, menu.size, math.log(data.m * menu.size))
    left, right = (node, node) if node.is_leaf else (node.left, node.right)
    built = _build_split(node.counts, node.indices, feature, threshold, cache, left, right, data, True)
    return built, menu.size


def _log(x: float) -> float:
    return math.log(x) if x > 0 else -math.inf


def propose_move(tree: DecisionTree, data: Dataset, move_probs, seed) -> Proposal:
    """Draw a move kind from move_probs and propose the corresponding jump.

    The log_ratio field is log q(proposed -> current) - log q(current ->
    proposed); for births and deaths it combines the leaf/prunable-node
    counts with the split-choice probability so the pair is reversible.
    Structurally impossible moves return feasible=False (the caller treats
    them as rejected steps). A change move whose rebuild leaves the prior's
    support returns feasible=True with no tree and a -inf log_ratio.
    """
    tree = _ensure_cached(tree, data)
    rng = np.random.default_rng(seed)
    p_birth, p_death, _, _ = move_probs
    # the kind's index is the number of cumulative probabilities at or below r
    kind = MOVE_KINDS[bisect.bisect_right(list(itertools.accumulate(move_probs[:3])), rng.random())]
    leaves, internals, prunable = _parts(tree.root)

    if kind == "birth":
        target = leaves[rng.integers(len(leaves))]
        replacement, menu_size = _draw_split(target, int(rng.integers(data.m)), data, rng)
        if replacement is None:
            return _INFEASIBLE[kind]
        # the grown node becomes prunable; the leaf's parent stops being so
        parent_was_prunable = any(p.left is target or p.right is target for p in prunable)
        log_ratio = (
            _log(p_death)
            - _log(p_birth)
            + math.log(len(leaves) * data.m * menu_size)
            - math.log(len(prunable) + 1 - parent_was_prunable)
        )
    elif kind == "death":
        if not prunable:
            return _INFEASIBLE[kind]
        target = prunable[rng.integers(len(prunable))]
        menu_size = target.cache[1]
        if menu_size < 1:
            return _INFEASIBLE[kind]
        replacement = _leaf(target.counts, target.indices, data)
        log_ratio = (
            _log(p_birth)
            - _log(p_death)
            + math.log(len(prunable))
            - math.log((len(leaves) - 1) * data.m * menu_size)
        )
    else:
        if not internals:
            return _INFEASIBLE[kind]
        target = internals[rng.integers(len(internals))]
        # change_rule keeps the feature and redraws the threshold only
        feature = target.feature
        if kind == "change_variable":
            feature = int(rng.integers(data.m))
            old_menu_size = target.cache[1]
            if old_menu_size < 1:
                return _INFEASIBLE[kind]
        replacement, menu_size = _draw_split(target, feature, data, rng)
        if menu_size == 0:
            return _INFEASIBLE[kind]
        if replacement is None:  # the rebuild left the prior's support
            return Proposal(kind, None, -math.inf, True)
        log_ratio = math.log(menu_size) - math.log(old_menu_size) if kind == "change_variable" else 0.0

    new_root = _copy_replace(tree.root, target, replacement)
    return Proposal(kind, DecisionTree(new_root), log_ratio, True)


def _transition(tree, log_lik, log_pri, data, config, rng, loglik_fn):
    """One MH step from the state (tree, log likelihood, log prior); returns the next state."""
    state = tree, log_lik, log_pri
    proposal = propose_move(tree, data, config.move_probs, rng)
    if not proposal.feasible:
        return state
    u = rng.random()  # drawn for every feasible proposal, in the support or not
    if proposal.tree is None:
        return state
    new_pri = log_prior(proposal.tree, config.max_leaves, data)
    if new_pri == -math.inf:
        return state
    new_lik = loglik_fn(proposal.tree, data, config.dirichlet_alpha)
    log_accept = (new_lik - log_lik) + (new_pri - log_pri) + proposal.log_ratio
    return (proposal.tree, new_lik, new_pri) if _log(u) < log_accept else state


def sample_prior_tree(data: Dataset, k_max: int, seed) -> DecisionTree:
    """Random initial tree: grow from a single leaf to a uniform leaf count.

    Each growth step splits a uniform leaf on a uniform feature and a uniform
    menu threshold; growth stops early if no leaf can be split.
    """
    _require_int("k_max", k_max)
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    rng = np.random.default_rng(seed)
    target_leaves = int(rng.integers(1, k_max + 1))
    root = _leaf(data.class_counts(), np.arange(data.n), data)
    leaves = [root]  # in preorder: a grown leaf's children take its place
    attempts = 0
    while len(leaves) < target_leaves and attempts < 20 * k_max:
        attempts += 1
        position = int(rng.integers(len(leaves)))
        grown, _ = _draw_split(leaves[position], int(rng.integers(data.m)), data, rng)
        if grown is None:
            continue
        root = _copy_replace(root, leaves[position], grown)
        leaves[position : position + 1] = [grown.left, grown.right]
    return DecisionTree(root)


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
    rng = np.random.default_rng(seed)
    loglik = loglik_fn if loglik_fn is not None else log_marginal_likelihood
    tree = sample_prior_tree(data, config.max_leaves, rng)
    log_lik = loglik(tree, data, config.dirichlet_alpha)
    log_pri = log_prior(tree, config.max_leaves, data)

    samples: list[ChainSample] = []
    # burn-in steps are numbered 1 - burn_in .. 0, retained ones 1 .. post_burn_in
    for step in range(1 - config.burn_in, config.post_burn_in + 1):
        tree, log_lik, log_pri = _transition(tree, log_lik, log_pri, data, config, rng, loglik)
        if step > 0 and (step - 1) % config.thinning == 0:
            samples.append(ChainSample(tree=tree, restart_index=restart_index, step_index=step))
            if trace is not None:
                trace.write(
                    f"{restart_index} {step} {len(_parts(tree.root)[0])} {log_lik + log_pri:.6f}\n"
                )
    return samples


def run_with_restarts(data: Dataset, config: McmcConfig, seed=0, trace=None) -> PosteriorEnsemble:
    """Pool retained samples from config.restarts independent chains.

    Chain seeds derive from seed as SeedSequence((seed, restart)), so
    the pooled ensemble does not depend on execution order. ``trace`` is an
    optional writable text stream passed to every ``run_chain``, so it gets
    each restart's lines in restart order; the caller opens and closes it.
    """
    samples: list[ChainSample] = []
    for restart in range(config.restarts):
        samples.extend(
            run_chain(
                data,
                config,
                restart_index=restart,
                seed=np.random.SeedSequence((seed, restart)),
                trace=trace,
            )
        )
    return PosteriorEnsemble(samples=tuple(samples))


def bayes_predictive_matrix(
    ens: PosteriorEnsemble, features: np.ndarray, mode: str = "average", alpha: float = 1.0
) -> np.ndarray:
    """Posterior class probabilities for each feature row, (n, C).

    The retained samples scored by ``ensemble_posterior_matrix``: every
    sample counts once, so a tree kept over several steps weighs more.
    """
    return ensemble_posterior_matrix([s.tree for s in ens.samples], features, mode, alpha)
