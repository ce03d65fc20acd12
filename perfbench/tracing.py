"""In-memory span tracing around the public functions of each treeuq module.

``Tracer`` replaces each name in ``WRAPPED`` with a wrapper that records one
span (request, name, parent span, start, end) and restores every original on
exit. Each name is wrapped in the namespace where its caller looks it up, so
``from .x import f`` bindings are traced too; the program's source is never
edited. Wrappers only read arguments and results: they draw no random numbers
and change no result, so a traced report is byte-identical to an untraced one.

The layers are the package modules. A span's self time is its duration minus
the durations of its direct children; a layer's self time sums its spans'.
Observations that would cost real time (walking trees, comparing samples) are
queued by the wrappers and done in ``drain``, outside every span.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

LAYERS = ("data", "tree", "ensemble", "mcmc", "envelope", "experiment")
MOVE_KINDS = ("birth", "death", "change_variable", "change_rule")

# (module whose globals the caller uses, attribute path there, span name)
WRAPPED = (
    ("treeuq.experiment", "sample_mixture", "data.sample_mixture"),
    ("treeuq.experiment", "load_csv", "data.load_csv"),
    ("treeuq.experiment", "kfold_split", "data.kfold_split"),
    ("treeuq.data", "Dataset.subset", "data.subset"),
    ("treeuq.experiment", "train_ensemble", "ensemble.train_ensemble"),
    ("treeuq.experiment", "ensemble_posterior_matrix", "ensemble.ensemble_posterior_matrix"),
    ("treeuq.experiment", "best_single_tree", "ensemble.best_single_tree"),
    ("treeuq.experiment", "leaf_posterior_matrix", "tree.leaf_posterior_matrix"),
    ("treeuq.ensemble", "grow_randomized", "tree.grow_randomized"),
    ("treeuq.ensemble", "leaf_posterior_matrix", "tree.leaf_posterior_matrix"),
    ("treeuq.tree", "enumerate_splits", "tree.enumerate_splits"),
    ("treeuq.tree", "top_k_splits", "tree.top_k_splits"),
    ("treeuq.experiment", "run_with_restarts", "mcmc.run_with_restarts"),
    ("treeuq.experiment", "bayes_predictive_matrix", "mcmc.bayes_predictive_matrix"),
    ("treeuq.experiment", "ensemble_mean_size", "mcmc.ensemble_mean_size"),
    ("treeuq.mcmc", "run_chain", "mcmc.run_chain"),
    ("treeuq.mcmc", "sample_prior_tree", "mcmc.sample_prior_tree"),
    ("treeuq.mcmc", "propose_move", "mcmc.propose_move"),
    ("treeuq.mcmc", "log_marginal_likelihood", "mcmc.log_marginal_likelihood"),
    ("treeuq.mcmc", "leaf_posterior_matrix", "tree.leaf_posterior_matrix"),
    ("treeuq.experiment", "envelope_rates", "envelope.envelope_rates"),
    ("treeuq.experiment", "cross_fold_summary", "envelope.cross_fold_summary"),
)
ROOT_SPAN = "experiment.run_experiment"
REPORT_SPAN = "experiment.emit_report"

# Per-layer metrics the traced run reports: name -> (unit, exact). Exact
# metrics derive from counts alone and must repeat exactly at one seed.
METRICS = {
    "mcmc.steps": ("count", True),
    "mcmc.us_per_step": ("us", False),
    "mcmc.propose_move.us_per_call": ("us", False),
    "mcmc.log_marginal_likelihood.us_per_call": ("us", False),
    "mcmc.step_other_us": ("us", False),
    "mcmc.sample_prior_tree.ms_per_call": ("ms", False),
    **{f"mcmc.proposed.{k}": ("count", True) for k in MOVE_KINDS},
    **{f"mcmc.feasible.{k}": ("count", True) for k in MOVE_KINDS},
    "mcmc.feasible_ratio": ("ratio", True),
    "mcmc.accept_ratio_post": ("ratio", True),
    "mcmc.mean_leaves": ("leaves", True),
    "mcmc.distinct_trees": ("count", True),
    "mcmc.retained_index_bytes": ("bytes", True),
    "mcmc.predict_ns_per_tree_row": ("ns", False),
    "mcmc.self_s": ("s", False),
    "tree.enumerate_splits.calls": ("count", True),
    "tree.enumerate_splits.us_per_call": ("us", False),
    "tree.enumerate_splits.candidates": ("count", True),
    "tree.top_k_splits.us_per_call": ("us", False),
    "tree.grow_randomized.calls": ("count", True),
    "tree.grow_randomized.ms_per_tree": ("ms", False),
    "tree.grow_randomized.self_ms_per_tree": ("ms", False),
    "tree.nodes_per_tree": ("nodes", True),
    "tree.leaf_posterior_matrix.ns_per_tree_row": ("ns", False),
    "tree.self_s": ("s", False),
    "ensemble.train_ensemble_s": ("s", False),
    "ensemble.ensemble_posterior_matrix_s": ("s", False),
    "ensemble.best_single_tree_s": ("s", False),
    "ensemble.self_s": ("s", False),
    "envelope.envelope_rates_s": ("s", False),
    "envelope.cross_fold_summary_s": ("s", False),
    "envelope.self_s": ("s", False),
    "data.load_s": ("s", False),
    "data.kfold_split_s": ("s", False),
    "data.subset.calls": ("count", True),
    "data.subset.us_per_call": ("us", False),
    "data.self_s": ("s", False),
    "experiment.self_s": ("s", False),
    "experiment.emit_report_s": ("s", False),
}


def _walk(node):
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if node.left is not None:
            stack.append(node.right)
            stack.append(node.left)


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    """Context manager that traces the WRAPPED functions while it is active."""

    def __init__(self) -> None:
        self.spans: list = []
        self.request = 0
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list = []
        self._chains: list = []
        self._trees: list = []
        self._predictive: list = []
        self._observers = {
            "mcmc.propose_move": self._observe_proposal,
            "mcmc.run_chain": lambda args, result: self._chains.append(result),
            "mcmc.bayes_predictive_matrix": self._observe_predictive,
            "tree.grow_randomized": lambda args, result: self._trees.append(result),
            "tree.enumerate_splits": self._observe_candidates,
            "tree.leaf_posterior_matrix": self._observe_rows,
        }

    def __enter__(self) -> Tracer:
        for module_name, path, span_name in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = getattr(owner, attr, None)
            if original is None:  # reported, so a renamed function leaves the other layers measured
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(span_name, original))
            self._patched.append((owner, attr, original))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def wrap(self, name: str, fn):
        """fn with a span recorded around every call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.request, name, parent, start, end)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_proposal(self, args, proposal) -> None:
        self.counters[f"mcmc.proposed.{proposal.kind}"] += 1
        if proposal.feasible:
            self.counters[f"mcmc.feasible.{proposal.kind}"] += 1

    def _observe_predictive(self, args, result) -> None:
        self._predictive.append((args[0], len(args[1])))

    def _observe_candidates(self, args, candidates) -> None:
        self.counters["tree.candidates"] += len(candidates)

    def _observe_rows(self, args, result) -> None:
        self.counters["tree.leaf_posterior_rows"] += len(result)

    def drain(self) -> None:
        """Count what the queued results show, then drop the references."""
        c = self.counters
        for samples in self._chains:
            pairs = list(zip(samples, samples[1:]))
            c["mcmc.post_transitions"] += len(pairs)
            c["mcmc.accepted_post"] += sum(a.tree is not b.tree for a, b in pairs)
        for tree in self._trees:
            c["tree.nodes"] += sum(1 for _ in _walk(tree.root))
        for ens, rows in self._predictive:
            distinct: dict[int, list] = {}
            for sample in ens.samples:
                distinct.setdefault(id(sample.tree), [sample.tree, 0])[1] += 1
            index_bytes = {}
            for tree, weight in distinct.values():
                leaves = 0
                for node in _walk(tree.root):
                    leaves += node.left is None
                    if node.indices is not None:
                        index_bytes[id(node.indices)] = node.indices.nbytes
                c["mcmc.leaves_x_samples"] += leaves * weight
            c["mcmc.samples"] += ens.n
            c["mcmc.distinct_trees"] += len(distinct)
            c["mcmc.predict_tree_rows"] += len(distinct) * rows
            c["mcmc.retained_index_bytes"] += sum(index_bytes.values())
        self._chains.clear()
        self._trees.clear()
        self._predictive.clear()

    def span_totals(self):
        """Per span name: call count, total ns and self ns; plus the data-load ns.

        A ``data.subset`` call counts as loading when ``run_experiment`` makes
        it before the request's first ``kfold_split``: that is the train/test
        split of a CSV dataset. The per-fold subsets after the split do not.
        """
        spans = self.spans
        children = [0] * len(spans)
        for _, _, parent, start, end in spans:
            if parent >= 0:
                children[parent] += end - start
        calls: Counter = Counter()
        total: defaultdict = defaultdict(int)
        own: defaultdict = defaultdict(int)
        load_subset = 0
        split_requests = set()
        for i, (request, name, parent, start, end) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - children[i]
            if name == "data.kfold_split":
                split_requests.add(request)
            elif (name == "data.subset" and request not in split_requests
                  and parent >= 0 and spans[parent][1] == ROOT_SPAN):
                load_subset += end - start
        return calls, total, own, load_subset

    def metrics(self) -> dict[str, float]:
        """The METRICS values for everything traced so far."""
        self.drain()
        calls, total, own, load_subset = self.span_totals()
        c = self.counters
        steps = calls["mcmc.propose_move"]
        trees = calls["tree.grow_randomized"]
        enum_calls = calls["tree.enumerate_splits"]
        m = {
            "mcmc.steps": steps,
            "mcmc.us_per_step": _per(
                total["mcmc.run_chain"] - total["mcmc.sample_prior_tree"], steps) / 1e3,
            "mcmc.propose_move.us_per_call": _per(total["mcmc.propose_move"], steps) / 1e3,
            "mcmc.log_marginal_likelihood.us_per_call": _per(
                total["mcmc.log_marginal_likelihood"], calls["mcmc.log_marginal_likelihood"]) / 1e3,
            "mcmc.step_other_us": _per(own["mcmc.run_chain"], steps) / 1e3,
            "mcmc.sample_prior_tree.ms_per_call": _per(
                total["mcmc.sample_prior_tree"], calls["mcmc.sample_prior_tree"]) / 1e6,
            **{f"mcmc.proposed.{k}": c[f"mcmc.proposed.{k}"] for k in MOVE_KINDS},
            **{f"mcmc.feasible.{k}": c[f"mcmc.feasible.{k}"] for k in MOVE_KINDS},
            "mcmc.feasible_ratio": _per(
                sum(c[f"mcmc.feasible.{k}"] for k in MOVE_KINDS), steps),
            "mcmc.accept_ratio_post": _per(c["mcmc.accepted_post"], c["mcmc.post_transitions"]),
            "mcmc.mean_leaves": _per(c["mcmc.leaves_x_samples"], c["mcmc.samples"]),
            "mcmc.distinct_trees": c["mcmc.distinct_trees"],
            "mcmc.retained_index_bytes": c["mcmc.retained_index_bytes"],
            "mcmc.predict_ns_per_tree_row": _per(
                total["mcmc.bayes_predictive_matrix"], c["mcmc.predict_tree_rows"]),
            "tree.enumerate_splits.calls": enum_calls,
            "tree.enumerate_splits.us_per_call": _per(total["tree.enumerate_splits"], enum_calls) / 1e3,
            "tree.enumerate_splits.candidates": c["tree.candidates"],
            "tree.top_k_splits.us_per_call": _per(
                total["tree.top_k_splits"], calls["tree.top_k_splits"]) / 1e3,
            "tree.grow_randomized.calls": trees,
            "tree.grow_randomized.ms_per_tree": _per(total["tree.grow_randomized"], trees) / 1e6,
            "tree.grow_randomized.self_ms_per_tree": _per(own["tree.grow_randomized"], trees) / 1e6,
            "tree.nodes_per_tree": _per(c["tree.nodes"], trees),
            "tree.leaf_posterior_matrix.ns_per_tree_row": _per(
                total["tree.leaf_posterior_matrix"], c["tree.leaf_posterior_rows"]),
            "ensemble.train_ensemble_s": total["ensemble.train_ensemble"] / 1e9,
            "ensemble.ensemble_posterior_matrix_s": total["ensemble.ensemble_posterior_matrix"] / 1e9,
            "ensemble.best_single_tree_s": total["ensemble.best_single_tree"] / 1e9,
            "envelope.envelope_rates_s": total["envelope.envelope_rates"] / 1e9,
            "envelope.cross_fold_summary_s": total["envelope.cross_fold_summary"] / 1e9,
            "data.load_s": (total["data.sample_mixture"] + total["data.load_csv"] + load_subset) / 1e9,
            "data.kfold_split_s": total["data.kfold_split"] / 1e9,
            "data.subset.calls": calls["data.subset"],
            "data.subset.us_per_call": _per(total["data.subset"], calls["data.subset"]) / 1e3,
            "experiment.self_s": own[ROOT_SPAN] / 1e9,
            "experiment.emit_report_s": total[REPORT_SPAN] / 1e9,
        }
        for layer in LAYERS[:-1]:
            m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.startswith(layer + ".")) / 1e9
        return m

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON array per line, after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["request", "name", "parent", "start_ns", "end_ns"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
