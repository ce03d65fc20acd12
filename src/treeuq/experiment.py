"""End-to-end experiment driver: load data, run techniques, report tables.

The randomised technique runs under k-fold cross-validation of the training
data (each round trains on k-1 folds, selects the best single tree on the
held-out fold, and evaluates on the shared test set); the Bayesian technique
runs once on the full training set. A report row carries the mean tree size,
the classification performance, and the three envelope rates, with 2-sigma
widths across folds where folds exist.

Configs are flat INI files with [experiment], [randomized] and [mcmc]
sections; every reported number is a deterministic function of (config,
seed).
"""

from __future__ import annotations

import configparser
import io
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, kfold_split, load_csv, make_benchmark_mixture, sample_mixture
from .ensemble import (
    EnsembleConfig,
    best_single_tree,
    ensemble_mean_size,
    ensemble_posterior_matrix,
    leaf_posterior_matrix,
    train_ensemble,
)
from .envelope import EnvelopeSummary, _column_argmax, cross_fold_summary, envelope_rates, p_min
from .mcmc import McmcConfig, bayes_predictive_matrix, run_with_restarts
from .tree import DecisionTree

__all__ = [
    "BayesianResult",
    "ExperimentConfig",
    "ExperimentError",
    "ExperimentReport",
    "FoldResult",
    "PRESETS",
    "RandomizedResult",
    "apply_preset",
    "emit_report",
    "load_config",
    "parse_config",
    "render_config",
    "run_experiment",
]


class ExperimentError(ValueError):
    """Raised for invalid or inconsistent experiment configurations."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment; each setting is one INI key.

    ``seed`` is the master seed: ``run_experiment`` derives from it the seeds
    it passes to ``train_ensemble`` and ``run_with_restarts``.
    """

    dataset: str = "synthetic"
    csv_path: str | None = None
    label_column: str = "class"
    train_count: int = 250
    test_count: int = 1000
    technique: str = "both"
    folds: int = 5
    p0: float = 0.99
    envelope_mode: str = "vote"
    seed: int = 1
    randomized: EnsembleConfig = field(default_factory=EnsembleConfig)
    mcmc: McmcConfig = field(default_factory=McmcConfig)

    def __post_init__(self) -> None:
        if self.dataset not in ("synthetic", "csv"):
            raise ExperimentError(f"dataset must be 'synthetic' or 'csv', got {self.dataset!r}")
        if self.dataset == "csv" and not self.csv_path:
            raise ExperimentError("csv dataset needs csv_path")
        if self.technique not in ("randomized", "bayesian", "both"):
            raise ExperimentError(f"unknown technique {self.technique!r}")
        if self.technique in ("randomized", "both") and self.folds < 2:
            raise ExperimentError("randomized technique needs at least 2 folds")
        if self.envelope_mode not in ("vote", "average"):
            raise ExperimentError(f"unknown envelope mode {self.envelope_mode!r}")
        if self.train_count < 1 or self.test_count < 1:
            raise ExperimentError("train_count and test_count must be positive")
        if self.technique in ("randomized", "both") and self.folds > self.train_count:
            raise ExperimentError(f"folds = {self.folds} exceeds train_count = {self.train_count}")
        if not 0.0 < self.p0 <= 1.0:
            raise ExperimentError(f"p0 must lie in (0, 1], got {self.p0}")
        if self.seed < 0:
            raise ExperimentError(f"seed must be >= 0, got {self.seed}")


# INI key -> (section, config field, parser). [experiment] keys set fields of
# ExperimentConfig, [randomized] and [mcmc] keys fields of the sub-config of
# that name; (field, i) is entry i of a tuple field. Defaults live only on the
# config dataclasses, and render_config writes the keys in this order.
_KEYS = {
    "dataset": ("experiment", "dataset", str),
    "csv_path": ("experiment", "csv_path", str),
    "label_column": ("experiment", "label_column", str),
    "train_count": ("experiment", "train_count", int),
    "test_count": ("experiment", "test_count", int),
    "technique": ("experiment", "technique", str),
    "folds": ("experiment", "folds", int),
    "p0": ("experiment", "p0", float),
    "envelope_mode": ("experiment", "envelope_mode", str),
    "seed": ("experiment", "seed", int),
    "n_trees": ("randomized", "n_trees", int),
    "min_leaf": ("randomized", "min_leaf", int),
    "top_k": ("randomized", "top_k", int),
    "restarts": ("mcmc", "restarts", int),
    "burn_in": ("mcmc", "burn_in", int),
    "post_burn_in": ("mcmc", "post_burn_in", int),
    "birth": ("mcmc", ("move_probs", 0), float),
    "death": ("mcmc", ("move_probs", 1), float),
    "change_variable": ("mcmc", ("move_probs", 2), float),
    "change_rule": ("mcmc", ("move_probs", 3), float),
    "max_leaves": ("mcmc", "max_leaves", int),
    "thinning": ("mcmc", "thinning", int),
    "alpha": ("mcmc", "dirichlet_alpha", float),
}

# preset name -> {INI key: value}
PRESETS = {
    "desk": {"restarts": 10, "burn_in": 500, "post_burn_in": 500, "n_trees": 50},
    "paper": {"restarts": 50, "burn_in": 2000, "post_burn_in": 2000, "n_trees": 200},
}


def _get(config: ExperimentConfig, key: str):
    section, field, _ = _KEYS[key]
    name, index = field if isinstance(field, tuple) else (field, None)
    value = getattr(config if section == "experiment" else getattr(config, section), name)
    return value if index is None else value[index]


def _with_values(config: ExperimentConfig, values: dict[str, object]) -> ExperimentConfig:
    """config with each INI key of values set to its value."""
    fields: dict[str, dict[str, object]] = {section: {} for section, _, _ in _KEYS.values()}
    for key, (section, field, _) in _KEYS.items():
        value = values[key] if key in values else _get(config, key)
        if isinstance(field, tuple):  # a tuple's entries come in index order
            fields[section][field[0]] = fields[section].get(field[0], ()) + (value,)
        else:
            fields[section][field] = value
    return replace(
        config,
        **fields["experiment"],
        randomized=replace(config.randomized, **fields["randomized"]),
        mcmc=replace(config.mcmc, **fields["mcmc"]),
    )


def apply_preset(config: ExperimentConfig, preset: str) -> ExperimentConfig:
    """Scale the run sizes; 'desk' is CI-sized, 'paper' the full protocol."""
    try:
        values = PRESETS[preset]
    except KeyError:
        raise ExperimentError(f"unknown preset {preset!r}; known: {', '.join(sorted(PRESETS))}") from None
    return _with_values(config, values)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the INI config format; a missing or blank key keeps its default.

    An unknown section or key is an error, so a misspelt key cannot leave its
    default in force without a word.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ExperimentError(f"bad config: {exc}") from None
    if parser.defaults():  # configparser would copy these keys into every section
        raise ExperimentError(f"unknown config section [{parser.default_section}]")
    values = {}
    for section in parser.sections():
        known = [key for key, (where, _, _) in _KEYS.items() if where == section]
        if not known:
            raise ExperimentError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in known:
                raise ExperimentError(f"unknown config key [{section}] {key}; known: {', '.join(known)}")
            raw = raw.strip()
            if raw == "":
                continue
            try:
                values[key] = _KEYS[key][2](raw)
            except ValueError:
                raise ExperimentError(f"bad config value [{section}] {key} = {raw!r}") from None
    try:
        return _with_values(ExperimentConfig(), values)
    except ValueError as exc:
        raise ExperimentError(str(exc)) from None


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def render_config(config: ExperimentConfig) -> str:
    """The config as INI text with every value resolved; None renders blank."""
    parser = configparser.ConfigParser(interpolation=None)
    for key, (section, _, _) in _KEYS.items():
        if not parser.has_section(section):
            parser.add_section(section)
        value = _get(config, key)
        parser.set(section, key, "" if value is None else str(value))
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


@dataclass(frozen=True)
class FoldResult:
    best_tree_test_accuracy: float
    envelope: EnvelopeSummary


@dataclass(frozen=True)
class RandomizedResult:
    best_single_accuracy: float
    best_single_2sigma: float
    size_mean: float
    size_std: float
    envelope: EnvelopeSummary
    folds: tuple[FoldResult, ...]


@dataclass(frozen=True)
class BayesianResult:
    size_mean: float
    size_std: float
    envelope: EnvelopeSummary
    n_samples: int


@dataclass(frozen=True)
class ExperimentReport:
    dataset_name: str
    randomized: RandomizedResult | None
    bayesian: BayesianResult | None
    runtime_seconds: dict[str, float]


def _load_experiment_data(config: ExperimentConfig) -> tuple[str, Dataset, Dataset]:
    """Resolve (name, train, test) from the config; seeded and deterministic."""
    if config.dataset == "synthetic":
        spec = make_benchmark_mixture()
        train = sample_mixture(spec, config.train_count, np.random.SeedSequence((config.seed, 0)))
        test = sample_mixture(spec, config.test_count, np.random.SeedSequence((config.seed, 1)))
        return "synthetic", train, test
    full = load_csv(config.csv_path, config.label_column)
    if config.train_count + config.test_count > full.n:
        raise ExperimentError(
            f"train {config.train_count} + test {config.test_count} exceeds {full.n} rows"
        )
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    perm = rng.permutation(full.n)
    train = full.subset(perm[: config.train_count])
    test = full.subset(perm[config.train_count : config.train_count + config.test_count])
    name = os.path.splitext(os.path.basename(config.csv_path))[0]
    return name, train, test


def _run_randomized(config: ExperimentConfig, train: Dataset, test: Dataset) -> RandomizedResult:
    folds = kfold_split(train.n, config.folds, np.random.SeedSequence((config.seed, 2)))
    fold_results: list[FoldResult] = []
    all_trees: list[DecisionTree] = []
    for f in range(config.folds):
        seed = int(np.random.SeedSequence((config.seed, 3, f)).generate_state(1)[0])
        trees = train_ensemble(train.subset(np.flatnonzero(folds != f)), config.randomized, seed)
        validation = train.subset(np.flatnonzero(folds == f))

        posteriors = ensemble_posterior_matrix(trees, test.features, mode=config.envelope_mode)
        best_idx, _ = best_single_tree(trees, validation)
        best_tree_predicted, _ = _column_argmax(leaf_posterior_matrix(trees[best_idx], test.features))
        all_trees.extend(trees)
        fold_results.append(
            FoldResult(
                best_tree_test_accuracy=float(np.mean(best_tree_predicted == test.labels)),
                envelope=envelope_rates(posteriors, test.labels, config.p0),
            )
        )

    best_accs = np.array([fr.best_tree_test_accuracy for fr in fold_results])
    size_mean, size_std = ensemble_mean_size(all_trees)
    return RandomizedResult(
        best_single_accuracy=float(best_accs.mean()),
        best_single_2sigma=float(2.0 * best_accs.std(ddof=1)),
        size_mean=size_mean,
        size_std=size_std,
        envelope=cross_fold_summary(fr.envelope for fr in fold_results),
        folds=tuple(fold_results),
    )


def _run_bayesian(config: ExperimentConfig, train: Dataset, test: Dataset, trace) -> BayesianResult:
    seed = int(np.random.SeedSequence((config.seed, 4)).generate_state(1)[0])
    ens = run_with_restarts(train, config.mcmc, seed, trace=trace)
    posteriors = bayes_predictive_matrix(
        ens, test.features, mode=config.envelope_mode, alpha=config.mcmc.dirichlet_alpha
    )
    size_mean, size_std = ensemble_mean_size([s.tree for s in ens.samples])
    return BayesianResult(
        size_mean=size_mean,
        size_std=size_std,
        envelope=envelope_rates(posteriors, test.labels, config.p0),
        n_samples=ens.n,
    )


def run_experiment(config: ExperimentConfig, mcmc_trace_path=None) -> ExperimentReport:
    """Run the configured techniques and assemble the report.

    Every number in the report is determined by (config, config.seed); wall
    times live only in runtime_seconds and never reach emitted reports. The
    chains' trace goes to mcmc_trace_path, which is opened only when the
    Bayesian technique runs, and then before either technique starts, so a
    path that cannot be written fails before any tree is grown.
    """
    dataset_name, train, test = _load_experiment_data(config)
    if config.p0 <= p_min(train.num_classes):
        raise ExperimentError(f"p0 must exceed 1/{train.num_classes}, got {config.p0}")
    runtime: dict[str, float] = {}
    randomized = bayesian = None
    bayes = config.technique in ("bayesian", "both")
    traced = bayes and mcmc_trace_path is not None
    with open(mcmc_trace_path, "w", encoding="utf-8") if traced else nullcontext() as trace:
        if config.technique in ("randomized", "both"):
            start = time.perf_counter()
            randomized = _run_randomized(config, train, test)
            runtime["randomized"] = time.perf_counter() - start
        if bayes:
            start = time.perf_counter()
            bayesian = _run_bayesian(config, train, test, trace)
            runtime["bayesian"] = time.perf_counter() - start
    return ExperimentReport(
        dataset_name=dataset_name,
        randomized=randomized,
        bayesian=bayesian,
        runtime_seconds=runtime,
    )


def _pct(value: float, width: float | None = None) -> str:
    if width is None:
        return f"{100.0 * value:.2f}"
    return f"{100.0 * value:.2f}±{100.0 * width:.2f}"


def _row(
    dataset: str, technique: str, result: RandomizedResult | BayesianResult, single_dt: str
) -> dict[str, str]:
    """One report row; a rate with no cross-fold width prints without one."""
    e = result.envelope
    return {
        "dataset": dataset,
        "technique": technique,
        "single_dt": single_dt,
        "size": f"{result.size_mean:.1f}±{result.size_std:.1f}",
        "performance": _pct(e.accuracy, e.two_sigma_accuracy),
        "correct": _pct(e.rate_correct, e.two_sigma_correct),
        "uncertain": _pct(e.rate_uncertain, e.two_sigma_uncertain),
        "incorrect": _pct(e.rate_incorrect, e.two_sigma_incorrect),
    }


def _report_rows(report: ExperimentReport) -> list[dict[str, str]]:
    rows = []
    if report.randomized is not None:
        r = report.randomized
        single_dt = _pct(r.best_single_accuracy, r.best_single_2sigma)
        rows.append(_row(report.dataset_name, "randomized", r, single_dt))
    if report.bayesian is not None:
        rows.append(_row(report.dataset_name, "bayesian", report.bayesian, ""))
    return rows


REPORT_COLUMNS = ("dataset", "technique", "single_dt", "size", "performance", "correct", "uncertain", "incorrect")


def emit_report(report: ExperimentReport, format: str = "csv") -> str:
    """Render the report as CSV or a markdown table; deterministic text."""
    rows = _report_rows(report)
    if format == "csv":
        lines = [",".join(REPORT_COLUMNS)]
        lines.extend(",".join(row[c] for c in REPORT_COLUMNS) for row in rows)
        return "\n".join(lines) + "\n"
    if format == "markdown":
        header = "| " + " | ".join(REPORT_COLUMNS) + " |"
        sep = "|" + "|".join(" --- " for _ in REPORT_COLUMNS) + "|"
        lines = [header, sep]
        lines.extend("| " + " | ".join(row[c] for c in REPORT_COLUMNS) + " |" for row in rows)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}; expected 'csv' or 'markdown'")
