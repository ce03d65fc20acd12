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
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, kfold_split, load_csv, make_benchmark_mixture, sample_mixture
from .ensemble import EnsembleConfig, best_single_tree, ensemble_posterior_matrix, train_ensemble
from .envelope import EnvelopeSummary, cross_fold_summary, envelope_rates, p_min
from .mcmc import (
    McmcConfig,
    bayes_predictive_matrix,
    ensemble_mean_size,
    run_with_restarts,
)
from .tree import leaf_posterior_matrix, tree_size

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
    """Everything needed to reproduce one experiment."""

    dataset: str = "synthetic"
    csv_path: str | None = None
    label_column: str | int = "class"
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
        if not 0.0 < self.p0 <= 1.0:
            raise ExperimentError(f"p0 must lie in (0, 1], got {self.p0}")


PRESETS = {
    "desk": {"restarts": 10, "burn_in": 500, "post_burn_in": 500, "n_trees": 50},
    "paper": {"restarts": 50, "burn_in": 2000, "post_burn_in": 2000, "n_trees": 200},
}


def apply_preset(config: ExperimentConfig, preset: str) -> ExperimentConfig:
    """Scale the run sizes; 'desk' is CI-sized, 'paper' the full protocol."""
    try:
        values = PRESETS[preset]
    except KeyError:
        raise ExperimentError(f"unknown preset {preset!r}; known: {', '.join(sorted(PRESETS))}") from None
    return replace(
        config,
        randomized=replace(config.randomized, n_trees=values["n_trees"]),
        mcmc=replace(
            config.mcmc,
            restarts=values["restarts"],
            burn_in=values["burn_in"],
            post_burn_in=values["post_burn_in"],
        ),
    )


def parse_config(text: str) -> ExperimentConfig:
    """Parse the INI config format; missing keys take their defaults."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ExperimentError(f"bad config: {exc}") from None

    def get(section, key, cast, default):
        if not parser.has_option(section, key):
            return default
        raw = parser.get(section, key).strip()
        if raw == "":
            return default
        try:
            return cast(raw)
        except ValueError:
            raise ExperimentError(f"bad config value [{section}] {key} = {raw!r}") from None

    label_raw = get("experiment", "label_column", str, "class")
    try:
        label: str | int = int(label_raw)
    except (ValueError, TypeError):
        label = label_raw

    move_probs = (
        get("mcmc", "birth", float, 0.1),
        get("mcmc", "death", float, 0.1),
        get("mcmc", "change_variable", float, 0.1),
        get("mcmc", "change_rule", float, 0.7),
    )
    try:
        return ExperimentConfig(
            dataset=get("experiment", "dataset", str, "synthetic"),
            csv_path=get("experiment", "csv_path", str, None),
            label_column=label,
            train_count=get("experiment", "train_count", int, 250),
            test_count=get("experiment", "test_count", int, 1000),
            technique=get("experiment", "technique", str, "both"),
            folds=get("experiment", "folds", int, 5),
            p0=get("experiment", "p0", float, 0.99),
            envelope_mode=get("experiment", "envelope_mode", str, "vote"),
            seed=get("experiment", "seed", int, 1),
            randomized=EnsembleConfig(
                n_trees=get("randomized", "n_trees", int, 200),
                min_leaf=get("randomized", "min_leaf", int, None),
                top_k=get("randomized", "top_k", int, 20),
            ),
            mcmc=McmcConfig(
                restarts=get("mcmc", "restarts", int, 50),
                burn_in=get("mcmc", "burn_in", int, 2000),
                post_burn_in=get("mcmc", "post_burn_in", int, 2000),
                move_probs=move_probs,
                max_leaves=get("mcmc", "max_leaves", int, 50),
                thinning=get("mcmc", "thinning", int, 1),
                dirichlet_alpha=get("mcmc", "alpha", float, 1.0),
            ),
        )
    except ValueError as exc:
        raise ExperimentError(str(exc)) from None


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def render_config(config: ExperimentConfig) -> str:
    """The config as INI text with every value resolved."""
    parser = configparser.ConfigParser()
    parser["experiment"] = {
        "dataset": config.dataset,
        "csv_path": config.csv_path or "",
        "label_column": str(config.label_column),
        "train_count": str(config.train_count),
        "test_count": str(config.test_count),
        "technique": config.technique,
        "folds": str(config.folds),
        "p0": repr(config.p0),
        "envelope_mode": config.envelope_mode,
        "seed": str(config.seed),
    }
    parser["randomized"] = {
        "n_trees": str(config.randomized.n_trees),
        "min_leaf": "" if config.randomized.min_leaf is None else str(config.randomized.min_leaf),
        "top_k": str(config.randomized.top_k),
    }
    parser["mcmc"] = {
        "restarts": str(config.mcmc.restarts),
        "burn_in": str(config.mcmc.burn_in),
        "post_burn_in": str(config.mcmc.post_burn_in),
        "birth": repr(config.mcmc.move_probs[0]),
        "death": repr(config.mcmc.move_probs[1]),
        "change_variable": repr(config.mcmc.move_probs[2]),
        "change_rule": repr(config.mcmc.move_probs[3]),
        "max_leaves": str(config.mcmc.max_leaves),
        "thinning": str(config.mcmc.thinning),
        "alpha": repr(config.mcmc.dirichlet_alpha),
    }
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


@dataclass(frozen=True)
class FoldResult:
    fold_index: int
    ensemble_accuracy: float
    best_tree_index: int
    best_tree_validation_accuracy: float
    best_tree_test_accuracy: float
    envelope: EnvelopeSummary
    mean_tree_size: float


@dataclass(frozen=True)
class RandomizedResult:
    accuracy: float
    accuracy_2sigma: float
    best_single_accuracy: float
    best_single_2sigma: float
    size_mean: float
    size_std: float
    envelope: EnvelopeSummary
    folds: tuple[FoldResult, ...]


@dataclass(frozen=True)
class BayesianResult:
    accuracy: float
    size_mean: float
    size_std: float
    envelope: EnvelopeSummary
    n_samples: int


@dataclass(frozen=True)
class ExperimentReport:
    dataset_name: str
    config_echo: str
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


def _accuracy(posteriors: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(posteriors, axis=1) == labels))


def _run_randomized(config: ExperimentConfig, train: Dataset, test: Dataset) -> RandomizedResult:
    folds = kfold_split(train.n, config.folds, np.random.SeedSequence((config.seed, 2)))
    fold_results: list[FoldResult] = []
    sizes: list[int] = []
    for f in range(config.folds):
        seed = int(np.random.SeedSequence((config.seed, 3, f)).generate_state(1)[0])
        ens_config = replace(config.randomized, seed=seed)
        ens = train_ensemble(train.subset(folds.train_indices(f)), ens_config)
        validation = train.subset(folds.test_indices(f))

        posteriors = ensemble_posterior_matrix(ens.trees, test.features, mode=config.envelope_mode)
        best_idx, best_val_acc = best_single_tree(ens, validation)
        best_tree_posteriors = leaf_posterior_matrix(ens.trees[best_idx], test.features)
        fold_sizes = [tree_size(t) for t in ens.trees]
        sizes.extend(fold_sizes)
        fold_results.append(
            FoldResult(
                fold_index=f,
                ensemble_accuracy=_accuracy(posteriors, test.labels),
                best_tree_index=best_idx,
                best_tree_validation_accuracy=best_val_acc,
                best_tree_test_accuracy=_accuracy(best_tree_posteriors, test.labels),
                envelope=envelope_rates(posteriors, test.labels, config.p0),
                mean_tree_size=float(np.mean(fold_sizes)),
            )
        )

    accuracies = np.array([fr.ensemble_accuracy for fr in fold_results])
    best_accs = np.array([fr.best_tree_test_accuracy for fr in fold_results])
    all_sizes = np.array(sizes, dtype=np.float64)
    return RandomizedResult(
        accuracy=float(accuracies.mean()),
        accuracy_2sigma=float(2.0 * accuracies.std(ddof=1)),
        best_single_accuracy=float(best_accs.mean()),
        best_single_2sigma=float(2.0 * best_accs.std(ddof=1)),
        size_mean=float(all_sizes.mean()),
        size_std=float(all_sizes.std(ddof=1)),
        envelope=cross_fold_summary(fr.envelope for fr in fold_results),
        folds=tuple(fold_results),
    )


def _run_bayesian(
    config: ExperimentConfig, train: Dataset, test: Dataset, trace_path=None
) -> BayesianResult:
    seed = int(np.random.SeedSequence((config.seed, 4)).generate_state(1)[0])
    mcmc_config = replace(config.mcmc, seed=seed)
    ens = run_with_restarts(train, mcmc_config, trace_path=trace_path)
    posteriors = bayes_predictive_matrix(
        ens, test.features, mode=config.envelope_mode, alpha=mcmc_config.dirichlet_alpha
    )
    size_mean, size_std = ensemble_mean_size(ens)
    return BayesianResult(
        accuracy=_accuracy(posteriors, test.labels),
        size_mean=size_mean,
        size_std=size_std,
        envelope=envelope_rates(posteriors, test.labels, config.p0),
        n_samples=ens.n,
    )


def run_experiment(config: ExperimentConfig, mcmc_trace_path=None) -> ExperimentReport:
    """Run the configured techniques and assemble the report.

    Every number in the report is determined by (config, config.seed); wall
    times live only in runtime_seconds and never reach emitted reports.
    """
    dataset_name, train, test = _load_experiment_data(config)
    if config.p0 <= p_min(train.num_classes):
        raise ExperimentError(f"p0 must exceed 1/{train.num_classes}, got {config.p0}")
    runtime: dict[str, float] = {}
    randomized = bayesian = None
    if config.technique in ("randomized", "both"):
        start = time.perf_counter()
        randomized = _run_randomized(config, train, test)
        runtime["randomized"] = time.perf_counter() - start
    if config.technique in ("bayesian", "both"):
        start = time.perf_counter()
        bayesian = _run_bayesian(config, train, test, trace_path=mcmc_trace_path)
        runtime["bayesian"] = time.perf_counter() - start
    return ExperimentReport(
        dataset_name=dataset_name,
        config_echo=render_config(config),
        randomized=randomized,
        bayesian=bayesian,
        runtime_seconds=runtime,
    )


def _pct(value: float, width: float | None = None) -> str:
    if width is None:
        return f"{100.0 * value:.2f}"
    return f"{100.0 * value:.2f}±{100.0 * width:.2f}"


def _report_rows(report: ExperimentReport) -> list[dict[str, str]]:
    rows = []
    if report.randomized is not None:
        r = report.randomized
        rows.append(
            {
                "dataset": report.dataset_name,
                "technique": "randomized",
                "single_dt": _pct(r.best_single_accuracy, r.best_single_2sigma),
                "size": f"{r.size_mean:.1f}±{r.size_std:.1f}",
                "performance": _pct(r.accuracy, r.accuracy_2sigma),
                "correct": _pct(r.envelope.rate_correct, r.envelope.two_sigma_correct),
                "uncertain": _pct(r.envelope.rate_uncertain, r.envelope.two_sigma_uncertain),
                "incorrect": _pct(r.envelope.rate_incorrect, r.envelope.two_sigma_incorrect),
            }
        )
    if report.bayesian is not None:
        b = report.bayesian
        rows.append(
            {
                "dataset": report.dataset_name,
                "technique": "bayesian",
                "single_dt": "",
                "size": f"{b.size_mean:.1f}±{b.size_std:.1f}",
                "performance": _pct(b.accuracy),
                "correct": _pct(b.envelope.rate_correct),
                "uncertain": _pct(b.envelope.rate_uncertain),
                "incorrect": _pct(b.envelope.rate_incorrect),
            }
        )
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
