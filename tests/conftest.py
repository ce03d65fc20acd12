"""Shared fixtures; the expensive benchmark runs are session-scoped."""

from __future__ import annotations

import pytest

from treeuq import EnsembleConfig, ExperimentConfig, McmcConfig, run_experiment
from treeuq.experiment import apply_preset

BENCHMARK_SEEDS = (1, 2, 3)


def _benchmark_config(seed: int) -> ExperimentConfig:
    """Full protocol: 5-fold 200-tree ensembles, 50x2000+2000 sampler."""
    return ExperimentConfig(
        dataset="synthetic",
        technique="both",
        train_count=250,
        test_count=1000,
        folds=5,
        p0=0.99,
        envelope_mode="vote",
        seed=seed,
        randomized=EnsembleConfig(n_trees=200, min_leaf=5),
        mcmc=McmcConfig(restarts=50, burn_in=2000, post_burn_in=2000),
    )


@pytest.fixture(scope="session")
def benchmark_reports():
    """Full-protocol reports on the synthetic benchmark for three seeds."""
    return {seed: run_experiment(_benchmark_config(seed)) for seed in BENCHMARK_SEEDS}


@pytest.fixture(scope="session")
def desk_report():
    """Both techniques at desk scale with the default seed."""
    config = apply_preset(_benchmark_config(1), "desk")
    return run_experiment(config)
