"""Randomised and Bayesian decision-tree ensembles with uncertainty envelopes.

Two ways to build a diverse tree ensemble over the same data: randomising the
split selection of classic trees, and sampling tree space with reversible-jump
MCMC restarts. The envelope module scores either ensemble's outcomes as
confidently correct, uncertain, or confidently incorrect at a confidence
threshold.

The package exports the run entry points, the benchmark's data helpers, the
two trainers, the one scorer, the envelope, and the config, result and error
types; every other name comes from its module (``from treeuq.tree import
grow_randomized``).
"""

from .data import Dataset, DatasetError, estimate_bayes_error, make_benchmark_mixture, sample_mixture
from .ensemble import EnsembleConfig, ensemble_posterior_matrix, train_ensemble
from .envelope import EnvelopeSummary, envelope_rates
from .experiment import (
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    emit_report,
    load_config,
    run_experiment,
)
from .mcmc import McmcConfig, run_with_restarts

__version__ = "0.1.0"
