"""Randomised and Bayesian decision-tree ensembles with uncertainty envelopes.

Two ways to build a diverse tree ensemble over the same data: randomising the
split selection of classic trees, and sampling tree space with reversible-jump
MCMC restarts. The envelope module scores either ensemble's outcomes as
confidently correct, uncertain, or confidently incorrect at a confidence
threshold.
"""

from .data import (
    Dataset,
    DatasetError,
    GaussianMixtureSpec,
    MixtureComponent,
    bayes_posterior,
    estimate_bayes_error,
    kfold_split,
    load_csv,
    make_benchmark_mixture,
    sample_mixture,
    write_csv,
)
from .ensemble import (
    EnsembleConfig,
    best_single_tree,
    ensemble_mean_size,
    ensemble_posterior_matrix,
    leaf_posterior_matrix,
    train_ensemble,
)
from .envelope import (
    EnvelopeSummary,
    cross_fold_summary,
    envelope_rates,
    p_min,
)
from .experiment import (
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    apply_preset,
    emit_report,
    load_config,
    parse_config,
    render_config,
    run_experiment,
)
from .mcmc import (
    ChainSample,
    McmcConfig,
    PosteriorEnsemble,
    Proposal,
    bayes_predictive_matrix,
    log_marginal_likelihood,
    log_prior,
    propose_move,
    refresh_counts,
    run_chain,
    run_with_restarts,
    sample_prior_tree,
)
from .tree import (
    DecisionTree,
    TreeNode,
    enumerate_splits,
    grow_randomized,
    parse_tree,
    serialize_tree,
    top_k_splits,
    tree_size,
)

__version__ = "0.1.0"
