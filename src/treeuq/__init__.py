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
    FoldSplit,
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
    RandomizedEnsemble,
    best_single_tree,
    ensemble_posterior_matrix,
    train_ensemble,
)
from .envelope import (
    EnvelopeOutcome,
    EnvelopeSummary,
    classify_outcome,
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
from .fetch import FetchError, KNOWN_DATASETS, fetch_dataset
from .mcmc import (
    ChainSample,
    McmcConfig,
    PosteriorEnsemble,
    Proposal,
    bayes_predictive_matrix,
    ensemble_mean_size,
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
    SplitRule,
    TreeNode,
    enumerate_splits,
    grow_randomized,
    information_gain,
    leaf_posterior,
    leaf_posterior_matrix,
    parse_tree,
    predict,
    serialize_tree,
    top_k_splits,
    tree_size,
)

__version__ = "0.1.0"
