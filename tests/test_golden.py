"""Golden determinism: pinned hashes of sampler output and of a full report.

Criterion 11 checks that two runs agree with each other; these tests check
that a run agrees with the recorded output of an earlier version, so a
refactor or an optimisation that changes any retained tree, any leaf count,
any log posterior in the trace, or any reported number fails here. Re-pin
only for a change that is meant to alter the output, and say why.
"""

import hashlib
import io

import numpy as np
import pytest

from treeuq import (
    Dataset,
    EnsembleConfig,
    ExperimentConfig,
    McmcConfig,
    emit_report,
    make_benchmark_mixture,
    run_experiment,
    sample_mixture,
)
from treeuq.mcmc import run_chain
from treeuq.tree import grow_randomized, serialize_tree


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _tied_three_class(seed: int) -> Dataset:
    """Three classes and three coarsely rounded features, so menus have ties."""
    rng = np.random.default_rng(seed)
    features = np.round(rng.standard_normal((90, 3)) * 2.0) / 2.0
    labels = rng.integers(0, 3, 90)
    return Dataset(features, labels, 3, ("a", "b", "c"))


def _mixture(seed: int) -> Dataset:
    return sample_mixture(make_benchmark_mixture(), 250, np.random.SeedSequence((seed, 0)))


CHAIN_CASES = [
    # (dataset, chain seed, max_leaves, pinned sha256 of retained trees + trace)
    (lambda: _mixture(11), 101, 50,
     "e8fc1ce1d06c291e73dc72c14f98acf3fe73d47e34065e5726341fd86ce5d076"),
    (lambda: _mixture(12), 202, 8,
     "62fe970f5cc4d54b448d67962dbde6d15a9909e0993e2d8603ad29489513a132"),
    (lambda: _tied_three_class(13), 303, 12,
     "10b2350fb175e5aeacb9ba3ffb4d95cddb9686a090969f60069bc17d1567c3af"),
]


@pytest.mark.parametrize("case", range(len(CHAIN_CASES)))
def test_run_chain_golden(case):
    make_data, chain_seed, max_leaves, pinned = CHAIN_CASES[case]
    config = McmcConfig(restarts=1, burn_in=600, post_burn_in=600, max_leaves=max_leaves)
    trace = io.StringIO()
    samples = run_chain(make_data(), config, restart_index=case, seed=chain_seed, trace=trace)
    text = "".join(
        f"# {s.restart_index} {s.step_index}\n{serialize_tree(s.tree)}" for s in samples
    )
    assert _sha256(text + trace.getvalue()) == pinned


def _wide_tied(seed: int, num_classes: int = 3) -> Dataset:
    """Twelve coarsely rounded features, one of them constant, and num_classes classes.

    Rounding to halves makes most candidate splits share their gain with
    another, so the top-k cut-off falls inside tie groups. The classes are
    bands of a noisy linear signal, between evenly spaced edges.
    """
    rng = np.random.default_rng(seed)
    features = np.round(rng.standard_normal((240, 12)) * 2.0) / 2.0
    features[:, 4] = 1.5
    signal = features[:, 0] + features[:, 1] - features[:, 2]
    edges = np.linspace(-1.0, 1.0, num_classes - 1) * (num_classes - 1) / 2.0
    labels = np.digitize(signal + rng.standard_normal(240), edges)
    return Dataset(features, labels, num_classes, tuple(f"x{i}" for i in range(12)))


GROW_CASES = [
    # (dataset seed, class count, growth seed, min_leaf, pinned sha256 of serialize_tree)
    (21, 3, 1, 1, "6aff87c8b1d70456a322376fd413c7dc78ae6d1141ac932508e5124c51d0842c"),
    (21, 3, 2, 3, "c2c41165e6d20e62f7242e4b45dec6d0e7ca92246b2c69a229742c7127182a93"),
    (22, 3, 3, 5, "d94a3dcc440f73f9c24148b4f614f0b64ce85264b0bb33ea740dd3f7e228a0de"),
    (23, 3, 4, 2, "53a57fe4828deba12c29f0ae3f006e7cdb1c14c046edcecf052c4a208fa07c57"),
    # from 8 classes on numpy sums entropy terms pairwise, and no list
    # reference matches that bit for bit, so this pin is the whole-tree check
    (24, 9, 5, 2, "ffbe6eb92d65efecfd5f9bbff95c92cde18566ebcab97273dce3515d1911a499"),
]


@pytest.mark.parametrize("case", range(len(GROW_CASES)))
def test_grow_randomized_golden(case):
    data_seed, num_classes, grow_seed, min_leaf, pinned = GROW_CASES[case]
    data = _wide_tied(data_seed, num_classes)
    tree = grow_randomized(data, min_leaf=min_leaf, top_k=20, seed=grow_seed)
    assert _sha256(serialize_tree(tree)) == pinned


REPORT_CASES = [
    # (envelope mode, p0, mcmc Dirichlet alpha, pinned sha256 of the CSV report)
    ("vote", 0.95, 1.0, "971d9a336724b939ef1dc68f88ea68e4142fd037edb3d8acbb41623b4f50331a"),
    # at p0 = 0.99 the average mode is never confident on this small config
    ("average", 0.6, 2.0, "ebf2275bb39545a4a0b21d85d338b39a913befe16378a6839b83ebb9c55ef9ca"),
]


def test_emit_report_golden():
    for mode, p0, alpha, pinned in REPORT_CASES:
        config = ExperimentConfig(
            dataset="synthetic",
            technique="both",
            train_count=120,
            test_count=300,
            folds=3,
            p0=p0,
            envelope_mode=mode,
            seed=7,
            randomized=EnsembleConfig(n_trees=6, min_leaf=3),
            mcmc=McmcConfig(
                restarts=2, burn_in=250, post_burn_in=250, max_leaves=20, dirichlet_alpha=alpha
            ),
        )
        text = emit_report(run_experiment(config))
        assert _sha256(text) == pinned, f"{mode} report changed"


# sha256 of the desk-preset report on the synthetic benchmark (seed 1):
# 5-fold 50-tree ensembles and 10 restarts of 500 + 500 sampler steps
DESK_REPORT_SHA256 = "ede9a73750602ab3344db5e07f47f3428f618271367b403b77917e638ad690f5"


def test_desk_report_golden(desk_report):
    assert _sha256(emit_report(desk_report)) == DESK_REPORT_SHA256
