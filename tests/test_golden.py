"""Golden determinism: pinned hashes of sampler output and of a full report.

Criterion 11 checks that two runs agree with each other; these tests check
that a run agrees with the recorded output of an earlier version, so a
refactor or an optimisation that changes any retained tree, any leaf count,
any log posterior in the trace, or any reported number fails here. Re-pin
only for a change that is meant to alter the output, and say why.
"""

import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

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
from treeuq.tree import grow_randomized
from treetext import serialize_tree


# NEP 19 freezes only the legacy RandomState stream: Generator streams may
# change between numpy versions, so the pins hold for the numpy they came from
PINNED_NUMPY = "2.4.6"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _assert_pinned(text: str, pinned: str, what: str) -> None:
    assert _sha256(text) == pinned, (
        f"{what} changed (pins taken with numpy {PINNED_NUMPY}, running {np.__version__})"
    )


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
    # re-pinned when Dataset came to store -0.0 as 0.0: the earlier text with
    # each " -0.0" threshold written " 0.0" hashes to this pin
    (lambda: _tied_three_class(13), 303, 12,
     "9e897dfef1717067e051bd836fcf0468953304cdae13e4f95793d449472c195b"),
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
    _assert_pinned(text + trace.getvalue(), pinned, f"chain case {case}")


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
    _assert_pinned(serialize_tree(tree), pinned, f"grow case {case}")


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
        _assert_pinned(emit_report(run_experiment(config)), pinned, f"{mode} report")


# sha256 of the desk-preset report on the synthetic benchmark (seed 1):
# 5-fold 50-tree ensembles and 10 restarts of 500 + 500 sampler steps
DESK_REPORT_SHA256 = "ede9a73750602ab3344db5e07f47f3428f618271367b403b77917e638ad690f5"


def test_desk_report_golden(desk_report):
    _assert_pinned(emit_report(desk_report), DESK_REPORT_SHA256, "desk report")


def _write_zeros_csv(path) -> None:
    """Mixture rows rounded to quarters, so column x1 holds both -0 and 0 cells."""
    data = sample_mixture(make_benchmark_mixture(), 240, np.random.SeedSequence((5, 0)))
    features = np.round(data.features * 4.0) / 4.0
    lines = ["x1,x2,class"]
    lines += [f"{a:g},{b:g},{label}" for (a, b), label in zip(features.tolist(), data.labels.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


CSV_REPORT_CASES = [
    # (envelope mode, p0, pinned sha256 of the CSV report on the zeros CSV)
    ("vote", 0.95, "094e7a9af6ad597238eeede70c631d68ac95fc15784ebf62cb6f59b7468518b0"),
    ("average", 0.6, "a2bc56bcc7177b785df6f454fdf07c021b171dd20aa0fe58b16f2f76b21e61d8"),
]


def test_csv_report_golden(tmp_path):
    path = tmp_path / "zeros.csv"
    _write_zeros_csv(path)
    cells = [line.split(",")[0] for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    assert "-0" in cells and "0" in cells
    for mode, p0, pinned in CSV_REPORT_CASES:
        config = ExperimentConfig(
            dataset="csv",
            csv_path=str(path),
            technique="both",
            train_count=150,
            test_count=90,
            folds=3,
            p0=p0,
            envelope_mode=mode,
            seed=7,
            randomized=EnsembleConfig(n_trees=6, min_leaf=3),
            mcmc=McmcConfig(restarts=2, burn_in=250, post_burn_in=250, max_leaves=20),
        )
        _assert_pinned(emit_report(run_experiment(config)), pinned, f"{mode} CSV report")


# run in a child process whose numpy has the targets in argv[1] switched off
_BASELINE_CHILD = """
import sys
import pytest
from numpy._core._multiarray_umath import __cpu_features__
assert not any(__cpu_features__[target] for target in sys.argv[1].split()), sys.argv[1]
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


def test_goldens_hold_with_numpy_dispatch_at_the_baseline():
    # the pins must not depend on which SIMD kernels numpy dispatches to, so
    # they hold on a machine whose CPU has fewer features than this one
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    enabled = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    if not enabled:
        pytest.skip("numpy dispatches to no target above its baseline here: nothing to disable")
    cases = ["test_run_chain_golden", "test_grow_randomized_golden",
             "test_emit_report_golden", "test_csv_report_golden"]
    child = subprocess.run(
        [sys.executable, "-c", _BASELINE_CHILD, " ".join(enabled),
         *(f"{__file__}::{case}" for case in cases)],
        cwd=Path(__file__).parents[1],
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(enabled)},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert child.returncode == 0, f"with {enabled} disabled:\n{child.stdout}{child.stderr}"
