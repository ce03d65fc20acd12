"""Tests of the benchmark itself: tracing is transparent, counts repeat, checks bite.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import importlib  # noqa: E402

from treeuq import EnsembleConfig, ExperimentConfig, McmcConfig, emit_report, run_experiment  # noqa: E402

from run import check_report  # noqa: E402
from tracing import METRICS, MOVE_KINDS, ROOT_SPAN, WRAPPED, Tracer  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

TINY = ExperimentConfig(
    train_count=120,
    test_count=300,
    technique="both",
    folds=3,
    seed=5,
    randomized=EnsembleConfig(n_trees=3),
    mcmc=McmcConfig(restarts=2, burn_in=60, post_burn_in=60),
)


def traced_run(config: ExperimentConfig) -> tuple[str, dict]:
    with Tracer() as tracer:
        report = tracer.wrap("experiment.run_experiment", run_experiment)(config)
        text = tracer.wrap("experiment.emit_report", emit_report)(report)
    return text, tracer.metrics()


def wrapped_slots():
    """(owner, attribute) for every entry of WRAPPED."""
    for module_name, path, _ in WRAPPED:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        yield owner, attr


def test_traced_report_is_byte_identical_to_untraced():
    plain = emit_report(run_experiment(TINY))
    traced, _ = traced_run(TINY)
    assert traced == plain


def test_every_wrapped_attribute_is_restored():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in wrapped_slots()]
    with Tracer() as tracer:
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
    assert tracer.missing == []
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_layer_counts_repeat_and_match_the_config():
    _, first = traced_run(TINY)
    _, second = traced_run(TINY)
    exact = [name for name, (_, is_exact) in METRICS.items() if is_exact]
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
    assert first["mcmc.steps"] == TINY.mcmc.restarts * (TINY.mcmc.burn_in + TINY.mcmc.post_burn_in)
    assert sum(first[f"mcmc.proposed.{kind}"] for kind in MOVE_KINDS) == first["mcmc.steps"]
    assert first["tree.grow_randomized.calls"] == TINY.folds * TINY.randomized.n_trees
    assert first["tree.enumerate_splits.calls"] > 0 and first["mcmc.distinct_trees"] > 0
    assert set(first) == set(METRICS)


def test_data_load_counts_only_the_subsets_before_the_fold_split():
    ms = 1_000_000
    tracer = Tracer()
    tracer.spans = [
        (0, ROOT_SPAN, -1, 0, 100 * ms),
        (0, "data.load_csv", 0, 0, 10 * ms),
        (0, "data.subset", 0, 10 * ms, 12 * ms),
        (0, "data.subset", 0, 12 * ms, 14 * ms),
        (0, "data.kfold_split", 0, 14 * ms, 15 * ms),
        (0, "data.subset", 0, 15 * ms, 25 * ms),
        (1, ROOT_SPAN, -1, 100 * ms, 200 * ms),
        (1, "data.load_csv", 6, 100 * ms, 110 * ms),
        (1, "data.subset", 6, 110 * ms, 111 * ms),
    ]
    metrics = tracer.metrics()
    assert abs(metrics["data.load_s"] - 0.025) < 1e-12
    assert metrics["data.subset.calls"] == 4


def test_inputs_depend_only_on_the_seed(tmp_path):
    workload = WORKLOADS["randomized-wide"]
    contents = []
    for run_dir in ("a", "b", "c"):
        directory = tmp_path / run_dir
        directory.mkdir()
        seed = 3 if run_dir == "c" else 2
        write_inputs(workload, seed, str(directory))
        contents.append(sorted(p.read_bytes().replace(str(directory).encode(), b"") for p in directory.iterdir()))
    assert contents[0] == contents[1]
    assert contents[0] != contents[2]
    assert len(contents[0]) == 2 * workload.batch


def test_report_checks_catch_bad_rates_and_chance_accuracy():
    header = "dataset,technique,single_dt,size,performance,correct,uncertain,incorrect\n"
    good = header + "synthetic,bayesian,,7.7±2.0,88.90,75.60,21.00,3.40\n"
    assert check_report(good, "bayesian") == []
    assert check_report(header + "synthetic,bayesian,,7.7±2.0,88.90,75.60,21.00,3.50\n", "bayesian")
    assert check_report(header + "synthetic,bayesian,,7.7±2.0,52.00,75.60,21.00,3.40\n", "bayesian")
    assert check_report(good, "both")


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {name: unit for name, (unit, _) in METRICS.items()}
    expected.update({"phase.randomized_s": "s", "phase.bayesian_s": "s", "tracing_overhead_frac": "fraction"})
    assert per_layer == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score-heavy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
