"""treeuq benchmark: run one workload for a fixed time and check every output.

Usage (from the repository root):

    python3 perfbench/run.py --workload bayes-mixture --seed 1 --seconds 30 --trace 0

Every repetition is a fresh ``worker.py`` process that imports treeuq from
``src/`` and runs the workload's batch of configs. Set-up is also timed in a
few processes that stop after set-up. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics (medians over the
repetitions); with ``--trace 1`` untraced and traced repetitions alternate and
the metrics are the per-layer ones from ``tracing.py``. The line before it
holds machine info, report digests and the per-technique phase times.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import METRICS
from workloads import CHANCE_ACCURACY, WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"
HARD_LIMIT_S = 170.0
SETUP_PROBES = 2  # set-up-only processes before each repetition, so set-up is sampled across the run
MIN_REPS = 2  # repetitions per run: two untraced, or one untraced and one traced
ACCURACY_MARGIN = 0.2  # "well above chance": at least 20 points above it
RATE_SUM_TOLERANCE = 0.016  # three rates each rounded to 0.01 percent
BLAS_THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
RSS_POLL_S = 0.25
PHASES = ("randomized", "bayesian")


class RunFailed(Exception):
    """A worker exited non-zero, timed out, or printed no result."""


def _process_tree_rss_kb(root_pid: int) -> int:
    """Summed VmRSS of root_pid and all its descendants, read from /proc."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                    parents[int(entry)] = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
    tree = {root_pid}
    grew = True
    while grew:
        children = {pid for pid, ppid in parents.items() if ppid in tree} - tree
        tree |= children
        grew = bool(children)
    total = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
        except OSError:
            continue
    return total


def run_worker(mode: str, configs: list[str], spans_path: str, scratch: str, deadline: float) -> dict:
    """Run worker.py once; return its JSON plus the sampled peak of VmRSS summed
    over its process tree. Output goes to files in scratch, so no pipe can fill up."""
    env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(ROOT / "src")}
    args = [sys.executable, str(HERE / "worker.py"), str(time.monotonic_ns()), mode, spans_path, *configs]
    with open(os.path.join(scratch, "worker.out"), "w+b") as out, \
            open(os.path.join(scratch, "worker.err"), "w+b") as err:
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=ROOT)
        peak_kb = 0
        try:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    raise RunFailed(f"{mode} worker timed out")
                peak_kb = max(peak_kb, _process_tree_rss_kb(proc.pid))
                time.sleep(RSS_POLL_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode(errors="replace")
    if proc.returncode != 0:
        raise RunFailed(f"{mode} worker exited {proc.returncode}: {stderr[-2000:]}")
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RunFailed(f"{mode} worker printed no result") from None
    if Path(result["treeuq_file"]).resolve().parent != ROOT / "src" / "treeuq":
        raise RunFailed(f"worker imported treeuq from {result['treeuq_file']}, not from src/")
    result["tree_rss_peak_kb"] = peak_kb
    return result


def _leading_number(cell: str) -> float:
    return float(cell.split("±")[0])


def check_report(text: str, technique: str) -> list[str]:
    """Problems with one emitted CSV report; empty when it passes every check."""
    rows = list(csv.DictReader(io.StringIO(text)))
    expected = {"randomized": ["randomized"], "bayesian": ["bayesian"],
                "both": ["randomized", "bayesian"]}[technique]
    if [row["technique"] for row in rows] != expected:
        return [f"report rows {[row['technique'] for row in rows]}, expected {expected}"]
    problems = []
    for row in rows:
        rates = sum(_leading_number(row[c]) for c in ("correct", "uncertain", "incorrect"))
        if abs(rates - 100.0) > RATE_SUM_TOLERANCE:
            problems.append(f"{row['technique']}: envelope rates sum to {rates}, not 100")
        accuracy = _leading_number(row["performance"]) / 100.0
        if accuracy < CHANCE_ACCURACY + ACCURACY_MARGIN:
            problems.append(f"{row['technique']}: accuracy {accuracy} is not well above chance")
    return problems


def expected_work(workload) -> dict[str, int]:
    """Work counts one repetition must do: MH steps, grown trees, samples, folds."""
    technique = workload.experiment["technique"]
    mcmc, randomized = workload.mcmc, workload.randomized
    bayesian = technique in ("bayesian", "both")
    grows = technique in ("randomized", "both")
    return {
        "steps": workload.batch * mcmc["restarts"] * (mcmc["burn_in"] + mcmc["post_burn_in"]) if bayesian else 0,
        "samples": mcmc["restarts"] * mcmc["post_burn_in"] if bayesian else None,
        "trees": workload.batch * workload.experiment["folds"] * randomized["n_trees"] if grows else 0,
        "folds": workload.experiment["folds"] if grows else None,
    }


def check_run(result: dict, workload, reference: dict) -> list[str]:
    """Problems with one worker result: report checks, work counts, and agreement
    with the first result at the same seed (reports, and exact per-layer counts)."""
    work = expected_work(workload)
    problems = []
    for experiment in result["experiments"]:
        problems += check_report(experiment["report"], workload.experiment["technique"])
        if experiment["n_samples"] != work["samples"]:
            problems.append(f"{experiment['n_samples']} posterior samples, expected {work['samples']}")
        if experiment["folds"] != work["folds"]:
            problems.append(f"{experiment['folds']} folds, expected {work['folds']}")
    reports = [e["report"] for e in result["experiments"]]
    if reference.setdefault("reports", reports) != reports:
        problems.append("report differs from the first run at the same seed")
    layers = result.get("layers")
    if layers is not None:
        if layers["mcmc.steps"] != work["steps"]:
            problems.append(f"{layers['mcmc.steps']} MH steps, expected {work['steps']}")
        if layers["tree.grow_randomized.calls"] != work["trees"]:
            problems.append(f"{layers['tree.grow_randomized.calls']} trees grown, expected {work['trees']}")
        counts = {name: layers[name] for name, (_, exact) in METRICS.items() if exact}
        first = reference.setdefault("counts", counts)
        problems += [f"{name} is {counts[name]}, first traced run had {first[name]}"
                     for name in counts if counts[name] != first[name]]
    return problems


def machine_info(versions: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        **versions,
        "blas_threads": BLAS_THREADS,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S
    # Turn SIGTERM into SystemExit so the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "treeuq" / "__init__.py").is_file():
        print(f"perfbench: no treeuq package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    for sub in ("spans", "results"):
        (WORK_DIR / sub).mkdir(parents=True, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    spans_path = str(WORK_DIR / "spans" / f"{tag}.jsonl")
    inputs = tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_DIR)
    try:
        sys.path.insert(0, str(ROOT / "src"))
        configs = write_inputs(workload, args.seed, inputs)
        return measure(args, workload, configs, spans_path, inputs, deadline, tag)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def measure(args, workload, configs, spans_path, scratch, deadline, tag) -> int:
    attempted = failed = 0
    problems: list[str] = []
    setups: list[float] = []
    runs: dict[str, list[dict]] = {"run": [], "trace": []}
    reference: dict = {}

    def attempt(mode: str) -> dict | None:
        """Run one worker; return its result if it passes every check."""
        nonlocal attempted, failed
        attempted += 1
        try:
            result = run_worker(mode, configs, spans_path, scratch, deadline)
            found = [] if mode == "setup" else check_run(result, workload, reference)
        except RunFailed as exc:
            found = [str(exc)]
        if found:
            failed += 1
            problems.extend(found)
            return None
        return result

    measure_start = time.monotonic()
    warm = attempt("setup")  # only warms the caches
    versions = warm["versions"] if warm else {}
    probes = 0

    modes = itertools.cycle(["trace", "run"] if args.trace else ["run"])
    last = 0.0
    while time.monotonic() < deadline and not failed:
        reps = len(runs["run"]) + len(runs["trace"])
        if reps >= MIN_REPS and time.monotonic() - measure_start + last > args.seconds:
            break
        rep_start = time.monotonic()
        for _ in range(SETUP_PROBES):
            probes += 1
            result = attempt("setup")
            if result is not None:
                setups.append(result["setup_s"])
        mode = next(modes)
        result = attempt(mode)
        last = time.monotonic() - rep_start
        if result is not None:
            runs[mode].append(result)
            setups.append(result["setup_s"])

    untraced, traced = runs["run"], runs["trace"]
    if args.trace:
        metrics = layer_metrics(traced, untraced)
    else:
        metrics = end_to_end_metrics(untraced, setups)
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "failed_runs": f"{failed}/{attempted}",
        "repetitions": {"setup_probes": probes, "untraced": len(untraced), "traced": len(traced)},
        "phases_s": {phase: _median(_batch_sums(untraced, phase)) for phase in PHASES},
        "experiment_s_per_run": {mode: _batch_sums(results) for mode, results in runs.items()},
        "setup_s_per_run": setups,
        "report_sha256": [hashlib.sha256(text.encode()).hexdigest() for text in reference.get("reports", [])],
        "unwrapped": traced[0]["missing"] if traced else [],
        "problems": problems,
        "machine": machine_info(versions),
    }
    line = {"correct": failed == 0 and bool(metrics), "attempted": attempted, "failed": failed,
            "metrics": metrics}
    with open(WORK_DIR / "results" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": line, "reports": reference.get("reports", [])}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(line))
    return 0


def _batch_sums(results: list[dict], phase: str | None = None) -> list[float]:
    """Per repetition: experiment_s, or one phase's runtime, summed over the batch."""
    if phase is None:
        return [sum(e["experiment_s"] for e in r["experiments"]) for r in results]
    return [sum(e["runtime_seconds"].get(phase, 0.0) for e in r["experiments"]) for r in results]


def end_to_end_metrics(untraced: list[dict], setups: list[float]) -> dict:
    if not untraced:
        return {}
    peak_kb = [max(r["maxrss_kb"], r["tree_rss_peak_kb"]) for r in untraced]
    return {
        "setup_s": {"value": _median(setups), "unit": "s"},
        "experiment_s": {"value": _median(_batch_sums(untraced)), "unit": "s"},
        "peak_rss_mb": {"value": _median(peak_kb) / 1024.0, "unit": "MB"},
    }


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer medians over traced repetitions (exact counts agree between them)."""
    if not traced or not untraced:
        return {}
    metrics = {
        name: {"value": _median([r["layers"][name] for r in traced]), "unit": unit}
        for name, (unit, _) in METRICS.items()
    }
    for phase in PHASES:
        metrics[f"phase.{phase}_s"] = {"value": _median(_batch_sums(untraced, phase)), "unit": "s"}
    overhead = _median(_batch_sums(traced)) / _median(_batch_sums(untraced)) - 1.0
    metrics["tracing_overhead_frac"] = {"value": overhead, "unit": "fraction"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
