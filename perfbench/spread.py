"""Run the benchmark on several seeds and report each end-to-end metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10

For every workload and metric it prints the median of the per-seed values,
and the distance between their first and third quartiles as a share of the
median, next to the metric's bound from BENCHMARK.json. A spread above a
third of the bound is marked, since two sets of runs must agree within it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            out = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: run not correct", file=sys.stderr)
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            mark = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            steady = steady and spread < bounds[name]
            print(f"{workload:16} {name:14} median {median:10.4f}  spread {spread:6.3f}"
                  f"  bound {bounds[name]:.2f}  values {[round(v, 4) for v in series]}{mark}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
