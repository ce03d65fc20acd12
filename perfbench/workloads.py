"""Benchmark workloads and the seeded inputs each one hands to the program.

A workload is a batch of experiment configs. Every config in the batch gets
its own seed, derived from the benchmark seed, so one repetition averages the
cost over several independent datasets and chains instead of depending on one
draw. The program sees only the INI files (and, for ``randomized-wide``, the
CSV files) written here.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

# Chance accuracy on every workload: the mixture's two classes each have prior
# weight 0.5, and the noise columns of randomized-wide carry no signal.
CHANCE_ACCURACY = 0.5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``batch`` configs run per repetition; ``experiment``, ``randomized`` and
    ``mcmc`` are the INI keys every config shares. ``noise_columns`` > 0 makes
    the dataset a generated CSV: the two mixture coordinates plus that many
    standard-normal columns, ``csv_rows`` rows in all.
    """

    name: str
    why: str
    batch: int
    experiment: dict[str, object]
    randomized: dict[str, object] = field(default_factory=dict)
    mcmc: dict[str, object] = field(default_factory=dict)
    noise_columns: int = 0
    csv_rows: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bayes-mixture",
            why="Bayesian technique only on the 2-D mixture, chains at paper length: "
            "the mcmc sampler does almost all the work, tree growth none",
            batch=10,
            experiment={"dataset": "synthetic", "train_count": 250, "test_count": 1000,
                        "technique": "bayesian"},
            mcmc={"restarts": 1, "burn_in": 2000, "post_burn_in": 2000},
        ),
        Workload(
            name="randomized-wide",
            why="randomised technique only on a generated 32-column CSV: enumerate_splits "
            "and top_k_splits do most of the work, mcmc none",
            batch=4,
            experiment={"dataset": "csv", "label_column": "class", "train_count": 350,
                        "test_count": 1000, "technique": "randomized", "folds": 5},
            randomized={"n_trees": 2},
            noise_columns=30,
            csv_rows=1350,
        ),
        Workload(
            name="score-heavy",
            why="both techniques at small training size with a 50,000-row test set: "
            "routing test rows through the trees dominates, tree growth does little",
            batch=4,
            experiment={"dataset": "synthetic", "train_count": 250, "test_count": 50000,
                        "technique": "both", "folds": 5},
            randomized={"n_trees": 3},
            mcmc={"restarts": 3, "burn_in": 500, "post_burn_in": 200},
        ),
    )
}


def config_seed(seed: int, index: int) -> int:
    """Master seed of the index-th config of a batch, derived from the benchmark seed."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def _render_ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)


def write_wide_csv(path: str, rows: int, noise_columns: int, seed: int) -> None:
    """Mixture coordinates plus seeded noise columns, labelled in a 'class' column.

    The mixture is the program's built-in benchmark spec, sampled here with the
    benchmark's own generator so the inputs do not depend on program code.
    """
    from treeuq import make_benchmark_mixture

    spec = make_benchmark_mixture()
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    weights = np.array([c.weight for c in spec.components])
    means = np.array([c.mean for c in spec.components])
    scales = np.sqrt(np.array([c.cov_scale for c in spec.components]))
    classes = np.array([c.class_index for c in spec.components])
    which = rng.choice(len(weights), size=rows, p=weights)
    coords = means[which] + rng.standard_normal((rows, 2)) * scales[which, None]
    features = np.hstack([coords, rng.standard_normal((rows, noise_columns))])
    header = ["x1", "x2", *(f"noise{i + 1}" for i in range(noise_columns)), "class"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, label in zip(features, classes[which]):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def write_inputs(workload: Workload, seed: int, directory: str) -> list[str]:
    """Write the batch's config files (and CSVs) into directory; return the config paths."""
    paths = []
    for index in range(workload.batch):
        cseed = config_seed(seed, index)
        experiment = {**workload.experiment, "seed": cseed}
        if workload.noise_columns:
            csv_path = os.path.join(directory, f"wide{index}.csv")
            write_wide_csv(csv_path, workload.csv_rows, workload.noise_columns, cseed)
            experiment["csv_path"] = csv_path
        text = _render_ini(
            {"experiment": experiment, "randomized": workload.randomized, "mcmc": workload.mcmc}
        )
        path = os.path.join(directory, f"config{index}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    return paths
