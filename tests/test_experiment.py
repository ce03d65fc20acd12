"""Config handling, the experiment driver, and report emission."""

import csv
import dataclasses
import io
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from treeuq import (
    EnsembleConfig,
    ExperimentConfig,
    ExperimentError,
    McmcConfig,
    emit_report,
    make_benchmark_mixture,
    run_experiment,
    sample_mixture,
)
from treeuq import experiment
from treeuq.data import write_csv
from treeuq.envelope import EnvelopeSummary
from treeuq.experiment import (
    PRESETS,
    BayesianResult,
    ExperimentReport,
    RandomizedResult,
    apply_preset,
    parse_config,
    render_config,
)
from treeuq.mcmc import run_chain


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        dataset="synthetic",
        technique="both",
        train_count=60,
        test_count=100,
        folds=3,
        seed=5,
        randomized=EnsembleConfig(n_trees=10, min_leaf=5),
        mcmc=McmcConfig(restarts=2, burn_in=20, post_burn_in=20, max_leaves=10),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_render_parse_round_trip(self):
        config = tiny_config(p0=0.95, envelope_mode="average")
        assert parse_config(render_config(config)) == config
        for preset in PRESETS:
            config = apply_preset(ExperimentConfig(), preset)
            assert parse_config(render_config(config)) == config
        # values are taken literally: no % interpolation
        config = tiny_config(dataset="csv", csv_path="data/50%_split.csv")
        assert parse_config(render_config(config)) == config
        assert parse_config("[experiment]\ncsv_path = 50%%_%(x)s\n").csv_path == "50%%_%(x)s"

    def test_every_config_field_is_one_ini_key(self):
        # every field of the three configs is set by exactly one INI key
        # (move_probs by one per entry), so no field goes unset or overwritten
        sections = {"experiment": ExperimentConfig, "randomized": EnsembleConfig, "mcmc": McmcConfig}
        expected = Counter(
            (section, f.name)
            for section, cls in sections.items()
            for f in dataclasses.fields(cls)
            if f.name not in sections
        )
        expected[("mcmc", "move_probs")] = len(McmcConfig().move_probs)
        reached = Counter(
            (section, field if isinstance(field, str) else field[0])
            for section, field, _ in experiment._KEYS.values()
        )
        assert reached == expected

    def test_round_trip_keeps_every_field(self):
        config = ExperimentConfig(
            dataset="csv",
            csv_path="data/train.csv",
            label_column="3",
            train_count=40,
            test_count=60,
            technique="bayesian",
            folds=4,
            p0=0.9,
            envelope_mode="average",
            seed=11,
            randomized=EnsembleConfig(n_trees=7, min_leaf=3, top_k=4),
            mcmc=McmcConfig(
                restarts=3,
                burn_in=30,
                post_burn_in=40,
                move_probs=(0.25, 0.2, 0.15, 0.4),
                max_leaves=9,
                thinning=2,
                dirichlet_alpha=0.5,
            ),
        )
        # every field differs from its default, so a field that no key reaches
        # comes back as its default and the round trip shows it
        for value in (config, config.randomized, config.mcmc):
            default = type(value)()
            for f in dataclasses.fields(value):
                assert getattr(value, f.name) != getattr(default, f.name), f.name
        assert parse_config(render_config(config)) == config

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: ExperimentConfig(dataset="uci"), "dataset must be 'synthetic' or 'csv', got 'uci'"),
            (lambda: ExperimentConfig(dataset="csv"), "csv dataset needs csv_path"),
            (lambda: ExperimentConfig(envelope_mode="mean"), "unknown envelope mode 'mean'"),
            (lambda: ExperimentConfig(train_count=0), "train_count and test_count must be positive"),
            (lambda: ExperimentConfig(test_count=-1), "train_count and test_count must be positive"),
            (lambda: ExperimentConfig(p0=0.0), r"p0 must lie in \(0, 1\], got 0.0"),
            (lambda: ExperimentConfig(p0=1.5), r"p0 must lie in \(0, 1\], got 1.5"),
            (lambda: ExperimentConfig(seed=-1), "seed must be >= 0, got -1"),
            (lambda: ExperimentConfig(train_count=3, folds=5), "folds = 5 exceeds train_count = 3"),
            (lambda: ExperimentConfig(train_count=2.5), "train_count must be an integer, got 2.5"),
            (lambda: ExperimentConfig(test_count=10.0), "test_count must be an integer, got 10.0"),
            (lambda: ExperimentConfig(folds=2.5), "folds must be an integer, got 2.5"),
            (lambda: ExperimentConfig(seed=1.5), "seed must be an integer, got 1.5"),
            (lambda: parse_config("seed = 3\n"), "bad config: File contains no section headers"),
            (lambda: parse_config("[mcmc]\nburn_in = 1\nburn_in = 2\n"), "bad config: .*'burn_in'"),
        ],
        ids=[
            "dataset",
            "csv-without-path",
            "envelope-mode",
            "train-count",
            "test-count",
            "p0-zero",
            "p0-above-one",
            "negative-seed",
            "folds-above-train-count",
            "fractional-train-count",
            "float-test-count",
            "fractional-folds",
            "fractional-seed",
            "no-section-header",
            "duplicate-key",
        ],
    )
    def test_input_checks_name_the_problem(self, call, match):
        with pytest.raises(ExperimentError, match=match):
            call()

    def test_defaults_match_protocol(self):
        config = parse_config("")
        assert config == ExperimentConfig()
        assert config.randomized.n_trees == 200
        assert config.mcmc.restarts == 50
        assert config.mcmc.burn_in == 2000
        assert config.mcmc.post_burn_in == 2000
        assert config.mcmc.move_probs == (0.1, 0.1, 0.1, 0.7)
        assert config.p0 == 0.99
        assert config.folds == 5

    def test_readme_example_is_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (example,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
        assert parse_config(example) == ExperimentConfig()

    def test_bad_value_reported_with_location(self):
        with pytest.raises(ExperimentError, match=r"\[experiment\] folds"):
            parse_config("[experiment]\nfolds = soon\n")
        # a misspelt key or section must not leave its default in force
        for text, named in (
            ("[mcmc]\nrestart = 3\n", r"unknown config key \[mcmc\] restart;"),
            ("[mcm]\nrestarts = 3\n", r"unknown config section \[mcm\]"),
            ("[DEFAULT]\nseed = 3\n", r"unknown config section \[DEFAULT\]"),
            ("[mcmc]\nbirth = nan\n", r"move probabilities must be finite"),
            ("[mcmc]\nchange_rule = inf\n", r"move probabilities must be finite"),
            ("[mcmc]\nalpha = nan\n", r"dirichlet_alpha"),
            ("[mcmc]\nalpha = inf\n", r"dirichlet_alpha"),
            ("[randomized]\nn_trees = 0\n", r"n_trees >= 1"),
            ("[randomized]\ntop_k = 0\n", r"top_k >= 1"),
            ("[randomized]\nmin_leaf = -3\n", r"min_leaf >= 1"),
        ):
            with pytest.raises(ExperimentError, match=named):
                parse_config(text)

    def test_single_fold_with_randomized_rejected(self):
        with pytest.raises(ExperimentError, match="folds"):
            tiny_config(folds=1)

    def test_single_fold_allowed_for_bayesian_only(self):
        config = tiny_config(folds=1, technique="bayesian")
        assert config.folds == 1

    def test_presets(self):
        desk = apply_preset(tiny_config(), "desk")
        assert (desk.mcmc.restarts, desk.mcmc.burn_in, desk.mcmc.post_burn_in) == (10, 500, 500)
        assert desk.randomized.n_trees == 50
        paper = apply_preset(tiny_config(), "paper")
        assert (paper.mcmc.restarts, paper.mcmc.burn_in, paper.mcmc.post_burn_in) == (50, 2000, 2000)
        assert paper.randomized.n_trees == 200

    def test_unknown_preset_rejected(self):
        with pytest.raises(ExperimentError, match="unknown preset"):
            apply_preset(tiny_config(), "galactic")

    def test_unknown_technique_rejected(self):
        with pytest.raises(ExperimentError, match="technique"):
            tiny_config(technique="quantum")


class TestRunExperiment:
    def test_desk_scale_report(self, desk_report):
        r, b = desk_report.randomized, desk_report.bayesian
        assert r is not None and b is not None
        assert 0.80 <= r.envelope.accuracy <= 0.92
        assert 0.80 <= b.envelope.accuracy <= 0.92
        for env in (r.envelope, b.envelope):
            assert env.rate_correct + env.rate_uncertain + env.rate_incorrect == pytest.approx(1.0)
        assert len(r.folds) == 5
        assert r.size_mean > 0 and b.size_mean > 0
        assert set(desk_report.runtime_seconds) == {"randomized", "bayesian"}
        assert r.envelope.accuracy >= r.best_single_accuracy - 0.02

    def test_tiny_run_is_deterministic(self):
        config = tiny_config()
        a = emit_report(run_experiment(config))
        b = emit_report(run_experiment(config))
        assert a == b

    def test_csv_dataset_path(self, tmp_path):
        data = sample_mixture(make_benchmark_mixture(), 120, 3)
        path = tmp_path / "mix.csv"
        write_csv(data, path)
        config = tiny_config(
            dataset="csv",
            csv_path=str(path),
            train_count=60,
            test_count=60,
            technique="randomized",
        )
        report = run_experiment(config)
        assert report.dataset_name == "mix"
        assert report.bayesian is None
        assert 0.5 <= report.randomized.envelope.accuracy <= 1.0

    def test_csv_counts_must_fit(self, tmp_path):
        data = sample_mixture(make_benchmark_mixture(), 50, 3)
        path = tmp_path / "small.csv"
        write_csv(data, path)
        config = tiny_config(dataset="csv", csv_path=str(path), train_count=40, test_count=40)
        with pytest.raises(ExperimentError, match="exceeds"):
            run_experiment(config)

    @pytest.mark.parametrize("p0", [0.5, 0.3])
    def test_p0_at_or_below_chance_fails_before_training(self, monkeypatch, p0):
        def must_not_run(*args, **kwargs):
            raise AssertionError("training started before p0 was checked")

        monkeypatch.setattr(experiment, "train_ensemble", must_not_run)
        monkeypatch.setattr(experiment, "run_with_restarts", must_not_run)
        with pytest.raises(ExperimentError, match=r"p0 must exceed 1/2"):
            run_experiment(tiny_config(p0=p0))

    def test_mcmc_trace_plumbing(self, tmp_path):
        trace = tmp_path / "bayes.trace"
        config = tiny_config(technique="bayesian")
        run_experiment(config, mcmc_trace_path=trace)
        lines = trace.read_text().strip().splitlines()
        assert len(lines) == config.mcmc.restarts * config.mcmc.post_burn_in
        # the file holds each restart's run_chain lines, in restart order; the
        # training set and the chain seed are derived as run_experiment does
        train_seed, mcmc_seed = (np.random.SeedSequence((config.seed, s)) for s in (0, 4))
        train = sample_mixture(make_benchmark_mixture(), config.train_count, train_seed)
        chain_seed = int(mcmc_seed.generate_state(1)[0])
        expected = io.StringIO()
        for restart in range(config.mcmc.restarts):
            seed = np.random.SeedSequence((chain_seed, restart))
            run_chain(train, config.mcmc, restart_index=restart, seed=seed, trace=expected)
        assert trace.read_bytes() == expected.getvalue().encode("utf-8")

    @pytest.mark.parametrize("technique", ["both", "bayesian"])
    def test_bad_trace_path_fails_before_training(self, monkeypatch, tmp_path, technique):
        def must_not_run(*args, **kwargs):
            raise AssertionError("training started before the trace path was opened")

        monkeypatch.setattr(experiment, "train_ensemble", must_not_run)
        monkeypatch.setattr(experiment, "run_with_restarts", must_not_run)
        trace = tmp_path / "absent" / "bayes.trace"
        with pytest.raises(FileNotFoundError):
            run_experiment(tiny_config(technique=technique), mcmc_trace_path=trace)

    def test_randomized_run_writes_no_trace(self, tmp_path):
        trace = tmp_path / "bayes.trace"
        run_experiment(tiny_config(technique="randomized"), mcmc_trace_path=trace)
        assert not trace.exists()


def _summary(c, u, i, accuracy, widths=None):
    kwargs = {}
    if widths is not None:
        kwargs = dict(
            two_sigma_correct=widths[0],
            two_sigma_uncertain=widths[1],
            two_sigma_incorrect=widths[2],
            two_sigma_accuracy=widths[3],
        )
    return EnvelopeSummary(rate_correct=c, rate_uncertain=u, rate_incorrect=i, accuracy=accuracy, **kwargs)


class TestEmitReport:
    def _report(self):
        bayesian = BayesianResult(
            size_mean=12.4,
            size_std=2.5,
            envelope=_summary(0.6330, 0.3440, 0.0230, 0.8720),
            n_samples=100_000,
        )
        randomized = RandomizedResult(
            best_single_accuracy=0.8512,
            best_single_2sigma=0.02,
            size_mean=32.9,
            size_std=3.3,
            envelope=_summary(0.789, 0.098, 0.113, 0.8712, widths=(0.349, 0.437, 0.089, 0.012)),
            folds=(),
        )
        return ExperimentReport(
            dataset_name="synthetic",
            randomized=randomized,
            bayesian=bayesian,
            runtime_seconds={"randomized": 1.0, "bayesian": 2.0},
        )

    def test_bayesian_row_cells(self):
        text = emit_report(self._report(), format="csv")
        rows = list(csv.reader(io.StringIO(text)))
        header, rand_row, bayes_row = rows
        assert header[:2] == ["dataset", "technique"]
        assert bayes_row[header.index("size")] == "12.4±2.5"
        assert bayes_row[header.index("performance")] == "87.20"
        assert bayes_row[header.index("correct")] == "63.30"
        assert bayes_row[header.index("uncertain")] == "34.40"
        assert bayes_row[header.index("incorrect")] == "2.30"

    def test_randomized_row_has_widths(self):
        text = emit_report(self._report(), format="csv")
        rows = list(csv.reader(io.StringIO(text)))
        header, rand_row, _ = rows
        assert rand_row[header.index("size")] == "32.9±3.3"
        assert rand_row[header.index("performance")] == "87.12±1.20"
        assert rand_row[header.index("correct")] == "78.90±34.90"
        assert rand_row[header.index("single_dt")] == "85.12±2.00"

    def test_rates_sum_to_hundred_after_rounding(self):
        text = emit_report(self._report(), format="csv")
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0]
        for row in rows[1:]:
            total = sum(
                float(row[header.index(col)].split("±")[0])
                for col in ("correct", "uncertain", "incorrect")
            )
            assert total == pytest.approx(100.0, abs=0.01)

    def test_csv_round_trip_parses_to_same_values(self):
        text = emit_report(self._report(), format="csv")
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0]
        bayes_row = rows[2]
        reparsed = float(bayes_row[header.index("performance")])
        assert f"{reparsed:.2f}" == bayes_row[header.index("performance")]

    def test_markdown_table(self):
        text = emit_report(self._report(), format="markdown")
        lines = text.splitlines()
        assert lines[0].startswith("| dataset | technique |")
        assert set(lines[1].replace("|", "").split()) == {"---"}
        assert "12.4±2.5" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            emit_report(self._report(), format="yaml")
