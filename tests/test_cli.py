"""Command-line interface behavior."""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from treeuq import experiment
from treeuq.cli import main
from treeuq.data import load_csv
from treeuq.experiment import parse_config


TINY_CONFIG = """\
[experiment]
dataset = synthetic
technique = both
train_count = 60
test_count = 100
folds = 3
seed = 5

[randomized]
n_trees = 10
min_leaf = 5

[mcmc]
restarts = 2
burn_in = 20
post_burn_in = 20
max_leaves = 10
"""


def write_config(tmp_path, text=TINY_CONFIG):
    path = tmp_path / "synth.cfg"
    path.write_text(text, encoding="utf-8")
    return path


class TestRunCommand:
    def test_report_to_stdout(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--config", str(write_config(tmp_path))])
        assert result.exit_code == 0
        assert result.output.startswith("dataset,technique,")
        assert "randomized" in result.output and "bayesian" in result.output

    def test_out_file_and_determinism(self, tmp_path):
        runner = CliRunner()
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            result = runner.invoke(
                main, ["run", "--config", str(config), "--seed", "7", "--out", str(out)]
            )
            assert result.exit_code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_markdown_format(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main, ["run", "--config", str(write_config(tmp_path)), "--format", "markdown"]
        )
        assert result.exit_code == 0
        assert result.output.startswith("| dataset | technique |")

    def test_print_config_echoes_resolved_defaults(self):
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--print-config", "--preset", "paper"])
        assert result.exit_code == 0
        config = parse_config(result.output)
        assert config.mcmc.restarts == 50
        assert config.randomized.n_trees == 200

    def test_seed_override_changes_report(self, tmp_path):
        runner = CliRunner()
        config = write_config(tmp_path)
        a = runner.invoke(main, ["run", "--config", str(config), "--seed", "1"])
        b = runner.invoke(main, ["run", "--config", str(config), "--seed", "2"])
        assert a.exit_code == b.exit_code == 0
        assert a.output != b.output

    def test_missing_config_fails_with_one_line(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--config", str(tmp_path / "absent.cfg")])
        assert result.exit_code == 1
        assert result.output.count("\n") <= 1 or "error:" in result.output

    def test_bad_config_value_fails(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[experiment]\ntechnique = quantum\n", encoding="utf-8")
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 1
        assert "error:" in result.output

    def test_unknown_preset_is_a_usage_error(self):
        result = CliRunner().invoke(main, ["run", "--preset", "galactic"])
        assert result.exit_code == 2
        assert "'galactic' is not one of" in result.output

    def test_negative_seed_fails_with_the_key_named(self):
        result = CliRunner().invoke(main, ["run", "--preset", "desk", "--seed", "-1"])
        assert result.exit_code == 1
        assert result.output == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_bad_output_path_fails_before_training(self, monkeypatch, tmp_path, flag):
        started = []

        def must_not_run(*args, **kwargs):
            started.append(True)
            raise AssertionError("training started before the output path was checked")

        monkeypatch.setattr(experiment, "train_ensemble", must_not_run)
        monkeypatch.setattr(experiment, "run_with_restarts", must_not_run)
        bad = tmp_path / "absent" / "file.txt"
        result = CliRunner().invoke(main, ["run", "--config", str(write_config(tmp_path)), flag, str(bad)])
        assert result.exit_code == 1
        assert result.output == f"error: [Errno 2] No such file or directory: '{bad}'\n"
        assert started == [] and not bad.parent.exists()

    def test_failed_run_keeps_an_existing_out_file_and_removes_a_new_one(self, monkeypatch, tmp_path):
        def fail(*args, **kwargs):
            raise RuntimeError("the run failed")

        monkeypatch.setattr(experiment, "train_ensemble", fail)
        config = str(write_config(tmp_path))
        existing, new = tmp_path / "existing.csv", tmp_path / "new.csv"
        existing.write_text("earlier report\n", encoding="utf-8")
        for out in (existing, new):
            result = CliRunner().invoke(main, ["run", "--config", config, "--out", str(out)])
            assert result.exit_code == 1
            assert result.output == "error: the run failed\n"
        assert existing.read_text(encoding="utf-8") == "earlier report\n"
        assert not new.exists()

    def test_trace_file_written(self, tmp_path):
        runner = CliRunner()
        trace = tmp_path / "run.trace"
        result = runner.invoke(
            main,
            ["run", "--config", str(write_config(tmp_path)), "--trace", str(trace)],
        )
        assert result.exit_code == 0
        assert trace.exists() and trace.read_text().strip()


class TestSynthCommand:
    def test_writes_loadable_csv(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "synthetic.csv"
        result = runner.invoke(main, ["synth", "--n", "40", "--seed", "3", "--out", str(out)])
        assert result.exit_code == 0
        data = load_csv(out, "class")
        assert (data.n, data.m, data.num_classes) == (40, 2, 2)

    def test_same_seed_same_file(self, tmp_path):
        runner = CliRunner()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert (
                runner.invoke(main, ["synth", "--n", "25", "--seed", "9", "--out", str(out)]).exit_code
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_count_fails(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main, ["synth", "--n", "0", "--seed", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 1

    def test_negative_seed_names_the_option(self, tmp_path):
        out = tmp_path / "x.csv"
        result = CliRunner().invoke(main, ["synth", "--n", "5", "--seed", "-1", "--out", str(out)])
        assert result.exit_code == 2 and "'--seed'" in result.output
        assert not out.exists()


def test_readme_quick_start_commands_exist():
    """Each `treeuq` line of README's Quick start names a command and options that exist.

    With --help appended, click rejects an unknown command or option name
    and prints help, without running anything, for a known one.
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```bash\n(.*?)```", section, flags=re.DOTALL)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["treeuq"]]
    assert commands
    runner = CliRunner()
    for args in commands:
        result = runner.invoke(main, [*args, "--help"])
        assert result.exit_code == 0, f"README runs `treeuq {shlex.join(args)}`: {result.output}"
