"""Command-line interface: run experiments, sample the benchmark."""

from __future__ import annotations

import os
import sys
from dataclasses import replace

import click

from .data import make_benchmark_mixture, sample_mixture, write_csv
from .experiment import (
    PRESETS,
    ExperimentConfig,
    apply_preset,
    emit_report,
    load_config,
    render_config,
    run_experiment,
)


@click.group()
def main() -> None:
    """Compare randomised and Bayesian decision-tree ensembles."""


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None, help="INI config file.")
@click.option("--preset", type=click.Choice(list(PRESETS)), default=None,
              help="Scale run sizes: desk for quick runs, paper for the full protocol.")
@click.option("--seed", type=int, default=None, help="Override the master seed.")
@click.option("--format", "fmt", type=click.Choice(["csv", "markdown"]), default="csv")
@click.option("--out", "out_path", type=click.Path(), default=None, help="Write the report here instead of stdout.")
@click.option("--trace", "trace_path", type=click.Path(), default=None, help="Write an MCMC chain trace file.")
@click.option("--print-config", is_flag=True, help="Echo the fully resolved config and exit.")
def run(config_path, preset, seed, fmt, out_path, trace_path, print_config) -> None:
    """Run the configured experiment and emit a report table."""
    try:
        config = load_config(config_path) if config_path else ExperimentConfig()
        if preset:
            config = apply_preset(config, preset)
        if seed is not None:
            config = replace(config, seed=seed)
        if print_config:
            click.echo(render_config(config), nl=False)
            return
        created = False
        if out_path:  # a path that cannot be written fails before the run; "a" truncates nothing
            created = not os.path.exists(out_path)
            open(out_path, "a", encoding="utf-8").close()
        try:
            text = emit_report(run_experiment(config, mcmc_trace_path=trace_path), format=fmt)
        except BaseException:
            if created:
                os.remove(out_path)
            raise
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            click.echo(text, nl=False)
    except Exception as exc:  # noqa: BLE001 - one-line diagnostic contract
        _fail(str(exc))


@main.command()
@click.option("--n", "count", type=int, required=True, help="Number of points to draw.")
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_path", type=click.Path(), required=True)
def synth(count, seed, out_path) -> None:
    """Sample the five-Gaussian benchmark mixture to a CSV file."""
    try:
        data = sample_mixture(make_benchmark_mixture(), count, seed)
        write_csv(data, out_path)
    except Exception as exc:  # noqa: BLE001
        _fail(str(exc))
    else:
        click.echo(f"wrote {count} points to {out_path}")


if __name__ == "__main__":
    main()
