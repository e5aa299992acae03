"""Command-line entry points for the experiment harness.

Each subcommand runs one experiment kind from a JSON config; `validate`
performs the static checks only.  Exit codes: 0 complete, 2 partial (some
grid points failed), 1 invalid configuration.
"""

from __future__ import annotations

import os
import sys

import click

from . import THREAD_VARS


def _set_threads(n):
    for var in THREAD_VARS:
        os.environ[var] = str(n)


@click.group()
@click.option("--threads", type=int, default=None,
              help="Cap BLAS/OpenMP thread counts for reproducible timing.")
def main(threads):
    """Spectral-difference numerical laboratory."""
    if threads is not None:
        if threads < 1:
            raise click.BadParameter("--threads must be >= 1")
        _set_threads(threads)


def _load(config_path, out, kind=None):
    from .harness import ConfigError, ExperimentConfig
    try:
        config = ExperimentConfig.from_file(config_path)
    except (OSError, ValueError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(1)
    if kind is not None and config.kind != kind:
        click.echo(f"config error: config kind {config.kind!r} does not match "
                   f"the {kind!r} subcommand", err=True)
        sys.exit(1)
    if out is not None:
        import dataclasses
        config = dataclasses.replace(config, output_dir=out)
    return config


def _execute(config, overwrite):
    from .harness import ConfigError, run
    try:
        record = run(config, overwrite=overwrite)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(1)
    click.echo(f"status: {record.status} ({len(record.files)} files, "
               f"{len(record.errors)} errors) -> {config.output_dir}")
    sys.exit(0 if record.status == "complete" else 2)


def _experiment_command(name, kind):
    @main.command(name=name, help=f"Run a {kind} experiment from a JSON config.")
    @click.option("--config", "config_path", required=True,
                  type=click.Path(exists=True, dir_okay=False))
    @click.option("--out", type=click.Path(file_okay=False), default=None,
                  help="Override the config's output directory.")
    @click.option("--overwrite", is_flag=True,
                  help="Replace an existing output manifest.")
    def cmd(config_path, out, overwrite):
        _execute(_load(config_path, out, kind), overwrite)
    return cmd


alpha = _experiment_command("alpha", "alpha_sweep")
ladder = _experiment_command("ladder", "d_ladder")
phi = _experiment_command("phi", "phi_check")
hankel = _experiment_command("hankel", "hankel_suite")
fredholm = _experiment_command("fredholm", "fredholm_sweep")
scatter = _experiment_command("scatter", "scattering_compare")


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(file_okay=False), default=None)
def validate(config_path, out):
    """Static config diagnostics without running any computation."""
    from .harness import validate as validate_config
    config = _load(config_path, out)
    diags = validate_config(config)
    for d in diags:
        click.echo(d)
    if not diags:
        click.echo("config ok")
    sys.exit(0 if not diags else 1)


if __name__ == "__main__":
    main()
