"""Command-line surface: one subcommand per stage, and `run` for the whole
pipeline. The evaluate stage writes the report files."""

from __future__ import annotations

import logging
import sys

import click

from .config import load_config
from .errors import FaultloomError
from .gateway import MODES
from .pipeline import ARTIFACTS, Runner

logger = logging.getLogger(__name__)

_OPTIONS = [
    click.option("--config", "config_path", required=True, type=click.Path(exists=True)),
    click.option("--mode", type=click.Choice(MODES), default=None),
    click.option("--model", default=None),
    click.option("--seed", type=int, default=None),
    click.option("--parallelism", type=int, default=None),
    click.option("--out", default=None),
]


@click.group()
@click.option("-v", "--verbose", is_flag=True)
def main(verbose: bool) -> None:
    """Automated empirical software-fault study pipeline."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _command(name: str, help_text: str):
    """Register `work(runner)` as the subcommand `name`: it takes the common
    options, and a `FaultloomError` from loading the config or from `work`
    exits 1."""

    def register(work):
        def command(config_path, **overrides):
            try:
                work(Runner(load_config(config_path, overrides=overrides)))
            except FaultloomError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(1)

        for option in reversed(_OPTIONS):
            command = option(command)
        main.command(name=name, help=help_text)(command)
        return work

    return register


def _stage_command(stage: str) -> None:
    name = "import" if stage == "corpus" else stage

    @_command(name, getattr(Runner, f"run_{stage}").__doc__)
    def work(runner: Runner) -> None:
        artifact = getattr(runner, f"run_{stage}")()  # a command of its own, under run.lock
        click.echo(f"{name}: wrote {artifact}")


for _stage in ARTIFACTS:
    _stage_command(_stage)


@_command("run", "Run the full pipeline end to end.")
def run(runner: Runner) -> None:
    report = runner.run_pipeline()
    click.echo(f"run: report at {runner.artifact('evaluate')}")
    for key, name in (("stage2", "stage2"), ("stage3_symptom", "stage3 symptom"),
                      ("stage3_rootcause", "stage3 root-cause")):
        if report[key]:
            click.echo(f"{name} accuracy: {report[key]['accuracy']:.4f}")


if __name__ == "__main__":
    main()
