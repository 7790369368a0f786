"""Command-line entry point.

Verbs: run, validate, replay, dump-routes, dump-ledger. Exit codes: 0 on
success, 1 on scenario schema errors, 2 when an invariant breach is detected
during a run or a replay digest mismatches, and 2 on a bad option (click's
usage error), before any run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import yaml

from .harness import run_scenario
from .report import (
    ReplayMismatch,
    dump_ledger_lines,
    dump_route_lines,
    emit_report,
    replay_canonical,
)
from .scenario import U64_MAX, Scenario, SchemaError, parse_scenario


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file. PyYAML is imported here, by the
    command line, and not by the simulation."""
    raw = Path(path).read_text()
    try:
        data = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise SchemaError(f"unparseable scenario file: {exc}") from exc
    if data is None:
        raise SchemaError("empty scenario file")
    return parse_scenario(data)


def _load(path: str):
    try:
        return load_scenario(path)
    except SchemaError as exc:
        click.echo(f"schema error: {exc}", err=True)
        sys.exit(1)


def _run(path: str, seed):
    return run_scenario(_load(path), seed=seed)


# The seed of every verb that runs a scenario: the schema's range, checked by click.
_seed_option = click.option("--seed", type=click.IntRange(0, U64_MAX), default=None,
                           help="Override the scenario seed.")


@click.group()
def main() -> None:
    """Inter-VASP key management and travel-rule simulation stack."""


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@_seed_option
@click.option("--report", "report_format", type=click.Choice(["text", "canonical"]),
              default="text")
@click.option("--out", "out_path", type=click.Path(), default=None)
def run(scenario_path: str, seed, report_format: str, out_path) -> None:
    """Run a scenario and emit its report."""
    result = _run(scenario_path, seed)
    payload = emit_report(result, report_format)
    if out_path:
        Path(out_path).write_bytes(payload)
        click.echo(f"report written to {out_path} (digest {result.digest_hex})")
    elif report_format == "text":
        click.echo(payload.decode(), nl=False)
    else:
        sys.stdout.buffer.write(payload)
    if result.breaches:
        for breach in result.breaches:
            click.echo(f"invariant breach: {breach}", err=True)
        sys.exit(2)


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
def validate(scenario_path: str) -> None:
    """Validate a scenario file against the schema."""
    scenario = _load(scenario_path)
    click.echo(
        f"ok: {len(scenario.networks)} networks, {len(scenario.vasps)} vasps, "
        f"{len(scenario.customers)} customers, {len(scenario.script)} actions"
    )


@main.command()
@click.option("--log", "log_path", required=True, type=click.Path(exists=True))
def replay(log_path: str) -> None:
    """Re-derive the digest of a canonical report and verify it."""
    data = Path(log_path).read_bytes()
    try:
        digest_hex, metrics = replay_canonical(data)
    except ReplayMismatch as exc:
        click.echo(f"replay failed: {exc}", err=True)
        sys.exit(2)
    click.echo(f"digest {digest_hex}")
    click.echo(f"transfers_confirmed={metrics.get('transfers_confirmed', '0')}")


@main.command("dump-routes")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@_seed_option
def dump_routes(scenario_path: str, seed) -> None:
    """Run a scenario and print installed cross-network routes."""
    result = _run(scenario_path, seed)
    for line in dump_route_lines(result):
        click.echo(line)


@main.command("dump-ledger")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@_seed_option
def dump_ledger(scenario_path: str, seed) -> None:
    """Run a scenario and print the confirmed ledger."""
    result = _run(scenario_path, seed)
    for line in dump_ledger_lines(result):
        click.echo(line)


if __name__ == "__main__":
    main()
