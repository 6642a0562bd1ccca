"""Command-line entry point: validate configuration artifacts, run
scenarios, and inspect node state by deterministic replay.

Exit codes are the machine contract (0 ok, 1 invalid/errored, 2 I/O or
load failure). Human diagnostics go to standard error; machine JSON goes
to standard output or the chosen output files.
"""

from __future__ import annotations

import json
import logging
import os
import sys

import click

from . import model, simnet

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("SDN_AAA_LOG", "error").lower()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("sdnaaa")
    logger.handlers = [handler]
    logger.setLevel(_LOG_LEVELS.get(level, logging.ERROR))
    logger.propagate = False


def _read(path: str) -> str:
    """The text at ``path``; a file that cannot be read is one stderr line and
    exit 2. Bytes that are not UTF-8 raise ``json.JSONDecodeError`` at the
    first bad byte, as any other text that is not JSON does."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        click.echo(f"cannot read {path}: {err}", err=True)
        sys.exit(2)
    except UnicodeDecodeError as err:
        good = err.object[:err.start].decode("utf-8")
        raise json.JSONDecodeError(
            f"Invalid UTF-8 byte 0x{err.object[err.start]:02x}", good, len(good)
        ) from None


def _load(path: str) -> simnet.Scenario:
    """The scenario at ``path``, or its coded error on one stderr line and exit 2."""
    try:
        return simnet.load_scenario(_read(path))
    except json.JSONDecodeError as err:  # raised by _read, as load_scenario would code it
        click.echo(str(model.CodedError("PARSE_ERROR", str(err))), err=True)
        sys.exit(2)
    except model.CodedError as err:
        click.echo(str(err), err=True)
        sys.exit(2)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        click.echo(f"cannot write {path}: {err}", err=True)
        sys.exit(2)


@click.group()
def main() -> None:
    """Manage and simulate realm-routed AAA infrastructures."""
    _setup_logging()


@main.command()
@click.argument("path")
def validate(path: str) -> None:
    """Validate a configuration document or scenario file."""
    try:
        obj = json.loads(_read(path))
    except json.JSONDecodeError as err:
        click.echo(f"invalid JSON: {err}", err=True)
        sys.exit(1)
    if isinstance(obj, dict) and set(obj) == set(model.CONTAINERS):
        try:
            doc = model.document_from_json(obj)
        except model.CodedError as err:
            click.echo(str(err), err=True)
            sys.exit(1)
        violations = model.validate_document(doc)
        for v in violations:
            click.echo(str(v), err=True)
        if violations:
            sys.exit(1)
        click.echo("document ok", err=True)
    elif isinstance(obj, dict) and "topology" in obj:
        try:
            simnet.scenario_from_dict(obj)
        except model.CodedError as err:
            click.echo(str(err), err=True)
            sys.exit(1)
        click.echo("scenario ok", err=True)
    else:
        click.echo("unrecognized file kind", err=True)
        sys.exit(1)


@main.command()
@click.argument("path")
@click.option("--mode", type=click.Choice(["proactive", "reactive"]), default=None,
              help="Override the scenario's provisioning mode.")
@click.option("--seed-override", type=int, default=None)
@click.option("--transcript", "transcript_path", default=None,
              help="Write the newline-delimited JSON transcript here.")
@click.option("--metrics", "metrics_path", default=None,
              help="Write the metrics JSON here as well as to stdout.")
def run(path, mode, seed_override, transcript_path, metrics_path) -> None:
    """Run a scenario; exits 0 only when no message ended in error."""
    scenario = _load(path)
    if mode is not None:
        scenario.mode = mode.upper()
    if seed_override is not None:
        scenario.seed = seed_override
    metrics, transcript = simnet.run(scenario)
    if transcript_path:
        _write(transcript_path, transcript.to_ndjson())
    if metrics_path:
        _write(metrics_path, metrics.to_text() + "\n")
    click.echo(metrics.to_text())
    sys.exit(0 if metrics.errored == 0 else 1)


@main.command()
@click.argument("scenario_path", metavar="SCENARIO")
@click.argument("node_id", metavar="NODE")
@click.option("--at", "at_time", type=int, required=True,
              help="Logical time to replay the scenario to.")
def inspect(scenario_path: str, node_id: str, at_time: int) -> None:
    """Replay a scenario and print the node's redacted running config."""
    scenario = _load(scenario_path)
    if node_id not in scenario.topology.nodes:
        click.echo(f"unknown node {node_id!r}", err=True)
        sys.exit(1)
    sim = simnet.Simulation(scenario)
    sim.run_until(at_time)
    doc = model.redact(sim.nodes[node_id].running)
    click.echo(model.encode_document(doc))


if __name__ == "__main__":
    main()
