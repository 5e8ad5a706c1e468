"""Command-line entry point.

Subcommands:

* ``check``: validate XML profile files (or directories of them) and print
  a human or JSON report.  Exit 0 when nothing reaches the --fail-on level,
  1 when something does, 2 on usage, load or output errors.
* ``rules``: print the rule catalog as a table or JSON.
* ``graph``: print the policy dependency graph as DOT or JSON.

JSON always goes to stdout; errors and logs go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import sys
from pathlib import Path
from typing import Sequence, TextIO

from ._version import __version__
from .pipeline import (
    EnvironmentLoadError,
    EnvironmentModel,
    PairingError,
    build_pairing_plan,
    load_environment,
    render_report,
    run_pipeline,
)
from .profiles import ProfileLoadError, load_profile_files
from .rules import LEVELS, rule_catalog

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qos-chain-guard",
        description="Static dependency-chain validation of DDS QoS profiles.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    check = subparsers.add_parser("check", help="validate QoS profile XML files")
    check.add_argument(
        "inputs", nargs="+", metavar="PATH",
        help="XML profile files, or directories scanned (non-recursively) for *.xml",
    )
    check.add_argument("--env", metavar="FILE", help="environment JSON (rtt/publish periods)")
    check.add_argument(
        "--pair", action="append", default=[], metavar="WRITER:READER",
        help="explicitly pair two profiles (repeatable)",
    )
    check.add_argument("--format", choices=("human", "json"), default="human")
    check.add_argument(
        "--fail-on", choices=LEVELS, default=LEVELS[0],
        help="lowest level that fails the run (default: %(default)s)",
    )
    check.add_argument("--color", choices=("auto", "on", "off"), default="auto")

    rules = subparsers.add_parser("rules", help="print the rule catalog")
    rules.add_argument("--format", choices=("table", "json"), default="table")

    graph = subparsers.add_parser("graph", help="print the policy dependency graph")
    graph.add_argument("--format", choices=("dot", "json"), default="dot")
    return parser


def _collect_input_files(inputs: list[str]) -> list[str]:
    files: list[str] = []
    for raw in inputs:
        path = Path(raw)
        if path.is_dir():
            matches = sorted(str(p) for p in path.glob("*.xml"))
            if not matches:
                raise ProfileLoadError("directory contains no *.xml files", path=raw)
            files.extend(matches)
        else:
            files.append(raw)
    return files


def _parse_pair_directives(raw_pairs: list[str]) -> list[tuple[str, str]]:
    directives = []
    for raw in raw_pairs:
        writer, sep, reader = raw.partition(":")
        if not sep or not writer or not reader:
            raise PairingError(f"--pair expects WRITER:READER, got {raw!r}")
        directives.append((writer, reader))
    return directives


def _use_color(mode: str) -> bool:
    if mode == "on":
        return True
    if mode == "off":
        return False
    # No stdout (descriptor 1 closed at start-up) is no terminal.
    return sys.stdout is not None and sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _cmd_check(args: argparse.Namespace) -> tuple[str, int]:
    files = _collect_input_files(args.inputs)
    if args.env is not None:
        try:
            with open(args.env, encoding="utf-8-sig") as handle:  # a leading BOM is not JSON
                environment = load_environment(handle.read())
        except OSError as exc:
            reason = exc.strerror or exc
            raise EnvironmentLoadError(f"cannot read environment file {args.env}: {reason}") from exc
        except UnicodeDecodeError as exc:
            raise EnvironmentLoadError(
                f"cannot read environment file {args.env}: not valid UTF-8 ({exc.reason})"
            ) from None
    else:
        environment = EnvironmentModel()
    profile_set = load_profile_files(files)
    plan = build_pairing_plan(profile_set, _parse_pair_directives(args.pair))
    report = run_pipeline(profile_set, environment, plan, inputs=tuple(files))
    color = args.format == "human" and _use_color(args.color)
    output = render_report(report, fmt=args.format, color=color)
    return output, EXIT_FINDINGS if report.count_at_or_above(args.fail_on) else EXIT_CLEAN


def _cmd_rules(args: argparse.Namespace) -> tuple[str, int]:
    catalog = rule_catalog()
    if args.format == "json":
        payload = [
            {
                "id": rule.id,
                "identifier": rule.identifier,
                "stage": rule.stage,
                "severity": rule.severity.value,
                "level": rule.severity.level,
                "scope": rule.scope.value,
                "requires_env": sorted(rule.requires_env),
                "condition": rule.condition,
            }
            for rule in catalog
        ]
        return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n", EXIT_CLEAN
    header = f"{'id':>2}  {'identifier':<18} {'stage':<5} {'severity':<11} {'scope':<10} condition"
    lines = [header, "-" * len(header)]
    for rule in catalog:
        lines.append(
            f"{rule.id:>2}  {rule.identifier:<18} {rule.stage:<5} "
            f"{rule.severity.value:<11} {rule.scope.value:<10} {rule.condition}"
        )
    return "\n".join(lines) + "\n", EXIT_CLEAN


def _cmd_graph(args: argparse.Namespace) -> tuple[str, int]:
    from .chain import export_chain_graph  # only this command needs the graph

    return export_chain_graph(args.format), EXIT_CLEAN


def _discard(stream: TextIO) -> None:
    """Point ``stream`` at the null device, so that the interpreter's flush
    at exit drops the unwritten rest instead of failing a second time."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _print_error(message: str) -> None:
    """Write one error line to stderr.  A stderr that is missing or cannot
    be written loses the line, and the caller's exit code stands."""
    if sys.stderr is None:  # descriptor 2 closed at start-up
        return
    try:
        print(f"qos-chain-guard: error: {message}", file=sys.stderr, flush=True)
    except OSError:  # a closed descriptor, a full disk
        _discard(sys.stderr)


def _write_output(output: str, code: int) -> int:
    """Write ``output`` to stdout and return ``code``, or EXIT_USAGE with
    one error line when stdout cannot be written."""
    if sys.stdout is None:  # descriptor 1 closed at start-up
        _print_error("cannot write output: stdout is closed")
        return EXIT_USAGE
    try:
        sys.stdout.write(output)
        sys.stdout.flush()
    except OSError as exc:  # a full disk, a closed pipe
        _print_error(f"cannot write output: {exc.strerror or exc}")
        _discard(sys.stdout)
        return EXIT_USAGE
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_arg_parser()
    # argparse prints --help and --version itself and ignores a failed write,
    # so what it prints is caught here and written like any other output.
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code != 0:  # a usage error, already reported on stderr
            raise
        return _write_output(printed.getvalue(), EXIT_CLEAN)
    command = {"check": _cmd_check, "rules": _cmd_rules, "graph": _cmd_graph}[args.command]
    # A command makes no reference cycles that grow with its input (what it
    # builds is freed by reference counting), so the cyclic collector is
    # paused, process-wide, while it runs, and turned back on only if it was.
    collecting = gc.isenabled()
    gc.disable()
    try:
        output, code = command(args)
    except (ProfileLoadError, PairingError, EnvironmentLoadError) as exc:
        _print_error(str(exc))
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()
    return _write_output(output, code)


def run() -> None:
    """The console script: run ``main`` on ``sys.argv`` and exit with its code.

    Once ``main`` is done the process is about to end, so the heap is
    frozen: the interpreter's collections at shutdown then skip it instead
    of walking all that ``check`` imported and built.  ``atexit`` handlers
    still run.  ``main`` itself pauses the collector only while its
    command runs, and turns it back on if it was on; the Python API does
    not touch it.
    """
    try:
        code = main()
    finally:  # a usage error leaves main by SystemExit
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
