#!/usr/bin/env python3
"""Time the phases of fresh CLI runs: start-up, import, ``main`` and exit.

    python3 tools/cli_phases.py --base HEAD~1 --rounds 25 -- check profiles/ --env env.json

Each run is a fresh ``python -c`` interpreter whose wrapper code stamps
``time.monotonic_ns()`` before it imports the package, after the import,
and when ``cli.main`` returns; it wraps ``cli.main`` and then calls
``cli.run()``, so the run exits the way the installed command does.  The
stamps go to a file, never to stdout or stderr, which go to the null
device.  This process stamps the spawn and the return of ``wait4``.  So:

* start: spawn to the first stamp (interpreter start-up and ``site``);
* import: ``from qos_chain_guard import cli``;
* main: ``cli.main`` with ARGS;
* exit: ``main`` returning to the process being reaped (``run``'s exit
  path, ``atexit``, the interpreter's shutdown).

After its last stamp the wrapper also reads the run's peak resident set
(``VmHWM`` in ``/proc/self/status``), so the peak is the CLI's own, not
that of the process that started it; where that file is missing, the
peak column reads n/a.

With ``--base``, the ``src/`` tree of that revision is extracted with
``git archive`` (as ``compare_reports.py`` does) and runs alternate with
the working tree's, which side goes first alternating too, after one
unrecorded warm-up run per side.  This
process and its children are pinned to one CPU.  The median of each
phase, in ms, and of the peak, in MB (MiB), is printed per side, with
the exit codes seen and the bytecode mode: under
``PYTHONDONTWRITEBYTECODE`` every run compiles the package from source,
which shows in import.  Needs only the standard library (and git for
``--base``).
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from compare_reports import extract_src  # tools/compare_reports.py, beside this file

ROOT = Path(__file__).resolve().parents[1]
PHASES = ("start", "import", "main", "exit")

# Run as ``python -c WRAPPER STAMPS ARGS...``.  The stamp file is opened
# before the first stamp and written after ``main`` returns, so neither
# the open nor the import of ``os`` counts in any phase but start.  The
# peak RSS in KiB, when it can be read, follows the stamps.
WRAPPER = """\
import os, sys, time
_fd = os.open(sys.argv.pop(1), os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
_stamps = [time.monotonic_ns()]
from qos_chain_guard import cli
_stamps.append(time.monotonic_ns())
_main = cli.main
def _stamped_main(argv=None):
    try:
        return _main(argv)
    finally:
        _stamps.append(time.monotonic_ns())
        try:
            with open("/proc/self/status", "rb") as _status:
                _stamps.extend(line.split()[1].decode() for line in _status if line.startswith(b"VmHWM:"))
        except OSError:
            pass
        os.write(_fd, " ".join(map(str, _stamps)).encode())
        os.close(_fd)
cli.main = _stamped_main
cli.run()
"""


def pin_to_one_cpu() -> str:
    """Pin this process, and so its children, to one CPU; say which."""
    if not hasattr(os, "sched_setaffinity"):
        return "unpinned (no sched_setaffinity)"
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except OSError as exc:
        return f"unpinned ({exc})"
    return f"pinned to CPU {cpu}"


def bytecode_mode() -> str:
    if os.environ.get("PYTHONDONTWRITEBYTECODE"):
        return "bytecode not written (PYTHONDONTWRITEBYTECODE set): each run compiles from source"
    return "bytecode written and reused (PYTHONDONTWRITEBYTECODE unset)"


def run_once(src: str, args: list[str], stamps_path: str) -> tuple[int, dict[str, float], float | None]:
    """One fresh CLI run with ``src`` on the path: exit code, phase ms and
    peak RSS in MB (None where it cannot be read)."""
    env = {**os.environ, "PYTHONPATH": src}
    spawned = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, "-c", WRAPPER, stamps_path, *args],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _, status, _ = os.wait4(proc.pid, 0)
    reaped = time.monotonic_ns()
    code = os.waitstatus_to_exitcode(status)
    with open(stamps_path, encoding="ascii") as handle:
        stamps = [int(field) for field in handle.read().split()]
    if len(stamps) not in (3, 4):
        raise RuntimeError(f"run exited {code} without stamping main's return (stamps: {stamps})")
    peak = stamps.pop() / 1024 if len(stamps) == 4 else None
    edges = [spawned, *stamps, reaped]
    return code, {phase: (end - begin) / 1e6 for phase, begin, end in zip(PHASES, edges, edges[1:])}, peak


def measure(sides: dict[str, str], args: list[str], rounds: int, directory: str) -> dict[str, dict]:
    """Alternate the sides for ``rounds`` rounds after one warm-up each;
    every other round runs them in reverse order."""
    stamps_path = os.path.join(directory, "stamps")
    results = {label: {"codes": set(), "peak": [], **{phase: [] for phase in PHASES}} for label in sides}
    order = list(sides.items())
    for _, src in order:
        run_once(src, args, stamps_path)
    for round_ in range(rounds):
        for label, src in order if round_ % 2 == 0 else order[::-1]:
            code, phases, peak = run_once(src, args, stamps_path)
            results[label]["codes"].add(code)
            results[label]["peak"].append(peak)
            for phase, ms in phases.items():
                results[label][phase].append(ms)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", metavar="REV", help="git revision to alternate with the working tree")
    parser.add_argument("--rounds", type=int, default=25, metavar="N", help="recorded runs per side")
    parser.add_argument("args", nargs="+", metavar="ARGS", help="the CLI's arguments, after --")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    print(f"{bytecode_mode()}; {pin_to_one_cpu()}; {args.rounds} round(s)")
    with tempfile.TemporaryDirectory(prefix="cli_phases_") as workdir:
        sides = {}
        if args.base:
            sides[f"base {args.base}"] = extract_src(args.base, os.path.join(workdir, "base"))
        sides["working tree"] = str(ROOT / "src")
        results = measure(sides, args.args, args.rounds, workdir)
    width = max(map(len, results))
    print(f"{'median ms':<{width}}  " + "  ".join(f"{phase:>7}" for phase in PHASES) + "  peak MB  exit codes")
    for label, result in results.items():
        medians = "  ".join(f"{statistics.median(result[phase]):7.2f}" for phase in PHASES)
        peak = "n/a" if None in result["peak"] else f"{statistics.median(result['peak']):.1f}"
        print(f"{label:<{width}}  {medians}  {peak:>7}  {' '.join(map(str, sorted(result['codes'])))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
