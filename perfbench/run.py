"""Benchmark of ``qos-chain-guard check``: seeded workloads, oracle-checked.

Usage, from the root of the repository:
    python3 perfbench/run.py --workload wide --seed 1 --seconds 26 --trace 0

One client runs checks one after another (a closed loop).  The benchmark
writes the seeded workload's XML and environment file under
.perfbench_work/ and gives the program only those files.

--trace 0 prints the end-to-end metrics: the in-process ``cli.main`` check
time (median and tail), the ``python -m qos_chain_guard.cli`` subprocess
time and peak RSS, and the set-up time.  --trace 1 prints the per-layer
metrics of traced in-process checks, each run right after an untraced one;
the difference is the tracing overhead.  Times are scaled to reference
speed (see speed.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A check fails on a wrong
exit code, or on output that differs from the run's first output, or when
that first output's counts differ from the oracle's.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import oracle
import workloads
from speed import reference_time, scaled
from worker import LAYER_UNITS, MIN_SAMPLES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORK = ".perfbench_work"
SETUP_REPEATS = 3
MIN_CLI_RUNS = 3
# Share of --seconds spent on in-process checks; the rest goes to CLI runs
# (--trace 0) or to timing the import (--trace 1).
IN_PROCESS_SHARE = {0: 0.5, 1: 0.8}
# In-process checks timed at least, with --trace 0: check_tail_s, with ten
# samples above it, is then p67 or higher.
TAIL_MIN_SAMPLES = 31
MAX_IMPORT_PAIRS = 40

END_TO_END_UNITS = {
    "check_s": "s",
    "check_tail_s": "s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict[str, str]:
    return {
        **LAYER_UNITS,
        "profiles.input_kb": "KiB",
        "model.distinct_qos_classes": "count",
        "import.ms": "ms",
        "trace.overhead_ms": "ms",
        "failed_frac": "ratio",
    }


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest order statistic with at least ten samples above it.

    With fewer than eleven samples no such statistic exists, and the
    maximum is returned instead.  The label says which one it is.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n}"
    index = n - 11
    return ordered[index], f"p{100 * index / (n - 1):.0f} of {n}"


def pin_to_one_cpu() -> None:
    """Run this process and every child on one CPU.

    The speed reference then measures the CPU that the timed work runs on;
    on a shared host two CPUs can run at different speeds at one moment.
    """
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError as exc:
            print(f"perfbench: running unpinned: {exc}", file=sys.stderr)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def set_up(name: str, seed: int, directory: str):
    """Generate and write the workload several times; all copies must match.

    Returns the workload, where it was written, and each repetition's time.
    """
    times, digests = [], set()
    reference = reference_time()
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        workload = workloads.generate(name, seed)
        written = workloads.write(workload, directory)
        elapsed = time.perf_counter() - began
        after = reference_time()
        times.append(scaled(elapsed, reference, after))
        reference = after
        digests.add(written.digest)
    if len(digests) != 1:
        raise RuntimeError(f"generator is not deterministic for seed {seed}: {sorted(digests)}")
    return workload, written, times


def run_oracle(name: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "oracle.py"), "--workload", name, "--seed", str(seed)],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout)


def run_worker(
    argv: list[str], budget: float, directory: str, trace: bool = False, warmup_only: bool = False,
    min_samples: int = MIN_SAMPLES,
) -> tuple[dict, bytes]:
    """Run worker.py in a fresh process; return its result and first output."""
    out_path = os.path.join(directory, "worker.json")
    first_path = os.path.join(directory, "worker.out")
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--argv", json.dumps(argv), "--budget", f"{budget:.3f}", "--trace", str(int(trace)),
        "--min-samples", str(min_samples), "--out", out_path, "--first-output", first_path,
    ]
    if warmup_only:
        command.append("--warmup-only")
    subprocess.run(command, cwd=ROOT, env=_child_env(), check=True, timeout=170)
    with open(out_path, encoding="utf-8") as handle:
        result = json.load(handle)
    with open(first_path, "rb") as handle:
        return result, handle.read()


def run_cli(argv: list[str]) -> tuple[int, bytes, float, float]:
    """One ``python -m qos_chain_guard.cli`` run: exit code, stdout, raw wall s, peak RSS MB."""
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "qos_chain_guard.cli", *argv],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
    )
    with proc.stdout:
        output = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, output, elapsed, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def time_import(budget: float) -> float:
    """Median fresh ``import qos_chain_guard.cli`` minus a bare interpreter start, in scaled ms."""
    bare, full = [], []
    deadline = time.perf_counter() + budget
    reference = reference_time()
    for round_ in range(MAX_IMPORT_PAIRS):
        if round_ >= 3 and time.perf_counter() > deadline:
            break
        for code, into in (("pass", bare), ("import qos_chain_guard.cli", full)):
            began = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(), check=True, timeout=60)
            elapsed = time.perf_counter() - began
            after = reference_time()
            into.append(scaled(elapsed, reference, after))
            reference = after
    return (statistics.median(full) - statistics.median(bare)) * 1000


class Verdicts:
    """Counts attempted and failed checks.

    ``first_output`` is the run's first report; it must match the oracle's
    counts, and every later output must equal it byte for byte.
    """

    def __init__(self, expected: dict, first_output: bytes, fmt: str) -> None:
        self.expected_code = expected["exit_code"]
        self.first_output = first_output
        try:
            problems = oracle.mismatches(expected, oracle.report_counts(first_output.decode("utf-8"), fmt))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            # A crash, invalid JSON or a renamed report key: the report
            # cannot be read, so it cannot match the oracle.
            problems = [f"report unreadable: {type(exc).__name__}: {exc}"]
        for problem in problems[:20]:
            print(f"perfbench: oracle mismatch: {problem}", file=sys.stderr)
        self.first_output_ok = not problems
        self.attempted = 0
        self.failed = 0

    def add(self, code: int | None, output_matches: bool) -> None:
        self.attempted += 1
        if not (self.first_output_ok and output_matches and code == self.expected_code):
            self.failed += 1

    def add_worker(self, result: dict, worker_first_output: bytes) -> None:
        # The worker compared each of its outputs with its own first one.
        same = worker_first_output == self.first_output
        for code, match in zip(result["codes"], result["matches"]):
            self.add(code, same and match)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(argv, seconds, in_process, generate_s, verdicts, directory) -> dict:
    # Set-up is repeated: two more fresh workers import the program and run
    # their warm-up check, next to the one the samples came from.
    warmups = [in_process]
    for _ in range(SETUP_REPEATS - 1):
        result, first = run_worker(argv, 0.0, directory, warmup_only=True)
        verdicts.add_worker(result, first)
        warmups.append(result)
    setup_s = statistics.median(
        generate + w["import_s"] + w["warmup_s"] for generate, w in zip(generate_s, warmups)
    )

    cli_times, raw_cli_times, cycles, rss = [], [], [], []
    deadline = time.perf_counter() + (1 - IN_PROCESS_SHARE[0]) * seconds
    reference = reference_time()
    while len(cli_times) < MIN_CLI_RUNS or time.perf_counter() + statistics.median(cycles) <= deadline:
        cycle_began = time.perf_counter()
        code, output, elapsed, peak = run_cli(argv)
        after = reference_time()
        verdicts.add(code, output == verdicts.first_output)
        raw_cli_times.append(elapsed)
        cli_times.append(scaled(elapsed, reference, after))
        reference = after
        rss.append(peak)
        cycles.append(time.perf_counter() - cycle_began)

    tail_s, tail_label = tail(in_process["samples"])
    print(
        f"perfbench: check_s over {len(in_process['samples'])} checks, check_tail_s = {tail_label}, "
        f"cli_s over {len(cli_times)} runs; raw wall medians: check "
        f"{statistics.median(in_process['raw_samples']):.4f} s, cli {statistics.median(raw_cli_times):.4f} s"
    )
    values = {
        "check_s": statistics.median(in_process["samples"]),
        "check_tail_s": tail_s,
        "cli_s": statistics.median(cli_times),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": setup_s,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer(seconds, written, traced, verdicts) -> dict:
    layers = traced["layers"]
    layers["profiles.input_kb"] = written.xml_bytes / 1024
    layers["import.ms"] = time_import((1 - IN_PROCESS_SHARE[1]) * seconds)
    # Each traced check ran right after an untraced one: take the median
    # of the paired differences.
    layers["trace.overhead_ms"] = statistics.median(
        with_spans - without for with_spans, without in zip(traced["traced_samples"], traced["samples"])
    ) * 1000
    layers["failed_frac"] = verdicts.failed / verdicts.attempted
    for name in traced["missing_spans"]:
        print(f"perfbench: span {name} is missing: its wrapped function no longer exists")
    print(
        f"perfbench: {len(traced['traced_samples'])} traced checks, each after an untraced one; "
        f"trace.overhead_ms={layers['trace.overhead_ms']:.1f}"
    )
    return {name: _metric(layers[name], unit) for name, unit in per_layer_units().items()}


def measure(args, workload, written, argv, expected, generate_s, directory) -> dict:
    trace = bool(args.trace)
    in_process, first_output = run_worker(
        argv, IN_PROCESS_SHARE[args.trace] * args.seconds, directory, trace,
        min_samples=MIN_SAMPLES if trace else TAIL_MIN_SAMPLES,
    )
    verdicts = Verdicts(expected, first_output, workload.fmt)
    verdicts.add_worker(in_process, first_output)
    if trace:
        metrics = per_layer(args.seconds, written, in_process, verdicts)
    else:
        metrics = end_to_end(argv, args.seconds, in_process, generate_s, verdicts, directory)
    print(f"perfbench: failed_frac = {verdicts.failed}/{verdicts.attempted} checks")
    return {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of qos-chain-guard check.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/qos_chain_guard/cli.py", "tests/test_differential.py", "tests/catalog_fixture.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}; run from a full checkout", file=sys.stderr)
            return 2

    # The program sees paths relative to the checkout root.
    os.chdir(ROOT)
    pin_to_one_cpu()
    directory = os.path.join(WORK, args.workload)
    try:
        workload, written, generate_s = set_up(args.workload, args.seed, directory)
        argv = workloads.check_argv(workload, written)
        expected = run_oracle(args.workload, args.seed)
        print(
            f"perfbench: workload={args.workload} seed={args.seed} endpoints={len(workload.endpoints)} "
            f"pairs={expected['pairs']} files={len(workload.files)} xml_bytes={written.xml_bytes} "
            f"inputs_sha256={written.digest}"
        )
        result = measure(args, workload, written, argv, expected, generate_s, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
