"""Closed-loop in-process check runner, started by run.py in a fresh process.

Usage:
    python3 perfbench/worker.py --argv ARGV_JSON --budget SECONDS --trace 0|1 \
        --min-samples N --out RESULT_JSON --first-output FILE

Imports the program, runs one warm-up ``check``, then calls
``cli.main(argv)`` one call after another, stdout captured, until the time
budget is spent and at least --min-samples checks are timed.  Each call
starts from a collected heap, as a fresh CLI process does, and runs
between two runs of the speed.py reference task, by whose mean time it is
scaled.  Every
output is compared byte for byte with the warm-up's, which is written to
--first-output for the oracle check.  With --trace 1,
each untraced check is followed by a traced one: spans.Tracer wraps the
layer entry points and gc.callbacks times the collector, and the per-check
medians of the layer metrics go to --out.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import statistics
import sys
import time
import traceback

from spans import Tracer
from speed import reference_time, scaled

MIN_SAMPLES = 3
MAX_SAMPLES = 2000

# Per-layer metric -> unit.  Values are per check; ms and us are scaled
# to reference speed like every other timing.
LAYER_UNITS = {
    "profiles.parse_document.ms": "ms",
    "profiles.parse_document.calls": "count",
    "profiles.parse_profiles.ms": "ms",
    "model.resolve_defaults.ms": "ms",
    "model.resolve_defaults.calls": "count",
    "rules.stage1.ms": "ms",
    "rules.stage1.calls": "count",
    "rules.stage1.outcomes": "count",
    "rules.stage2.ms": "ms",
    "rules.stage2.calls": "count",
    "rules.stage2.outcomes": "count",
    "rules.stage3.ms": "ms",
    "rules.stage3.calls": "count",
    "rules.stage3.outcomes": "count",
    "rules.us_per_outcome": "us",
    "rules.violations": "count",
    "rules.skipped": "count",
    "pipeline.build_pairing_plan.ms": "ms",
    "pipeline.pairs": "count",
    "pipeline.run_pipeline.ms": "ms",
    "pipeline.render_json.ms": "ms",
    "pipeline.render_json.kb": "kchar",
    "pipeline.render_human.ms": "ms",
    "pipeline.render_human.kb": "kchar",
    "cli.main.ms": "ms",
    "cli.load_profile_files.ms": "ms",
    "cli.load_environment.ms": "ms",
    "gc.pause_ms": "ms",
    "gc.collections": "count",
}


def _layer_metrics(spans: dict, counters: dict, gc_stats: tuple[int, float]) -> dict[str, float]:
    """One check's layer metrics from its span summary and counters."""

    def total_ms(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0) * 1000

    def self_ms(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0) * 1000

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    stages = ("rules.stage1", "rules.stage2", "rules.stage3")
    outcomes = sum(counters[f"{s}.outcomes"] for s in stages)
    out = {
        "profiles.parse_document.ms": total_ms("profiles.parse_document"),
        "profiles.parse_document.calls": calls("profiles.parse_document"),
        "profiles.parse_profiles.ms": self_ms("profiles.parse_profiles"),
        "model.resolve_defaults.ms": total_ms("model.resolve_defaults"),
        "model.resolve_defaults.calls": calls("model.resolve_defaults"),
        "rules.us_per_outcome": sum(total_ms(s) for s in stages) * 1000 / outcomes if outcomes else 0.0,
        "rules.violations": counters["rules.violations"],
        "rules.skipped": counters["rules.skipped"],
        "pipeline.build_pairing_plan.ms": total_ms("pipeline.build_pairing_plan"),
        "pipeline.pairs": counters["pipeline.pairs"],
        "pipeline.run_pipeline.ms": self_ms("pipeline.run_pipeline"),
        "cli.main.ms": self_ms("cli.main"),
        "cli.load_profile_files.ms": self_ms("cli.load_profile_files"),
        "cli.load_environment.ms": total_ms("cli.load_environment"),
        "gc.collections": gc_stats[0],
        "gc.pause_ms": gc_stats[1] * 1000,
    }
    for stage in stages:
        out[f"{stage}.ms"] = total_ms(stage)
        out[f"{stage}.calls"] = calls(stage)
        out[f"{stage}.outcomes"] = counters[f"{stage}.outcomes"]
    for fmt in ("json", "human"):
        out[f"pipeline.render_{fmt}.ms"] = total_ms(f"pipeline.render_{fmt}")
        out[f"pipeline.render_{fmt}.kb"] = counters[f"pipeline.render_{fmt}.chars"] / 1000
    return out


# Span names whose absence makes a metric missing rather than zero.
_NEEDS = {
    "rules.us_per_outcome": ("rules.stage1", "rules.stage2", "rules.stage3"),
    "rules.violations": ("pipeline.run_pipeline",),
    "rules.skipped": ("pipeline.run_pipeline",),
    "pipeline.pairs": ("pipeline.build_pairing_plan",),
}


def _needed_spans(metric: str) -> tuple[str, ...]:
    if metric in _NEEDS:
        return _NEEDS[metric]
    return (metric.rsplit(".", 1)[0],)


class GcTimer:
    """Counts collections and sums their pauses through gc.callbacks."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._started

    def reset(self) -> None:
        self.collections = 0
        self.pause_s = 0.0


def _distinct_qos_classes(profile_set) -> int | str:
    try:
        return len({endpoint.qos for endpoint in profile_set})
    except (AttributeError, TypeError):
        return "missing"


def run(
    argv: list[str], budget: float, trace: bool, warmup_only: bool = False, min_samples: int = MIN_SAMPLES
) -> tuple[dict, bytes]:
    before_import = reference_time()
    started = time.perf_counter()
    from qos_chain_guard import cli

    import_s = time.perf_counter() - started

    def check() -> tuple[int | None, str, float]:
        buffer = io.StringIO()
        saved, sys.stdout = sys.stdout, buffer
        began = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed check; keep measuring
            code = None
            traceback.print_exc(file=sys.stderr)
        finally:
            elapsed = time.perf_counter() - began
            sys.stdout = saved
        return code, buffer.getvalue(), elapsed

    before_warmup = reference_time()
    import_s = scaled(import_s, before_import, before_warmup)
    warm_code, first, warmup_s = check()
    # The reference run before each check, and after the one before it.
    references = [reference_time()]
    warmup_s = scaled(warmup_s, before_warmup, references[0])
    codes: list[int | None] = [warm_code]
    matches = [True]

    tracer = Tracer()
    gc_timer = GcTimer()

    def timed_check(traced: bool) -> tuple[float, float]:
        """One check between two reference runs: raw and scaled seconds."""
        gc.collect()
        if traced:
            tracer.install()
            tracer.counters.clear()
            gc_timer.reset()
            gc.callbacks.append(gc_timer)
        try:
            code, output, elapsed = check()
        finally:
            if traced:
                gc.callbacks.remove(gc_timer)
                tracer.uninstall()
        references.append(reference_time())
        codes.append(code)
        matches.append(output == first)
        return elapsed, scaled(elapsed, references[-2], references[-1])

    samples: list[float] = []  # scaled by speed.scaled
    raw_samples: list[float] = []
    traced_samples: list[float] = []
    per_check: list[dict[str, float]] = []
    cycles: list[float] = []
    deadline = time.perf_counter() + budget
    while not warmup_only and len(samples) < MAX_SAMPLES:
        cycle_began = time.perf_counter()
        raw, value = timed_check(traced=False)
        raw_samples.append(raw)
        samples.append(value)
        if trace:
            # A traced check right after each untraced one: their difference
            # is what tracing costs.
            first_span = len(tracer)
            raw, value = timed_check(traced=True)
            traced_samples.append(value)
            metrics = _layer_metrics(
                tracer.summarize(first_span), tracer.counters, (gc_timer.collections, gc_timer.pause_s)
            )
            for name, unit in LAYER_UNITS.items():
                if unit in ("ms", "us"):
                    metrics[name] *= value / raw
            per_check.append(metrics)
        cycles.append(time.perf_counter() - cycle_began)
        if len(samples) >= min_samples and time.perf_counter() + statistics.median(cycles) > deadline:
            break

    result = {
        "import_s": import_s,
        "warmup_s": warmup_s,
        "samples": samples,
        "raw_samples": raw_samples,
        "codes": codes,
        "matches": matches,
    }
    if trace:
        layers: dict[str, object] = {}
        for metric in LAYER_UNITS:
            if any(name in tracer.missing for name in _needed_spans(metric)):
                layers[metric] = "missing"
            else:
                layers[metric] = statistics.median(check[metric] for check in per_check)
        layers["model.distinct_qos_classes"] = (
            "missing" if tracer.last_profile_set is None else _distinct_qos_classes(tracer.last_profile_set)
        )
        result["layers"] = layers
        result["traced_samples"] = traced_samples
        result["missing_spans"] = tracer.missing
    return result, first.encode("utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--argv", required=True, help="JSON list of cli.main arguments")
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--first-output", required=True)
    parser.add_argument("--warmup-only", action="store_true", help="stop after the warm-up check")
    parser.add_argument("--min-samples", type=int, default=MIN_SAMPLES)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    result, first = run(json.loads(args.argv), args.budget, bool(args.trace), args.warmup_only, args.min_samples)
    with open(args.first_output, "wb") as handle:
        handle.write(first)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
