"""Spans around the program's layer entry points, recorded from outside.

``Tracer.install`` replaces module attributes that callers look up at call
time (``cli.run_pipeline``, ``pipeline.evaluate_pair_rules``, ...) with
wrappers that record one span per call: name, start, end and parent.
Spans are kept in flat arrays, which the cyclic GC does not scan, and are
summarized after the run.  ``Tracer.uninstall`` puts every original back.

A wrapped attribute that does not exist is reported as missing, never as a
zero, so a later refactor that renames a layer shows up in the output.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from typing import Callable

PACKAGE = "qos_chain_guard"


def _stage_name(args, kwargs) -> str:
    stage = kwargs["stage"] if "stage" in kwargs else args[1]
    return f"rules.stage{stage}"


def _render_name(args, kwargs) -> str:
    fmt = kwargs.get("fmt", args[1] if len(args) > 1 else "human")
    return f"pipeline.render_{fmt}"


def _count_outcomes(tracer, name, args, kwargs, result) -> None:
    tracer.counters[f"{name}.outcomes"] += len(result)


def _count_pairs(tracer, name, args, kwargs, result) -> None:
    tracer.counters["pipeline.pairs"] += len(result)


def _count_report(tracer, name, args, kwargs, result) -> None:
    tracer.counters["rules.violations"] += len(result.violations)
    tracer.counters["rules.skipped"] += len(result.skipped)
    tracer.last_profile_set = args[0]


def _count_rendered(tracer, name, args, kwargs, result) -> None:
    tracer.counters[f"{name}.chars"] += len(result)


# (module, attribute, span name or a function of the call's arguments,
#  optional hook run on the result after the span has ended)
WRAPPED: tuple[tuple[str, str, str | Callable, Callable | None], ...] = (
    ("cli", "main", "cli.main", None),
    ("cli", "load_environment", "cli.load_environment", None),
    ("cli", "load_profile_files", "cli.load_profile_files", None),
    ("profiles", "parse_document", "profiles.parse_document", None),
    ("profiles", "parse_profiles", "profiles.parse_profiles", None),
    ("profiles", "resolve_defaults", "model.resolve_defaults", None),
    ("cli", "build_pairing_plan", "pipeline.build_pairing_plan", _count_pairs),
    ("cli", "run_pipeline", "pipeline.run_pipeline", _count_report),
    ("pipeline", "evaluate_endpoint_rules", _stage_name, _count_outcomes),
    ("pipeline", "evaluate_pair_rules", "rules.stage2", _count_outcomes),
    ("cli", "render_report", _render_name, _count_rendered),
)

# Span names each wrapped attribute can produce, for reporting missing ones.
SPAN_NAMES = {
    ("pipeline", "evaluate_endpoint_rules"): ("rules.stage1", "rules.stage3"),
    ("cli", "render_report"): ("pipeline.render_json", "pipeline.render_human"),
}


class Tracer:
    """Records spans of wrapped calls into flat arrays."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._open: list[int] = []
        self.counters: Counter[str] = Counter()
        self.last_profile_set = None
        self.missing: list[str] = []
        self._originals: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, name: str | Callable, hook: Callable | None = None) -> Callable:
        """A wrapper of ``fn`` that records a span per call."""
        fixed_id = self._name_id(name) if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            if fixed_id is None:
                span_name = name(args, kwargs)
                nid = self._name_id(span_name)
            else:
                span_name, nid = name, fixed_id
            index = len(self.starts)
            self.name_ids.append(nid)
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(0.0)
            self._open.append(index)
            self.starts.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = self.clock()
                self._open.pop()
            if hook is not None:
                hook(self, span_name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> list[str]:
        """Wrap every attribute in WRAPPED; return the span names found missing."""
        self.missing = []
        for module_name, attr, name, hook in WRAPPED:
            span_names = SPAN_NAMES.get((module_name, attr), (name,))
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.extend(span_names)
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, hook))
        return self.missing

    def uninstall(self) -> None:
        """Restore every attribute that install() replaced."""
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def summarize(self, lo: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds of spans[lo:].

        Self time is a span's duration minus the durations of its child
        spans, which never overlap in this single-threaded program.
        """
        durations = [end - start for start, end in zip(self.starts[lo:], self.ends[lo:])]
        children_s = [0.0] * len(durations)
        for i in range(lo, len(self.starts)):
            parent = self.parents[i]
            if parent >= lo:
                children_s[parent - lo] += durations[i - lo]
        out: dict[str, dict[str, float]] = {}
        for i, duration in enumerate(durations):
            entry = out.setdefault(self.names[self.name_ids[lo + i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - children_s[i]
        return out
