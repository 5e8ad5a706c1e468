"""Machine-speed reference that the benchmark's timings are scaled by.

On a shared host the CPU's speed drifts by tens of percent over seconds
and minutes: medians of the same checks taken a minute apart differ by
more than any useful regression bound.  So every timed operation is
bracketed by two runs of a fixed reference task, one just before it and
one just after, and is reported as

    wall time * REFERENCE_S / mean wall time of those two reference runs,

that is, in seconds at the machine speed where the reference task takes
REFERENCE_S.  The task does the kind of work the program does most
(allocating small frozen dataclasses, formatting strings, hashing, sorting,
``json.dumps``), uses nothing of the program and runs on a freshly
collected heap, so a change to the program cannot move it.  The raw wall
times are printed next to the scaled ones.

On a shared 2-CPU host, 305 CLI runs were cut into 16 windows of 18 runs.
The spread (IQR / median) of the window medians was 0.125 for raw wall
times, 0.032 when scaled by the reference run before each CLI run, and
0.019 when scaled by the mean of the runs before and after it.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from dataclasses import dataclass

REFERENCE_S = 0.05
_ITEMS = 20_000


@dataclass(frozen=True)
class _Item:
    index: int
    name: str
    pair: tuple[int, int]


def _reference_task() -> int:
    items = [_Item(i, f"name{i}", (i, 2 * i)) for i in range(_ITEMS)]
    by_name = {item.name: item for item in items}
    ordered = sorted(items, key=lambda item: (item.pair[1] % 7, item.name))
    text = json.dumps([{"index": item.index, "name": item.name} for item in ordered[: _ITEMS // 2]])
    return len(text) + len(by_name)


def reference_time() -> float:
    """Wall seconds of one run of the reference task, on a collected heap.

    Collecting first keeps the garbage that the previous timed operation
    left from being freed, and timed, inside the reference run.
    """
    gc.collect()
    began = time.perf_counter()
    _reference_task()
    return time.perf_counter() - began


def scaled(wall_s: float, *reference_s: float) -> float:
    """A wall time in seconds at reference speed.

    ``reference_s`` are the reference runs that bracket it.
    """
    return wall_s * REFERENCE_S / statistics.fmean(reference_s)
