"""Expected report counts from the test suite's independent rule transcription.

Usage (prints the expected counts as one JSON object):
    python3 perfbench/oracle.py --workload NAME --seed N

The expected outcome of every rule on every endpoint and pair comes from
``expected_single`` and ``expected_pair`` in ``tests/test_differential.py``,
and each rule's stage, scope and severity from ``tests/catalog_fixture.py``.
Both are imported, not copied, so the oracle follows any change made to
them.  The oracle runs in its own process because importing the test module
pulls in Hypothesis, which must not weigh on the measured process.

``report_counts`` reads the same counts back out of a rendered report.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCOPES = {"writer": ("either", "DataWriter"), "reader": ("either", "DataReader")}


def expected_counts(workload: workloads.Workload) -> dict:
    """Violations per rule, skips per rule and reason, pairs and exit code."""
    for sub in ("tests", "src"):
        path = os.path.join(ROOT, sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    from catalog_fixture import EXPECTED_CATALOG
    from test_differential import expected_pair, expected_single

    single = {
        kind: [
            rule_id
            for rule_id, (_, stage, _, scope) in sorted(EXPECTED_CATALOG.items())
            if stage in (1, 3) and scope in scopes
        ]
        for kind, scopes in _SCOPES.items()
    }
    pair_rules = [rule_id for rule_id, (_, stage, _, _) in sorted(EXPECTED_CATALOG.items()) if stage == 2]

    violations: Counter = Counter()
    skipped: Counter = Counter()

    def tally(rule_id: int, outcome: tuple[str, str | None]) -> None:
        verdict, reason = outcome
        if verdict == "violation":
            violations[str(rule_id)] += 1
        elif verdict == "skip":
            skipped[f"{rule_id}:{reason}"] += 1

    rtt = workload.rtt_ns()
    topics: dict[str, tuple[list, list]] = {}
    for ep in workload.endpoints:
        pp = workload.pp_ns(ep.name)
        for rule_id in single[ep.kind]:
            tally(rule_id, expected_single(rule_id, ep.record, rtt, pp))
        writers, readers = topics.setdefault(ep.topic, ([], []))
        (writers if ep.kind == "writer" else readers).append(ep.record)
    pairs = 0
    for writers, readers in topics.values():
        for w in writers:
            for r in readers:
                pairs += 1
                for rule_id in pair_rules:
                    tally(rule_id, expected_pair(rule_id, w, r))
    critical = any(
        violations[str(rule_id)] for rule_id, (_, _, severity, _) in EXPECTED_CATALOG.items()
        if severity == "critical"
    )
    return {
        "violations": dict(sorted(violations.items())),
        "skipped": dict(sorted(skipped.items())),
        "pairs": pairs,
        "exit_code": 1 if critical else 0,
    }


_HUMAN_LINE = re.compile(r"^  (ERROR|WARNING|INFO|SKIP) \[rule (\d+) ")


def report_counts(text: str, fmt: str) -> dict:
    """The counts ``expected_counts`` predicts, read from a rendered report.

    The human report lists no pairs, so ``pairs`` is None for it.
    """
    violations: Counter = Counter()
    skipped: Counter = Counter()
    if fmt == "json":
        payload = json.loads(text)
        for v in payload["diagnostics"]:
            violations[str(v["rule_id"])] += 1
        for s in payload["skipped"]:
            skipped[f"{s['rule_id']}:{s['reason']}"] += 1
        pairs = len(payload["pairs"])
    else:
        for line in text.splitlines():
            match = _HUMAN_LINE.match(line)
            if match is None:
                continue
            if match.group(1) == "SKIP":
                skipped[f"{match.group(2)}:{line.rsplit(' — ', 1)[1]}"] += 1
            else:
                violations[match.group(2)] += 1
        pairs = None
    return {
        "violations": dict(sorted(violations.items())),
        "skipped": dict(sorted(skipped.items())),
        "pairs": pairs,
    }


def mismatches(expected: dict, actual: dict) -> list[str]:
    """Human-readable differences between expected and reported counts."""
    problems = []
    for key in ("violations", "skipped"):
        for item in sorted(set(expected[key]) | set(actual[key])):
            want, got = expected[key].get(item, 0), actual[key].get(item, 0)
            if want != got:
                problems.append(f"{key}[{item}]: expected {want}, report has {got}")
    if actual["pairs"] is not None and actual["pairs"] != expected["pairs"]:
        problems.append(f"pairs: expected {expected['pairs']}, report has {actual['pairs']}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(expected_counts(workloads.generate(args.workload, args.seed))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
