"""Self-tests of the benchmark.

Run from the repository root:
    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import os
import random
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qos_chain_guard import cli  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    first = workloads.write(workloads.generate(name, 7), str(tmp_path / "a"))
    again = workloads.write(workloads.generate(name, 7), str(tmp_path / "b"))
    other = workloads.write(workloads.generate(name, 8), str(tmp_path / "c"))
    assert first.digest == again.digest
    assert first.xml_bytes == again.xml_bytes
    assert other.digest != first.digest


def _tiny_workload(fmt: str, env: dict | None) -> workloads.Workload:
    draw = workloads.Draw(random.Random(3))
    eps = [
        workloads.Endpoint(f"{kind[0]}{i}", kind, "tiny/t", workloads.random_record(draw, kind), workloads.ALL_POLICIES)
        for kind in ("writer", "reader")
        for i in range(4)
    ]
    eps.append(workloads.bundle_endpoint("bundled_w", "writer", "tiny/u", "failover"))
    eps.append(workloads.bundle_endpoint("bundled_r", "reader", "tiny/u", "sensor_data"))
    return workloads.Workload(fmt=fmt, files=[eps[:5], eps[5:]], env=env)


@pytest.mark.parametrize(
    "fmt, env",
    [
        ("json", {"rtt_ms": 100, "default_publish_period_ms": 20, "publish_period_ms": {"w1": 50}}),
        ("human", None),
    ],
)
def test_oracle_agrees_on_a_tiny_workload(fmt, env, tmp_path, capsys):
    workload = _tiny_workload(fmt, env)
    written = workloads.write(workload, str(tmp_path))
    expected = oracle.expected_counts(workload)
    assert expected["pairs"] == 4 * 4 + 1

    code = cli.main(workloads.check_argv(workload, written))
    report = capsys.readouterr().out

    assert oracle.mismatches(expected, oracle.report_counts(report, fmt)) == []
    assert code == expected["exit_code"]
    assert sum(expected["violations"].values()) > 0


def test_oracle_reports_a_wrong_count():
    expected = {"violations": {"21": 2}, "skipped": {}, "pairs": 3}
    actual = {"violations": {"21": 1, "3": 1}, "skipped": {}, "pairs": 3}
    assert oracle.mismatches(expected, actual) == [
        "violations[21]: expected 2, report has 1",
        "violations[3]: expected 0, report has 1",
    ]


@pytest.mark.parametrize(
    "fmt, output",
    [
        ("json", b""),
        ("json", b"Traceback (most recent call last):"),
        ("json", b'{"findings": [], "skipped": [], "pairs": []}'),
        ("json", b"[]"),
        ("json", b"\xff\xfe"),
        ("human", b"  SKIP [rule 3 without a reason"),
    ],
)
def test_an_unreadable_first_output_fails_every_check(fmt, output):
    expected = {"exit_code": 0, "violations": {}, "skipped": {}, "pairs": 0}
    verdicts = run.Verdicts(expected, output, fmt)
    verdicts.add(0, True)
    verdicts.add(0, True)
    assert not verdicts.first_output_ok
    assert (verdicts.attempted, verdicts.failed) == (2, 2)


def test_self_time_adds_up_to_the_parent_span():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap(lambda: None, "leaf")
    middle = tracer.wrap(lambda: [leaf(), leaf()], "middle")
    root = tracer.wrap(lambda: [middle(), leaf()], "root")

    root()
    summary = tracer.summarize()

    assert summary["leaf"]["calls"] == 3
    assert summary["root"]["total_s"] == sum(entry["self_s"] for entry in summary.values())
    assert summary["middle"]["self_s"] == summary["middle"]["total_s"] - 2 * 1.0
    assert summary["root"]["self_s"] == (
        summary["root"]["total_s"] - summary["middle"]["total_s"] - 1.0
    )


def test_summarize_covers_only_the_requested_spans():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap(lambda: None, "leaf")
    root = tracer.wrap(lambda: leaf(), "root")
    root()
    boundary = len(tracer)
    root()
    assert tracer.summarize(boundary)["root"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}


def _attributes(entries) -> dict:
    """The current value of each wrapped attribute that exists."""
    found = {}
    for module, attr, _, _ in entries:
        mod = importlib.import_module(f"qos_chain_guard.{module}")
        if hasattr(mod, attr):
            found[(module, attr)] = getattr(mod, attr)
    return found


def test_wrappers_restore_the_original_functions():
    originals = _attributes(spans.WRAPPED)
    tracer = spans.Tracer()
    assert tracer.install() == []
    wrapped = _attributes(spans.WRAPPED)
    assert all(wrapped[key] is not originals[key] for key in originals)
    assert all(wrapped[key].__wrapped__ is originals[key] for key in originals)
    tracer.uninstall()
    assert _attributes(spans.WRAPPED) == originals


def test_a_missing_span_is_reported_missing_and_the_run_goes_on(tmp_path, monkeypatch):
    renamed = tuple(
        (module, "evaluate_pair_rules_renamed" if attr == "evaluate_pair_rules" else attr, name, hook)
        for module, attr, name, hook in spans.WRAPPED
    )
    monkeypatch.setattr(spans, "WRAPPED", renamed)
    originals = _attributes(renamed)
    workload = _tiny_workload("json", {"rtt_ms": 100})
    monkeypatch.chdir(tmp_path)
    written = workloads.write(workload, "w")

    result, first = worker.run(workloads.check_argv(workload, written), budget=0.0, trace=True)

    assert result["missing_spans"] == ["rules.stage2"]
    layers = result["layers"]
    for metric in ("rules.stage2.ms", "rules.stage2.calls", "rules.stage2.outcomes", "rules.us_per_outcome"):
        assert layers[metric] == "missing"
    assert layers["rules.stage1.calls"] == len(workload.endpoints)
    assert layers["pipeline.pairs"] == 17
    assert layers["model.distinct_qos_classes"] == len(workload.endpoints)
    assert all(result["matches"]) and len(set(result["codes"])) == 1
    assert _attributes(renamed) == originals


def test_tail_keeps_ten_samples_above_it():
    assert run.tail([float(i) for i in range(21)]) == (10.0, "p50 of 21")
    assert run.tail([float(i) for i in range(111)])[0] == 100.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")
