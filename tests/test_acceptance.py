"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion; a failing criterion fails its test.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from itertools import product

from qos_chain_guard.cli import main
from qos_chain_guard.model import (
    Count,
    DestinationOrderKind,
    DurabilityKind,
    Duration,
    EndpointKind,
    EndpointProfile,
    HistoryKind,
    LivelinessKind,
    OwnershipKind,
    ReliabilityKind,
)
from qos_chain_guard.chain import chain_graph
from qos_chain_guard.pipeline import (
    build_pairing_plan,
    load_environment,
    render_report,
    run_pipeline,
)
from qos_chain_guard.profiles import (
    ProfileSet,
    parse_document,
    parse_profiles,
    serialize_canonical,
)
from qos_chain_guard.rules import (
    SkipReason,
    Violation,
    evaluate_rule,
    get_rule,
    rule_catalog,
)

from catalog_fixture import EXPECTED_CATALOG
from rule_fixtures import RULE_FIXTURES
from test_chain import EXPECTED_CELLS, _DIRECTIONS
from test_rules import context_for
from support import (
    INF,
    deadline,
    destination_order,
    durability,
    entity_factory,
    hist,
    lifespan,
    liveliness,
    ms,
    ownership,
    partition,
    qos_with,
    rdlife,
    reader,
    reliability,
    reslim,
    wdlife,
    writer,
)


def _pass(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


def test_criterion_rule_catalog_completeness():
    started = time.perf_counter()
    catalog = rule_catalog()
    assert len(catalog) == 41
    mismatches = []
    for rule in catalog:
        identifier, stage, severity, scope = EXPECTED_CATALOG[rule.id]
        if (rule.identifier, rule.stage, rule.severity.value, rule.scope.value) != (
            identifier, stage, severity, scope
        ):
            mismatches.append(rule.id)
    elapsed = time.perf_counter() - started
    assert not mismatches, f"catalog rows differ from the transcription: {mismatches}"
    assert elapsed < 1.0
    _pass(f"rule catalog lists 41 rules matching the transcription ({elapsed * 1000:.0f}ms)")


def test_criterion_per_rule_fixtures():
    started = time.perf_counter()
    assert sorted(RULE_FIXTURES) == list(range(1, 42))
    for rule_id, (violating, clean) in RULE_FIXTURES.items():
        rule = get_rule(rule_id)
        fired = evaluate_rule(rule, **context_for(rule, violating))
        assert isinstance(fired, Violation), f"rule {rule_id} fixture did not fire"
        assert fired.rule_id == rule_id and fired.severity is rule.severity
        twin = evaluate_rule(rule, **context_for(rule, clean))
        assert twin is None, f"rule {rule_id} twin not clean"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _pass(f"82 per-rule fixtures: each rule fires at its severity, each twin is clean ({elapsed * 1000:.0f}ms)")


def test_criterion_rxo_ordering_suite():
    sweeps = [
        (21, ReliabilityKind, lambda k: {"reliability": reliability(k)}),
        (22, DurabilityKind, lambda k: {"durability": durability(k)}),
        (26, DestinationOrderKind, lambda k: {"destination_order": destination_order(k)}),
    ]
    checked = 0
    for rule_id, kinds, build in sweeps:
        rule = get_rule(rule_id)
        for offered, requested in product(kinds, kinds):
            ctx = dict(writer=writer(**build(offered)), reader=reader(**build(requested)))
            outcome = evaluate_rule(rule, **ctx)
            assert isinstance(outcome, Violation) == (offered < requested), (rule_id, offered, requested)
            checked += 1
    rule = get_rule(24)
    for offered, requested in product(LivelinessKind, LivelinessKind):
        ctx = dict(
            writer=writer(liveliness=liveliness(offered, lease=INF)),
            reader=reader(liveliness=liveliness(requested, lease=INF)),
        )
        outcome = evaluate_rule(rule, **ctx)
        assert isinstance(outcome, Violation) == (offered < requested), (24, offered, requested)
        checked += 1
    assert checked == 4 + 16 + 4 + 9
    _pass(f"RxO ordering sweeps match the kind lattices exactly ({checked} pairs)")


def test_criterion_default_cleanliness_oracle():
    # Frozen manual rule-by-rule trace over the defaults table.
    expected_skips = {
        ("w1", 6): SkipReason.MISSING_ENV_RTT,
        ("w1", 7): SkipReason.MISSING_ENV_RTT,
        ("w1", 8): SkipReason.MISSING_ENV_RTT,
        ("w1", 9): SkipReason.INFINITE_LIFESPAN_EXEMPTION,
        ("w1", 10): SkipReason.INFINITE_LIFESPAN_EXEMPTION,
        ("w1", 29): SkipReason.MISSING_ENV_RTT,
        ("w1", 30): SkipReason.MISSING_ENV_RTT,
        ("w1", 31): SkipReason.MISSING_ENV_RTT,
        ("w1", 39): SkipReason.MISSING_ENV_RTT,
        ("w1", 40): SkipReason.MISSING_ENV_RTT,
        ("r1", 36): SkipReason.MISSING_ENV_PP,
        ("r1", 37): SkipReason.MISSING_ENV_PP,
    }
    ps = ProfileSet(profiles={e.profile_name: e for e in (writer("w1"), reader("r1"))})
    report = run_pipeline(ps)
    assert report.summary["errors"] == 0
    assert report.summary["warnings"] == 0
    actual = {(s.entities[0].profile_name, s.rule_id): s.reason for s in report.skipped}
    assert actual == expected_skips
    _pass("all-defaults writer+reader: 0 errors, 0 warnings, env rules skipped per the trace")


def test_criterion_arithmetic_thresholds():
    rtt_ms = 100
    checked = 0
    for pp_ms, depth in product((10, 20, 25, 50, 100), range(1, 13)):
        expected = Fraction(depth) < Fraction(rtt_ms, pp_ms) + 2  # independent oracle
        w = writer(reliability=reliability(ReliabilityKind.RELIABLE), history=hist(depth=depth))
        outcome = evaluate_rule(get_rule(29), writer=w, rtt=ms(rtt_ms), pp=ms(pp_ms))
        assert isinstance(outcome, Violation) == expected, (pp_ms, depth)
        checked += 1
    # spot checks by hand: pp=20 -> threshold 7
    w6 = writer(reliability=reliability(ReliabilityKind.RELIABLE), history=hist(depth=6))
    w7 = writer(reliability=reliability(ReliabilityKind.RELIABLE), history=hist(depth=7))
    assert isinstance(evaluate_rule(get_rule(29), writer=w6, rtt=ms(100), pp=ms(20)), Violation)
    assert evaluate_rule(get_rule(29), writer=w7, rtt=ms(100), pp=ms(20)) is None
    _pass(f"rule 29 threshold matches the exact rational oracle over {checked} grid points")


def _random_profile_set(rng: random.Random, index: int) -> ProfileSet:
    durations = [Duration.infinite()] + [Duration(rng.randrange(0, 10**12)) for _ in range(3)]
    counts = [Count.unlimited(), Count(rng.randrange(0, 10**6)), Count(1)]
    profiles = {}
    for i in range(rng.randrange(1, 5)):
        name = f"p{index}_{i}"
        kind = rng.choice(list(EndpointKind))
        qos = qos_with(
            kind,
            reliability=reliability(rng.choice(list(ReliabilityKind)), rng.choice(durations)),
            durability=durability(rng.choice(list(DurabilityKind))),
            deadline=deadline(rng.choice(durations)),
            liveliness=liveliness(rng.choice(list(LivelinessKind)), rng.choice(durations)),
            history=hist(rng.choice(list(HistoryKind)), rng.randrange(1, 1000)),
            resource_limits=reslim(
                rng.choice([None, rng.randrange(0, 100)]),
                rng.choice([None, rng.randrange(0, 100)]),
                rng.choice([None, rng.randrange(0, 100)]),
            ),
            lifespan=lifespan(rng.choice(durations)),
            ownership=ownership(rng.choice(list(OwnershipKind))),
            destination_order=destination_order(rng.choice(list(DestinationOrderKind))),
            partition=partition(*[f"zone-{rng.randrange(4)}" for _ in range(rng.randrange(1, 3))]),
            writer_data_lifecycle=wdlife(rng.random() < 0.5),
            reader_data_lifecycle=rdlife(rng.choice(durations), rng.choice(durations)),
            entity_factory=entity_factory(rng.random() < 0.5),
        )
        profiles[name] = EndpointProfile(
            profile_name=name,
            endpoint_kind=kind,
            qos=qos,
            topic_name=rng.choice([None, f"topic_{rng.randrange(3)}"]),
        )
    return ProfileSet(profiles=profiles)


def test_criterion_parser_round_trip():
    rng = random.Random(20260810)
    fixtures = 0
    for index in range(25):
        ps = _random_profile_set(rng, index)
        text = serialize_canonical(ps)
        once = parse_profiles([parse_document(text, "round.xml")])
        assert once == ps, f"fixture {index} did not round-trip"
        assert serialize_canonical(once) == text
        fixtures += 1
    assert fixtures >= 20
    _pass(f"parse-serialize-parse is the identity on {fixtures} randomized profile sets")


def test_criterion_report_determinism(tmp_path, capsys):
    (tmp_path / "a.xml").write_text(
        """<profiles>
        <data_writer profile_name="wa"><topic><name>t</name></topic>
          <qos><reliability><kind>BEST_EFFORT</kind></reliability></qos></data_writer>
        </profiles>""",
        encoding="utf-8",
    )
    (tmp_path / "b.xml").write_text(
        """<profiles>
        <data_reader profile_name="rb"><topic><name>t</name></topic>
          <qos><reliability><kind>RELIABLE</kind></reliability></qos></data_reader>
        </profiles>""",
        encoding="utf-8",
    )
    env = tmp_path / "env.json"
    env.write_text('{"rtt_ms": 100, "default_publish_period_ms": 20}', encoding="utf-8")
    argv = ["check", str(tmp_path / "a.xml"), str(tmp_path / "b.xml"),
            "--env", str(env), "--format", "json"]
    main(argv)
    first, _ = capsys.readouterr()
    main(argv)
    second, _ = capsys.readouterr()
    assert first == second and first
    json.loads(first)
    _pass("two runs over the same multi-file input render byte-identical JSON")


def test_criterion_chain_graph_fidelity():
    graph = chain_graph()
    assert len(graph.nodes) == 16
    actual = sorted((e.source, e.target, e.severity.value, e.direction.value) for e in graph.edges)
    expected = sorted((s, t, sev, _DIRECTIONS[d]) for s, t, sev, d in EXPECTED_CELLS)
    assert actual == expected
    self_loops = [e for e in graph.edges if e.source == e.target]
    assert {(e.source, e.severity.value) for e in self_loops} == {
        ("PART", "critical"), ("RELIAB", "critical"), ("DURABL", "critical"),
        ("DEADLN", "critical"), ("LIVENS", "critical"), ("RESLIM", "critical"),
        ("OWNST", "critical"), ("DESTORD", "critical"),
    }
    _pass("chain graph: 16 nodes, edge multiset equals the matrix transcription (incl. self-loops)")


def test_criterion_exit_codes(tmp_path, capsys):
    from test_cli import CLEAN_XML, CONDITIONAL_XML, CRITICAL_XML

    paths = {}
    for name, text in (("clean", CLEAN_XML), ("conditional", CONDITIONAL_XML), ("critical", CRITICAL_XML)):
        p = tmp_path / f"{name}.xml"
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    default_codes = [main(["check", paths[n]]) for n in ("clean", "conditional", "critical")]
    capsys.readouterr()
    warning_codes = [
        main(["check", paths[n], "--fail-on", "warning"])
        for n in ("clean", "conditional", "critical")
    ]
    capsys.readouterr()
    assert default_codes == [0, 0, 1]
    assert warning_codes == [0, 1, 1]
    _pass("CLI exit codes: clean/conditional/critical -> 0/0/1 default, 0/1/1 at fail-on=warning")


def test_criterion_desk_scale_throughput(tmp_path, capsys):
    topics = 500
    parts = ["<profiles>"]
    for i in range(topics):
        parts.append(
            f'<data_writer profile_name="w{i}"><topic><name>topic{i}</name></topic>'
            f"<qos><history><kind>KEEP_LAST</kind><depth>{1 + i % 20}</depth></history>"
            f"<resource_limits><max_samples_per_instance>{1 + i % 7}</max_samples_per_instance>"
            f"</resource_limits></qos></data_writer>"
        )
        parts.append(
            f'<data_reader profile_name="r{i}"><topic><name>topic{i}</name></topic>'
            f"<qos><ownership><kind>{'EXCLUSIVE' if i % 3 == 0 else 'SHARED'}</kind></ownership>"
            f"</qos></data_reader>"
        )
    parts.append("</profiles>")
    text = "".join(parts)

    started = time.perf_counter()
    ps = parse_profiles([parse_document(text, "big.xml")])
    env = load_environment('{"rtt_ms": 100, "default_publish_period_ms": 20}')
    plan = build_pairing_plan(ps)
    report = run_pipeline(ps, env, plan, inputs=("big.xml",))
    rendered = render_report(report, fmt="json")
    elapsed = time.perf_counter() - started

    assert len(ps) == 2 * topics
    assert len(plan) == topics
    assert rendered
    assert elapsed < 2.0, f"validation took {elapsed:.2f}s"
    _pass(f"1000 synthesized endpoints validated end to end in {elapsed:.2f}s (< 2s)")
