"""Pairing plan, environment loading, pipeline runs, and report rendering."""

from __future__ import annotations

import json
import sys
import tracemalloc
from json.encoder import encode_basestring
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qos_chain_guard import pipeline
from qos_chain_guard.model import (
    POLICIES,
    Count,
    DurabilityKind,
    Duration,
    EndpointKind,
    EndpointProfile,
    OwnershipKind,
    QosProfile,
    Record,
    ReliabilityKind,
    SourceLocation,
    default_qos,
)
from qos_chain_guard.pipeline import (
    EnvironmentLoadError,
    EnvironmentModel,
    PairOrigin,
    Pairing,
    PairingError,
    Report,
    build_pairing_plan,
    load_environment,
    render_report,
    run_pipeline,
)
from qos_chain_guard.profiles import (
    POLICY_SCHEMA,
    Codec,
    ParseDiagnostic,
    ProfileDocument,
    ProfileSet,
    RawEndpoint,
    load_profile_files,
    parse_document,
    parse_profiles,
)
from qos_chain_guard.rules import (
    Severity,
    SkipReason,
    SkippedRule,
    Violation,
    applicable_to,
    evaluate_endpoint_rules,
    evaluate_pair_rules,
    reader_halves,
    rules_for_stage,
    writer_halves,
)

from support import (
    durability, hist, ms, ownership, perfbench_workloads, qos_with, reader, reliability, replace, writer,
)


def profile_set(*endpoints) -> ProfileSet:
    return ProfileSet(profiles={e.profile_name: e for e in endpoints})


# -- environment --------------------------------------------------------------


def test_load_environment_converts_milliseconds():
    env = load_environment(
        '{"rtt_ms": 100, "default_publish_period_ms": 50, "publish_period_ms": {"w1": 20}}'
    )
    assert env.rtt == ms(100)
    assert env.default_publish_period == ms(50)
    assert env.publish_period_for("w1") == ms(20)
    assert env.publish_period_for("other") == ms(50)


def test_publish_period_resolution_order():
    env = EnvironmentModel(per_profile_publish_period={"a": ms(5)})
    assert env.publish_period_for("a") == ms(5)
    assert env.publish_period_for("b") is None


@pytest.mark.parametrize(
    "text",
    [
        '{"rtt_ms": 0}',
        '{"rtt_ms": -5}',
        '{"rtt_ms": "fast"}',
        '{"rtt_ms": Infinity}',
        '{"rtt_ms": NaN}',
        '{"rtt_ms": true}',
        '{"publish_period_ms": {"w": 0}}',
        '{"unknown_key": 1}',
        '[1, 2]',
        'not json',
    ],
)
def test_bad_environment_documents_are_rejected(text):
    with pytest.raises(EnvironmentLoadError):
        load_environment(text)


@pytest.mark.parametrize(
    "text",
    [
        '{"rtt_ms": 1e-12}',
        '{"default_publish_period_ms": 4e-7}',
        '{"publish_period_ms": {"w": 1e-9}}',
    ],
)
def test_sub_nanosecond_environment_values_name_the_resolution(text):
    with pytest.raises(EnvironmentLoadError, match="below the 1 ns resolution"):
        load_environment(text)


def test_each_environment_model_gets_its_own_publish_period_table():
    first, second = EnvironmentModel(), EnvironmentModel()
    assert first.per_profile_publish_period == {} and first == EnvironmentModel(None, None, {})
    assert first.per_profile_publish_period is not second.per_profile_publish_period


def test_infinite_environment_durations_are_rejected():
    with pytest.raises(EnvironmentLoadError, match="finite"):
        EnvironmentModel(rtt=Duration.infinite())


def test_long_environment_literal_is_shortened_in_the_error():
    with pytest.raises(EnvironmentLoadError) as excinfo:
        load_environment('{"rtt_ms": 1' + "0" * 400 + "}")
    message = str(excinfo.value)
    assert message.startswith("rtt_ms: 1000")
    assert "(401 characters)" in message
    assert len(message) < 120


# -- pairing plan --------------------------------------------------------------


def test_topic_cross_product():
    ps = profile_set(
        writer("w1", topic="scan"),
        writer("w2", topic="scan"),
        reader("r1", topic="scan"),
        reader("r2", topic="scan"),
        reader("r3", topic="scan"),
    )
    plan = build_pairing_plan(ps)
    assert len(plan) == 6
    assert {(p.writer, p.reader) for p in plan} == {
        (w, r) for w in ("w1", "w2") for r in ("r1", "r2", "r3")
    }
    assert all(p.origin is PairOrigin.TOPIC_INDEX and p.topic_name == "scan" for p in plan)


def test_unbound_endpoints_pair_only_via_directives():
    ps = profile_set(writer("w1", topic=None), reader("r1", topic=None))
    assert build_pairing_plan(ps) == ()
    for directives in ([("w1", "r1")], [("w1", "r1"), ("w1", "r1")]):
        plan = build_pairing_plan(ps, directives)
        assert len(plan) == 1
        assert plan[0].origin is PairOrigin.EXPLICIT_DIRECTIVE
        assert plan[0].topic_name is None


def test_directives_deduplicate_against_topic_pairs():
    ps = profile_set(writer("w1", topic="scan"), reader("r1", topic="scan"))
    plan = build_pairing_plan(ps, [("w1", "r1"), ("w1", "r1")])
    assert len(plan) == 1
    assert plan[0].origin is PairOrigin.TOPIC_INDEX


def test_directive_errors():
    ps = profile_set(writer("w1", topic=None), reader("r1", topic=None), reader("r2", topic=None))
    with pytest.raises(PairingError, match="unknown profile"):
        build_pairing_plan(ps, [("w1", "ghost")])
    with pytest.raises(PairingError, match="writer:reader"):
        build_pairing_plan(ps, [("r1", "r2")])
    with pytest.raises(PairingError, match="writer:reader"):
        build_pairing_plan(ps, [("w1", "w1")])


# -- pipeline runs -------------------------------------------------------------


def test_default_pair_is_clean_with_expected_skips():
    ps = profile_set(writer("w1"), reader("r1"))
    report = run_pipeline(ps)
    assert report.summary == {"errors": 0, "warnings": 0, "infos": 0, "skipped": 12}
    skips = {(s.rule_id, s.entities[0].profile_name): s.reason for s in report.skipped}
    for rule_id in (6, 7, 8, 29, 30, 31, 39, 40):
        assert skips[(rule_id, "w1")] is SkipReason.MISSING_ENV_RTT
    for rule_id in (9, 10):
        assert skips[(rule_id, "w1")] is SkipReason.INFINITE_LIFESPAN_EXEMPTION
    for rule_id in (36, 37):
        assert skips[(rule_id, "r1")] is SkipReason.MISSING_ENV_PP


def test_with_environment_no_env_skips_remain():
    ps = profile_set(writer("w1"), reader("r1"))
    env = load_environment('{"rtt_ms": 100, "default_publish_period_ms": 50}')
    report = run_pipeline(ps, env)
    reasons = {s.reason for s in report.skipped}
    assert reasons == {SkipReason.INFINITE_LIFESPAN_EXEMPTION}
    # default writer: reliable keep_last depth 1 < 100/50 + 2 = 4
    assert [v.rule_id for v in report.violations] == [29]


def test_skip_accounting_per_endpoint():
    # Every scope-applicable rule runs once per endpoint; a clean one finds nothing.
    # With no environment, all-defaults endpoints find only the skips of the
    # rules that read rtt or pp or have an exemption, in rule order.
    w, r = writer("w1"), reader("r1")
    for endpoint in (w, r):
        for stage in (1, 3):
            findings = evaluate_endpoint_rules(endpoint, stage)
            applicable = [
                rule for rule in rules_for_stage(stage)
                if applicable_to(rule, endpoint.endpoint_kind)
            ]
            assert all(isinstance(f, SkippedRule) for f in findings)
            assert [f.rule_id for f in findings] == [
                rule.id for rule in applicable if rule.requires_env or rule.exemption
            ]
    assert evaluate_endpoint_rules(r, 1) == []
    assert len(rules_for_stage(2)) == 8
    assert evaluate_pair_rules([(w, r)]) == []
    # Stage totals over one writer + one reader + one pair: 23 + 21 + 8.
    writer_rules = sum(
        1 for s in (1, 3) for rule in rules_for_stage(s) if applicable_to(rule, w.endpoint_kind)
    )
    reader_rules = sum(
        1 for s in (1, 3) for rule in rules_for_stage(s) if applicable_to(rule, r.endpoint_kind)
    )
    assert (writer_rules, reader_rules) == (23, 21)


def test_stage_partition_no_rule_runs_outside_its_stage():
    ps = profile_set(
        writer("w1", durability=durability(DurabilityKind.TRANSIENT_LOCAL),
               reliability=reliability(ReliabilityKind.BEST_EFFORT), topic="t"),
        reader("r1", reliability=reliability(ReliabilityKind.RELIABLE), topic="t"),
    )
    report = run_pipeline(ps)
    for violation in report.violations:
        stage = {**{i: 1 for i in range(1, 20)},
                 **{i: 2 for i in range(20, 28)},
                 **{i: 3 for i in range(28, 42)}}[violation.rule_id]
        assert violation.stage == stage


def test_report_ordering_is_stage_then_rule_then_entity():
    ps = profile_set(
        writer("b", durability=durability(DurabilityKind.TRANSIENT_LOCAL),
               reliability=reliability(ReliabilityKind.BEST_EFFORT), topic="t"),
        writer("a", durability=durability(DurabilityKind.TRANSIENT_LOCAL),
               reliability=reliability(ReliabilityKind.BEST_EFFORT), topic="t"),
        reader("z", reliability=reliability(ReliabilityKind.RELIABLE), topic="t"),
    )
    report = run_pipeline(ps)
    keys = [
        (v.stage, v.rule_id, v.entities[0].profile_name, v.topic_name or "")
        for v in report.violations
    ]
    assert keys == sorted(keys)
    # rule 21 fires for both pairs, ordered by writer name
    rule21 = [v for v in report.violations if v.rule_id == 21]
    assert [v.entities[0].profile_name for v in rule21] == ["a", "b"]


def test_transient_local_best_effort_and_shallow_reliable_history_fire():
    ps = profile_set(
        writer("w1", durability=durability(DurabilityKind.TRANSIENT_LOCAL),
               reliability=reliability(ReliabilityKind.BEST_EFFORT)),
    )
    report = run_pipeline(ps)
    # rule 38 also fires: autodispose defaults to true on a best-effort writer
    assert [v.rule_id for v in report.violations] == [28, 38]
    assert report.violations[0].severity.level == "error"

    ps = profile_set(writer("w1", reliability=reliability(ReliabilityKind.RELIABLE), history=hist(depth=1)))
    env = load_environment('{"rtt_ms": 100, "default_publish_period_ms": 50}')
    report = run_pipeline(ps, env)
    assert [v.rule_id for v in report.violations] == [29]
    assert report.violations[0].severity.level == "warning"


def test_per_profile_publish_period_overrides_default():
    # pp=50 -> floor 4 (depth 3 violates); override pp=100 -> floor 3 (clean).
    ps = profile_set(writer("w1", reliability=reliability(ReliabilityKind.RELIABLE), history=hist(depth=3)))
    base = load_environment('{"rtt_ms": 100, "default_publish_period_ms": 50}')
    assert [v.rule_id for v in run_pipeline(ps, base).violations] == [29]
    override = load_environment(
        '{"rtt_ms": 100, "default_publish_period_ms": 50, "publish_period_ms": {"w1": 100}}'
    )
    assert run_pipeline(ps, override).violations == ()


def test_identical_runs_render_identical_json():
    ps = profile_set(writer("w1"), reader("r1"))
    env = load_environment('{"rtt_ms": 100}')
    one = render_report(run_pipeline(ps, env, inputs=("a.xml",)), fmt="json")
    two = render_report(run_pipeline(ps, env, inputs=("a.xml",)), fmt="json")
    assert one == two


def test_render_human_format_line_shape():
    ps = profile_set(
        writer("w1", reliability=reliability(ReliabilityKind.BEST_EFFORT), topic="t"),
        reader("r1", reliability=reliability(ReliabilityKind.RELIABLE), topic="t"),
    )
    text = render_report(run_pipeline(ps))
    assert "ERROR [rule 21 RELIAB↔RELIAB]" in text
    assert "w1(DataWriter)@<test>:1 + r1(DataReader)@<test>:1" in text
    assert "Stage 2: writer/reader compatibility (RxO)" in text
    assert text.endswith("skipped\n")


def test_render_lists_skips_and_parse_notes():
    from qos_chain_guard.profiles import parse_document, parse_profiles

    text = """<profiles>
      <data_writer profile_name="w1"><topic><name>t</name></topic><mystery/></data_writer>
    </profiles>"""
    ps = parse_profiles([parse_document(text, "in.xml")])
    rendered = render_report(run_pipeline(ps, inputs=("in.xml",)))
    assert "skipped checks (undecidable with the given inputs)" in rendered
    assert "SKIP [rule 29 HIST→RELIAB] w1(DataWriter)@in.xml:2 — MissingEnvRTT" in rendered
    assert "parse notes" in rendered
    assert "INFO in.xml:2: unknown element <mystery>" in rendered


def test_human_report_escapes_control_characters_in_entity_text():
    # Tab and newline in the name, a carriage return in the path: each would
    # otherwise break a report line, or hide in it.
    text = """<profiles>
      <data_writer profile_name="a&#10;b&#9;c">
        <qos><reliability><kind>BEST_EFFORT</kind></reliability>
        <durability><kind>TRANSIENT_LOCAL</kind></durability></qos>
      </data_writer>
    </profiles>"""
    report = run_pipeline(parse_profiles([parse_document(text, "in\r.xml")]))
    rendered = render_report(report)
    rows = [line for line in rendered.splitlines() if "(DataWriter)" in line]
    assert rows and all(r.startswith("  ") and "a\\nb\\tc(DataWriter)@in\\r.xml:2 — " in r for r in rows)
    assert "\r" not in rendered
    # The JSON report holds the name itself, escaped by JSON.
    (entity,) = json.loads(render_report(report, "json"))["diagnostics"][0]["entities"]
    assert (entity["profile"], entity["document"]) == ("a\nb\tc", "in\r.xml")


def test_human_report_escapes_control_characters_in_input_paths(tmp_path):
    # A newline in a file name would split the inputs line and the file's
    # parse note; the publish period of a profile named with a tab, its line.
    path = tmp_path / "a\nb.xml"
    path.write_text(
        '<profiles>\n<data_writer profile_name="w"><mystery/></data_writer>\n</profiles>', encoding="utf-8"
    )
    environment = EnvironmentModel(per_profile_publish_period={"p\tq": ms(5)})
    report = run_pipeline(load_profile_files([str(path)]), environment, inputs=(str(path),))
    escaped = str(path).replace("\n", "\\n")
    assert render_report(report).splitlines()[:2] == [
        f"inputs: {escaped}",
        "environment: publish period[p\\tq]=5ms",
    ]
    assert f"  INFO {escaped}:2: unknown element <mystery> in <data_writer>; ignored" in render_report(report)
    # The JSON report holds the path itself, escaped by JSON.
    payload = json.loads(render_report(report, "json"))
    assert payload["inputs"] == [str(path)] and payload["parse_diagnostics"][0]["path"] == str(path)


def test_no_record_on_the_check_path_has_a_dict_or_is_assignable():
    text = """<profiles>
      <data_writer profile_name="w"><topic><name>t</name><qos><history><depth>3</depth></history></qos></topic>
        <qos><reliability><kind>BEST_EFFORT</kind></reliability>
        <resource_limits><max_samples>2</max_samples></resource_limits></qos><mystery/></data_writer>
      <data_reader profile_name="r"><topic><name>t</name></topic></data_reader>
    </profiles>"""
    documents = [parse_document(text, "in.xml")]
    profile_set = parse_profiles(documents)
    report = run_pipeline(profile_set, load_environment('{"rtt_ms": 50}'), inputs=("in.xml",))
    assert report.violations and report.skipped and report.pairings and report.parse_diagnostics
    classes: dict[type, list] = {}
    stack: list = [documents, profile_set, report, POLICY_SCHEMA]
    while stack:
        value = stack.pop()
        if isinstance(value, Record):
            assert not hasattr(value, "__dict__"), value
            classes.setdefault(type(value), []).append(value)
            stack.extend(getattr(value, name) for name in value.__slots__)
        elif isinstance(value, (tuple, list)):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value.values())
    assert set(classes) == {
        Duration, Count, *POLICIES.values(), QosProfile, SourceLocation, EndpointProfile,
        ParseDiagnostic, RawEndpoint, ProfileDocument, ProfileSet, Codec,
        Violation, SkippedRule, EnvironmentModel, Pairing, Report,
    }
    for cls, instances in classes.items():
        record, name = instances[0], cls.__slots__[0]
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


def test_render_empty_report():
    report = run_pipeline(profile_set(), pairings=())
    text = render_report(report)
    assert "no violations found" in text
    payload = json.loads(render_report(report, fmt="json"))
    assert payload["diagnostics"] == []
    assert payload["schema_version"] == 1


def test_json_schema_fields():
    ps = profile_set(
        writer("w1", reliability=reliability(ReliabilityKind.BEST_EFFORT), topic="t"),
        reader("r1", reliability=reliability(ReliabilityKind.RELIABLE), topic="t"),
    )
    env = load_environment('{"rtt_ms": 2.5}')
    payload = json.loads(render_report(run_pipeline(ps, env, inputs=("t.xml",)), fmt="json"))
    assert payload["environment"]["rtt_ms"] == 2.5
    assert payload["tool"]["name"] == "qos-chain-guard"
    assert payload["inputs"] == ["t.xml"]
    [diag] = [d for d in payload["diagnostics"] if d["rule_id"] == 21]
    assert diag["level"] == "error" and diag["severity"] == "critical"
    assert diag["entities"][0]["profile"] == "w1"
    assert diag["topic"] == "t"
    assert payload["pairs"] == [
        {"writer": "w1", "reader": "r1", "origin": "topic-index", "topic": "t"}
    ]
    assert payload["summary"]["errors"] == 1


def test_fail_level_counting():
    ps = profile_set(reader("r1", topic=None))
    from support import ownership
    from qos_chain_guard.model import OwnershipKind

    ps = profile_set(reader("r1", topic=None, ownership=ownership(OwnershipKind.EXCLUSIVE)))
    report = run_pipeline(ps)
    # exclusive reader with defaults: 11, 12 (conditional) and 32 (conditional), no errors
    assert report.summary["errors"] == 0
    assert report.summary["warnings"] == 3
    assert report.count_at_or_above("error") == 0
    assert report.count_at_or_above("warning") == 3
    assert report.count_at_or_above("info") == 3


def test_summary_is_counted_from_the_findings_of_each_new_report():
    ps = profile_set(
        writer("w1", reliability=reliability(ReliabilityKind.BEST_EFFORT), topic="t"),
        reader("r1", reliability=reliability(ReliabilityKind.RELIABLE), topic="t"),
    )
    report = run_pipeline(ps)
    levels = [v.severity.level for v in report.violations]
    assert report.summary == {
        "errors": levels.count("error"), "warnings": levels.count("warning"),
        "infos": levels.count("info"), "skipped": len(report.skipped),
    }
    assert report.summary["errors"] == 1 and len(report.skipped) > 2
    # A copy with other findings counts its own, whatever summary it is handed.
    emptied = replace(report, violations=(), skipped=report.skipped[:2])
    assert emptied.summary == {"errors": 0, "warnings": 0, "infos": 0, "skipped": 2}
    assert emptied.count_at_or_above("info") == 0


# -- report order --------------------------------------------------------------


def _sort_key(finding):
    """The report order: stage, rule, then the entities (writer, topic, reader
    for a pair; a finding with no topic, or a skip, sorts as topic "")."""
    entities = finding.entities
    first = entities[0].profile_name
    return (
        finding.stage,
        finding.rule_id,
        first,
        getattr(finding, "topic_name", None) or "",
        (first,) if len(entities) == 1 else (first, entities[1].profile_name),
    )


# A few QoS bundles per kind, each one object, so endpoints share classes;
# best-effort writers against reliable readers make stage 2 fire.
_ORDER_BUNDLES = {
    EndpointKind.DATA_WRITER: [
        qos_with(EndpointKind.DATA_WRITER),
        qos_with(EndpointKind.DATA_WRITER, reliability=reliability(ReliabilityKind.BEST_EFFORT)),
        qos_with(
            EndpointKind.DATA_WRITER,
            reliability=reliability(ReliabilityKind.BEST_EFFORT),
            durability=durability(DurabilityKind.TRANSIENT_LOCAL),
            history=hist(depth=3),
        ),
    ],
    EndpointKind.DATA_READER: [
        qos_with(EndpointKind.DATA_READER),
        qos_with(EndpointKind.DATA_READER, reliability=reliability(ReliabilityKind.RELIABLE)),
        qos_with(
            EndpointKind.DATA_READER,
            reliability=reliability(ReliabilityKind.RELIABLE),
            durability=durability(DurabilityKind.TRANSIENT),
            ownership=ownership(OwnershipKind.EXCLUSIVE),
        ),
    ],
}


@st.composite
def _order_cases(draw):
    """A profile set, directives over it, and an environment."""
    endpoints = []
    for kind, names in ((EndpointKind.DATA_WRITER, "wxyz"), (EndpointKind.DATA_READER, "rstu")):
        for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True)):
            endpoints.append(EndpointProfile(
                name, kind, draw(st.sampled_from(_ORDER_BUNDLES[kind])),
                draw(st.sampled_from([None, "a", "b"])), SourceLocation("<test>", 1),
            ))
    ps = profile_set(*endpoints)
    writers = [e.profile_name for e in endpoints if e.endpoint_kind is EndpointKind.DATA_WRITER]
    readers = [e.profile_name for e in endpoints if e.endpoint_kind is EndpointKind.DATA_READER]
    directives = draw(st.lists(st.tuples(st.sampled_from(writers), st.sampled_from(readers)), max_size=6))
    env = EnvironmentModel(
        rtt=draw(st.sampled_from([None, ms(100)])),
        default_publish_period=draw(st.sampled_from([None, ms(20), ms(50)])),
    )
    return ps, directives, env


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_order_cases())
def test_report_order_is_the_reference_sort(case):
    ps, directives, env = case
    report = run_pipeline(ps, env, build_pairing_plan(ps, directives))
    assert list(report.violations) == sorted(report.violations, key=_sort_key)
    assert list(report.skipped) == sorted(report.skipped, key=_sort_key)


def test_report_order_puts_a_pair_without_a_shared_topic_first():
    # Plan order is topic, then writer; report order is writer, then topic
    # (none first), then reader.
    best_effort = reliability(ReliabilityKind.BEST_EFFORT)
    strict = reliability(ReliabilityKind.RELIABLE)
    ps = profile_set(
        writer("w2", topic="a", reliability=best_effort),
        writer("w1", topic="b", reliability=best_effort),
        reader("r2", topic="a", reliability=strict),
        reader("r1", topic="b", reliability=strict),
        reader("r0", topic=None, reliability=strict),
    )
    # Across topics, to no topic, given twice, and repeating a topic pair.
    plan = build_pairing_plan(ps, [("w1", "r2"), ("w1", "r0"), ("w1", "r2"), ("w2", "r2")])
    assert [(p.writer, p.reader) for p in plan] == [("w2", "r2"), ("w1", "r1"), ("w1", "r2"), ("w1", "r0")]
    rule21 = [v for v in run_pipeline(ps, pairings=plan).violations if v.rule_id == 21]
    assert [(v.entities[0].profile_name, v.topic_name, v.entities[1].profile_name) for v in rule21] == [
        ("w1", None, "r0"), ("w1", None, "r2"), ("w1", "b", "r1"), ("w2", "a", "r2"),
    ]


# -- evaluation once per QoS class ----------------------------------------------

# One bundle used by writers and a reader: reliability is explicit, so a
# DataWriter and a DataReader resolve to the same profile, and only the
# endpoint kind tells their rules apart.  depth 4 sits on the rule-39
# retransmission floor at pp=50 (clean) and above it at pp=100 (fires).
_SHARED_QOS = """<qos>
      <reliability><kind>BEST_EFFORT</kind></reliability>
      <durability><kind>TRANSIENT_LOCAL</kind></durability>
      <history><kind>KEEP_LAST</kind><depth>4</depth></history>
    </qos>"""
_STRICT_QOS = "<qos><reliability><kind>RELIABLE</kind></reliability></qos>"

_CLASS_DOC_A = f"""<profiles>
  <data_writer profile_name="cam_a">
    <topic><name>cam/a</name></topic>
    {_SHARED_QOS}
  </data_writer>
  <data_reader profile_name="cam_listener">
    <topic><name>cam/a</name></topic>
    {_SHARED_QOS}
  </data_reader>
  <data_reader profile_name="strict_a">
    <topic><name>cam/a</name></topic>
    {_STRICT_QOS}
  </data_reader>
</profiles>
"""

# The same bundles on other lines and topics, in another document.
_CLASS_DOC_B = f"""<profiles>


  <data_writer profile_name="cam_b">
    <topic><name>cam/b</name></topic>
    {_SHARED_QOS}
  </data_writer>
  <data_reader profile_name="strict_b">
    <topic><name>cam/other</name></topic>
    {_STRICT_QOS}
  </data_reader>
  <data_writer profile_name="cam_c">
    <topic><name>cam/c</name></topic>
    {_SHARED_QOS}
  </data_writer>
</profiles>
"""


def _reference_outcomes(ps: ProfileSet, env: EnvironmentModel, plan) -> list:
    """Every endpoint and pair evaluated on its own, clean results dropped."""
    outcomes = []
    endpoints = [ps.profiles[name] for name in sorted(ps.profiles)]
    for stage in (1, 3):
        for endpoint in endpoints:
            pp = env.publish_period_for(endpoint.profile_name)
            outcomes += evaluate_endpoint_rules(endpoint, stage, rtt=env.rtt, pp=pp)
    for pairing in plan:
        outcomes += evaluate_pair_rules([(ps.profiles[pairing.writer], ps.profiles[pairing.reader])])
    return outcomes


def test_class_evaluation_matches_per_endpoint_evaluation():
    ps = parse_profiles(
        [parse_document(_CLASS_DOC_A, "a.xml"), parse_document(_CLASS_DOC_B, "b.xml")]
    )
    # These documents exercise shared classes only if equal profiles are interned.
    shared = ps.profiles["cam_a"].qos
    assert all(ps.profiles[name].qos is shared for name in ("cam_b", "cam_c", "cam_listener"))
    assert ps.profiles["strict_a"].qos is ps.profiles["strict_b"].qos
    env = load_environment(
        '{"rtt_ms": 100, "default_publish_period_ms": 50, "publish_period_ms": {"cam_b": 100}}'
    )
    # cam_b:strict_b is the same (writer QoS, reader QoS) class as the
    # topic pair cam_a:strict_a, but across topics, so its topic is None.
    plan = build_pairing_plan(ps, [("cam_b", "strict_b")])
    assert [p.topic_name for p in plan if p.writer == "cam_b"] == [None]

    report = run_pipeline(ps, env, plan)

    expected = _reference_outcomes(ps, env, plan)
    assert sorted(report.violations, key=repr) == sorted(
        (o for o in expected if isinstance(o, Violation)), key=repr
    )
    assert sorted(report.skipped, key=repr) == sorted(
        (o for o in expected if not isinstance(o, Violation)), key=repr
    )
    # The split, kind and cross-topic cases each produced a finding.
    fired = {(v.rule_id, v.entities[0].profile_name, v.topic_name) for v in report.violations}
    assert (39, "cam_b", "cam/b") in fired and (39, "cam_a", "cam/a") not in fired
    assert (38, "cam_a", "cam/a") in fired and (38, "cam_listener", "cam/a") not in fired
    assert (38, "cam_c", "cam/c") in fired
    assert (21, "cam_b", None) in fired and (21, "cam_a", "cam/a") in fired


def test_class_evaluation_runs_once_per_class(monkeypatch):
    ps = parse_profiles(
        [parse_document(_CLASS_DOC_A, "a.xml"), parse_document(_CLASS_DOC_B, "b.xml")]
    )
    env = load_environment(
        '{"rtt_ms": 100, "default_publish_period_ms": 50, "publish_period_ms": {"cam_b": 100}}'
    )
    plan = build_pairing_plan(ps, [("cam_b", "strict_b")])
    # Classes by value, so an evaluation per member would show as a repeat.
    evaluated: dict[int, list] = {1: [], 2: [], 3: []}
    endpoint_rules = pipeline.evaluate_endpoint_rules

    def counted_endpoint_rules(endpoint, stage, rtt=None, pp=None):
        evaluated[stage].append((endpoint.endpoint_kind, endpoint.qos, pp))
        return endpoint_rules(endpoint, stage, rtt=rtt, pp=pp)

    # Stage 2 computes each rule's result once per (rule, writer half, reader half).
    def counted_outcome(index, rule):
        outcome = rule.outcome

        def counted(w, r):
            evaluated[2].append((rule.id, writer_halves(w)[index], reader_halves(r)[index]))
            return outcome(w, r)

        return counted

    monkeypatch.setattr(pipeline, "evaluate_endpoint_rules", counted_endpoint_rules)
    for index, rule in enumerate(rules_for_stage(2)):
        monkeypatch.setattr(rule, "outcome", counted_outcome(index, rule))
    run_pipeline(ps, env, plan)

    endpoint_classes = {
        (e.endpoint_kind, e.qos, env.publish_period_for(e.profile_name)) for e in ps.profiles.values()
    }
    pair_halves = {
        (rule.id, w_half, r_half)
        for p in plan
        for rule, w_half, r_half in zip(
            rules_for_stage(2), writer_halves(ps.profiles[p.writer].qos), reader_halves(ps.profiles[p.reader].qos)
        )
    }
    # Fewer classes than members, or the gate would show nothing: 10 results
    # against 16 for one per pair class and rule, and 24 for one per pair and rule.
    assert (len(endpoint_classes), len(pair_halves)) == (4, 10)
    assert (len(ps.profiles), len(plan)) == (6, 3)
    for stage, classes in ((1, endpoint_classes), (2, pair_halves), (3, endpoint_classes)):
        assert len(evaluated[stage]) == len(classes)
        assert set(evaluated[stage]) == classes


# -- JSON rendering ------------------------------------------------------------


def _reference_payload(report: Report) -> dict:
    """The report as a dict; ``json.dumps`` of it is the byte contract of the JSON format."""

    def entities(refs):
        return [
            {
                "profile": e.profile_name,
                "kind": e.endpoint_kind.display,
                "document": e.source_location.document,
                "line": e.source_location.line,
            }
            for e in refs
        ]

    return {
        "schema_version": 1,
        "tool": {"name": "qos-chain-guard", "version": report.tool_version},
        "inputs": list(report.inputs),
        "environment": report.environment.echo(),
        "assumptions": list(report.assumptions),
        "pairs": [
            {"writer": p.writer, "reader": p.reader, "origin": p.origin.value, "topic": p.topic_name}
            for p in report.pairings
        ],
        "parse_diagnostics": [
            {"path": d.path, "line": d.line, "level": d.level, "message": d.message}
            for d in report.parse_diagnostics
        ],
        "diagnostics": [
            {
                "rule_id": v.rule_id,
                "identifier": v.identifier,
                "stage": v.stage,
                "severity": v.severity.value,
                "level": v.severity.level,
                "entities": entities(v.entities),
                "topic": v.topic_name,
                "message": v.message,
                "suggestion": v.suggestion,
            }
            for v in report.violations
        ],
        "skipped": [
            {
                "rule_id": s.rule_id,
                "identifier": s.identifier,
                "stage": s.stage,
                "entities": entities(s.entities),
                "reason": s.reason.value,
            }
            for s in report.skipped
        ],
        "summary": report.summary,
    }


# Arbitrary text, or text of the characters JSON escapes or passes through
# raw: quotes, backslashes, control characters, U+2028/U+2029, non-ASCII.
_text = st.text(max_size=8) | st.text('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\u2029é中😀', max_size=8)
_ints = st.integers(min_value=-(10**6), max_value=10**9)
_topics = st.none() | _text
# Nanoseconds that echo as integer milliseconds and as fractional ones.
_durations = st.one_of(st.integers(1, 10**6), st.integers(1, 10**9).map(lambda n: n * 10**6)).map(Duration)


@st.composite
def _reports(draw, pooled: bool = False) -> Report:
    # A small pool of endpoints, so the rows name the same entity many times,
    # and distinct entities may share a profile name (never empty: an
    # EndpointProfile rejects that).  ``pooled`` draws rule ids, identifiers,
    # severities, messages and suggestions from pools of 2-3 values too, so
    # rows share one field and differ in another: a renderer that keys a
    # cache on fewer fields than it renders shows one row as another.
    endpoint = st.builds(
        lambda name, kind, location: EndpointProfile(name, kind, default_qos(kind), None, location),
        st.sampled_from(["w", "r"]) | _text.filter(bool),
        st.sampled_from(EndpointKind),
        st.builds(SourceLocation, _text, _ints),
    )
    pool = draw(st.lists(endpoint, min_size=1, max_size=4))
    entities = st.lists(st.sampled_from(pool), min_size=1, max_size=2).map(tuple)
    ids, identifiers, severities, messages, suggestions = _ints, _text, st.sampled_from(Severity), _text, _text
    if pooled:
        ids, identifiers, severities, messages, suggestions = (
            st.sampled_from(draw(st.lists(values, min_size=2, max_size=3, unique=True)))
            for values in (ids, identifiers, severities, messages, suggestions)
        )
    violation = st.builds(Violation, ids, identifiers, _ints, severities, entities, _topics, messages, suggestions)
    skip = st.builds(SkippedRule, ids, identifiers, _ints, entities, st.sampled_from(SkipReason))
    pairing = st.builds(Pairing, _text, _text, st.sampled_from(PairOrigin), _topics)
    note = st.builds(ParseDiagnostic, _text, _ints, _text)
    environment = st.builds(
        EnvironmentModel,
        st.none() | _durations,
        st.none() | _durations,
        st.dictionaries(_text, _durations, max_size=3),
    )
    return Report(
        tool_version=draw(_text),
        inputs=tuple(draw(st.lists(_text, max_size=3))),
        environment=draw(environment),
        assumptions=tuple(draw(st.lists(_text, max_size=2))),
        pairings=tuple(draw(st.lists(pairing, max_size=4))),
        parse_diagnostics=tuple(draw(st.lists(note, max_size=3))),
        violations=tuple(draw(st.lists(violation, max_size=5))),
        skipped=tuple(draw(st.lists(skip, max_size=5))),
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_reports())
def test_json_report_matches_json_dumps_of_the_reference_payload(report):
    expected = json.dumps(_reference_payload(report), indent=2, sort_keys=True, ensure_ascii=False)
    assert render_report(report, "json") == expected + "\n"


def _peak_over_size(workload_name: str, fmt: str, directory: Path) -> float:
    """Render ``workload_name`` at seed 7 as ``fmt``: the traced peak of the
    render over the size of the report it returns, which has a million or
    more characters."""
    workloads = perfbench_workloads()
    workload = workloads.generate(workload_name, 7)
    workloads.write(workload, str(directory))
    # Every document goes to profiles/, the directory ``check`` is given.
    profile_set = load_profile_files([str(p) for p in sorted((directory / "profiles").glob("*.xml"))])
    environment = None if workload.env is None else load_environment(json.dumps(workload.env))
    report = run_pipeline(profile_set, environment, build_pairing_plan(profile_set, []))
    tracemalloc.start()
    try:
        output = render_report(report, fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(output) > 1_000_000
    return peak / sys.getsizeof(output)


def test_json_report_peaks_near_two_copies_of_itself(tmp_path):
    # The wide workload: about 1.1 M characters of findings.  The rows plus
    # the report joined once peak at 2.10 times the report's own size;
    # joining each section first, then the report, peaks at 3.09.
    assert _peak_over_size("wide", "json", tmp_path) < 2.5


def test_human_report_peaks_near_two_copies_of_itself(tmp_path):
    # The dense workload: about 2.4 M characters in 7 351 finding lines.  The
    # lines plus the report joined once peak at 2.25 times the report's own
    # size; joining, then adding the final newline, copies the report again
    # and peaks at 3.12.
    assert _peak_over_size("dense", "human", tmp_path) < 2.5


# -- human rendering -----------------------------------------------------------


_REFERENCE_STAGE_TITLES = {
    1: "Stage 1: per-endpoint consistency",
    2: "Stage 2: writer/reader compatibility (RxO)",
    3: "Stage 3: environment-dependent checks",
}
_REFERENCE_ANSI = {"error": "\x1b[31m", "warning": "\x1b[33m", "info": "\x1b[36m"}


def _reference_human(report: Report, color: bool) -> str:
    """The human report, written row by row with no caching: the byte contract."""

    def one_line(text: str) -> str:
        # Control characters escaped one by one, as the JSON report escapes them.
        return "".join(encode_basestring(c)[1:-1] if c < " " else c for c in text)

    def entity_list(entities) -> str:
        return " + ".join(one_line(str(e)) for e in entities)

    lines: list[str] = []
    env = report.environment.echo()
    if report.inputs:
        lines.append(f"inputs: {one_line(', '.join(report.inputs))}")
    env_bits = []
    if env["rtt_ms"] is not None:
        env_bits.append(f"rtt={env['rtt_ms']}ms")
    if env["default_publish_period_ms"] is not None:
        env_bits.append(f"default publish period={env['default_publish_period_ms']}ms")
    for name, value in env["publish_period_ms"].items():
        env_bits.append(f"publish period[{one_line(name)}]={value}ms")
    lines.append(f"environment: {', '.join(env_bits) if env_bits else 'none provided'}")
    for assumption in report.assumptions:
        lines.append(f"note: {assumption}")
    lines.append("")

    if not report.violations:
        lines.append("no violations found")
    else:
        for stage in (1, 2, 3):
            stage_violations = [v for v in report.violations if v.stage == stage]
            if not stage_violations:
                continue
            lines.append(_REFERENCE_STAGE_TITLES[stage])
            for v in stage_violations:
                level = v.severity.level.upper()
                if color:
                    level = f"{_REFERENCE_ANSI[v.severity.level]}{level}\x1b[0m"
                lines.append(
                    f"  {level} [rule {v.rule_id} {v.identifier}] {entity_list(v.entities)} "
                    f"— {v.message}; {v.suggestion}"
                )
            lines.append("")

    if report.skipped:
        lines.append("skipped checks (undecidable with the given inputs)")
        for s in report.skipped:
            lines.append(
                f"  SKIP [rule {s.rule_id} {s.identifier}] {entity_list(s.entities)} "
                f"— {s.reason.value}"
            )
        lines.append("")

    if report.parse_diagnostics:
        lines.append("parse notes")
        for diagnostic in report.parse_diagnostics:
            lines.append(f"  {one_line(str(diagnostic))}")
        lines.append("")

    counts = report.summary
    lines.append(
        f"summary: {counts['errors']} error(s), {counts['warnings']} warning(s), "
        f"{counts['infos']} info(s), {counts['skipped']} skipped"
    )
    return "\n".join(lines) + "\n"


def _staged(report: Report) -> Report:
    """``report`` with each violation's stage folded into 0-4: most rows then
    land in the three rendered stages, and some stay outside them."""
    return replace(report, violations=tuple(replace(v, stage=v.stage % 5) for v in report.violations))


def _assert_human_matches_the_reference(report: Report) -> None:
    for color in (True, False):
        assert render_report(report, "human", color=color) == _reference_human(report, color)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_reports().map(_staged))
def test_human_report_matches_the_reference_rendering(report):
    _assert_human_matches_the_reference(report)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_reports(pooled=True).map(_staged))
def test_human_report_matches_the_reference_rendering_on_pooled_fields(report):
    _assert_human_matches_the_reference(report)
