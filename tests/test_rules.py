"""Rule catalog completeness and per-rule evaluation semantics."""

from __future__ import annotations

import copy
import itertools
import pickle
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from qos_chain_guard.model import (
    Count,
    DestinationOrderKind,
    DurabilityKind,
    Duration,
    EndpointKind,
    HistoryKind,
    LivelinessKind,
    OwnershipKind,
    Record,
    ReliabilityKind,
)
from qos_chain_guard.pipeline import _file
from qos_chain_guard.rules import (
    Rule,
    RuleScope,
    Severity,
    SkipReason,
    SkippedRule,
    Violation,
    applicable_to,
    evaluate_endpoint_rules,
    evaluate_pair_rules,
    evaluate_rule,
    get_rule,
    reader_halves,
    rule_catalog,
    rules_for_stage,
    writer_halves,
)

from catalog_fixture import EXPECTED_CATALOG, EXPECTED_ENV
from rule_fixtures import RULE_FIXTURES, Case
from support import (
    INF,
    durability,
    hist,
    lifespan,
    liveliness,
    ms,
    reader,
    reliability,
    replace,
    reslim,
    writer,
)
from test_differential import _env_pool, build_endpoint, qos_records


def context_for(rule, case: Case) -> dict:
    """The ``evaluate_rule`` keyword arguments a fixture case describes."""
    rtt = ms(case.rtt_ms) if case.rtt_ms is not None else None
    pp = ms(case.pp_ms) if case.pp_ms is not None else None
    if rule.scope is RuleScope.PAIR:
        return dict(
            writer=writer(**case.writer), reader=reader(**case.reader), rtt=rtt, pp=pp
        )
    if case.writer:
        return dict(writer=writer(**case.writer), rtt=rtt, pp=pp)
    return dict(reader=reader(**case.reader), rtt=rtt, pp=pp)


# -- catalog shape ------------------------------------------------------------


def test_catalog_is_complete_and_matches_the_transcription():
    catalog = rule_catalog()
    assert [rule.id for rule in catalog] == list(range(1, 42))
    for rule in catalog:
        identifier, stage, severity, scope = EXPECTED_CATALOG[rule.id]
        assert rule.identifier == identifier, f"rule {rule.id} identifier"
        assert rule.stage == stage, f"rule {rule.id} stage"
        assert rule.severity.value == severity, f"rule {rule.id} severity"
        assert rule.scope.value == scope, f"rule {rule.id} scope"


def test_catalog_env_requirements():
    for rule in rule_catalog():
        assert rule.requires_env == frozenset(EXPECTED_ENV[rule.id]), f"rule {rule.id}"


def test_severity_maps_to_report_levels():
    assert Severity.CRITICAL.level == "error"
    assert Severity.CONDITIONAL.level == "warning"
    assert Severity.INCIDENTAL.level == "info"


def test_duplicate_identifier_rows_stay_distinct():
    pairs = [(11, 36), (12, 37), (6, 39), (7, 40)]
    for a, b in pairs:
        ra, rb = get_rule(a), get_rule(b)
        assert ra.identifier == rb.identifier
        assert (ra.stage, ra.condition) != (rb.stage, rb.condition)


# -- the compiler's import-time checks ------------------------------------------


def _rule(scope=RuleScope.DATA_WRITER, condition="history.kind = KEEP_LAST and history.depth > 1", **texts):
    return Rule(99, "HIST→HIST", 1, Severity.INCIDENTAL, scope, condition, **{
        "message": "history.depth={history.depth}", "suggestion": "lower history.depth", **texts,
    })


_BAD_TEXTS = {
    "a path the condition does not read": (
        dict(message="{history.depth} with {durability.kind}"), r"\['durability.kind'\]"
    ),
    "rtt without an rtt need": (dict(suggestion="raise history.depth above {rtt}"), r"\['rtt'\]"),
    "a product with pp without a pp need": (dict(message="{history.depth * pp}"), r"\['pp'\]"),
    "an exemption the condition does not read": (
        dict(exemption="lifespan.duration = infinite"), r"\['lifespan.duration'\]"
    ),
    "a writer prefix in a single-endpoint rule": (
        dict(message="{writer history.depth}"), "pair rules prefix each parameter"
    ),
    "a reader prefix in a guard": (
        dict(suggestion=(("reader history.depth = 1", "a"), "b")), "pair rules prefix each parameter"
    ),
    "an unknown placeholder": (dict(message="{cache_size}"), "'cache_size' is not an operand"),
    "an unknown parameter": (dict(message="{history.size}"), "no such parameter"),
    "an unbalanced brace": (dict(message="depth={history.depth"), "unbalanced brace"),
    "an unknown enumeration literal in a guard": (
        dict(suggestion=(("history.kind = KEEP_SOME", "a"), "b")), "'KEEP_SOME' is not a HistoryKind literal"
    ),
    "rtt in a pair rule": (
        dict(scope=RuleScope.PAIR, condition="writer lifespan.duration < rtt", message="m"),
        "a pair rule reads no rtt or pp",
    ),
    "infinite for a count in a guard": (
        dict(condition="resource_limits.max_samples < history.depth",
             message="m", suggestion=(("resource_limits.max_samples = infinite", "a"), "b")),
        "'infinite' is not a Count literal",
    ),
}


@pytest.mark.parametrize("texts, error", _BAD_TEXTS.values(), ids=list(_BAD_TEXTS))
def test_compiler_rejects_a_bad_text_at_import(texts, error):
    with pytest.raises(ValueError, match=error):
        _rule(**texts)


def test_compiler_records_what_a_rule_reads():
    rule = _rule(suggestion=(("history.depth = 2", "drop one sample"), "lower history.depth"))
    assert rule.reads == {"history.kind", "history.depth"}
    assert rule.outcome(writer(history=hist(depth=2)).qos, None, None) == (
        "history.depth=2", "drop one sample"
    )
    condition = "writer lease_duration > reader liveliness.lease_duration"
    pair = _rule(RuleScope.PAIR, condition, message="{reader lease_duration}")
    assert pair.reads == {"writer liveliness.lease_duration", "reader liveliness.lease_duration"}


# -- per-rule fixtures ---------------------------------------------------------


def test_every_rule_has_a_fixture_pair():
    assert sorted(RULE_FIXTURES) == list(range(1, 42))


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_violating_fixture_fires_at_catalog_severity(rule_id):
    rule = get_rule(rule_id)
    violating, _ = RULE_FIXTURES[rule_id]
    outcome = evaluate_rule(rule, **context_for(rule, violating))
    assert isinstance(outcome, Violation), f"rule {rule_id} should fire"
    assert outcome.rule_id == rule_id
    assert outcome.severity is rule.severity
    assert outcome.message and outcome.suggestion


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_flipped_twin_is_clean(rule_id):
    rule = get_rule(rule_id)
    _, clean = RULE_FIXTURES[rule_id]
    outcome = evaluate_rule(rule, **context_for(rule, clean))
    assert outcome is None, f"rule {rule_id} twin should be clean"


def test_evaluation_is_deterministic():
    rule = get_rule(29)
    violating, _ = RULE_FIXTURES[29]
    ctx = context_for(rule, violating)
    assert evaluate_rule(rule, **ctx) == evaluate_rule(rule, **ctx)


# -- RxO ordering sweeps ------------------------------------------------------


@pytest.mark.parametrize(
    "rule_id,kinds,policy",
    [
        (21, ReliabilityKind, "reliability"),
        (22, DurabilityKind, "durability"),
        (26, DestinationOrderKind, "destination_order"),
    ],
)
def test_rxo_kind_matrix(rule_id, kinds, policy):
    from support import destination_order as mk_destord

    builders = {
        "reliability": lambda k: {"reliability": reliability(k)},
        "durability": lambda k: {"durability": durability(k)},
        "destination_order": lambda k: {"destination_order": mk_destord(k)},
    }
    rule = get_rule(rule_id)
    for offered, requested in itertools.product(kinds, kinds):
        ctx = dict(
            writer=writer(**builders[policy](offered)),
            reader=reader(**builders[policy](requested)),
        )
        outcome = evaluate_rule(rule, **ctx)
        if offered < requested:
            assert isinstance(outcome, Violation), (offered, requested)
        else:
            assert outcome is None, (offered, requested)


def test_rxo_liveliness_kind_matrix():
    rule = get_rule(24)
    for offered, requested in itertools.product(LivelinessKind, LivelinessKind):
        ctx = dict(
            writer=writer(liveliness=liveliness(offered, lease=INF)),
            reader=reader(liveliness=liveliness(requested, lease=INF)),
        )
        outcome = evaluate_rule(rule, **ctx)
        if offered < requested:
            assert isinstance(outcome, Violation), (offered, requested)
        else:
            assert outcome is None, (offered, requested)


def test_rxo_asymmetry_swapping_endpoints_clears_the_violation():
    for rule_id in (21, 22, 24, 26):
        rule = get_rule(rule_id)
        violating, _ = RULE_FIXTURES[rule_id]
        swapped = dict(
            writer=writer(**violating.reader), reader=reader(**violating.writer)
        )
        assert evaluate_rule(rule, **swapped) is None, f"rule {rule_id}"


def test_symmetric_pair_rules_are_swap_invariant():
    for rule_id in (20, 25):
        rule = get_rule(rule_id)
        violating, clean = RULE_FIXTURES[rule_id]
        for case, expected in ((violating, Violation), (clean, type(None))):
            swapped = dict(
                writer=writer(**{k: v for k, v in case.reader.items()}),
                reader=reader(**{k: v for k, v in case.writer.items()}),
            )
            assert isinstance(evaluate_rule(rule, **swapped), expected), f"rule {rule_id}"


# -- environment handling -----------------------------------------------------


def test_missing_env_skip_reasons():
    # Both inputs missing: rtt is reported first.
    w = writer(reliability=reliability(ReliabilityKind.RELIABLE), history=hist(depth=1))
    outcome = evaluate_rule(get_rule(29), writer=w)
    assert outcome == SkippedRule(
        29, get_rule(29).identifier, 3, outcome.entities, SkipReason.MISSING_ENV_RTT
    )
    outcome = evaluate_rule(get_rule(29), writer=w, rtt=ms(100))
    assert isinstance(outcome, SkippedRule)
    assert outcome.reason is SkipReason.MISSING_ENV_PP
    outcome = evaluate_rule(get_rule(29), writer=w, pp=ms(50))
    assert outcome.reason is SkipReason.MISSING_ENV_RTT


def test_env_rules_skip_even_when_static_conjuncts_are_false():
    # Volatile durability can never violate rule 6, but without the
    # environment the check is still reported as skipped, not clean.
    w = writer(durability=durability(DurabilityKind.VOLATILE))
    outcome = evaluate_rule(get_rule(6), writer=w)
    assert isinstance(outcome, SkippedRule)


def test_infinite_lifespan_exemption_beats_env_and_predicate():
    w = writer(history=hist(depth=2))  # lifespan defaults to infinite
    for rule_id in (9, 10):
        outcome = evaluate_rule(get_rule(rule_id), writer=w, pp=ms(20))
        assert isinstance(outcome, SkippedRule)
        assert outcome.reason is SkipReason.INFINITE_LIFESPAN_EXEMPTION
        outcome = evaluate_rule(get_rule(rule_id), writer=w)
        assert outcome.reason is SkipReason.INFINITE_LIFESPAN_EXEMPTION


def test_rule_3_is_clean_when_the_deadline_is_infinite():
    # An infinite deadline turns monitoring off: no window for a sample to outlive.
    w = writer(lifespan=lifespan(ms(50)))
    r = reader(lifespan=lifespan(ms(50)))
    for ctx in (dict(writer=w), dict(reader=r)):
        assert evaluate_rule(get_rule(3), **ctx) is None


def test_unlimited_max_samples_per_instance_semantics():
    # Unlimited can never sit below the floor (rules 7/30) but always sits
    # above it (rule 40).
    base = dict(
        durability=durability(DurabilityKind.TRANSIENT_LOCAL),
        history=hist(HistoryKind.KEEP_ALL),
        resource_limits=reslim(),
    )
    ctx = dict(writer=writer(**base), rtt=ms(100), pp=ms(20))
    assert evaluate_rule(get_rule(7), **ctx) is None
    assert isinstance(evaluate_rule(get_rule(40), **ctx), Violation)


@given(
    depth=st.integers(1, 50),
    rtt1=st.integers(1, 10**6),
    bump=st.integers(0, 10**6),
    pp=st.integers(1, 10**6),
)
def test_rising_rtt_never_clears_a_violation(depth, rtt1, bump, pp):
    rule = get_rule(29)
    w = writer(reliability=reliability(ReliabilityKind.RELIABLE), history=hist(depth=depth))
    low = evaluate_rule(rule, writer=w, rtt=Duration(rtt1), pp=Duration(pp))
    high = evaluate_rule(rule, writer=w, rtt=Duration(rtt1 + bump), pp=Duration(pp))
    if isinstance(low, Violation):
        assert isinstance(high, Violation)


@given(
    depth=st.integers(1, 50),
    rtt=st.integers(1, 10**6),
    pp1=st.integers(1, 10**6),
    bump=st.integers(0, 10**6),
)
def test_rising_pp_never_creates_a_violation(depth, rtt, pp1, bump):
    rule = get_rule(29)
    w = writer(reliability=reliability(ReliabilityKind.RELIABLE), history=hist(depth=depth))
    low = evaluate_rule(rule, writer=w, rtt=Duration(rtt), pp=Duration(pp1))
    high = evaluate_rule(rule, writer=w, rtt=Duration(rtt), pp=Duration(pp1 + bump))
    if low is None:
        assert high is None


def test_threshold_equality_is_clean_for_both_directions():
    # rtt=100ms, pp=20ms: floor is exactly 7.
    env = dict(rtt=ms(100), pp=ms(20))
    w29 = writer(reliability=reliability(ReliabilityKind.RELIABLE), history=hist(depth=7))
    assert evaluate_rule(get_rule(29), writer=w29, **env) is None
    w39 = writer(durability=durability(DurabilityKind.TRANSIENT_LOCAL), history=hist(depth=7))
    assert evaluate_rule(get_rule(39), writer=w39, **env) is None


def test_exact_rational_comparison_no_float_drift():
    # rtt=1ms, pp=3ns: rtt/pp + 2 = 333335.33..; 333335 violates, 333336 not.
    env = dict(rtt=Duration(1_000_000), pp=Duration(3))
    for depth, expected in ((333335, Violation), (333336, type(None))):
        w = writer(reliability=reliability(ReliabilityKind.RELIABLE), history=hist(depth=depth))
        assert isinstance(evaluate_rule(get_rule(29), writer=w, **env), expected)


# -- messages and suggestions --------------------------------------------------


def test_rule_1_suggestion_contains_computed_bound():
    violating, _ = RULE_FIXTURES[1]
    outcome = evaluate_rule(get_rule(1), **context_for(get_rule(1), violating))
    assert "≥ 10" in outcome.suggestion
    assert "history.depth=10" in outcome.message
    assert "max_samples_per_instance=5" in outcome.message


def test_rule_2_suggestion_for_unlimited_max_samples_per_instance():
    w = writer(resource_limits=reslim(max_samples=5))
    outcome = evaluate_rule(get_rule(2), writer=w)
    assert outcome.suggestion == (
        "set resource_limits.max_samples to UNLIMITED "
        "or lower resource_limits.max_samples_per_instance to ≤ 5"
    )
    violating, _ = RULE_FIXTURES[2]
    outcome = evaluate_rule(get_rule(2), **context_for(get_rule(2), violating))
    assert outcome.suggestion.startswith("raise resource_limits.max_samples to ≥ 10 or")


def test_rule_29_suggestion_contains_floor():
    w = writer(reliability=reliability(ReliabilityKind.RELIABLE), history=hist(depth=2))
    outcome = evaluate_rule(get_rule(29), writer=w, rtt=ms(100), pp=ms(20))
    assert "≥ 7" in outcome.suggestion


def test_rule_31_suggestion_names_rtt():
    violating, _ = RULE_FIXTURES[31]
    outcome = evaluate_rule(get_rule(31), **context_for(get_rule(31), violating))
    assert "above 100ms" in outcome.suggestion


def test_rule_25_suggestion_wording():
    violating, _ = RULE_FIXTURES[25]
    outcome = evaluate_rule(get_rule(25), **context_for(get_rule(25), violating))
    assert outcome.suggestion == "set both OWNERSHIP kinds identical"


def test_messages_name_the_values_that_fired():
    w = writer(
        durability=durability(DurabilityKind.TRANSIENT_LOCAL),
        lifespan=lifespan(ms(50)),
    )
    outcome = evaluate_rule(get_rule(8), writer=w, rtt=ms(100))
    assert "TRANSIENT_LOCAL" in outcome.message
    assert "50ms" in outcome.message
    assert "100ms" in outcome.message


# -- scope contracts -----------------------------------------------------------


def test_scope_mismatch_is_a_programmer_error():
    with pytest.raises(ValueError):
        evaluate_rule(get_rule(19), reader=reader())  # writer-scoped
    with pytest.raises(ValueError):
        evaluate_rule(get_rule(4), writer=writer())  # reader-scoped
    with pytest.raises(ValueError):
        evaluate_rule(get_rule(20), writer=writer())  # pair-scoped
    with pytest.raises(ValueError):
        evaluate_rule(get_rule(1), writer=writer(), reader=reader())
    with pytest.raises(ValueError):
        evaluate_rule(get_rule(1))  # no endpoint
    with pytest.raises(ValueError, match="is not a DataWriter"):
        evaluate_rule(get_rule(20), writer=reader(), reader=reader())  # stage 2 checks each kind
    outside = _rule(RuleScope.PAIR, "writer history.depth > reader history.depth", message="m")
    with pytest.raises(ValueError, match="outside the catalog"):  # stage 2 keys on the catalog's halves
        evaluate_rule(outside, writer=writer(), reader=reader())


def test_evaluate_pair_rules_covers_stage_two():
    assert [rule.id for rule in rules_for_stage(2)] == list(range(20, 28))
    assert evaluate_pair_rules([(writer(), reader())]) == []
    assert evaluate_pair_rules([]) == []


def test_evaluate_pair_rules_rejects_kind_mismatch():
    with pytest.raises(ValueError):
        evaluate_pair_rules([(reader(), reader())])
    with pytest.raises(ValueError):
        evaluate_pair_rules([(writer(), reader()), (writer(), writer())])


# -- the stage evaluators against the per-rule path ----------------------------


def _environments(case: Case):
    """(rtt, pp): the case's values, each one alone, and neither."""
    rtt = ms(case.rtt_ms if case.rtt_ms is not None else 100)
    pp = ms(case.pp_ms if case.pp_ms is not None else 20)
    return [(rtt, pp), (rtt, None), (None, pp), (None, None)]


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_evaluate_pair_rules_matches_evaluate_rule(rule_id):
    for case in RULE_FIXTURES[rule_id]:
        for reader_topic in ("scan", "other"):  # a shared topic, and none
            w, r = writer(**case.writer), reader(topic=reader_topic, **case.reader)
            expected = [evaluate_rule(rule, writer=w, reader=r) for rule in rules_for_stage(2)]
            assert evaluate_pair_rules([(w, r)]) == [o for o in expected if o is not None]


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_evaluate_endpoint_rules_matches_evaluate_rule(rule_id):
    for case in RULE_FIXTURES[rule_id]:
        for endpoint in (writer(**case.writer), reader(**case.reader)):
            side = "writer" if endpoint.endpoint_kind is EndpointKind.DATA_WRITER else "reader"
            for rtt, pp in _environments(case):
                for stage in (1, 3):
                    expected = [
                        evaluate_rule(rule, **{side: endpoint}, rtt=rtt, pp=pp)
                        for rule in rules_for_stage(stage)
                        if applicable_to(rule, endpoint.endpoint_kind)
                    ]
                    outcomes = evaluate_endpoint_rules(endpoint, stage, rtt=rtt, pp=pp)
                    assert outcomes == [o for o in expected if o is not None]
                    # Independent of the shared core: a missing rtt is named first.
                    for outcome in outcomes:
                        if rtt is None and "rtt" in get_rule(outcome.rule_id).reads:
                            assert getattr(outcome, "reason", None) is not SkipReason.MISSING_ENV_PP


def test_findings_name_the_endpoint_objects():
    violating, _ = RULE_FIXTURES[20]
    w, r = writer(**violating.writer), reader(**violating.reader)
    pair = evaluate_pair_rules([(w, r)])[0].entities
    assert pair[0] is w and pair[1] is r
    (entity,) = evaluate_endpoint_rules(r, 3)[0].entities  # skipped: no pp
    assert entity is r
    assert str(w) == "w1(DataWriter)@<test>:1"


# -- keyed results --------------------------------------------------------------
#
# Stage 2 looks each rule's result up by the rule's writer and reader halves.
# A key that misses something the rule reads hands one input the result of
# another that differs only there.  So each example is a state from the
# differential test's value pools, then each copy of it with one field taken
# from a second state, each checked against the rules one by one.  Stages 1
# and 3 keep no results by key; their test pins the same states.


def _one_field_changes(base: dict, other: dict) -> list[dict]:
    """``base``, then a copy of it for each field ``other`` differs in, with that field from ``other``."""
    return [base] + [{**base, field: other[field]} for field in base if other[field] != base[field]]


def _duration(ns: int | None) -> Duration | None:
    return Duration(ns) if ns else None


_endpoint_states = st.builds(
    lambda record, rtt, pp: {**record, "rtt": rtt, "pp": pp}, qos_records(), _env_pool, _env_pool
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_endpoint_states, _endpoint_states)
def test_keyed_endpoint_results_match_each_rules_outcome(base, other):
    for state in _one_field_changes(base, other):
        rtt, pp = _duration(state["rtt"]), _duration(state["pp"])
        for kind, side in ((EndpointKind.DATA_WRITER, "writer"), (EndpointKind.DATA_READER, "reader")):
            endpoint = build_endpoint(state, kind, "ep")
            for stage in (1, 3):
                expected = [
                    evaluate_rule(rule, **{side: endpoint}, rtt=rtt, pp=pp)
                    for rule in rules_for_stage(stage)
                    if applicable_to(rule, kind)
                ]
                found = evaluate_endpoint_rules(endpoint, stage, rtt=rtt, pp=pp)
                assert found == [o for o in expected if o is not None], (kind, state)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(qos_records(), qos_records(), qos_records(), qos_records())
def test_keyed_pair_results_match_each_rules_outcome(w, r, other_w, other_r):
    states = [(s, r) for s in _one_field_changes(w, other_w)] + [(w, s) for s in _one_field_changes(r, other_r)]
    pairs, all_expected = [], []
    for writer_record, reader_record in states:
        w_endpoint = build_endpoint(writer_record, EndpointKind.DATA_WRITER, "w")
        r_endpoint = build_endpoint(reader_record, EndpointKind.DATA_READER, "r")
        expected = [evaluate_rule(rule, writer=w_endpoint, reader=r_endpoint) for rule in rules_for_stage(2)]
        expected = [o for o in expected if o is not None]
        found = evaluate_pair_rules([(w_endpoint, r_endpoint)])
        assert found == expected, (writer_record, reader_record)
        pairs.append((w_endpoint, r_endpoint))
        all_expected += expected
    # All the states in one call: its tables by identity, the findings in pair
    # order, and the rows that the halves of different states share.
    assert evaluate_pair_rules(pairs) == all_expected


def _pair_key(rule, w, r) -> tuple:
    """A pair rule's whole key, from ``Rule.key_parts`` alone: its id, then
    each read's expression evaluated on ``(w, r)``, the reads sorted by name."""
    return (rule.id, *(eval(rule.key_parts[read], {"w": w, "r": r}) for read in sorted(rule.key_parts)))


def test_key_halves_reproduce_each_pair_rules_key():
    cases = [case for fixture in RULE_FIXTURES.values() for case in fixture]
    writers, readers = [writer(**case.writer) for case in cases], [reader(**case.reader) for case in cases]
    assert len(writers) > 50 and len({repr(w.qos) for w in writers}) > 10  # several, and distinct
    for w in writers:
        for r in readers:
            for rule, w_half, r_half in zip(rules_for_stage(2), writer_halves(w.qos), reader_halves(r.qos)):
                reader_reads = sum(read.startswith("reader ") for read in rule.reads)
                reader_values = (r_half,) if reader_reads == 1 else r_half
                assert w_half[0] == rule.id and len(reader_values) == reader_reads
                assert (w_half[0], *reader_values, *w_half[1:]) == _pair_key(rule, w.qos, r.qos), rule.id


def _assert_c_hashed(key: tuple) -> None:
    """Every value in ``key``, through nested tuples, has a hash written in C."""
    values = list(key)
    while values:
        value = values.pop()
        if type(value) is tuple:
            values += value
        else:
            assert type(value) in (int, bool, str, type(None)), (key, value)


def test_keys_hold_only_values_with_c_hashes():
    w, r = writer(), reader()
    for rule in rules_for_stage(2):
        key = _pair_key(rule, w.qos, r.qos)
        assert key[0] == rule.id and len(key) == 1 + len(rule.reads)
        _assert_c_hashed(key)
    _assert_c_hashed(writer_halves(w.qos) + reader_halves(r.qos))


# -- finding records ------------------------------------------------------------


def test_findings_are_frozen_slotted_value_records():
    violation = Violation(21, "RELIAB↔RELIAB", 2, Severity.CRITICAL, (), "scan", "m", "s")
    skip = SkippedRule(6, "HIST→DURABL", 1, (), SkipReason.MISSING_ENV_RTT)
    for finding in (violation, skip):
        assert not hasattr(finding, "__dict__")
        with pytest.raises(AttributeError):
            finding.rule_id = 1
        with pytest.raises(AttributeError):
            del finding.stage
    assert list(Violation.__slots__) == [
        "rule_id", "identifier", "stage", "severity", "entities", "topic_name", "message", "suggestion",
    ]
    assert list(SkippedRule.__slots__) == ["rule_id", "identifier", "stage", "entities", "reason"]
    assert repr(violation) == (
        "Violation(rule_id=21, identifier='RELIAB↔RELIAB', stage=2, severity=<Severity.CRITICAL: "
        "'critical'>, entities=(), topic_name='scan', message='m', suggestion='s')"
    )
    assert repr(skip) == (
        "SkippedRule(rule_id=6, identifier='HIST→DURABL', stage=1, entities=(), "
        "reason=<SkipReason.MISSING_ENV_RTT: 'MissingEnvRTT'>)"
    )
    same = Violation(
        rule_id=21, identifier="RELIAB↔RELIAB", stage=2, severity=Severity.CRITICAL,
        entities=(), topic_name="scan", message="m", suggestion="s",
    )
    assert same == violation and hash(same) == hash(violation) and same is not violation
    assert SkippedRule(6, "HIST→DURABL", 1, (), SkipReason.MISSING_ENV_RTT) == skip
    assert len({violation, same, skip}) == 2
    moved = replace(violation, topic_name=None)
    assert moved == Violation(21, "RELIAB↔RELIAB", 2, Severity.CRITICAL, (), None, "m", "s")
    assert moved != violation and violation.topic_name == "scan"
    assert replace(skip, reason=SkipReason.MISSING_ENV_PP).reason is SkipReason.MISSING_ENV_PP


def test_findings_are_tuples_equal_only_to_findings_of_their_class():
    violation = Violation(21, "RELIAB↔RELIAB", 2, Severity.CRITICAL, (), "scan", "m", "s")
    skip = SkippedRule(6, "HIST→DURABL", 1, (), SkipReason.MISSING_ENV_RTT)

    class Twin(Record, tuple):  # SkippedRule's fields, another class
        rule_id: int
        identifier: str
        stage: int
        entities: tuple
        reason: SkipReason

    twin = Twin(6, "HIST→DURABL", 1, (), SkipReason.MISSING_ENV_RTT)
    assert tuple(twin) == tuple(skip) and twin.reason is skip.reason
    for finding in (violation, skip):
        fields = tuple(getattr(finding, name) for name in finding.__slots__)
        assert isinstance(finding, tuple) and tuple(finding) == fields
        assert finding != fields and fields != finding and not finding == fields and not fields == finding
        assert copy.copy(finding) == finding and pickle.loads(pickle.dumps(finding)) == finding
    assert violation != skip and skip != twin and twin != skip and not skip == twin


def test_evaluators_and_filing_build_the_findings_the_constructors_build():
    fixture = RULE_FIXTURES[21][0]
    w, r = writer(**fixture.writer), reader(**fixture.reader)
    built = evaluate_endpoint_rules(w, 1) + evaluate_pair_rules([(w, r)]) + evaluate_endpoint_rules(w, 3)
    assert {type(f) for f in built} == {Violation, SkippedRule} and {f.stage for f in built} == {1, 2, 3}
    other = reader("r2", topic="other")
    for f in built:
        rule = get_rule(f.rule_id)
        result = rule.outcome(w.qos, r.qos) if rule.stage == 2 else rule.outcome(w.qos, None, None)
        fields = dict(rule_id=rule.id, identifier=rule.identifier, stage=rule.stage)
        fields["entities"] = (w, r) if rule.stage == 2 else (w,)
        if type(f) is SkippedRule:
            expected = SkippedRule(**fields, reason=result)
        else:
            message, suggestion = result
            expected = Violation(
                **fields, severity=rule.severity, topic_name="scan", message=message, suggestion=suggestion
            )
        assert f == expected and repr(f) == repr(expected)
        violations, skipped = defaultdict(list), defaultdict(list)
        _file([f], violations, skipped)
        _file([f], violations, skipped, (other,), "other")
        kept, moved = violations[f.rule_id] or skipped[f.rule_id]
        assert kept is f
        changes = dict(entities=(other,), topic_name="other") if type(f) is Violation else dict(entities=(other,))
        expected = replace(f, **changes)
        assert type(moved) is type(f) and moved == expected and repr(moved) == repr(expected)
