"""Every rule's message and suggestion, pinned byte for byte.

``golden/rule_text.json`` holds, per rule, the text of its violating fixture
in ``rule_fixtures.py``, then a seeded sample of violations drawn from the
value pools of ``test_differential.py`` (records in that module's format),
then a few violations at the top of the 64-bit nanosecond range.  Each
sampled entry stores its inputs beside its texts, so the file alone fixes
what is compared.  Regenerate it with ``python tests/test_rule_text.py``
only when a text is meant to change.

The bounds a suggestion states are checked as well as its bytes: each
clause of a stage-1/3 suggestion, applied alone, must clear its rule.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qos_chain_guard.model import PARAMETERS, Count, DurabilityKind, Duration, EndpointKind, HistoryKind
from qos_chain_guard.profiles import ProfileSet, parse_document, parse_profiles, serialize_canonical
from qos_chain_guard.rules import (
    RuleScope,
    Violation,
    applicable_to,
    evaluate_rule,
    get_rule,
    rule_catalog,
    rules_for_stage,
)

from rule_fixtures import RULE_FIXTURES
from support import durability, hist, ms, reader, replace, reslim, writer
from test_differential import _count_pool, _env_pool, _ns_pool, build_endpoint, qos_records

GOLDEN = Path(__file__).parent / "golden" / "rule_text.json"
SEED = 20261018
PER_RULE = 5
TOP = 2**63 - 1  # the largest finite duration, in nanoseconds


@pytest.mark.parametrize("depth, per_instance", [(10, 0), (2, 0), (2, 1), (7, 5)])
def test_rule_1_never_suggests_a_history_depth_below_one(depth, per_instance):
    # ``check`` rejects history.depth 0, so "lower history.depth to ≤ 0" is
    # no repair: with max_samples_per_instance 0 only raising it is offered.
    endpoint = writer(history=hist(depth=depth), resource_limits=reslim(max_samples_per_instance=per_instance))
    violation = evaluate_rule(get_rule(1), writer=endpoint)
    assert type(violation) is Violation
    assert violation.suggestion.startswith(f"raise resource_limits.max_samples_per_instance to ≥ {depth}")
    bounds = [int(bound) for bound in re.findall(r"lower history\.depth to ≤ (\d+)", violation.suggestion)]
    assert bounds == ([per_instance] if per_instance else [])


def _late_join_writer(rule_id: int, value: int):
    """A durable writer whose retained history (rule 39's depth, rule 40's
    max_samples_per_instance) is ``value``."""
    if rule_id == 39:
        return writer(durability=durability(DurabilityKind.TRANSIENT_LOCAL), history=hist(depth=value))
    return writer(
        durability=durability(DurabilityKind.TRANSIENT_LOCAL),
        history=hist(HistoryKind.KEEP_ALL),
        resource_limits=reslim(max_samples_per_instance=value),
    )


@pytest.mark.parametrize("rule_id", [39, 40])
def test_rules_39_and_40_state_the_largest_bound_that_clears_them(rule_id):
    # Their floor rtt/pp + 2 is rounded down.  Rounded up, at rtt 100 ms and
    # pp 30 ms (a floor of 5.33), depth 6 would read "6 above ... = 6" and
    # "lower history.depth to ≤ 6" would leave the rule firing.
    rule, rng, fired = get_rule(rule_id), random.Random(SEED + rule_id), 0
    for _ in range(400):
        rtt, pp, value = ms(rng.randint(1, 400)), ms(rng.randint(1, 120)), rng.randint(1, 40)
        violation = evaluate_rule(rule, writer=_late_join_writer(rule_id, value), rtt=rtt, pp=pp)
        if violation is None:
            continue
        fired += 1
        floor = int(re.search(r"above the retransmission floor rtt/pp \+ 2 = (\d+) ", violation.message)[1])
        (bound,) = map(int, re.findall(r" to ≤ (\d+)$", violation.suggestion))
        assert floor == bound < value, violation.message
        assert evaluate_rule(rule, writer=_late_join_writer(rule_id, bound), rtt=rtt, pp=pp) is None
        assert evaluate_rule(rule, writer=_late_join_writer(rule_id, bound + 1), rtt=rtt, pp=pp) is not None
    assert fired > 100


# -- checked repairs ----------------------------------------------------------

# One clause of a suggestion: ``raise|lower|shorten PATH to ≥|to ≤|above V``.
_CLAUSE = re.compile(r"(?:raise|lower|shorten) (\S+) (to ≥|to ≤|above) (\S+)")
_UNIT_NS = {"s": 10**9, "ms": 10**6, "us": 10**3, "ns": 1}
# A path names policy.parameter; a parameter name unique to one policy may stand alone.
_PATHS = {f"{policy}.{param}": (policy, param) for policy, params in PARAMETERS.items() for param in params}
_PARAM_COUNTS = Counter(param for _, param in _PATHS.values())
_PATHS |= {param: (policy, param) for policy, param in list(_PATHS.values()) if _PARAM_COUNTS[param] == 1}


def _clause_value(text: str, default: object, above: bool):
    """The value a clause names, as ``default``'s type; one unit more for ``above``."""
    if isinstance(default, Duration):
        if text == "infinite":
            return Duration.infinite()
        number, unit = re.fullmatch(r"(\d+)(s|ms|us|ns)", text).groups()
        return Duration((int(number) + above) * _UNIT_NS[unit])
    if isinstance(default, Count):
        return Count.unlimited() if text == "unlimited" else Count(int(text) + above)
    return int(text) + above


def _apply(endpoint, path: str, relation: str, text: str):
    policy, param = _PATHS[path]
    value = _clause_value(text, PARAMETERS[policy][param], relation == "above")
    policy_value = replace(getattr(endpoint.qos, policy), **{param: value})
    return replace(endpoint, qos=replace(endpoint.qos, **{policy: policy_value}))


_repair_env = st.sampled_from([None, 20, 30, 50, 100])


@settings(max_examples=400, derandomize=True, deadline=None)
@given(record=qos_records(), kind=st.sampled_from(EndpointKind), rtt=_repair_env, pp=_repair_env)
def test_every_repair_clause_clears_its_rule(record, kind, rtt, pp):
    # Each clause of a stage-1/3 suggestion, applied on its own, must name a
    # value the parser accepts (the endpoint survives a canonical round trip)
    # and must leave its rule without a violation.
    side = "writer" if kind is EndpointKind.DATA_WRITER else "reader"
    endpoint = build_endpoint(record, kind, side[0])
    env = {"rtt": None if rtt is None else Duration(rtt), "pp": None if pp is None else Duration(pp)}
    for rule in rules_for_stage(1) + rules_for_stage(3):
        if not applicable_to(rule, kind):
            continue
        violation = evaluate_rule(rule, **{side: endpoint}, **env)
        if not isinstance(violation, Violation):
            continue
        clauses = _CLAUSE.findall(violation.suggestion)
        assert len(clauses) == sum(map(violation.suggestion.count, (" to ≥ ", " to ≤ ", " above "))), violation
        for path, relation, text in clauses:
            repaired = _apply(endpoint, path, relation, text)
            profile_set = ProfileSet({repaired.profile_name: repaired})
            again = parse_profiles([parse_document(serialize_canonical(profile_set), "repair.xml")])
            assert again == profile_set, (rule.id, path, text)
            after = evaluate_rule(rule, **{side: again.profiles[repaired.profile_name]}, **env)
            assert not isinstance(after, Violation), (rule.id, violation.suggestion, path, text, after.message)


def _fixture_context(rule_id: int) -> dict:
    case = RULE_FIXTURES[rule_id][0]
    rtt = ms(case.rtt_ms) if case.rtt_ms is not None else None
    pp = ms(case.pp_ms) if case.pp_ms is not None else None
    if get_rule(rule_id).scope is RuleScope.PAIR:
        return dict(writer=writer(**case.writer), reader=reader(**case.reader), rtt=rtt, pp=pp)
    if case.writer:
        return dict(writer=writer(**case.writer), rtt=rtt, pp=pp)
    return dict(reader=reader(**case.reader), rtt=rtt, pp=pp)


def _sample_context(entry: dict) -> dict:
    ends = {}
    for side, kind in (("writer", EndpointKind.DATA_WRITER), ("reader", EndpointKind.DATA_READER)):
        if entry.get(side) is not None:
            record = dict(entry[side], part=tuple(entry[side]["part"]))
            ends[side] = build_endpoint(record, kind, side[0])
    rtt, pp = (None if ns is None else Duration(ns) for ns in (entry["rtt_ns"], entry["pp_ns"]))
    return dict(**ends, rtt=rtt, pp=pp)


def _context(entry: dict) -> dict:
    return _fixture_context(entry["rule"]) if entry["case"] == "fixture" else _sample_context(entry)


# -- the sample ---------------------------------------------------------------


def _draw_record(rng: random.Random) -> dict:
    """One record as ``test_differential.qos_records`` draws it, from its pools."""
    return {
        "autoenable": rng.choice([True, False]),
        "part": [rng.choice(["", "a", "b"]) for _ in range(rng.randint(1, 2))],
        "rel": rng.choice(["BE", "REL"]),
        "dur": rng.choice(["V", "TL", "T", "P"]),
        "deadline": rng.choice(_ns_pool.elements),
        "liv": rng.choice(["A", "MP", "MT"]),
        "lease": rng.choice(_ns_pool.elements),
        "hist": rng.choice(["KL", "KA"]),
        "depth": rng.choice([1, 2, 5, 7, 10]),
        "max_samples": rng.choice(_count_pool.elements),
        "mspi": rng.choice(_count_pool.elements),
        "lifespan": rng.choice(_ns_pool.elements),
        "own": rng.choice(["SH", "EX"]),
        "dest": rng.choice(["BR", "BS"]),
        "autodispose": rng.choice([True, False]),
        "disposed_delay": rng.choice(_ns_pool.elements),
        "nowriter_delay": rng.choice(_ns_pool.elements),
    }


def _top_of_range() -> list[dict]:
    """Violations whose quoted values reach the top of the 64-bit range.

    Rules 36/37 quote ``2 * pp`` past 2^63 ns.  A rule 9/10 violation needs
    the lifespan above the product it quotes, so its product stays below
    2^63; these cases put both as high as the range allows.
    """
    base = _draw_record(random.Random(SEED))
    base |= {"dur": "V", "own": "EX", "rel": "REL", "deadline": TOP, "lease": 2**62, "lifespan": TOP}
    return [
        {"rule": 9, "writer": base | {"hist": "KL", "depth": 3}, "rtt_ns": None, "pp_ns": 2**61 + 1},
        {"rule": 10, "writer": base | {"hist": "KA", "mspi": 2}, "rtt_ns": None, "pp_ns": 2**62 - 1},
        {"rule": 36, "reader": base, "rtt_ns": None, "pp_ns": 9 * 10**18},
        {"rule": 37, "reader": base, "rtt_ns": None, "pp_ns": 9 * 10**18},
    ]


def _sampled() -> list[dict]:
    """``PER_RULE`` seeded violations per rule, both branches of rule 2's suggestion among them."""
    rng = random.Random(SEED)
    entries: dict[tuple[int, bool], list[dict]] = {}
    wanted = {(rule.id, False): PER_RULE for rule in rule_catalog()} | {(2, False): 3, (2, True): 3}
    while any(len(entries.get(key, ())) < n for key, n in wanted.items()):
        w, r = _draw_record(rng), _draw_record(rng)
        env = {"rtt_ns": rng.choice(_env_pool.elements), "pp_ns": rng.choice(_env_pool.elements)}
        kind = rng.choice(list(EndpointKind))
        for rule in rule_catalog():
            if rule.scope is RuleScope.PAIR:
                entry = {"rule": rule.id, "writer": w, "reader": r, "rtt_ns": None, "pp_ns": None}
            elif applicable_to(rule, kind):
                side = "writer" if kind is EndpointKind.DATA_WRITER else "reader"
                entry = {"rule": rule.id, side: w, **env}
            else:
                continue
            key = (rule.id, rule.id == 2 and w["mspi"] is None)
            if len(entries.get(key, ())) < wanted[key] and isinstance(
                evaluate_rule(rule, **_sample_context(entry)), Violation
            ):
                entries.setdefault(key, []).append(entry)
    return [entry for key in sorted(entries) for entry in entries[key]]


def _texts(entry: dict) -> dict:
    outcome = evaluate_rule(get_rule(entry["rule"]), **_context(entry))
    assert isinstance(outcome, Violation), entry
    return entry | {"message": outcome.message, "suggestion": outcome.suggestion}


def write_golden() -> None:
    fixtures = [{"rule": rule_id, "case": "fixture"} for rule_id in sorted(RULE_FIXTURES)]
    sampled = [{"case": "sample", **entry} for entry in _sampled()]
    top = [{"case": "top", **entry} for entry in _top_of_range()]
    entries = [_texts(entry) for entry in fixtures + sampled + top]
    lines = ",\n".join(json.dumps(entry, ensure_ascii=False) for entry in entries)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


# -- the test -------------------------------------------------------------------

ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: f"rule{e['rule']}-{e['case']}")
def test_rule_text_matches_the_golden_file(entry):
    outcome = evaluate_rule(get_rule(entry["rule"]), **_context(entry))
    assert isinstance(outcome, Violation)
    assert (outcome.message, outcome.suggestion) == (entry["message"], entry["suggestion"])


def test_golden_sample_covers_every_rule_and_both_rule_2_suggestions():
    counts = {rule.id: 0 for rule in rule_catalog()}
    for entry in ENTRIES:
        counts[entry["rule"]] += entry["case"] == "sample"
    assert min(counts.values()) >= 5
    rule_2 = {entry["suggestion"].split(" to ")[0] for entry in ENTRIES if entry["rule"] == 2}
    assert rule_2 == {"set resource_limits.max_samples", "raise resource_limits.max_samples"}
    top = [entry for entry in ENTRIES if entry["case"] == "top"]
    assert any(entry["rule"] in (36, 37) and 2 * entry["pp_ns"] > TOP for entry in top)


if __name__ == "__main__":
    write_golden()
