"""Differential audit of the rule catalog.

A second, independently written transcription of all 41 conditions over
plain Python values (ints, None sentinels, short kind codes) is fuzzed
against the real engine.  Any disagreement on outcome or skip reason
fails with the offending record, so transcription slips in either copy
surface immediately.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qos_chain_guard.model import (
    Count,
    Deadline,
    DestinationOrder,
    DestinationOrderKind,
    Durability,
    DurabilityKind,
    Duration,
    EndpointKind,
    EndpointProfile,
    History,
    HistoryKind,
    Lifespan,
    Liveliness,
    LivelinessKind,
    Ownership,
    OwnershipKind,
    Partition,
    ReaderDataLifecycle,
    Reliability,
    ReliabilityKind,
    ResourceLimits,
    WriterDataLifecycle,
    EntityFactory,
    default_qos,
)
from qos_chain_guard.rules import (
    SkippedRule,
    Violation,
    applicable_to,
    evaluate_rule,
    rule_catalog,
    rules_for_stage,
)

from support import replace

# -- independent condition table ------------------------------------------
# Durations: int nanoseconds, None = infinite.  Counts: int, None = unlimited.
# Kind codes: rel BE<REL; dur V<TL<T<P; liv A<MP<MT; dest BR<BS; own SH/EX;
# hist KL/KA.

_DUR_ORDER = ["V", "TL", "T", "P"]
_LIV_ORDER = ["A", "MP", "MT"]


def _lt(a: int | None, b: int | None) -> bool:
    """a < b with None as positive infinity."""
    if a is None:
        return False
    if b is None:
        return True
    return a < b


def _dur_ge(kind: str, floor: str) -> bool:
    return _DUR_ORDER.index(kind) >= _DUR_ORDER.index(floor)


def _positive(v: int | None) -> bool:
    return v is not None and v > 0


def _named_partition(names: tuple[str, ...]) -> bool:
    return any(n != "" for n in names)


def _below_floor(value: int | None, rtt: int, pp: int) -> bool:
    if value is None:
        return False
    return Fraction(value) < Fraction(rtt, pp) + 2


def _above_floor(value: int | None, rtt: int, pp: int) -> bool:
    if value is None:
        return True
    return Fraction(value) > Fraction(rtt, pp) + 2


_ENV_NEEDS = {
    6: ("rtt", "pp"), 7: ("rtt", "pp"), 8: ("rtt",), 9: ("pp",), 10: ("pp",),
    29: ("rtt", "pp"), 30: ("rtt", "pp"), 31: ("rtt",),
    36: ("pp",), 37: ("pp",), 39: ("rtt", "pp"), 40: ("rtt", "pp"),
}


def expected_single(rule_id: int, q: dict, rtt: int | None, pp: int | None):
    """Outcome of one single-endpoint rule per the independent transcription."""
    if rule_id in (9, 10) and q["lifespan"] is None:
        return ("skip", "InfiniteLifespanExemption")
    needs = _ENV_NEEDS.get(rule_id, ())
    if "rtt" in needs and rtt is None:
        return ("skip", "MissingEnvRTT")
    if "pp" in needs and pp is None:
        return ("skip", "MissingEnvPP")

    conditions = {
        1: lambda: q["hist"] == "KL" and (q["mspi"] is not None and q["depth"] > q["mspi"]),
        2: lambda: _lt(q["max_samples"], q["mspi"]),
        3: lambda: _positive(q["deadline"]) and _lt(q["lifespan"], q["deadline"]),
        4: lambda: q["dest"] == "BS" and q["hist"] == "KL" and q["depth"] == 1,
        5: lambda: q["dest"] == "BS" and q["hist"] == "KA" and q["mspi"] == 1,
        6: lambda: _dur_ge(q["dur"], "TL") and q["hist"] == "KL" and _below_floor(q["depth"], rtt, pp),
        7: lambda: _dur_ge(q["dur"], "TL") and q["hist"] == "KA" and _below_floor(q["mspi"], rtt, pp),
        8: lambda: _dur_ge(q["dur"], "TL") and _lt(q["lifespan"], rtt),
        9: lambda: q["hist"] == "KL" and q["lifespan"] > q["depth"] * pp,
        10: lambda: q["hist"] == "KA" and (q["mspi"] is not None and q["lifespan"] > q["mspi"] * pp),
        11: lambda: q["own"] == "EX" and q["deadline"] is None,
        12: lambda: q["own"] == "EX" and q["lease"] is None,
        13: lambda: _positive(q["nowriter_delay"]) and q["lease"] is None,
        14: lambda: _dur_ge(q["dur"], "T") and q["disposed_delay"] == 0,
        15: lambda: q["dur"] == "V" and not q["autoenable"],
        16: lambda: _dur_ge(q["dur"], "TL") and _named_partition(q["part"]),
        17: lambda: _positive(q["deadline"]) and _named_partition(q["part"]),
        18: lambda: q["liv"] == "MT" and _named_partition(q["part"]),
        19: lambda: q["autodispose"] and q["own"] == "EX",
        28: lambda: _dur_ge(q["dur"], "TL") and q["rel"] == "BE",
        29: lambda: q["rel"] == "REL" and q["hist"] == "KL" and _below_floor(q["depth"], rtt, pp),
        30: lambda: q["rel"] == "REL" and q["hist"] == "KA" and _below_floor(q["mspi"], rtt, pp),
        31: lambda: q["rel"] == "REL" and _lt(q["lifespan"], rtt),
        32: lambda: q["own"] == "EX" and q["rel"] == "BE",
        33: lambda: _positive(q["deadline"]) and q["rel"] == "BE",
        34: lambda: _positive(q["deadline"]) and _lt(q["lease"], q["deadline"]),
        35: lambda: q["liv"] == "MT" and q["rel"] == "BE",
        36: lambda: q["own"] == "EX" and _lt(q["deadline"], 2 * pp),
        37: lambda: q["own"] == "EX" and _lt(q["lease"], 2 * pp),
        38: lambda: q["autodispose"] and q["rel"] == "BE",
        39: lambda: _dur_ge(q["dur"], "TL") and q["hist"] == "KL" and _above_floor(q["depth"], rtt, pp),
        40: lambda: _dur_ge(q["dur"], "TL") and q["hist"] == "KA" and _above_floor(q["mspi"], rtt, pp),
        41: lambda: _positive(q["deadline"]) and _dur_ge(q["dur"], "TL"),
    }
    return ("violation", None) if conditions[rule_id]() else ("clean", None)


def expected_pair(rule_id: int, w: dict, r: dict):
    conditions = {
        20: lambda: not (set(w["part"]) & set(r["part"])),
        21: lambda: w["rel"] == "BE" and r["rel"] == "REL",
        22: lambda: _DUR_ORDER.index(w["dur"]) < _DUR_ORDER.index(r["dur"]),
        23: lambda: _lt(r["deadline"], w["deadline"]),
        24: lambda: (
            _LIV_ORDER.index(w["liv"]) < _LIV_ORDER.index(r["liv"])
            or _lt(r["lease"], w["lease"])
        ),
        25: lambda: w["own"] != r["own"],
        26: lambda: w["dest"] == "BR" and r["dest"] == "BS",
        27: lambda: not w["autodispose"] and _positive(r["disposed_delay"]),
    }
    return ("violation", None) if conditions[rule_id]() else ("clean", None)


# -- record -> model translation -------------------------------------------

_REL = {"BE": ReliabilityKind.BEST_EFFORT, "REL": ReliabilityKind.RELIABLE}
_DUR = {
    "V": DurabilityKind.VOLATILE,
    "TL": DurabilityKind.TRANSIENT_LOCAL,
    "T": DurabilityKind.TRANSIENT,
    "P": DurabilityKind.PERSISTENT,
}
_LIV = {
    "A": LivelinessKind.AUTOMATIC,
    "MP": LivelinessKind.MANUAL_BY_PARTICIPANT,
    "MT": LivelinessKind.MANUAL_BY_TOPIC,
}
_DEST = {
    "BR": DestinationOrderKind.BY_RECEPTION_TIMESTAMP,
    "BS": DestinationOrderKind.BY_SOURCE_TIMESTAMP,
}
_OWN = {"SH": OwnershipKind.SHARED, "EX": OwnershipKind.EXCLUSIVE}
_HIST = {"KL": HistoryKind.KEEP_LAST, "KA": HistoryKind.KEEP_ALL}


def build_endpoint(q: dict, kind: EndpointKind, name: str) -> EndpointProfile:
    qos = replace(
        default_qos(kind),
        entity_factory=EntityFactory(q["autoenable"]),
        partition=Partition(q["part"]),
        reliability=Reliability(_REL[q["rel"]], Duration.from_millis(100)),
        durability=Durability(_DUR[q["dur"]]),
        deadline=Deadline(Duration(q["deadline"])),
        liveliness=Liveliness(_LIV[q["liv"]], Duration(q["lease"])),
        history=History(_HIST[q["hist"]], q["depth"]),
        resource_limits=ResourceLimits(
            Count(q["max_samples"]), Count.unlimited(), Count(q["mspi"])
        ),
        lifespan=Lifespan(Duration(q["lifespan"])),
        ownership=Ownership(_OWN[q["own"]]),
        destination_order=DestinationOrder(_DEST[q["dest"]]),
        writer_data_lifecycle=WriterDataLifecycle(q["autodispose"]),
        reader_data_lifecycle=ReaderDataLifecycle(
            Duration(q["disposed_delay"]), Duration(q["nowriter_delay"])
        ),
    )
    return EndpointProfile(profile_name=name, endpoint_kind=kind, qos=qos, topic_name="t")


def classify(outcome) -> tuple[str, str | None]:
    if isinstance(outcome, Violation):
        return ("violation", None)
    if outcome is None:
        return ("clean", None)
    assert isinstance(outcome, SkippedRule)
    return ("skip", outcome.reason.value)


# Small discrete value pools keep collisions (equalities, boundary hits) likely.
_ns_pool = st.sampled_from([None, 0, 1, 19, 20, 40, 60, 100, 140, 1000])
_count_pool = st.sampled_from([None, 0, 1, 2, 5, 7, 10])


@st.composite
def qos_records(draw) -> dict:
    return {
        "autoenable": draw(st.booleans()),
        "part": tuple(draw(st.lists(st.sampled_from(["", "a", "b"]), min_size=1, max_size=2))),
        "rel": draw(st.sampled_from(["BE", "REL"])),
        "dur": draw(st.sampled_from(["V", "TL", "T", "P"])),
        "deadline": draw(_ns_pool),
        "liv": draw(st.sampled_from(["A", "MP", "MT"])),
        "lease": draw(_ns_pool),
        "hist": draw(st.sampled_from(["KL", "KA"])),
        "depth": draw(st.sampled_from([1, 2, 5, 7, 10])),
        "max_samples": draw(_count_pool),
        "mspi": draw(_count_pool),
        "lifespan": draw(_ns_pool),
        "own": draw(st.sampled_from(["SH", "EX"])),
        "dest": draw(st.sampled_from(["BR", "BS"])),
        "autodispose": draw(st.booleans()),
        "disposed_delay": draw(_ns_pool),
        "nowriter_delay": draw(_ns_pool),
    }


_env_pool = st.sampled_from([None, 20, 50, 100])


@settings(max_examples=300, deadline=None)
@given(
    record=qos_records(),
    kind=st.sampled_from(EndpointKind),
    rtt=_env_pool,
    pp=_env_pool,
)
def test_single_endpoint_rules_match_the_independent_transcription(record, kind, rtt, pp):
    endpoint = build_endpoint(record, kind, "ep")
    ctx = (
        dict(writer=endpoint, rtt=Duration(rtt) if rtt else None, pp=Duration(pp) if pp else None)
        if kind is EndpointKind.DATA_WRITER
        else dict(reader=endpoint, rtt=Duration(rtt) if rtt else None, pp=Duration(pp) if pp else None)
    )
    for stage in (1, 3):
        for rule in rules_for_stage(stage):
            if not applicable_to(rule, kind):
                continue
            actual = classify(evaluate_rule(rule, **ctx))
            expected = expected_single(rule.id, record, rtt, pp)
            assert actual == expected, (rule.id, record, rtt, pp, actual, expected)


@settings(max_examples=300, deadline=None)
@given(writer_record=qos_records(), reader_record=qos_records())
def test_pair_rules_match_the_independent_transcription(writer_record, reader_record):
    w = build_endpoint(writer_record, EndpointKind.DATA_WRITER, "w")
    r = build_endpoint(reader_record, EndpointKind.DATA_READER, "r")
    ctx = dict(writer=w, reader=r)
    for rule in rules_for_stage(2):
        actual = classify(evaluate_rule(rule, **ctx))
        expected = expected_pair(rule.id, writer_record, reader_record)
        assert actual == expected, (rule.id, writer_record, reader_record, actual, expected)
