"""Records, durations, kind orders and default resolution."""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from qos_chain_guard.model import (
    Count,
    DestinationOrderKind,
    DurabilityKind,
    Duration,
    EndpointKind,
    EndpointProfile,
    GroupData,
    HistoryKind,
    LivelinessKind,
    NANOSECONDS_MAX,
    OwnershipKind,
    PARAMETERS,
    POLICIES,
    QosProfile,
    Record,
    ReliabilityKind,
    SourceLocation,
    UserData,
    default_qos,
    format_duration,
    resolve_defaults,
)
from qos_chain_guard.profiles import ParseDiagnostic, ProfileSet
from support import replace


def test_duration_rejects_negative_and_overflow():
    with pytest.raises(ValueError):
        Duration(-1)
    with pytest.raises(ValueError):
        Duration(NANOSECONDS_MAX + 1)


def test_format_duration_uses_largest_whole_unit():
    assert format_duration(Duration.from_sec_nanosec(2, 0)) == "2s"
    assert format_duration(Duration.from_millis(1500)) == "1500ms"
    assert format_duration(Duration(250_000)) == "250us"
    assert format_duration(Duration(42)) == "42ns"
    assert format_duration(Duration.infinite()) == "infinite"


@pytest.mark.parametrize(
    "kinds,order",
    [
        (ReliabilityKind, ["BEST_EFFORT", "RELIABLE"]),
        (DurabilityKind, ["VOLATILE", "TRANSIENT_LOCAL", "TRANSIENT", "PERSISTENT"]),
        (LivelinessKind, ["AUTOMATIC", "MANUAL_BY_PARTICIPANT", "MANUAL_BY_TOPIC"]),
        (DestinationOrderKind, ["BY_RECEPTION_TIMESTAMP", "BY_SOURCE_TIMESTAMP"]),
    ],
)
def test_ordered_kind_lattices(kinds, order):
    assert [k.name for k in sorted(kinds)] == order
    for low, high in itertools.combinations(sorted(kinds), 2):
        assert low < high


def test_defaults_for_writer_and_reader():
    w = default_qos(EndpointKind.DATA_WRITER)
    r = default_qos(EndpointKind.DATA_READER)
    assert w.reliability.kind is ReliabilityKind.RELIABLE
    assert r.reliability.kind is ReliabilityKind.BEST_EFFORT
    assert r.history.kind is HistoryKind.KEEP_LAST and r.history.depth == 1
    assert w.partition.names == ("",)
    assert w.deadline.period.is_infinite
    assert w.liveliness.kind is LivelinessKind.AUTOMATIC
    assert w.liveliness.lease_duration.is_infinite
    assert w.durability.kind is DurabilityKind.VOLATILE
    assert w.resource_limits.max_samples.is_unlimited
    assert w.lifespan.duration.is_infinite
    assert w.ownership.kind is OwnershipKind.SHARED
    assert w.ownership_strength.value == 0
    assert w.destination_order.kind is DestinationOrderKind.BY_RECEPTION_TIMESTAMP
    assert w.writer_data_lifecycle.autodispose_unregistered_instances is True
    assert w.entity_factory.autoenable_created_entities is True
    assert w.reader_data_lifecycle.autopurge_disposed_samples_delay.is_infinite
    assert w.reader_data_lifecycle.autopurge_no_writer_samples_delay.is_infinite


def test_resolve_defaults_keeps_explicit_values():
    from qos_chain_guard.model import Durability

    partial = QosProfile(durability=Durability(kind=DurabilityKind.TRANSIENT))
    resolved = resolve_defaults(partial, EndpointKind.DATA_WRITER)
    assert resolved.durability.kind is DurabilityKind.TRANSIENT
    assert resolved.reliability.kind is ReliabilityKind.RELIABLE
    assert resolved.is_resolved


def test_resolve_defaults_is_idempotent():
    for kind in EndpointKind:
        once = resolve_defaults(QosProfile(), kind)
        assert resolve_defaults(once, kind) == once


def test_default_resolution_differs_only_in_reliability_kind():
    w = default_qos(EndpointKind.DATA_WRITER)
    r = default_qos(EndpointKind.DATA_READER)
    aligned = replace(r, reliability=w.reliability)
    for name in POLICIES:
        assert getattr(aligned, name) == getattr(w, name)


def test_empty_partition_list_normalizes_to_default():
    from qos_chain_guard.model import Partition

    resolved = resolve_defaults(QosProfile(partition=Partition(names=())), EndpointKind.DATA_READER)
    assert resolved.partition.names == ("",)


# A policy slot of a partial profile: unset, either kind's default, or a
# value of its own (for partition, zero names among them).
def _slot_values(name: str) -> list:
    own = {
        "reliability": POLICIES["reliability"](kind=ReliabilityKind.BEST_EFFORT),
        "partition": POLICIES["partition"](names=()),
        "history": POLICIES["history"](depth=3),
        "durability": POLICIES["durability"](kind=DurabilityKind.TRANSIENT_LOCAL),
    }
    values = [None, getattr(default_qos(EndpointKind.DATA_READER), name), POLICIES[name]()]
    return values + ([own[name]] if name in own else [])


_partials = st.fixed_dictionaries({name: st.sampled_from(_slot_values(name)) for name in POLICIES}).map(
    lambda slots: QosProfile(**slots)
)


def _reference_merged_under(partial: QosProfile, fallback: QosProfile) -> QosProfile:
    return replace(partial, **{name: getattr(fallback, name) for name in POLICIES if getattr(partial, name) is None})


def _reference_resolve(partial: QosProfile, kind: EndpointKind) -> QosProfile:
    resolved = _reference_merged_under(partial, default_qos(kind))
    if not resolved.partition.names:
        resolved = replace(resolved, partition=POLICIES["partition"]())
    return resolved


@given(_partials, _partials, st.sampled_from(EndpointKind))
def test_resolution_matches_field_by_field_replacement(partial, topic, kind):
    merged = partial.merged_under(topic)
    assert merged == _reference_merged_under(partial, topic)
    resolved = resolve_defaults(merged, kind)
    assert resolved == _reference_resolve(merged, kind) and resolved.is_resolved
    # Nothing to change gives the input itself.
    assert (merged is partial) == (merged == partial)
    assert (resolved is merged) == (resolved == merged)
    assert resolve_defaults(resolved, kind) is resolved


def test_history_depth_must_be_positive():
    from qos_chain_guard.model import History

    with pytest.raises(ValueError):
        History(kind=HistoryKind.KEEP_LAST, depth=0)


@pytest.mark.parametrize("attribute", list(POLICIES))
def test_policy_declaration_builds_a_frozen_importable_dataclass(attribute):
    import qos_chain_guard.model as model

    cls = POLICIES[attribute]
    assert issubclass(cls, Record)
    with pytest.raises(AttributeError):
        setattr(cls(), next(iter(PARAMETERS[attribute])), None)
    assert cls.__module__ == "qos_chain_guard.model"
    assert getattr(model, cls.__name__) is cls
    assert list(cls.__slots__) == list(PARAMETERS[attribute])


def test_qos_profile_has_one_field_per_policy_in_declaration_order():
    assert list(QosProfile.__slots__) == list(POLICIES)


def test_policies_of_different_types_with_equal_values_are_unequal():
    assert UserData(b"") != GroupData(b"")
    assert len({UserData(b""), GroupData(b""), UserData(b"")}) == 2


def test_policies_and_profiles_are_immutable():
    with pytest.raises(AttributeError):
        UserData(b"").value = b"\x01"
    with pytest.raises(AttributeError):
        default_qos(EndpointKind.DATA_WRITER).history = None


def test_equality_leaves_out_source_locations_and_parse_notes():
    qos = default_qos(EndpointKind.DATA_WRITER)
    here = EndpointProfile("w", EndpointKind.DATA_WRITER, qos, "t", SourceLocation("a.xml", 2))
    there = EndpointProfile("w", EndpointKind.DATA_WRITER, qos, "t", SourceLocation("b.xml", 9))
    assert here == there and hash(here) == hash(there)
    assert here != EndpointProfile("w", EndpointKind.DATA_WRITER, qos, None, SourceLocation("a.xml", 2))
    assert EndpointProfile("w", EndpointKind.DATA_WRITER, qos).source_location == SourceLocation("<unknown>", 0)
    # A profile set's parse notes are diagnostic metadata too.
    profiles = {"w": here}
    assert ProfileSet(profiles, (ParseDiagnostic("a.xml", 3, "note"),)) == ProfileSet({"w": there})
    assert ProfileSet(profiles) != ProfileSet({})


def test_records_copy_and_pickle_as_equal_values():
    qos = default_qos(EndpointKind.DATA_READER)
    for record in (qos, qos.history, Duration(5), EndpointProfile("r", EndpointKind.DATA_READER, qos)):
        assert copy.copy(record) == record and pickle.loads(pickle.dumps(record)) == record
    # The sentinels are values too: equal to themselves, not to the largest finite value.
    assert Duration.infinite() == Duration.infinite() != Duration(NANOSECONDS_MAX)
    assert Count.unlimited() == Count.unlimited() != Count(2**32)


def test_reader_defaults_differ_from_writer_defaults_only_in_reliability_kind():
    w = default_qos(EndpointKind.DATA_WRITER)
    r = default_qos(EndpointKind.DATA_READER)
    differing = [
        f"{policy}.{param}"
        for policy, params in PARAMETERS.items()
        for param in params
        if getattr(getattr(w, policy), param) != getattr(getattr(r, policy), param)
    ]
    assert differing == ["reliability.kind"]
