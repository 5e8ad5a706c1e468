"""Shared builders for endpoint fixtures used across the test modules."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

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
    EntityFactory,
    History,
    HistoryKind,
    Lifespan,
    Liveliness,
    LivelinessKind,
    Ownership,
    OwnershipKind,
    Partition,
    QosProfile,
    ReaderDataLifecycle,
    Reliability,
    ReliabilityKind,
    ResourceLimits,
    SourceLocation,
    WriterDataLifecycle,
    default_qos,
)

INF = Duration.infinite()


def perfbench_workloads():
    """``perfbench/workloads.py``, the benchmark's seeded workload generator."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def replace(record, **changes):
    """A new record of ``record``'s class with the fields in ``changes`` replaced."""
    fields = {name: changes.pop(name) if name in changes else getattr(record, name) for name in record.__slots__}
    return type(record)(**fields, **changes)


def ms(value: int | float) -> Duration:
    return Duration.from_millis(value)


def sec(value: int) -> Duration:
    return Duration.from_sec_nanosec(value, 0)


def qos_with(kind: EndpointKind, **policies) -> QosProfile:
    """The default profile for ``kind`` with specific policies replaced."""
    return replace(default_qos(kind), **policies)


def writer(name: str = "w1", topic: str | None = "scan", **policies) -> EndpointProfile:
    return EndpointProfile(
        profile_name=name,
        endpoint_kind=EndpointKind.DATA_WRITER,
        qos=qos_with(EndpointKind.DATA_WRITER, **policies),
        topic_name=topic,
        source_location=SourceLocation("<test>", 1),
    )


def reader(name: str = "r1", topic: str | None = "scan", **policies) -> EndpointProfile:
    return EndpointProfile(
        profile_name=name,
        endpoint_kind=EndpointKind.DATA_READER,
        qos=qos_with(EndpointKind.DATA_READER, **policies),
        topic_name=topic,
        source_location=SourceLocation("<test>", 1),
    )


# Compact policy constructors for fixture tables.


def hist(kind: HistoryKind = HistoryKind.KEEP_LAST, depth: int = 1) -> History:
    return History(kind=kind, depth=depth)


def reslim(
    max_samples: int | None = None,
    max_instances: int | None = None,
    max_samples_per_instance: int | None = None,
) -> ResourceLimits:
    return ResourceLimits(
        max_samples=Count(max_samples),
        max_instances=Count(max_instances),
        max_samples_per_instance=Count(max_samples_per_instance),
    )


def lifespan(duration: Duration) -> Lifespan:
    return Lifespan(duration=duration)


def deadline(period: Duration) -> Deadline:
    return Deadline(period=period)


def liveliness(kind: LivelinessKind = LivelinessKind.AUTOMATIC, lease: Duration = INF) -> Liveliness:
    return Liveliness(kind=kind, lease_duration=lease)


def reliability(kind: ReliabilityKind, blocking: Duration = ms(100)) -> Reliability:
    return Reliability(kind=kind, max_blocking_time=blocking)


def durability(kind: DurabilityKind) -> Durability:
    return Durability(kind=kind)


def ownership(kind: OwnershipKind) -> Ownership:
    return Ownership(kind=kind)


def destination_order(kind: DestinationOrderKind) -> DestinationOrder:
    return DestinationOrder(kind=kind)


def partition(*names: str) -> Partition:
    return Partition(names=tuple(names))


def entity_factory(autoenable: bool) -> EntityFactory:
    return EntityFactory(autoenable_created_entities=autoenable)


def wdlife(autodispose: bool) -> WriterDataLifecycle:
    return WriterDataLifecycle(autodispose_unregistered_instances=autodispose)


def rdlife(disposed: Duration = INF, no_writer: Duration = INF) -> ReaderDataLifecycle:
    return ReaderDataLifecycle(
        autopurge_disposed_samples_delay=disposed,
        autopurge_no_writer_samples_delay=no_writer,
    )
