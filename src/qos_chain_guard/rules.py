"""The dependency-violation rule catalog and its evaluator.

Each rule is data: an id, a policy-pair identifier, the pipeline stage,
a severity class, an entity scope, the environment inputs it needs, and a
predicate over an evaluation context (true means violation).  Rules 1-19
are per-endpoint consistency checks, 20-27 compare a writer/reader pair
(the RxO checks), and 28-41 need environment assumptions (round-trip time
and publish period) on top of the endpoint settings.

Arithmetic semantics pinned here:

* ``value < rtt/pp + 2`` style thresholds are evaluated exactly by integer
  cross-multiplication; equality at the threshold is clean for both the
  ``<`` and ``>`` variants.
* ``deadline.period > 0`` (and purge-delay ``> 0``) means finite and
  positive; an infinite value means the mechanism is disabled.
* Rules 9 and 10 are skipped, not fired, when the lifespan is infinite:
  an infinite lifespan means no expiry is intended, so comparing it to the
  cache window is meaningless.

Invariant: a rule's predicate, message, suggestion and skip reason depend
only on the QoS of the endpoint(s) under evaluation, ``rtt`` and ``pp``,
never on a profile name, a topic or a source location.  Only the entities
and the topic of an outcome name the endpoint.  The pipeline relies on this
to evaluate each QoS class once and reuse the result for every member.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from .model import (
    Count,
    DestinationOrderKind,
    DurabilityKind,
    Duration,
    EndpointKind,
    EndpointProfile,
    HistoryKind,
    LivelinessKind,
    OwnershipKind,
    QosProfile,
    ReliabilityKind,
    SourceLocation,
    format_duration,
)


class Severity(enum.Enum):
    CRITICAL = "critical"
    CONDITIONAL = "conditional"
    INCIDENTAL = "incidental"

    @property
    def level(self) -> str:
        """Report level: error / warning / info."""
        return _LEVELS[self]


_LEVELS = {
    Severity.CRITICAL: "error",
    Severity.CONDITIONAL: "warning",
    Severity.INCIDENTAL: "info",
}


class RuleScope(enum.Enum):
    DATA_WRITER = "DataWriter"
    DATA_READER = "DataReader"
    EITHER = "either"
    PAIR = "pair"


class SkipReason(enum.Enum):
    MISSING_ENV_RTT = "MissingEnvRTT"
    MISSING_ENV_PP = "MissingEnvPP"
    INFINITE_LIFESPAN_EXEMPTION = "InfiniteLifespanExemption"


@dataclass(frozen=True)
class EvalContext:
    """Inputs for one rule evaluation.

    Single-endpoint rules see exactly one endpoint (writer or reader);
    pair rules see both.  ``pp`` is the publish period resolved for the
    endpoint under evaluation.
    """

    writer: EndpointProfile | None = None
    reader: EndpointProfile | None = None
    rtt: Duration | None = None
    pp: Duration | None = None

    @property
    def subject(self) -> EndpointProfile:
        endpoint = self.writer if self.writer is not None else self.reader
        if endpoint is None:
            raise ValueError("evaluation context has no endpoint")
        return endpoint

    @property
    def qos(self) -> QosProfile:
        return self.subject.qos


@dataclass(frozen=True)
class EntityRef:
    profile_name: str
    endpoint_kind: EndpointKind
    source_location: SourceLocation

    def __str__(self) -> str:
        return f"{self.profile_name}({self.endpoint_kind.display})@{self.source_location}"


@dataclass(frozen=True)
class Violation:
    rule_id: int
    identifier: str
    stage: int
    severity: Severity
    entities: tuple[EntityRef, ...]
    topic_name: str | None
    message: str
    suggestion: str


@dataclass(frozen=True)
class CleanCheck:
    rule_id: int
    entities: tuple[EntityRef, ...]


@dataclass(frozen=True)
class SkippedRule:
    rule_id: int
    identifier: str
    stage: int
    entities: tuple[EntityRef, ...]
    reason: SkipReason


Outcome = Violation | CleanCheck | SkippedRule

_Pred = Callable[[EvalContext], bool]
_Text = Callable[[EvalContext], str]


@dataclass(frozen=True)
class Rule:
    id: int
    identifier: str
    stage: int
    severity: Severity
    scope: RuleScope
    condition: str
    predicate: _Pred = field(repr=False)
    message: _Text = field(repr=False)
    suggestion: _Text = field(repr=False)
    requires_rtt: bool = False
    requires_pp: bool = False
    exemption: Callable[[EvalContext], SkipReason | None] | None = field(default=None, repr=False)

    @property
    def requires_env(self) -> frozenset[str]:
        needs = set()
        if self.requires_rtt:
            needs.add("rtt")
        if self.requires_pp:
            needs.add("pp")
        return frozenset(needs)


# -- predicate vocabulary ----------------------------------------------------


def _deadline_enabled(qos: QosProfile) -> bool:
    # "period > 0": finite and positive; infinite disables monitoring.
    period = qos.deadline.period
    return period.is_finite and period.nanoseconds > 0


def _delay_enabled(delay: Duration) -> bool:
    return delay.is_finite and delay.nanoseconds > 0


def _has_named_partition(qos: QosProfile) -> bool:
    # The default partition list holds a single empty name; "configured"
    # means at least one non-empty name.
    return any(name != "" for name in qos.partition.names)


def _retransmission_floor(ctx: EvalContext) -> int:
    """Smallest integer cache size satisfying ``size >= rtt/pp + 2``."""
    return -(-ctx.rtt.nanoseconds // ctx.pp.nanoseconds) + 2


def _below_floor(value: Count | int, ctx: EvalContext) -> bool:
    """Exact ``value < rtt/pp + 2`` by cross-multiplication."""
    if isinstance(value, Count):
        if value.is_unlimited:
            return False
        value = value.value
    return value * ctx.pp.nanoseconds < ctx.rtt.nanoseconds + 2 * ctx.pp.nanoseconds


def _above_floor(value: Count | int, ctx: EvalContext) -> bool:
    """Exact ``value > rtt/pp + 2`` by cross-multiplication."""
    if isinstance(value, Count):
        if value.is_unlimited:
            return True
        value = value.value
    return value * ctx.pp.nanoseconds > ctx.rtt.nanoseconds + 2 * ctx.pp.nanoseconds


def _cache_window(samples: int, ctx: EvalContext) -> Duration:
    """Time the cache can cover: ``samples`` times the publish period."""
    return ctx.pp.times(samples)


def _lifespan_exceeds_window(lifespan: Duration, capacity: Count | int, ctx: EvalContext) -> bool:
    if isinstance(capacity, Count):
        if capacity.is_unlimited:
            return False  # finite lifespan never exceeds an unbounded window
        capacity = capacity.value
    # Exemption guarantees a finite lifespan here.
    return lifespan.nanoseconds > capacity * ctx.pp.nanoseconds


def _infinite_lifespan_exemption(ctx: EvalContext) -> SkipReason | None:
    if ctx.qos.lifespan.duration.is_infinite:
        return SkipReason.INFINITE_LIFESPAN_EXEMPTION
    return None


def _fmt(d: Duration) -> str:
    return format_duration(d)


# -- the catalog -------------------------------------------------------------


def _build_catalog() -> tuple[Rule, ...]:
    rules: list[Rule] = []

    def add(rule: Rule) -> None:
        rules.append(rule)

    add(Rule(
        1, "HIST↔RESLIM", 1, Severity.CRITICAL, RuleScope.EITHER,
        "history.kind = KEEP_LAST and history.depth > resource_limits.max_samples_per_instance",
        predicate=lambda c: (
            c.qos.history.kind is HistoryKind.KEEP_LAST
            and Count(c.qos.history.depth) > c.qos.resource_limits.max_samples_per_instance
        ),
        message=lambda c: (
            f"history.kind=KEEP_LAST with history.depth={c.qos.history.depth} above "
            f"resource_limits.max_samples_per_instance={c.qos.resource_limits.max_samples_per_instance}: "
            f"the cache can never hold the configured depth"
        ),
        suggestion=lambda c: (
            f"raise resource_limits.max_samples_per_instance to ≥ {c.qos.history.depth} "
            f"or lower history.depth to ≤ {c.qos.resource_limits.max_samples_per_instance}"
        ),
    ))
    add(Rule(
        2, "RESLIM↔RESLIM", 1, Severity.CRITICAL, RuleScope.EITHER,
        "resource_limits.max_samples < resource_limits.max_samples_per_instance",
        predicate=lambda c: (
            c.qos.resource_limits.max_samples < c.qos.resource_limits.max_samples_per_instance
        ),
        message=lambda c: (
            f"resource_limits.max_samples={c.qos.resource_limits.max_samples} is below "
            f"resource_limits.max_samples_per_instance={c.qos.resource_limits.max_samples_per_instance}"
        ),
        suggestion=lambda c: (
            (
                "set resource_limits.max_samples to UNLIMITED "
                if c.qos.resource_limits.max_samples_per_instance.is_unlimited
                else f"raise resource_limits.max_samples to ≥ "
                f"{c.qos.resource_limits.max_samples_per_instance} "
            )
            + f"or lower resource_limits.max_samples_per_instance to ≤ {c.qos.resource_limits.max_samples}"
        ),
    ))
    add(Rule(
        3, "LFSPAN→DEADLN", 1, Severity.CRITICAL, RuleScope.EITHER,
        "deadline.period > 0 and lifespan.duration < deadline.period",
        predicate=lambda c: (
            _deadline_enabled(c.qos) and c.qos.lifespan.duration < c.qos.deadline.period
        ),
        message=lambda c: (
            f"lifespan.duration={_fmt(c.qos.lifespan.duration)} is shorter than "
            f"deadline.period={_fmt(c.qos.deadline.period)}: samples can expire before the "
            f"deadline window closes"
        ),
        suggestion=lambda c: (
            f"raise lifespan.duration to ≥ {_fmt(c.qos.deadline.period)} "
            f"or shorten deadline.period to ≤ {_fmt(c.qos.lifespan.duration)}"
        ),
    ))
    add(Rule(
        4, "HIST→DESTORD", 1, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "destination_order.kind = BY_SOURCE_TIMESTAMP and history.kind = KEEP_LAST and history.depth = 1",
        predicate=lambda c: (
            c.qos.destination_order.kind is DestinationOrderKind.BY_SOURCE_TIMESTAMP
            and c.qos.history.kind is HistoryKind.KEEP_LAST
            and c.qos.history.depth == 1
        ),
        message=lambda c: (
            "destination_order.kind=BY_SOURCE_TIMESTAMP cannot reorder samples with "
            "history.kind=KEEP_LAST and history.depth=1: only the newest sample is retained"
        ),
        suggestion=lambda c: "raise history.depth above 1 or switch history.kind to KEEP_ALL",
    ))
    add(Rule(
        5, "RESLIM→DESTORD", 1, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "destination_order.kind = BY_SOURCE_TIMESTAMP and history.kind = KEEP_ALL "
        "and resource_limits.max_samples_per_instance = 1",
        predicate=lambda c: (
            c.qos.destination_order.kind is DestinationOrderKind.BY_SOURCE_TIMESTAMP
            and c.qos.history.kind is HistoryKind.KEEP_ALL
            and c.qos.resource_limits.max_samples_per_instance == Count(1)
        ),
        message=lambda c: (
            "destination_order.kind=BY_SOURCE_TIMESTAMP cannot reorder samples with "
            "history.kind=KEEP_ALL and resource_limits.max_samples_per_instance=1: "
            "there is no room to insert an earlier-stamped sample"
        ),
        suggestion=lambda c: "raise resource_limits.max_samples_per_instance above 1",
    ))
    add(Rule(
        6, "HIST→DURABL", 1, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "durability.kind >= TRANSIENT_LOCAL and history.kind = KEEP_LAST and history.depth < rtt/pp + 2",
        predicate=lambda c: (
            c.qos.durability.kind >= DurabilityKind.TRANSIENT_LOCAL
            and c.qos.history.kind is HistoryKind.KEEP_LAST
            and _below_floor(c.qos.history.depth, c)
        ),
        message=lambda c: (
            f"durability.kind={c.qos.durability.kind.name} with history.depth={c.qos.history.depth} "
            f"below the retransmission floor rtt/pp + 2 = {_retransmission_floor(c)} "
            f"(rtt={_fmt(c.rtt)}, pp={_fmt(c.pp)}): late joiners may miss retained samples"
        ),
        suggestion=lambda c: f"raise history.depth to ≥ {_retransmission_floor(c)}",
        requires_rtt=True, requires_pp=True,
    ))
    add(Rule(
        7, "RESLIM→DURABL", 1, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "durability.kind >= TRANSIENT_LOCAL and history.kind = KEEP_ALL "
        "and resource_limits.max_samples_per_instance < rtt/pp + 2",
        predicate=lambda c: (
            c.qos.durability.kind >= DurabilityKind.TRANSIENT_LOCAL
            and c.qos.history.kind is HistoryKind.KEEP_ALL
            and _below_floor(c.qos.resource_limits.max_samples_per_instance, c)
        ),
        message=lambda c: (
            f"durability.kind={c.qos.durability.kind.name} with "
            f"resource_limits.max_samples_per_instance={c.qos.resource_limits.max_samples_per_instance} "
            f"below the retransmission floor rtt/pp + 2 = {_retransmission_floor(c)} "
            f"(rtt={_fmt(c.rtt)}, pp={_fmt(c.pp)}): late joiners may miss retained samples"
        ),
        suggestion=lambda c: (
            f"raise resource_limits.max_samples_per_instance to ≥ {_retransmission_floor(c)}"
        ),
        requires_rtt=True, requires_pp=True,
    ))
    add(Rule(
        8, "LFSPAN→DURABL", 1, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "durability.kind >= TRANSIENT_LOCAL and lifespan.duration < rtt",
        predicate=lambda c: (
            c.qos.durability.kind >= DurabilityKind.TRANSIENT_LOCAL
            and c.qos.lifespan.duration < c.rtt
        ),
        message=lambda c: (
            f"durability.kind={c.qos.durability.kind.name} but "
            f"lifespan.duration={_fmt(c.qos.lifespan.duration)} is below rtt={_fmt(c.rtt)}: "
            f"retained samples expire before they can reach a late joiner"
        ),
        suggestion=lambda c: f"raise lifespan.duration above {_fmt(c.rtt)}",
        requires_rtt=True,
    ))
    add(Rule(
        9, "HIST↔LFSPAN", 1, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "history.kind = KEEP_LAST and lifespan.duration > history.depth * pp",
        predicate=lambda c: (
            c.qos.history.kind is HistoryKind.KEEP_LAST
            and _lifespan_exceeds_window(c.qos.lifespan.duration, c.qos.history.depth, c)
        ),
        message=lambda c: (
            f"lifespan.duration={_fmt(c.qos.lifespan.duration)} outlives the KEEP_LAST cache "
            f"window history.depth × pp = {_fmt(_cache_window(c.qos.history.depth, c))} "
            f"(depth={c.qos.history.depth}, pp={_fmt(c.pp)}): samples are overwritten before they expire"
        ),
        suggestion=lambda c: (
            f"lower lifespan.duration to ≤ {_fmt(_cache_window(c.qos.history.depth, c))} "
            f"or raise history.depth to ≥ "
            f"{-(-c.qos.lifespan.duration.nanoseconds // c.pp.nanoseconds)}"
        ),
        requires_pp=True,
        exemption=_infinite_lifespan_exemption,
    ))
    add(Rule(
        10, "RESLIM↔LFSPAN", 1, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "history.kind = KEEP_ALL and lifespan.duration > resource_limits.max_samples_per_instance * pp",
        predicate=lambda c: (
            c.qos.history.kind is HistoryKind.KEEP_ALL
            and _lifespan_exceeds_window(
                c.qos.lifespan.duration, c.qos.resource_limits.max_samples_per_instance, c
            )
        ),
        message=lambda c: (
            f"lifespan.duration={_fmt(c.qos.lifespan.duration)} outlives the KEEP_ALL cache window "
            f"max_samples_per_instance × pp = "
            f"{_fmt(_cache_window(c.qos.resource_limits.max_samples_per_instance.value, c))} "
            f"(max_samples_per_instance={c.qos.resource_limits.max_samples_per_instance}, "
            f"pp={_fmt(c.pp)}): samples are dropped before they expire"
        ),
        suggestion=lambda c: (
            f"lower lifespan.duration to ≤ "
            f"{_fmt(_cache_window(c.qos.resource_limits.max_samples_per_instance.value, c))} "
            f"or raise resource_limits.max_samples_per_instance to ≥ "
            f"{-(-c.qos.lifespan.duration.nanoseconds // c.pp.nanoseconds)}"
        ),
        requires_pp=True,
        exemption=_infinite_lifespan_exemption,
    ))
    add(Rule(
        11, "DEADLN→OWNST", 1, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "ownership.kind = EXCLUSIVE and deadline.period = infinite",
        predicate=lambda c: (
            c.qos.ownership.kind is OwnershipKind.EXCLUSIVE and c.qos.deadline.period.is_infinite
        ),
        message=lambda c: (
            "ownership.kind=EXCLUSIVE but deadline.period=infinite: a silent owner is never "
            "detected, so ownership can never fail over"
        ),
        suggestion=lambda c: "set a finite deadline.period so owner loss triggers a handover",
    ))
    add(Rule(
        12, "LIVENS→OWNST", 1, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "ownership.kind = EXCLUSIVE and liveliness.lease_duration = infinite",
        predicate=lambda c: (
            c.qos.ownership.kind is OwnershipKind.EXCLUSIVE
            and c.qos.liveliness.lease_duration.is_infinite
        ),
        message=lambda c: (
            "ownership.kind=EXCLUSIVE but liveliness.lease_duration=infinite: a dead owner is "
            "never declared not-alive, so ownership can never fail over"
        ),
        suggestion=lambda c: "set a finite liveliness.lease_duration so owner loss is detected",
    ))
    add(Rule(
        13, "LIVENS→RDLIFE", 1, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "reader_data_lifecycle.autopurge_no_writer_samples_delay > 0 "
        "and liveliness.lease_duration = infinite",
        predicate=lambda c: (
            _delay_enabled(c.qos.reader_data_lifecycle.autopurge_no_writer_samples_delay)
            and c.qos.liveliness.lease_duration.is_infinite
        ),
        message=lambda c: (
            f"reader_data_lifecycle.autopurge_no_writer_samples_delay="
            f"{_fmt(c.qos.reader_data_lifecycle.autopurge_no_writer_samples_delay)} is configured, "
            f"but liveliness.lease_duration=infinite means the no-writers state is never entered"
        ),
        suggestion=lambda c: (
            "set a finite liveliness.lease_duration so writer loss can start the purge timer"
        ),
    ))
    add(Rule(
        14, "RDLIFE→DURABL", 1, Severity.INCIDENTAL, RuleScope.DATA_READER,
        "durability.kind >= TRANSIENT and reader_data_lifecycle.autopurge_disposed_samples_delay = 0",
        predicate=lambda c: (
            c.qos.durability.kind >= DurabilityKind.TRANSIENT
            and c.qos.reader_data_lifecycle.autopurge_disposed_samples_delay == Duration(0)
        ),
        message=lambda c: (
            f"durability.kind={c.qos.durability.kind.name} delivers historical samples, but "
            f"reader_data_lifecycle.autopurge_disposed_samples_delay=0s purges disposed instances "
            f"immediately; late-arriving samples may vanish before the application reads them"
        ),
        suggestion=lambda c: "raise autopurge_disposed_samples_delay above 0s",
    ))
    add(Rule(
        15, "ENTFAC→DURABL", 1, Severity.INCIDENTAL, RuleScope.EITHER,
        "durability.kind = VOLATILE and entity_factory.autoenable_created_entities = false",
        predicate=lambda c: (
            c.qos.durability.kind is DurabilityKind.VOLATILE
            and not c.qos.entity_factory.autoenable_created_entities
        ),
        message=lambda c: (
            "durability.kind=VOLATILE with autoenable_created_entities=false: samples published "
            "before enable() is called are lost for this endpoint"
        ),
        suggestion=lambda c: (
            "enable the entity promptly, or raise durability.kind to TRANSIENT_LOCAL to keep "
            "pre-enable samples available"
        ),
    ))
    add(Rule(
        16, "PART→DURABL", 1, Severity.INCIDENTAL, RuleScope.EITHER,
        "durability.kind >= TRANSIENT_LOCAL and partition.names configured",
        predicate=lambda c: (
            c.qos.durability.kind >= DurabilityKind.TRANSIENT_LOCAL and _has_named_partition(c.qos)
        ),
        message=lambda c: (
            f"partition.names={list(c.qos.partition.names)} with "
            f"durability.kind={c.qos.durability.kind.name}: a runtime partition change rematches "
            f"endpoints and can re-deliver retained samples to the new match"
        ),
        suggestion=lambda c: (
            "treat partition changes as late joins: budget for repeated historical transfers"
        ),
    ))
    add(Rule(
        17, "PART→DEADLN", 1, Severity.INCIDENTAL, RuleScope.EITHER,
        "deadline.period > 0 and partition.names configured",
        predicate=lambda c: _deadline_enabled(c.qos) and _has_named_partition(c.qos),
        message=lambda c: (
            f"partition.names={list(c.qos.partition.names)} with finite "
            f"deadline.period={_fmt(c.qos.deadline.period)}: a runtime partition change rematches "
            f"endpoints and resets deadline timers, causing transient deadline misses"
        ),
        suggestion=lambda c: "expect spurious deadline alarms around partition changes",
    ))
    add(Rule(
        18, "PART→LIVENS", 1, Severity.INCIDENTAL, RuleScope.DATA_READER,
        "liveliness.kind = MANUAL_BY_TOPIC and partition.names configured",
        predicate=lambda c: (
            c.qos.liveliness.kind is LivelinessKind.MANUAL_BY_TOPIC and _has_named_partition(c.qos)
        ),
        message=lambda c: (
            f"partition.names={list(c.qos.partition.names)} with liveliness.kind=MANUAL_BY_TOPIC: "
            f"a partition change breaks the match, and the writer appears not alive until rematched"
        ),
        suggestion=lambda c: "expect liveliness gaps around partition changes",
    ))
    add(Rule(
        19, "OWNST→WDLIFE", 1, Severity.INCIDENTAL, RuleScope.DATA_WRITER,
        "writer_data_lifecycle.autodispose_unregistered_instances = true and ownership.kind = EXCLUSIVE",
        predicate=lambda c: (
            c.qos.writer_data_lifecycle.autodispose_unregistered_instances
            and c.qos.ownership.kind is OwnershipKind.EXCLUSIVE
        ),
        message=lambda c: (
            "autodispose_unregistered_instances=true with ownership.kind=EXCLUSIVE: an unregister "
            "by any writer auto-disposes the instance even when a stronger owner still updates it"
        ),
        suggestion=lambda c: (
            "set autodispose_unregistered_instances=false and let the owning writer call dispose "
            "explicitly"
        ),
    ))

    # Stage 2: writer/reader compatibility (the RxO checks).
    add(Rule(
        20, "PART↔PART", 2, Severity.CRITICAL, RuleScope.PAIR,
        "writer partition.names and reader partition.names share no name",
        predicate=lambda c: not (
            set(c.writer.qos.partition.names) & set(c.reader.qos.partition.names)
        ),
        message=lambda c: (
            f"no common partition name: writer offers {list(c.writer.qos.partition.names)}, "
            f"reader requests {list(c.reader.qos.partition.names)}; the pair will not match"
        ),
        suggestion=lambda c: "add at least one partition name shared by both endpoints",
    ))
    add(Rule(
        21, "RELIAB↔RELIAB", 2, Severity.CRITICAL, RuleScope.PAIR,
        "writer reliability.kind < reader reliability.kind",
        predicate=lambda c: c.writer.qos.reliability.kind < c.reader.qos.reliability.kind,
        message=lambda c: (
            f"writer offers reliability.kind={c.writer.qos.reliability.kind.name} below the reader "
            f"request {c.reader.qos.reliability.kind.name}; the pair will not match"
        ),
        suggestion=lambda c: (
            f"raise writer reliability.kind to ≥ {c.reader.qos.reliability.kind.name} "
            f"or lower the reader request"
        ),
    ))
    add(Rule(
        22, "DURABL↔DURABL", 2, Severity.CRITICAL, RuleScope.PAIR,
        "writer durability.kind < reader durability.kind",
        predicate=lambda c: c.writer.qos.durability.kind < c.reader.qos.durability.kind,
        message=lambda c: (
            f"writer offers durability.kind={c.writer.qos.durability.kind.name} below the reader "
            f"request {c.reader.qos.durability.kind.name}; the pair will not match"
        ),
        suggestion=lambda c: (
            f"raise writer durability.kind to ≥ {c.reader.qos.durability.kind.name} "
            f"or lower the reader request"
        ),
    ))
    add(Rule(
        23, "DEADLN↔DEADLN", 2, Severity.CRITICAL, RuleScope.PAIR,
        "writer deadline.period > reader deadline.period",
        predicate=lambda c: c.writer.qos.deadline.period > c.reader.qos.deadline.period,
        message=lambda c: (
            f"writer deadline.period={_fmt(c.writer.qos.deadline.period)} exceeds the reader "
            f"requirement {_fmt(c.reader.qos.deadline.period)}; the pair will not match"
        ),
        suggestion=lambda c: (
            f"lower writer deadline.period to ≤ {_fmt(c.reader.qos.deadline.period)} "
            f"or relax the reader requirement"
        ),
    ))
    add(Rule(
        24, "LIVENS↔LIVENS", 2, Severity.CRITICAL, RuleScope.PAIR,
        "writer liveliness.kind < reader liveliness.kind, "
        "or writer lease_duration > reader lease_duration",
        predicate=lambda c: (
            c.writer.qos.liveliness.kind < c.reader.qos.liveliness.kind
            or c.writer.qos.liveliness.lease_duration > c.reader.qos.liveliness.lease_duration
        ),
        message=lambda c: (
            f"liveliness offer below request: writer kind={c.writer.qos.liveliness.kind.name} "
            f"lease={_fmt(c.writer.qos.liveliness.lease_duration)}, reader kind="
            f"{c.reader.qos.liveliness.kind.name} lease={_fmt(c.reader.qos.liveliness.lease_duration)}; "
            f"the pair will not match"
        ),
        suggestion=lambda c: (
            f"raise writer liveliness.kind to ≥ {c.reader.qos.liveliness.kind.name} and keep "
            f"writer lease_duration ≤ {_fmt(c.reader.qos.liveliness.lease_duration)}"
        ),
    ))
    add(Rule(
        25, "OWNST↔OWNST", 2, Severity.CRITICAL, RuleScope.PAIR,
        "writer ownership.kind != reader ownership.kind",
        predicate=lambda c: c.writer.qos.ownership.kind is not c.reader.qos.ownership.kind,
        message=lambda c: (
            f"ownership.kind mismatch: writer={c.writer.qos.ownership.kind.name}, "
            f"reader={c.reader.qos.ownership.kind.name}; the pair will not match"
        ),
        suggestion=lambda c: "set both OWNERSHIP kinds identical",
    ))
    add(Rule(
        26, "DESTORD↔DESTORD", 2, Severity.CRITICAL, RuleScope.PAIR,
        "writer destination_order.kind < reader destination_order.kind",
        predicate=lambda c: (
            c.writer.qos.destination_order.kind < c.reader.qos.destination_order.kind
        ),
        message=lambda c: (
            f"writer offers destination_order.kind={c.writer.qos.destination_order.kind.name} below "
            f"the reader request {c.reader.qos.destination_order.kind.name}; the pair will not match"
        ),
        suggestion=lambda c: (
            "raise writer destination_order.kind to BY_SOURCE_TIMESTAMP or relax the reader request"
        ),
    ))
    add(Rule(
        27, "WDLIFE→RDLIFE", 2, Severity.CONDITIONAL, RuleScope.PAIR,
        "writer autodispose_unregistered_instances = false "
        "and reader autopurge_disposed_samples_delay > 0",
        predicate=lambda c: (
            not c.writer.qos.writer_data_lifecycle.autodispose_unregistered_instances
            and _delay_enabled(c.reader.qos.reader_data_lifecycle.autopurge_disposed_samples_delay)
        ),
        message=lambda c: (
            f"writer autodispose_unregistered_instances=false, but the reader configures "
            f"autopurge_disposed_samples_delay="
            f"{_fmt(c.reader.qos.reader_data_lifecycle.autopurge_disposed_samples_delay)}: without "
            f"explicit dispose() calls the purge timer never starts"
        ),
        suggestion=lambda c: (
            "have the writer call dispose() explicitly, or set "
            "autodispose_unregistered_instances=true"
        ),
    ))

    # Stage 3: checks that depend on deployment assumptions.
    add(Rule(
        28, "RELIAB→DURABL", 3, Severity.CRITICAL, RuleScope.EITHER,
        "durability.kind >= TRANSIENT_LOCAL and reliability.kind = BEST_EFFORT",
        predicate=lambda c: (
            c.qos.durability.kind >= DurabilityKind.TRANSIENT_LOCAL
            and c.qos.reliability.kind is ReliabilityKind.BEST_EFFORT
        ),
        message=lambda c: (
            f"durability.kind={c.qos.durability.kind.name} requires reliable delivery of retained "
            f"samples, but reliability.kind=BEST_EFFORT"
        ),
        suggestion=lambda c: (
            "set reliability.kind=RELIABLE whenever durability.kind is TRANSIENT_LOCAL or higher"
        ),
    ))
    add(Rule(
        29, "HIST→RELIAB", 3, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "reliability.kind = RELIABLE and history.kind = KEEP_LAST and history.depth < rtt/pp + 2",
        predicate=lambda c: (
            c.qos.reliability.kind is ReliabilityKind.RELIABLE
            and c.qos.history.kind is HistoryKind.KEEP_LAST
            and _below_floor(c.qos.history.depth, c)
        ),
        message=lambda c: (
            f"reliability.kind=RELIABLE with history.depth={c.qos.history.depth} below the "
            f"retransmission floor rtt/pp + 2 = {_retransmission_floor(c)} "
            f"(rtt={_fmt(c.rtt)}, pp={_fmt(c.pp)}): samples rotate out of the cache before they "
            f"can be repaired"
        ),
        suggestion=lambda c: f"raise history.depth to ≥ {_retransmission_floor(c)}",
        requires_rtt=True, requires_pp=True,
    ))
    add(Rule(
        30, "RESLIM→RELIAB", 3, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "reliability.kind = RELIABLE and history.kind = KEEP_ALL "
        "and resource_limits.max_samples_per_instance < rtt/pp + 2",
        predicate=lambda c: (
            c.qos.reliability.kind is ReliabilityKind.RELIABLE
            and c.qos.history.kind is HistoryKind.KEEP_ALL
            and _below_floor(c.qos.resource_limits.max_samples_per_instance, c)
        ),
        message=lambda c: (
            f"reliability.kind=RELIABLE with "
            f"resource_limits.max_samples_per_instance="
            f"{c.qos.resource_limits.max_samples_per_instance} below the retransmission floor "
            f"rtt/pp + 2 = {_retransmission_floor(c)} (rtt={_fmt(c.rtt)}, pp={_fmt(c.pp)}): "
            f"the cache fills before losses can be repaired"
        ),
        suggestion=lambda c: (
            f"raise resource_limits.max_samples_per_instance to ≥ {_retransmission_floor(c)}"
        ),
        requires_rtt=True, requires_pp=True,
    ))
    add(Rule(
        31, "LFSPAN→RELIAB", 3, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "reliability.kind = RELIABLE and lifespan.duration < rtt",
        predicate=lambda c: (
            c.qos.reliability.kind is ReliabilityKind.RELIABLE and c.qos.lifespan.duration < c.rtt
        ),
        message=lambda c: (
            f"reliability.kind=RELIABLE but lifespan.duration={_fmt(c.qos.lifespan.duration)} is "
            f"below rtt={_fmt(c.rtt)}: samples expire before one repair round-trip completes, so "
            f"delivery degrades to best-effort"
        ),
        suggestion=lambda c: f"raise lifespan.duration above {_fmt(c.rtt)}",
        requires_rtt=True,
    ))
    add(Rule(
        32, "RELIAB→OWNST", 3, Severity.CONDITIONAL, RuleScope.EITHER,
        "ownership.kind = EXCLUSIVE and reliability.kind = BEST_EFFORT",
        predicate=lambda c: (
            c.qos.ownership.kind is OwnershipKind.EXCLUSIVE
            and c.qos.reliability.kind is ReliabilityKind.BEST_EFFORT
        ),
        message=lambda c: (
            "ownership.kind=EXCLUSIVE with reliability.kind=BEST_EFFORT: packet loss can look "
            "like owner failure and trigger spurious ownership switches"
        ),
        suggestion=lambda c: "set reliability.kind=RELIABLE when using exclusive ownership",
    ))
    add(Rule(
        33, "RELIAB→DEADLN", 3, Severity.CONDITIONAL, RuleScope.EITHER,
        "deadline.period > 0 and reliability.kind = BEST_EFFORT",
        predicate=lambda c: (
            _deadline_enabled(c.qos) and c.qos.reliability.kind is ReliabilityKind.BEST_EFFORT
        ),
        message=lambda c: (
            f"finite deadline.period={_fmt(c.qos.deadline.period)} with "
            f"reliability.kind=BEST_EFFORT: undetected sample loss surfaces as deadline misses"
        ),
        suggestion=lambda c: (
            "set reliability.kind=RELIABLE, or treat deadline alarms as possible transport loss"
        ),
    ))
    add(Rule(
        34, "LIVENS→DEADLN", 3, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "deadline.period > 0 and liveliness.lease_duration < deadline.period",
        predicate=lambda c: (
            _deadline_enabled(c.qos)
            and c.qos.liveliness.lease_duration < c.qos.deadline.period
        ),
        message=lambda c: (
            f"liveliness.lease_duration={_fmt(c.qos.liveliness.lease_duration)} is shorter than "
            f"deadline.period={_fmt(c.qos.deadline.period)}: liveliness expires first and stops "
            f"deadline monitoring"
        ),
        suggestion=lambda c: (
            f"raise liveliness.lease_duration to ≥ {_fmt(c.qos.deadline.period)}"
        ),
    ))
    add(Rule(
        35, "RELIAB→LIVENS", 3, Severity.CONDITIONAL, RuleScope.EITHER,
        "liveliness.kind = MANUAL_BY_TOPIC and reliability.kind = BEST_EFFORT",
        predicate=lambda c: (
            c.qos.liveliness.kind is LivelinessKind.MANUAL_BY_TOPIC
            and c.qos.reliability.kind is ReliabilityKind.BEST_EFFORT
        ),
        message=lambda c: (
            "liveliness.kind=MANUAL_BY_TOPIC with reliability.kind=BEST_EFFORT: lost liveliness "
            "assertions make a healthy writer appear not alive"
        ),
        suggestion=lambda c: "set reliability.kind=RELIABLE for manual-by-topic liveliness",
    ))
    add(Rule(
        36, "DEADLN→OWNST", 3, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "ownership.kind = EXCLUSIVE and deadline.period < 2 * pp",
        predicate=lambda c: (
            c.qos.ownership.kind is OwnershipKind.EXCLUSIVE
            and c.qos.deadline.period < c.pp.times(2)
        ),
        message=lambda c: (
            f"ownership.kind=EXCLUSIVE with deadline.period={_fmt(c.qos.deadline.period)} below "
            f"2 × pp = {_fmt(c.pp.times(2))}: ordinary publish jitter will trigger ownership "
            f"handovers"
        ),
        suggestion=lambda c: f"raise deadline.period to ≥ {_fmt(c.pp.times(2))}",
        requires_pp=True,
    ))
    add(Rule(
        37, "LIVENS→OWNST", 3, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "ownership.kind = EXCLUSIVE and liveliness.lease_duration < 2 * pp",
        predicate=lambda c: (
            c.qos.ownership.kind is OwnershipKind.EXCLUSIVE
            and c.qos.liveliness.lease_duration < c.pp.times(2)
        ),
        message=lambda c: (
            f"ownership.kind=EXCLUSIVE with liveliness.lease_duration="
            f"{_fmt(c.qos.liveliness.lease_duration)} below 2 × pp = {_fmt(c.pp.times(2))}: "
            f"ordinary publish jitter will trigger ownership handovers"
        ),
        suggestion=lambda c: f"raise liveliness.lease_duration to ≥ {_fmt(c.pp.times(2))}",
        requires_pp=True,
    ))
    add(Rule(
        38, "RELIAB→WDLIFE", 3, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "writer_data_lifecycle.autodispose_unregistered_instances = true "
        "and reliability.kind = BEST_EFFORT",
        predicate=lambda c: (
            c.qos.writer_data_lifecycle.autodispose_unregistered_instances
            and c.qos.reliability.kind is ReliabilityKind.BEST_EFFORT
        ),
        message=lambda c: (
            "autodispose_unregistered_instances=true with reliability.kind=BEST_EFFORT: dispose "
            "notifications can be lost, leaving readers with stale instances"
        ),
        suggestion=lambda c: "set reliability.kind=RELIABLE so lifecycle notifications arrive",
    ))
    add(Rule(
        39, "HIST→DURABL", 3, Severity.INCIDENTAL, RuleScope.DATA_WRITER,
        "durability.kind >= TRANSIENT_LOCAL and history.kind = KEEP_LAST "
        "and history.depth > rtt/pp + 2",
        predicate=lambda c: (
            c.qos.durability.kind >= DurabilityKind.TRANSIENT_LOCAL
            and c.qos.history.kind is HistoryKind.KEEP_LAST
            and _above_floor(c.qos.history.depth, c)
        ),
        message=lambda c: (
            f"durability.kind={c.qos.durability.kind.name} with history.depth={c.qos.history.depth} "
            f"above the retransmission floor rtt/pp + 2 = {_retransmission_floor(c)} "
            f"(rtt={_fmt(c.rtt)}, pp={_fmt(c.pp)}): every late join bursts that much history onto "
            f"the network"
        ),
        suggestion=lambda c: f"lower history.depth to ≤ {_retransmission_floor(c)}",
        requires_rtt=True, requires_pp=True,
    ))
    add(Rule(
        40, "RESLIM→DURABL", 3, Severity.INCIDENTAL, RuleScope.DATA_WRITER,
        "durability.kind >= TRANSIENT_LOCAL and history.kind = KEEP_ALL "
        "and resource_limits.max_samples_per_instance > rtt/pp + 2",
        predicate=lambda c: (
            c.qos.durability.kind >= DurabilityKind.TRANSIENT_LOCAL
            and c.qos.history.kind is HistoryKind.KEEP_ALL
            and _above_floor(c.qos.resource_limits.max_samples_per_instance, c)
        ),
        message=lambda c: (
            f"durability.kind={c.qos.durability.kind.name} with "
            f"resource_limits.max_samples_per_instance="
            f"{c.qos.resource_limits.max_samples_per_instance} above the retransmission floor "
            f"rtt/pp + 2 = {_retransmission_floor(c)} (rtt={_fmt(c.rtt)}, pp={_fmt(c.pp)}): "
            f"every late join bursts that much history onto the network"
        ),
        suggestion=lambda c: (
            f"lower resource_limits.max_samples_per_instance to ≤ {_retransmission_floor(c)}"
        ),
        requires_rtt=True, requires_pp=True,
    ))
    add(Rule(
        41, "DURABL→DEADLN", 3, Severity.INCIDENTAL, RuleScope.EITHER,
        "deadline.period > 0 and durability.kind >= TRANSIENT_LOCAL",
        predicate=lambda c: (
            _deadline_enabled(c.qos)
            and c.qos.durability.kind >= DurabilityKind.TRANSIENT_LOCAL
        ),
        message=lambda c: (
            f"finite deadline.period={_fmt(c.qos.deadline.period)} with "
            f"durability.kind={c.qos.durability.kind.name}: historical retransmissions keep "
            f"resetting the deadline timer and can mask real latency violations"
        ),
        suggestion=lambda c: (
            "account for history delivery when sizing deadline.period, or use volatile durability"
        ),
    ))

    catalog = tuple(rules)
    assert [rule.id for rule in catalog] == list(range(1, 42))
    return catalog


_CATALOG: tuple[Rule, ...] = _build_catalog()
_BY_ID: dict[int, Rule] = {rule.id: rule for rule in _CATALOG}


def rule_catalog() -> tuple[Rule, ...]:
    """All 41 rules in id order."""
    return _CATALOG


def get_rule(rule_id: int) -> Rule:
    return _BY_ID[rule_id]


_BY_STAGE: dict[int, tuple[Rule, ...]] = {
    stage: tuple(rule for rule in _CATALOG if rule.stage == stage) for stage in (1, 2, 3)
}


def rules_for_stage(stage: int) -> tuple[Rule, ...]:
    return _BY_STAGE.get(stage, ())


# -- evaluation --------------------------------------------------------------


def entity_ref(endpoint: EndpointProfile) -> EntityRef:
    """How reports name an endpoint: profile, kind and source location."""
    return EntityRef(endpoint.profile_name, endpoint.endpoint_kind, endpoint.source_location)


def _context_entities(rule: Rule, ctx: EvalContext) -> tuple[EntityRef, ...]:
    """Validate the context against the rule scope and name the entities."""
    if rule.scope is RuleScope.PAIR:
        if ctx.writer is None or ctx.reader is None:
            raise ValueError(f"rule {rule.id} is pair-scoped and needs both endpoints")
        return (entity_ref(ctx.writer), entity_ref(ctx.reader))
    if ctx.writer is not None and ctx.reader is not None:
        raise ValueError(f"rule {rule.id} is single-endpoint but got a pair context")
    if rule.scope is RuleScope.DATA_WRITER and ctx.writer is None:
        raise ValueError(f"rule {rule.id} applies to DataWriters only")
    if rule.scope is RuleScope.DATA_READER and ctx.reader is None:
        raise ValueError(f"rule {rule.id} applies to DataReaders only")
    return (entity_ref(ctx.subject),)


def pair_topic(writer: EndpointProfile, reader: EndpointProfile) -> str | None:
    """The topic a pair reports under: the shared topic, else None."""
    return writer.topic_name if writer.topic_name == reader.topic_name else None


def _context_topic(rule: Rule, ctx: EvalContext) -> str | None:
    if rule.scope is RuleScope.PAIR:
        return pair_topic(ctx.writer, ctx.reader)
    return ctx.subject.topic_name


def evaluate_rule(rule: Rule, ctx: EvalContext) -> Outcome:
    """Evaluate one rule: Violation, CleanCheck, or SkippedRule.

    A rule is skipped when a required environment input is absent (rtt
    checked before pp) or when its exemption applies; a scope-mismatched
    context is a programming error and raises.
    """
    entities = _context_entities(rule, ctx)
    if rule.exemption is not None:
        reason = rule.exemption(ctx)
        if reason is not None:
            return SkippedRule(rule.id, rule.identifier, rule.stage, entities, reason)
    if rule.requires_rtt and ctx.rtt is None:
        return SkippedRule(rule.id, rule.identifier, rule.stage, entities, SkipReason.MISSING_ENV_RTT)
    if rule.requires_pp and ctx.pp is None:
        return SkippedRule(rule.id, rule.identifier, rule.stage, entities, SkipReason.MISSING_ENV_PP)
    if rule.predicate(ctx):
        return Violation(
            rule_id=rule.id,
            identifier=rule.identifier,
            stage=rule.stage,
            severity=rule.severity,
            entities=entities,
            topic_name=_context_topic(rule, ctx),
            message=rule.message(ctx),
            suggestion=rule.suggestion(ctx),
        )
    return CleanCheck(rule.id, entities)


def applicable_to(rule: Rule, kind: EndpointKind) -> bool:
    """Whether a single-endpoint rule applies to endpoints of this kind."""
    if rule.scope is RuleScope.PAIR:
        return False
    if rule.scope is RuleScope.EITHER:
        return True
    wanted = (
        EndpointKind.DATA_WRITER
        if rule.scope is RuleScope.DATA_WRITER
        else EndpointKind.DATA_READER
    )
    return kind is wanted


# Stage-1/3 rules that apply to each endpoint kind, in id order.
_APPLICABLE: dict[tuple[int, EndpointKind], tuple[Rule, ...]] = {
    (stage, kind): tuple(rule for rule in rules_for_stage(stage) if applicable_to(rule, kind))
    for stage in (1, 3)
    for kind in EndpointKind
}


def evaluate_endpoint_rules(
    endpoint: EndpointProfile,
    stage: int,
    rtt: Duration | None = None,
    pp: Duration | None = None,
) -> list[Outcome]:
    """Evaluate every scope-applicable single-endpoint rule of a stage."""
    if endpoint.endpoint_kind is EndpointKind.DATA_WRITER:
        ctx = EvalContext(writer=endpoint, rtt=rtt, pp=pp)
    else:
        ctx = EvalContext(reader=endpoint, rtt=rtt, pp=pp)
    return [evaluate_rule(rule, ctx) for rule in _APPLICABLE.get((stage, endpoint.endpoint_kind), ())]


def evaluate_pair_rules(writer: EndpointProfile, reader: EndpointProfile) -> list[Outcome]:
    """Evaluate the stage-2 RxO rules (20-27) for one writer/reader pair."""
    if writer.endpoint_kind is not EndpointKind.DATA_WRITER:
        raise ValueError(f"{writer.profile_name!r} is not a DataWriter")
    if reader.endpoint_kind is not EndpointKind.DATA_READER:
        raise ValueError(f"{reader.profile_name!r} is not a DataReader")
    ctx = EvalContext(writer=writer, reader=reader)
    return [evaluate_rule(rule, ctx) for rule in rules_for_stage(2)]
