"""Typed model of the 16 DDS QoS policies handled by the linter.

Durations and counts carry explicit infinity sentinels with a total order,
kind enumerations expose the RxO orderings, and ``resolve_defaults`` fills
absent policies with the OMG defaults so that downstream rule predicates
never see an unset value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace
from functools import total_ordering

# Finite durations are kept as 64-bit nanosecond integers; exact integer
# comparisons keep rule predicates free of float drift.
NANOSECONDS_MAX = 2**63 - 1
NANOSECONDS_PER_SECOND = 1_000_000_000
NANOSECONDS_PER_MILLISECOND = 1_000_000


# Error messages echo at most this many characters of an offending literal.
ECHO_LIMIT = 40


def shorten_literal(value: object) -> str:
    """``repr(value)`` for an error message, cut to about ECHO_LIMIT characters.

    A cut literal keeps its first and last characters and states its full
    length, so a 5000-digit input cannot fill the error line.
    """
    try:
        text = repr(value)
    except ValueError:  # an integer past Python's digit limit for str()
        return f"<an integer of {value.bit_length()} bits>"
    if len(text) <= ECHO_LIMIT:
        return text
    return f"{text[:ECHO_LIMIT - 8]}...{text[-8:]} ({len(text)} characters)"


@total_ordering
@dataclass(frozen=True)
class Duration:
    """Nonnegative time span, or the infinite sentinel (``nanoseconds=None``).

    The order is total: finite values compare by magnitude and the infinite
    sentinel is the unique maximum (``Infinite == Infinite``, and
    ``Infinite < Infinite`` is false).
    """

    nanoseconds: int | None = None

    def __post_init__(self) -> None:
        if self.nanoseconds is None:
            return
        if not isinstance(self.nanoseconds, int) or isinstance(self.nanoseconds, bool):
            raise TypeError(f"duration nanoseconds must be an integer, got {self.nanoseconds!r}")
        if self.nanoseconds < 0:
            raise ValueError(f"duration must be nonnegative, got {self.nanoseconds}ns")
        if self.nanoseconds > NANOSECONDS_MAX:
            literal = shorten_literal(self.nanoseconds)
            raise ValueError(f"duration overflows the 64-bit range: {literal}ns")

    @classmethod
    def infinite(cls) -> "Duration":
        return cls(None)

    @classmethod
    def from_sec_nanosec(cls, sec: int, nanosec: int) -> "Duration":
        if sec < 0 or nanosec < 0:
            raise ValueError("duration components must be nonnegative")
        if nanosec >= NANOSECONDS_PER_SECOND:
            literal = shorten_literal(nanosec)
            raise ValueError(f"nanosec must be below {NANOSECONDS_PER_SECOND}, got {literal}")
        return cls(sec * NANOSECONDS_PER_SECOND + nanosec)

    @classmethod
    def from_millis(cls, milliseconds: int | float) -> "Duration":
        return cls(round(milliseconds * NANOSECONDS_PER_MILLISECOND))

    @property
    def is_infinite(self) -> bool:
        return self.nanoseconds is None

    @property
    def is_finite(self) -> bool:
        return self.nanoseconds is not None

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Duration):
            return NotImplemented
        if self.nanoseconds is None:
            return False
        if other.nanoseconds is None:
            return True
        return self.nanoseconds < other.nanoseconds

    def times(self, count: int) -> "Duration":
        """Multiply by a nonnegative integer count.

        ``anything * 0 == 0`` (including the infinite sentinel); the sentinel
        times a positive count stays infinite.  Finite products beyond the
        64-bit range raise rather than wrap.
        """
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        if count == 0:
            return Duration(0)
        if self.nanoseconds is None:
            return Duration.infinite()
        return Duration(self.nanoseconds * count)

    def __str__(self) -> str:
        return format_duration(self)


def format_duration(d: Duration) -> str:
    """Render a duration compactly with the largest whole unit."""
    return format_nanoseconds(d.nanoseconds)


def format_nanoseconds(ns: int | None) -> str:
    """``format_duration`` of a nanosecond count (None is infinite).

    Any integer renders, so a product of durations past the 64-bit range
    can still be quoted in a message.
    """
    if ns is None:
        return "infinite"
    if ns % NANOSECONDS_PER_SECOND == 0:
        return f"{ns // NANOSECONDS_PER_SECOND}s"
    if ns % NANOSECONDS_PER_MILLISECOND == 0:
        return f"{ns // NANOSECONDS_PER_MILLISECOND}ms"
    if ns % 1_000 == 0:
        return f"{ns // 1_000}us"
    return f"{ns}ns"


@total_ordering
@dataclass(frozen=True)
class Count:
    """Nonnegative sample/instance count, or the unlimited sentinel.

    Mirrors ``Duration``: unlimited (``value=None``) is the unique maximum.
    """

    value: int | None = None

    def __post_init__(self) -> None:
        if self.value is None:
            return
        if not isinstance(self.value, int) or isinstance(self.value, bool):
            raise TypeError(f"count must be an integer, got {self.value!r}")
        if self.value < 0:
            raise ValueError(f"count must be nonnegative, got {self.value}")

    @classmethod
    def unlimited(cls) -> "Count":
        return cls(None)

    @property
    def is_unlimited(self) -> bool:
        return self.value is None

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Count):
            return NotImplemented
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __str__(self) -> str:
        return "unlimited" if self.value is None else str(self.value)


class ReliabilityKind(enum.IntEnum):
    BEST_EFFORT = 0
    RELIABLE = 1


class DurabilityKind(enum.IntEnum):
    VOLATILE = 0
    TRANSIENT_LOCAL = 1
    TRANSIENT = 2
    PERSISTENT = 3


class LivelinessKind(enum.IntEnum):
    AUTOMATIC = 0
    MANUAL_BY_PARTICIPANT = 1
    MANUAL_BY_TOPIC = 2


class DestinationOrderKind(enum.IntEnum):
    BY_RECEPTION_TIMESTAMP = 0
    BY_SOURCE_TIMESTAMP = 1


class OwnershipKind(enum.Enum):
    """Unordered: RxO matching requires equality, not dominance."""

    SHARED = "SHARED"
    EXCLUSIVE = "EXCLUSIVE"


class HistoryKind(enum.Enum):
    KEEP_LAST = "KEEP_LAST"
    KEEP_ALL = "KEEP_ALL"


class EndpointKind(enum.Enum):
    DATA_WRITER = "data_writer"
    DATA_READER = "data_reader"

    @property
    def display(self) -> str:
        return "DataWriter" if self is EndpointKind.DATA_WRITER else "DataReader"


# One frozen dataclass per policy group; field names follow the OMG
# parameter names so diagnostics can quote them verbatim.


@dataclass(frozen=True)
class EntityFactory:
    autoenable_created_entities: bool


@dataclass(frozen=True)
class Partition:
    names: tuple[str, ...]


@dataclass(frozen=True)
class UserData:
    value: bytes


@dataclass(frozen=True)
class GroupData:
    value: bytes


@dataclass(frozen=True)
class TopicData:
    value: bytes


@dataclass(frozen=True)
class Reliability:
    kind: ReliabilityKind
    max_blocking_time: Duration


@dataclass(frozen=True)
class Durability:
    kind: DurabilityKind


@dataclass(frozen=True)
class Deadline:
    period: Duration


@dataclass(frozen=True)
class Liveliness:
    kind: LivelinessKind
    lease_duration: Duration


@dataclass(frozen=True)
class History:
    kind: HistoryKind
    depth: int

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError(f"history.depth: must be >= 1, got {shorten_literal(self.depth)}")


@dataclass(frozen=True)
class ResourceLimits:
    max_samples: Count
    max_instances: Count
    max_samples_per_instance: Count


@dataclass(frozen=True)
class Lifespan:
    duration: Duration


@dataclass(frozen=True)
class Ownership:
    kind: OwnershipKind


@dataclass(frozen=True)
class OwnershipStrength:
    value: int


@dataclass(frozen=True)
class DestinationOrder:
    kind: DestinationOrderKind


@dataclass(frozen=True)
class WriterDataLifecycle:
    autodispose_unregistered_instances: bool


@dataclass(frozen=True)
class ReaderDataLifecycle:
    autopurge_disposed_samples_delay: Duration
    autopurge_no_writer_samples_delay: Duration


@dataclass(frozen=True)
class QosProfile:
    """The 16-policy bundle of one endpoint.

    Every field is optional so the same type serves both the partially
    specified form coming out of the parser and the fully resolved form
    produced by ``resolve_defaults``.
    """

    entity_factory: EntityFactory | None = None
    partition: Partition | None = None
    user_data: UserData | None = None
    group_data: GroupData | None = None
    topic_data: TopicData | None = None
    reliability: Reliability | None = None
    durability: Durability | None = None
    deadline: Deadline | None = None
    liveliness: Liveliness | None = None
    history: History | None = None
    resource_limits: ResourceLimits | None = None
    lifespan: Lifespan | None = None
    ownership: Ownership | None = None
    ownership_strength: OwnershipStrength | None = None
    destination_order: DestinationOrder | None = None
    writer_data_lifecycle: WriterDataLifecycle | None = None
    reader_data_lifecycle: ReaderDataLifecycle | None = None

    def merged_under(self, fallback: "QosProfile") -> "QosProfile":
        """Fill unset policies from ``fallback`` (self wins on conflicts)."""
        updates = {
            f.name: getattr(fallback, f.name)
            for f in fields(self)
            if getattr(self, f.name) is None and getattr(fallback, f.name) is not None
        }
        return replace(self, **updates) if updates else self

    @property
    def is_resolved(self) -> bool:
        return all(getattr(self, f.name) is not None for f in fields(self))


# Default for reliability.max_blocking_time: the OMG text names the parameter
# without a default; 100 ms is the common vendor choice.  Reports flag it as
# tool-assumed.  No catalog rule reads this parameter.
DEFAULT_MAX_BLOCKING_TIME = Duration.from_millis(100)
MAX_BLOCKING_TIME_ASSUMPTION = (
    "reliability.max_blocking_time default of 100ms is tool-assumed "
    "(no standard default); no catalog rule consumes it"
)


def _omg_defaults(reliability_kind: ReliabilityKind) -> QosProfile:
    return QosProfile(
        entity_factory=EntityFactory(autoenable_created_entities=True),
        partition=Partition(names=("",)),
        user_data=UserData(value=b""),
        group_data=GroupData(value=b""),
        topic_data=TopicData(value=b""),
        reliability=Reliability(kind=reliability_kind, max_blocking_time=DEFAULT_MAX_BLOCKING_TIME),
        durability=Durability(kind=DurabilityKind.VOLATILE),
        deadline=Deadline(period=Duration.infinite()),
        liveliness=Liveliness(kind=LivelinessKind.AUTOMATIC, lease_duration=Duration.infinite()),
        history=History(kind=HistoryKind.KEEP_LAST, depth=1),
        resource_limits=ResourceLimits(
            max_samples=Count.unlimited(),
            max_instances=Count.unlimited(),
            max_samples_per_instance=Count.unlimited(),
        ),
        lifespan=Lifespan(duration=Duration.infinite()),
        ownership=Ownership(kind=OwnershipKind.SHARED),
        ownership_strength=OwnershipStrength(value=0),
        destination_order=DestinationOrder(kind=DestinationOrderKind.BY_RECEPTION_TIMESTAMP),
        writer_data_lifecycle=WriterDataLifecycle(autodispose_unregistered_instances=True),
        reader_data_lifecycle=ReaderDataLifecycle(
            autopurge_disposed_samples_delay=Duration.infinite(),
            autopurge_no_writer_samples_delay=Duration.infinite(),
        ),
    )


# Built once: profiles are frozen, so every caller can share them.
_WRITER_DEFAULTS = _omg_defaults(ReliabilityKind.RELIABLE)
_READER_DEFAULTS = _omg_defaults(ReliabilityKind.BEST_EFFORT)


def default_qos(kind: EndpointKind) -> QosProfile:
    """The OMG default profile for one endpoint kind.

    Only reliability.kind differs by side: DataWriters default to RELIABLE,
    DataReaders to BEST_EFFORT.
    """
    return _WRITER_DEFAULTS if kind is EndpointKind.DATA_WRITER else _READER_DEFAULTS


def resolve_defaults(partial: QosProfile, kind: EndpointKind) -> QosProfile:
    """Fill every absent policy with its OMG default; present values win.

    Idempotent, and endpoint-sensitive only in reliability.kind.  A partition
    explicitly set to zero names is normalized to the default single empty
    name so that resolved profiles always carry a non-empty list.
    """
    resolved = partial.merged_under(default_qos(kind))
    if resolved.partition is not None and not resolved.partition.names:
        resolved = replace(resolved, partition=Partition(names=("",)))
    return resolved


@dataclass(frozen=True)
class SourceLocation:
    document: str
    line: int

    def __str__(self) -> str:
        return f"{self.document}:{self.line}"


@dataclass(frozen=True)
class EndpointProfile:
    """A named DataWriter or DataReader with its fully resolved QoS."""

    profile_name: str
    endpoint_kind: EndpointKind
    qos: QosProfile
    topic_name: str | None = None
    # Diagnostic metadata only: profiles parsed from different documents
    # compare equal when the semantic content matches.
    source_location: SourceLocation = field(
        default=SourceLocation("<unknown>", 0), compare=False
    )

    def __post_init__(self) -> None:
        if not self.profile_name:
            raise ValueError("profile_name must be non-empty")
        if not self.qos.is_resolved:
            raise ValueError(f"profile {self.profile_name!r} has unresolved QoS policies")
