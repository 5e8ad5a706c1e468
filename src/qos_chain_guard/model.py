"""Typed model of the 16 DDS QoS policies handled by the linter.

Each policy is declared once, by a ``_policy`` line below.  Those
declarations are the one source of the parameter names, their types (the
type of each default) and the OMG defaults: the policy classes,
``QosProfile``, ``default_qos``, ``PARAMETERS`` and, through it, the XML
schema in ``profiles`` and the condition operands in ``rules`` all derive
from them.

Durations and counts carry explicit infinity sentinels with a total order,
kind enumerations expose the RxO orderings, and ``resolve_defaults`` fills
absent policies with the OMG defaults so that downstream rule predicates
never see an unset value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, make_dataclass
from functools import total_ordering
from operator import attrgetter
from typing import Callable

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


# Default for reliability.max_blocking_time: the OMG text names the parameter
# without a default; 100 ms is the common vendor choice.  Reports flag it as
# tool-assumed.  No catalog rule reads this parameter.
DEFAULT_MAX_BLOCKING_TIME = Duration.from_millis(100)
MAX_BLOCKING_TIME_ASSUMPTION = (
    "reliability.max_blocking_time default of 100ms is tool-assumed "
    "(no standard default); no catalog rule consumes it"
)

# Policy attribute -> its class, and -> parameter -> OMG default; both in
# canonical order, the order of the declarations below.
POLICIES: dict[str, type] = {}
PARAMETERS: dict[str, dict[str, object]] = {}


def _policy(attribute: str, *, post_init: Callable[[object], None] | None = None, **defaults: object) -> type:
    """Declare one policy: a frozen dataclass with one field per parameter.

    The class is named after ``attribute`` (``entity_factory`` ->
    ``EntityFactory``), each field defaults to its OMG value for a
    DataWriter and is named after the OMG parameter, so diagnostics can
    quote it verbatim.  ``post_init`` validates a new instance.
    """
    # A class given a docstring spares ``dataclasses`` an ``inspect.signature``
    # call to make one, a measurable share of start-up.
    namespace: dict[str, object] = {
        "__module__": __name__,
        "__doc__": f"The {attribute.upper()} policy: the OMG parameters of its element.",
    }
    if post_init is not None:
        namespace["__post_init__"] = post_init
    cls = make_dataclass(
        "".join(word.capitalize() for word in attribute.split("_")),
        [(name, type(default), default) for name, default in defaults.items()],
        namespace=namespace,
        frozen=True,
    )
    POLICIES[attribute] = cls
    PARAMETERS[attribute] = defaults
    return cls


def _check_depth(history) -> None:
    if history.depth < 1:
        raise ValueError(f"history.depth: must be >= 1, got {shorten_literal(history.depth)}")


EntityFactory = _policy("entity_factory", autoenable_created_entities=True)
Partition = _policy("partition", names=("",))
UserData = _policy("user_data", value=b"")
GroupData = _policy("group_data", value=b"")
TopicData = _policy("topic_data", value=b"")
Reliability = _policy(
    "reliability", kind=ReliabilityKind.RELIABLE, max_blocking_time=DEFAULT_MAX_BLOCKING_TIME
)
Durability = _policy("durability", kind=DurabilityKind.VOLATILE)
Deadline = _policy("deadline", period=Duration.infinite())
Liveliness = _policy("liveliness", kind=LivelinessKind.AUTOMATIC, lease_duration=Duration.infinite())
History = _policy("history", kind=HistoryKind.KEEP_LAST, depth=1, post_init=_check_depth)
ResourceLimits = _policy(
    "resource_limits",
    max_samples=Count.unlimited(),
    max_instances=Count.unlimited(),
    max_samples_per_instance=Count.unlimited(),
)
Lifespan = _policy("lifespan", duration=Duration.infinite())
Ownership = _policy("ownership", kind=OwnershipKind.SHARED)
OwnershipStrength = _policy("ownership_strength", value=0)
DestinationOrder = _policy("destination_order", kind=DestinationOrderKind.BY_RECEPTION_TIMESTAMP)
WriterDataLifecycle = _policy("writer_data_lifecycle", autodispose_unregistered_instances=True)
ReaderDataLifecycle = _policy(
    "reader_data_lifecycle",
    autopurge_disposed_samples_delay=Duration.infinite(),
    autopurge_no_writer_samples_delay=Duration.infinite(),
)


_NAMES = tuple(POLICIES)
# Every policy of a profile, as a tuple, in C: a policy object is true and
# an unset one is None, so ``all`` of it checks a profile at C speed.
_POLICIES_OF = attrgetter(*_NAMES)


def _merged_under(self: "QosProfile", fallback: "QosProfile") -> "QosProfile":
    """Fill unset policies from ``fallback`` (self wins on conflicts); ``self``
    itself when ``fallback`` fills nothing."""
    return _filled(self, fallback, None)


def _filled(partial: "QosProfile", fallback: "QosProfile", partition: object) -> "QosProfile":
    """``partial`` with each unset policy taken from ``fallback``, and, given a
    ``partition``, a partition of zero names replaced by it: one construction,
    or none when nothing changes."""
    values = []
    changed = False
    for name, value in zip(_NAMES, _POLICIES_OF(partial)):
        if value is None:
            value = getattr(fallback, name)
            changed = changed or value is not None
        elif partition is not None and name == "partition" and not value.names:
            value = partition
            changed = True
        values.append(value)
    return QosProfile(*values) if changed else partial


def _is_resolved(self: "QosProfile") -> bool:
    return all(_POLICIES_OF(self))


QosProfile = make_dataclass(
    "QosProfile",
    [(name, cls | None, None) for name, cls in POLICIES.items()],
    namespace={
        "__module__": __name__,
        "__doc__": """The 16-policy bundle of one endpoint: one field per ``POLICIES`` entry.

Every field is optional so the same type serves both the partially
specified form coming out of the parser and the fully resolved form
produced by ``resolve_defaults``.
""",
        "merged_under": _merged_under,
        "is_resolved": property(_is_resolved),
    },
    frozen=True,
)

# Built once: profiles are frozen, so every caller can share them.
_WRITER_DEFAULTS = QosProfile(*(cls() for cls in POLICIES.values()))
_READER_DEFAULTS = QosProfile(reliability=Reliability(kind=ReliabilityKind.BEST_EFFORT)).merged_under(
    _WRITER_DEFAULTS
)


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
    name so that resolved profiles always carry a non-empty list.  A profile
    already resolved is returned as it is.
    """
    defaults = default_qos(kind)
    return _filled(partial, defaults, defaults.partition)


@dataclass(frozen=True)
class SourceLocation:
    """Where an endpoint element opens: its document and line."""

    document: str
    line: int

    def __str__(self) -> str:
        return f"{self.document}:{self.line}"


@dataclass(frozen=True)
class EndpointProfile:
    """A named DataWriter or DataReader with its fully resolved QoS.

    Findings name an endpoint by this object; ``str()`` gives its report text.
    """

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

    def __str__(self) -> str:
        return f"{self.profile_name}({self.endpoint_kind.display})@{self.source_location}"
