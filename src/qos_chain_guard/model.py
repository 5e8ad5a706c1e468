"""Typed model of the 16 DDS QoS policies handled by the linter.

Each policy is declared once, by a ``_policy`` line below.  Those
declarations are the one source of the parameter names, their types (the
type of each default) and the OMG defaults: the policy classes,
``QosProfile``, ``default_qos``, ``PARAMETERS`` and, through it, the XML
schema in ``profiles`` and the condition operands in ``rules`` all derive
from them.

Every record of the package, here and in the other modules, is a
``Record``: a frozen class with value equality.  Most are slotted classes.
The findings (``rules.Violation`` and ``rules.SkippedRule``) are
tuple-backed: construction is a check's most frequent record operation,
and one ``tuple.__new__`` call builds a finding in two fifths of the time
a slotted ``__init__`` takes.  The standard library's record
decorator is not used: importing it loads ``inspect``, and each class it
builds costs about a millisecond, at every start-up.

Durations and counts carry explicit infinity sentinels, kind enumerations
expose the RxO orderings, and ``resolve_defaults`` fills absent policies
with the OMG defaults so that downstream rule predicates never see an unset
value.
"""

from __future__ import annotations

import enum
from _collections import _tuplegetter
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


class _RecordType(type):
    """The metaclass of ``Record``: a subclass's annotated names become its
    fields, in order, and its class-body values their defaults.

    Each field is a slot; in a class with ``tuple`` among its bases, each
    is an item of the tuple, read through a C ``_tuplegetter``.  A tuple
    subtype cannot declare non-empty slots, so its ``__slots__`` is set
    after the class is made, and still lists its fields.  The class keyword
    ``uncompared`` names fields that equality and hashing leave out.  A
    body's ``_check(self)`` validates each new instance.
    """

    def __new__(meta, name: str, bases: tuple, namespace: dict, *, uncompared: tuple = ()):
        if not bases:  # Record itself
            return super().__new__(meta, name, bases, namespace)
        names = tuple(namespace.get("__annotations__", ()))
        defaults = tuple(namespace.pop(field) for field in names if field in namespace)
        namespace["_compared"] = tuple(field for field in names if field not in uncompared)
        check = namespace.get("_check")
        if tuple in bases:
            namespace["__slots__"] = ()
            namespace.update((field, _tuplegetter(index, None)) for index, field in enumerate(names))
            cls = super().__new__(meta, name, bases, namespace)
            cls.__slots__ = names
            cls.__new__ = staticmethod(_constructor(cls, defaults, check))
            return cls
        namespace["__slots__"] = names
        cls = super().__new__(meta, name, bases, namespace)
        cls.__init__ = _constructor(cls, defaults, check)
        return cls


def _methods(cls: _RecordType, source: str, namespace: dict, *names: str) -> list[Callable]:
    """The functions ``names`` that ``source`` defines, as methods of ``cls``."""
    exec(source, namespace)
    methods = [namespace[name] for name in names]
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
    return methods


def _constructor(cls: _RecordType, defaults: tuple, check: Callable | None) -> Callable:
    """``cls.__init__``, or ``cls.__new__`` for a tuple-backed record: its
    fields as parameters, ``defaults`` for the last.

    Construction is a check's most frequent record operation, so each class
    gets its own.  A slotted record's sets each slot through its member
    descriptor: about half the cost of an ``object.__setattr__`` call by
    name.  A tuple-backed record's is one ``tuple.__new__`` call, which the
    evaluators also make directly.
    """
    names = cls.__slots__
    params = ", ".join(names)
    tupled = issubclass(cls, tuple)
    if tupled:
        method, namespace = "__new__", {"new": tuple.__new__}
        lines = [f"def __new__(cls, {params}):", f"    self = new(cls, ({params},))"]
    else:
        method, namespace = "__init__", {f"set_{name}": getattr(cls, name).__set__ for name in names}
        lines = [f"def __init__(self, {params}):", *(f"    set_{name}(self, {name})" for name in names)]
    if check is not None:
        namespace["check"] = check
        lines.append("    check(self)")
    if tupled:
        lines.append("    return self")
    [constructor] = _methods(cls, "\n".join(lines), namespace, method)
    constructor.__defaults__ = defaults or None
    return constructor


def _comparisons(cls: _RecordType) -> _RecordType:
    """Give ``cls`` its own ``__eq__`` and ``__hash__``.

    Each reads the compared fields into a tuple, whose comparison skips the
    fields two records share; that is faster than any method written once
    for every record.  Made on a class's first comparison or hash, so the
    records a run never compares cost nothing.  A tuple-backed record is
    unequal to any other class outright: with ``NotImplemented``, a plain
    tuple would compare its items with the record's fields.
    """
    mine = "".join(f"self.{name}, " for name in cls._compared)
    eq, hash_ = _methods(
        cls,
        "def __eq__(self, other):\n"
        "    if other.__class__ is not self.__class__:\n"
        f"        return {'False' if issubclass(cls, tuple) else 'NotImplemented'}\n"
        f"    return ({mine}) == ({mine.replace('self.', 'other.')})\n"
        "def __hash__(self):\n"
        f"    return hash(({mine}))\n",
        {},
        "__eq__",
        "__hash__",
    )
    cls.__eq__, cls.__hash__ = eq, hash_
    return cls


class Record(metaclass=_RecordType):
    """A frozen value record, slotted or tuple-backed.

    ``repr`` lists every field; equality needs the same class and equal
    compared fields, and the hash is over those same fields.  Assigning or
    deleting a field raises ``AttributeError``.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        return _comparisons(type(self)).__eq__(self, other)

    # The inverse of ``__eq__``, also where ``tuple.__ne__`` would come next.
    __ne__ = object.__ne__

    def __hash__(self) -> int:
        return _comparisons(type(self)).__hash__(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Copies and pickles construct anew: a frozen slot takes no setattr.
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Duration(Record):
    """Nonnegative time span, or the infinite sentinel (``nanoseconds=None``).

    Durations have no order: rules compare the plain ``nanoseconds``.
    """

    nanoseconds: int | None = None

    def _check(self) -> None:
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


class Count(Record):
    """Nonnegative sample/instance count, or the unlimited sentinel (``value=None``).

    Like durations, counts have no order: rules compare the plain ``value``.
    """

    value: int | None = None

    def _check(self) -> None:
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


def _policy(attribute: str, *, check: Callable[[object], None] | None = None, **defaults: object) -> type:
    """Declare one policy: a frozen record with one field per parameter.

    The class is named after ``attribute`` (``entity_factory`` ->
    ``EntityFactory``), each field defaults to its OMG value for a
    DataWriter and is named after the OMG parameter, so diagnostics can
    quote it verbatim.  ``check`` validates a new instance.
    """
    namespace: dict[str, object] = {
        "__module__": __name__,
        "__doc__": f"The {attribute.upper()} policy: the OMG parameters of its element.",
        "__annotations__": {name: type(default) for name, default in defaults.items()},
        **defaults,
    }
    if check is not None:
        namespace["_check"] = check
    cls = _RecordType("".join(word.capitalize() for word in attribute.split("_")), (Record,), namespace)
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
History = _policy("history", kind=HistoryKind.KEEP_LAST, depth=1, check=_check_depth)
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


QosProfile = _RecordType(
    "QosProfile",
    (Record,),
    {
        "__module__": __name__,
        "__doc__": """The 16-policy bundle of one endpoint: one field per ``POLICIES`` entry.

Every field is optional so the same type serves both the partially
specified form coming out of the parser and the fully resolved form
produced by ``resolve_defaults``.
""",
        "__annotations__": {name: f"{cls.__name__} | None" for name, cls in POLICIES.items()},
        **dict.fromkeys(POLICIES),
        "merged_under": _merged_under,
        "is_resolved": property(_is_resolved),
    },
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


class SourceLocation(Record):
    """Where an endpoint element opens: its document and line."""

    document: str
    line: int

    def __str__(self) -> str:
        return f"{self.document}:{self.line}"


class EndpointProfile(Record, uncompared=("source_location",)):
    """A named DataWriter or DataReader with its fully resolved QoS.

    Findings name an endpoint by this object; ``str()`` gives its report text.
    Its source location is diagnostic metadata only: profiles parsed from
    different documents compare equal when the semantic content matches.
    """

    profile_name: str
    endpoint_kind: EndpointKind
    qos: QosProfile
    topic_name: str | None = None
    source_location: SourceLocation = SourceLocation("<unknown>", 0)

    def _check(self) -> None:
        if not self.profile_name:
            raise ValueError("profile_name must be non-empty")
        if not self.qos.is_resolved:
            raise ValueError(f"profile {self.profile_name!r} has unresolved QoS policies")

    def __str__(self) -> str:
        return f"{self.profile_name}({self.endpoint_kind.display})@{self.source_location}"
