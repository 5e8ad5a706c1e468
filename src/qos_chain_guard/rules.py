"""The dependency-violation rule catalog and its evaluator.

Each rule is data: an id, a policy-pair identifier, the pipeline stage, a
severity class, an entity scope, a condition, and message and suggestion
templates.  Rules 1-19 are per-endpoint consistency checks, 20-27 compare a
writer/reader pair (the RxO checks), and 28-41 need environment assumptions
(round-trip time and publish period) on top of the endpoint settings.

The ``condition`` text, which ``rules`` lists, is the rule's executable
definition: ``compile_condition`` reads it at import and derives the
predicate (true means violation) and the environment inputs the rule needs.
The condition language:

* Conjuncts are joined by `` and ``; rule 24's two alternatives by ``, or ``.
* A conjunct is ``LEFT op RIGHT`` with ``op`` one of ``= != < > >=``;
  ``PATH configured`` (at least one non-empty name); or
  ``writer PATH and reader PATH share no name``.
* An operand is a ``policy.param`` path, or a parameter name only one policy
  has (``lease_duration``), prefixed by ``writer``/``reader`` in pair rules;
  a literal read in the type of the left operand's default (an enumeration
  token, ``true``/``false``, an integer or ``infinite``); or a derived term:
  ``rtt``, ``rtt/pp + 2``, or ``N * pp`` with N an integer or a path.
* Durations compare as integer nanoseconds and counts as sample counts;
  infinite and unlimited are +inf.
* ``X op rtt/pp + 2`` is decided exactly, as ``X * pp op rtt + 2 * pp``;
  equality at the threshold is clean for both ``<`` and ``>``.
* ``> 0`` on a duration means finite and positive: an infinite deadline or
  delay means the mechanism is disabled.

Rules 9 and 10 are skipped, not fired, when the lifespan is infinite: an
infinite lifespan means no expiry is intended, so comparing it to the cache
window is meaningless.

Invariant: a rule's predicate, message, suggestion and skip reason depend
only on the QoS of the endpoint(s) under evaluation, ``rtt`` and ``pp``,
never on a profile name, a topic or a source location.  Only the entities
and the topic of an outcome name the endpoint.  The pipeline relies on this
to evaluate each QoS class once and reuse the result for every member.

``evaluate_endpoint_rules`` and ``evaluate_pair_rules`` check scope, name
the entities and find the topic once per call, then run each rule through
the core that ``evaluate_rule`` also uses: exemption, missing rtt, missing
pp, predicate.  ``entity_ref`` returns one shared object per endpoint.
"""

from __future__ import annotations

import enum
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .model import (
    Count,
    Duration,
    EndpointKind,
    EndpointProfile,
    EntityRef,
    PARAMETERS,
    QosProfile,
    format_duration,
    format_nanoseconds,
)


class Severity(enum.Enum):
    CRITICAL = "critical", "error"
    CONDITIONAL = "conditional", "warning"
    INCIDENTAL = "incidental", "info"

    level: str  # report level: error / warning / info

    def __new__(cls, value: str, level: str) -> "Severity":
        # Set here, not in __init__, so the value stays the plain name and
        # Severity("critical") still finds the member.
        member = object.__new__(cls)
        member._value_ = value
        member.level = level
        return member


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
    message: _Text = field(repr=False)
    suggestion: _Text = field(repr=False)
    exemption: Callable[[EvalContext], SkipReason | None] | None = field(default=None, repr=False)
    # Compiled from ``condition``.
    predicate: _Pred = field(init=False, repr=False)
    requires_env: frozenset[str] = field(init=False)
    requires_rtt: bool = field(init=False)
    requires_pp: bool = field(init=False)

    def __post_init__(self) -> None:
        predicate, needs = compile_condition(self.condition, pair=self.scope is RuleScope.PAIR)
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "requires_env", frozenset(needs))
        object.__setattr__(self, "requires_rtt", "rtt" in needs)
        object.__setattr__(self, "requires_pp", "pp" in needs)


# -- the condition compiler --------------------------------------------------
#
# A condition compiles to the source of one Python function of the context
# ``c``, run through ``exec`` once, at import: the predicate then costs what a
# hand-written one would.  The text is the catalog's own constant, never input.

# ``policy.param`` -> the parameter's OMG default, which gives its type.
_PARAMETERS = {
    f"{policy}.{param}": default
    for policy, params in PARAMETERS.items()
    for param, default in params.items()
}
_NAME_COUNTS = Counter(path.split(".")[1] for path in _PARAMETERS)
# A parameter name only one policy uses stands for its path.
_PARAMETER_PATHS = {
    path.split(".")[1]: path for path in _PARAMETERS if _NAME_COUNTS[path.split(".")[1]] == 1
}
_NAMESPACE = {"INF": math.inf} | {
    kind.__name__: kind for kind in map(type, _PARAMETERS.values()) if issubclass(kind, enum.Enum)
}
_CONJUNCTS = re.compile(r" and (?!reader \S+ share no name)")
_SHARE_NO_NAME = re.compile(r"writer (\S+) and reader (\S+) share no name")
_CONFIGURED = re.compile(r"(\S+) configured")
_COMPARISON = re.compile(r"(.+?) (>=|!=|=|<|>) (.+)")
_FLOOR = re.compile(r"rtt/pp \+ (\d+)")
_TIMES_PP = re.compile(r"(\S+) \* pp")


def _parameter(text: str, pair: bool) -> tuple[str, object] | None:
    """Expression and OMG default of a parameter operand; None if ``text`` names none."""
    side, _, rest = text.partition(" ")
    prefixed = side in ("writer", "reader")
    name = rest if prefixed else text
    path = _PARAMETER_PATHS.get(name, name)
    if "." not in path or " " in path:
        return None
    if prefixed is not pair:
        raise ValueError(f"{text!r}: pair rules prefix each parameter with writer/reader, others never")
    default = _PARAMETERS[path]
    value = f"{side[0]}.{path}" if prefixed else f"q.{path}"  # the prelude binds q, w and r
    if isinstance(default, (Duration, Count)):
        number = f"{value}.{'nanoseconds' if isinstance(default, Duration) else 'value'}"
        value = f"(INF if {number} is None else {number})"
    return value, default


def _operand(text: str, pair: bool, needs: set[str]) -> tuple[str, object] | None:
    """Expression and default (None for a derived term) of an operand; None for a literal."""
    if text == "rtt":
        needs.add("rtt")
        return "c.rtt.nanoseconds", None
    times = _TIMES_PP.fullmatch(text)
    if times is None:
        return _parameter(text, pair)
    needs.add("pp")
    factor = _parameter(times[1], pair)
    return f"{factor[0] if factor else int(times[1])} * c.pp.nanoseconds", None


def _literal(token: str, default: object) -> str:
    """A literal read in the type of ``default``, as an expression."""
    if isinstance(default, enum.Enum):
        return f"{type(default).__name__}.{type(default)[token].name}"
    if isinstance(default, bool):
        return repr({"true": True, "false": False}[token])
    if token == "infinite" and isinstance(default, Duration):
        return "INF"
    return str(int(token))


def _conjunct(text: str, pair: bool, needs: set[str]) -> str:
    shared = _SHARE_NO_NAME.fullmatch(text)
    if shared:
        writer_names, _ = _parameter(f"writer {shared[1]}", pair)
        reader_names, _ = _parameter(f"reader {shared[2]}", pair)
        return f"set({writer_names}).isdisjoint({reader_names})"
    configured = _CONFIGURED.fullmatch(text)
    if configured:
        names, _ = _parameter(configured[1], pair)
        return f"any({names})"  # the default list holds one empty name
    comparison = _COMPARISON.fullmatch(text)
    if comparison is None:
        raise ValueError(f"unknown conjunct {text!r}")
    left_text, op, right_text = comparison.groups()
    left, default = _operand(left_text, pair, needs)
    op = "==" if op == "=" else op
    floor = _FLOOR.fullmatch(right_text)
    if floor:
        needs.update(("rtt", "pp"))
        return f"{left} * c.pp.nanoseconds {op} c.rtt.nanoseconds + {floor[1]} * c.pp.nanoseconds"
    right = _operand(right_text, pair, needs)
    if right is not None:
        return f"{left} {op} {right[0]}"
    value = _literal(right_text, default)
    if op == ">" and isinstance(default, Duration):
        return f"{value} < {left} < INF"
    return f"{left} {op} {value}"


def compile_condition(text: str, pair: bool) -> tuple[_Pred, set[str]]:
    """The predicate a condition states and the environment inputs it reads."""
    needs: set[str] = set()
    source = " or ".join(
        "(" + " and ".join(f"({_conjunct(c, pair, needs)})" for c in _CONJUNCTS.split(alternative)) + ")"
        for alternative in text.split(", or ")
    )
    prelude = "w, r = c.writer.qos, c.reader.qos" if pair else "q = c.qos"
    namespace = dict(_NAMESPACE)
    exec(f"def predicate(c):\n    {prelude}\n    return {source}\n", namespace)
    return namespace["predicate"], needs


# -- message vocabulary ------------------------------------------------------


def _retransmission_floor(ctx: EvalContext) -> int:
    """Smallest integer cache size satisfying ``size >= rtt/pp + 2``."""
    return -(-ctx.rtt.nanoseconds // ctx.pp.nanoseconds) + 2


def _pp_times(n: int, ctx: EvalContext) -> str:
    """``n × pp``, formatted from integer nanoseconds: it may pass the 64-bit range."""
    return format_nanoseconds(n * ctx.pp.nanoseconds)


def _infinite_lifespan_exemption(ctx: EvalContext) -> SkipReason | None:
    if ctx.qos.lifespan.duration.is_infinite:
        return SkipReason.INFINITE_LIFESPAN_EXEMPTION
    return None


def _fmt(d: Duration) -> str:
    return format_duration(d)


# -- the catalog -------------------------------------------------------------


def _build_catalog() -> tuple[Rule, ...]:
    rules: list[Rule] = []
    add = rules.append

    add(Rule(
        1, "HIST↔RESLIM", 1, Severity.CRITICAL, RuleScope.EITHER,
        "history.kind = KEEP_LAST and history.depth > resource_limits.max_samples_per_instance",
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
        message=lambda c: (
            f"durability.kind={c.qos.durability.kind.name} with history.depth={c.qos.history.depth} "
            f"below the retransmission floor rtt/pp + 2 = {_retransmission_floor(c)} "
            f"(rtt={_fmt(c.rtt)}, pp={_fmt(c.pp)}): late joiners may miss retained samples"
        ),
        suggestion=lambda c: f"raise history.depth to ≥ {_retransmission_floor(c)}",
    ))
    add(Rule(
        7, "RESLIM→DURABL", 1, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "durability.kind >= TRANSIENT_LOCAL and history.kind = KEEP_ALL "
        "and resource_limits.max_samples_per_instance < rtt/pp + 2",
        message=lambda c: (
            f"durability.kind={c.qos.durability.kind.name} with "
            f"resource_limits.max_samples_per_instance={c.qos.resource_limits.max_samples_per_instance} "
            f"below the retransmission floor rtt/pp + 2 = {_retransmission_floor(c)} "
            f"(rtt={_fmt(c.rtt)}, pp={_fmt(c.pp)}): late joiners may miss retained samples"
        ),
        suggestion=lambda c: (
            f"raise resource_limits.max_samples_per_instance to ≥ {_retransmission_floor(c)}"
        ),
    ))
    add(Rule(
        8, "LFSPAN→DURABL", 1, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "durability.kind >= TRANSIENT_LOCAL and lifespan.duration < rtt",
        message=lambda c: (
            f"durability.kind={c.qos.durability.kind.name} but "
            f"lifespan.duration={_fmt(c.qos.lifespan.duration)} is below rtt={_fmt(c.rtt)}: "
            f"retained samples expire before they can reach a late joiner"
        ),
        suggestion=lambda c: f"raise lifespan.duration above {_fmt(c.rtt)}",
    ))
    add(Rule(
        9, "HIST↔LFSPAN", 1, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "history.kind = KEEP_LAST and lifespan.duration > history.depth * pp",
        message=lambda c: (
            f"lifespan.duration={_fmt(c.qos.lifespan.duration)} outlives the KEEP_LAST cache "
            f"window history.depth × pp = {_pp_times(c.qos.history.depth, c)} "
            f"(depth={c.qos.history.depth}, pp={_fmt(c.pp)}): samples are overwritten before they expire"
        ),
        suggestion=lambda c: (
            f"lower lifespan.duration to ≤ {_pp_times(c.qos.history.depth, c)} "
            f"or raise history.depth to ≥ "
            f"{-(-c.qos.lifespan.duration.nanoseconds // c.pp.nanoseconds)}"
        ),
        exemption=_infinite_lifespan_exemption,
    ))
    add(Rule(
        10, "RESLIM↔LFSPAN", 1, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "history.kind = KEEP_ALL and lifespan.duration > resource_limits.max_samples_per_instance * pp",
        message=lambda c: (
            f"lifespan.duration={_fmt(c.qos.lifespan.duration)} outlives the KEEP_ALL cache window "
            f"max_samples_per_instance × pp = "
            f"{_pp_times(c.qos.resource_limits.max_samples_per_instance.value, c)} "
            f"(max_samples_per_instance={c.qos.resource_limits.max_samples_per_instance}, "
            f"pp={_fmt(c.pp)}): samples are dropped before they expire"
        ),
        suggestion=lambda c: (
            f"lower lifespan.duration to ≤ "
            f"{_pp_times(c.qos.resource_limits.max_samples_per_instance.value, c)} "
            f"or raise resource_limits.max_samples_per_instance to ≥ "
            f"{-(-c.qos.lifespan.duration.nanoseconds // c.pp.nanoseconds)}"
        ),
        exemption=_infinite_lifespan_exemption,
    ))
    add(Rule(
        11, "DEADLN→OWNST", 1, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "ownership.kind = EXCLUSIVE and deadline.period = infinite",
        message=lambda c: (
            "ownership.kind=EXCLUSIVE but deadline.period=infinite: a silent owner is never "
            "detected, so ownership can never fail over"
        ),
        suggestion=lambda c: "set a finite deadline.period so owner loss triggers a handover",
    ))
    add(Rule(
        12, "LIVENS→OWNST", 1, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "ownership.kind = EXCLUSIVE and liveliness.lease_duration = infinite",
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
        message=lambda c: (
            f"partition.names={list(c.qos.partition.names)} with liveliness.kind=MANUAL_BY_TOPIC: "
            f"a partition change breaks the match, and the writer appears not alive until rematched"
        ),
        suggestion=lambda c: "expect liveliness gaps around partition changes",
    ))
    add(Rule(
        19, "OWNST→WDLIFE", 1, Severity.INCIDENTAL, RuleScope.DATA_WRITER,
        "writer_data_lifecycle.autodispose_unregistered_instances = true and ownership.kind = EXCLUSIVE",
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
        message=lambda c: (
            f"no common partition name: writer offers {list(c.writer.qos.partition.names)}, "
            f"reader requests {list(c.reader.qos.partition.names)}; the pair will not match"
        ),
        suggestion=lambda c: "add at least one partition name shared by both endpoints",
    ))
    add(Rule(
        21, "RELIAB↔RELIAB", 2, Severity.CRITICAL, RuleScope.PAIR,
        "writer reliability.kind < reader reliability.kind",
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
        message=lambda c: (
            f"ownership.kind mismatch: writer={c.writer.qos.ownership.kind.name}, "
            f"reader={c.reader.qos.ownership.kind.name}; the pair will not match"
        ),
        suggestion=lambda c: "set both OWNERSHIP kinds identical",
    ))
    add(Rule(
        26, "DESTORD↔DESTORD", 2, Severity.CRITICAL, RuleScope.PAIR,
        "writer destination_order.kind < reader destination_order.kind",
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
        message=lambda c: (
            f"reliability.kind=RELIABLE with history.depth={c.qos.history.depth} below the "
            f"retransmission floor rtt/pp + 2 = {_retransmission_floor(c)} "
            f"(rtt={_fmt(c.rtt)}, pp={_fmt(c.pp)}): samples rotate out of the cache before they "
            f"can be repaired"
        ),
        suggestion=lambda c: f"raise history.depth to ≥ {_retransmission_floor(c)}",
    ))
    add(Rule(
        30, "RESLIM→RELIAB", 3, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "reliability.kind = RELIABLE and history.kind = KEEP_ALL "
        "and resource_limits.max_samples_per_instance < rtt/pp + 2",
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
    ))
    add(Rule(
        31, "LFSPAN→RELIAB", 3, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "reliability.kind = RELIABLE and lifespan.duration < rtt",
        message=lambda c: (
            f"reliability.kind=RELIABLE but lifespan.duration={_fmt(c.qos.lifespan.duration)} is "
            f"below rtt={_fmt(c.rtt)}: samples expire before one repair round-trip completes, so "
            f"delivery degrades to best-effort"
        ),
        suggestion=lambda c: f"raise lifespan.duration above {_fmt(c.rtt)}",
    ))
    add(Rule(
        32, "RELIAB→OWNST", 3, Severity.CONDITIONAL, RuleScope.EITHER,
        "ownership.kind = EXCLUSIVE and reliability.kind = BEST_EFFORT",
        message=lambda c: (
            "ownership.kind=EXCLUSIVE with reliability.kind=BEST_EFFORT: packet loss can look "
            "like owner failure and trigger spurious ownership switches"
        ),
        suggestion=lambda c: "set reliability.kind=RELIABLE when using exclusive ownership",
    ))
    add(Rule(
        33, "RELIAB→DEADLN", 3, Severity.CONDITIONAL, RuleScope.EITHER,
        "deadline.period > 0 and reliability.kind = BEST_EFFORT",
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
        message=lambda c: (
            "liveliness.kind=MANUAL_BY_TOPIC with reliability.kind=BEST_EFFORT: lost liveliness "
            "assertions make a healthy writer appear not alive"
        ),
        suggestion=lambda c: "set reliability.kind=RELIABLE for manual-by-topic liveliness",
    ))
    add(Rule(
        36, "DEADLN→OWNST", 3, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "ownership.kind = EXCLUSIVE and deadline.period < 2 * pp",
        message=lambda c: (
            f"ownership.kind=EXCLUSIVE with deadline.period={_fmt(c.qos.deadline.period)} below "
            f"2 × pp = {_pp_times(2, c)}: ordinary publish jitter will trigger ownership "
            f"handovers"
        ),
        suggestion=lambda c: f"raise deadline.period to ≥ {_pp_times(2, c)}",
    ))
    add(Rule(
        37, "LIVENS→OWNST", 3, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "ownership.kind = EXCLUSIVE and liveliness.lease_duration < 2 * pp",
        message=lambda c: (
            f"ownership.kind=EXCLUSIVE with liveliness.lease_duration="
            f"{_fmt(c.qos.liveliness.lease_duration)} below 2 × pp = {_pp_times(2, c)}: "
            f"ordinary publish jitter will trigger ownership handovers"
        ),
        suggestion=lambda c: f"raise liveliness.lease_duration to ≥ {_pp_times(2, c)}",
    ))
    add(Rule(
        38, "RELIAB→WDLIFE", 3, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "writer_data_lifecycle.autodispose_unregistered_instances = true "
        "and reliability.kind = BEST_EFFORT",
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
        message=lambda c: (
            f"durability.kind={c.qos.durability.kind.name} with history.depth={c.qos.history.depth} "
            f"above the retransmission floor rtt/pp + 2 = {_retransmission_floor(c)} "
            f"(rtt={_fmt(c.rtt)}, pp={_fmt(c.pp)}): every late join bursts that much history onto "
            f"the network"
        ),
        suggestion=lambda c: f"lower history.depth to ≤ {_retransmission_floor(c)}",
    ))
    add(Rule(
        40, "RESLIM→DURABL", 3, Severity.INCIDENTAL, RuleScope.DATA_WRITER,
        "durability.kind >= TRANSIENT_LOCAL and history.kind = KEEP_ALL "
        "and resource_limits.max_samples_per_instance > rtt/pp + 2",
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
    ))
    add(Rule(
        41, "DURABL→DEADLN", 3, Severity.INCIDENTAL, RuleScope.EITHER,
        "deadline.period > 0 and durability.kind >= TRANSIENT_LOCAL",
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
    """How reports name an endpoint: one shared object per endpoint."""
    return endpoint.entity


def _context_entities(rule: Rule, ctx: EvalContext) -> tuple[EntityRef, ...]:
    """Validate the context against the rule scope and name the entities."""
    if rule.scope is RuleScope.PAIR:
        if ctx.writer is None or ctx.reader is None:
            raise ValueError(f"rule {rule.id} is pair-scoped and needs both endpoints")
        return (ctx.writer.entity, ctx.reader.entity)
    if ctx.writer is not None and ctx.reader is not None:
        raise ValueError(f"rule {rule.id} is single-endpoint but got a pair context")
    if rule.scope is RuleScope.DATA_WRITER and ctx.writer is None:
        raise ValueError(f"rule {rule.id} applies to DataWriters only")
    if rule.scope is RuleScope.DATA_READER and ctx.reader is None:
        raise ValueError(f"rule {rule.id} applies to DataReaders only")
    return (ctx.subject.entity,)


def pair_topic(writer: EndpointProfile, reader: EndpointProfile) -> str | None:
    """The topic a pair reports under: the shared topic, else None."""
    return writer.topic_name if writer.topic_name == reader.topic_name else None


def _evaluate(
    rule: Rule, ctx: EvalContext, entities: tuple[EntityRef, ...], topic_name: str | None
) -> Outcome:
    """Evaluate one rule on a context already checked against its scope."""
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
            topic_name=topic_name,
            message=rule.message(ctx),
            suggestion=rule.suggestion(ctx),
        )
    return CleanCheck(rule.id, entities)


def evaluate_rule(rule: Rule, ctx: EvalContext) -> Outcome:
    """Evaluate one rule: Violation, CleanCheck, or SkippedRule.

    A rule is skipped when its exemption applies or when a required
    environment input is absent (rtt checked before pp); a scope-mismatched
    context is a programming error and raises.
    """
    entities = _context_entities(rule, ctx)
    if rule.scope is RuleScope.PAIR:
        topic_name = pair_topic(ctx.writer, ctx.reader)
    else:
        topic_name = ctx.subject.topic_name
    return _evaluate(rule, ctx, entities, topic_name)


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
    # _APPLICABLE holds only the rules whose scope admits this kind.
    entities = (endpoint.entity,)
    topic_name = endpoint.topic_name
    return [
        _evaluate(rule, ctx, entities, topic_name)
        for rule in _APPLICABLE.get((stage, endpoint.endpoint_kind), ())
    ]


def evaluate_pair_rules(writer: EndpointProfile, reader: EndpointProfile) -> list[Outcome]:
    """Evaluate the stage-2 RxO rules (20-27) for one writer/reader pair."""
    if writer.endpoint_kind is not EndpointKind.DATA_WRITER:
        raise ValueError(f"{writer.profile_name!r} is not a DataWriter")
    if reader.endpoint_kind is not EndpointKind.DATA_READER:
        raise ValueError(f"{reader.profile_name!r} is not a DataReader")
    ctx = EvalContext(writer=writer, reader=reader)
    entities = (writer.entity, reader.entity)
    topic_name = pair_topic(writer, reader)
    return [_evaluate(rule, ctx, entities, topic_name) for rule in _BY_STAGE[2]]
