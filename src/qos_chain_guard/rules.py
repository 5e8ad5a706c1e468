"""The dependency-violation rule catalog and its evaluator.

Each rule is data: an id, a policy-pair identifier, the pipeline stage, a
severity class, an entity scope, a condition, and message and suggestion
templates.  Rules 1-19 are per-endpoint consistency checks, 20-27 compare a
writer/reader pair (the RxO checks), and 28-41 need environment assumptions
(round-trip time and publish period) on top of the endpoint settings.

The ``condition`` text, which ``rules`` lists, is the rule's executable
definition.  At import, ``_compile`` reads it with the rule's message,
suggestion and exemption and derives one function, ``Rule.outcome``, and
what the rule reads, ``Rule.reads``.  The condition language:

* Conjuncts are joined by `` and ``; rule 24's two alternatives by ``, or ``.
* A conjunct is ``LEFT op RIGHT`` with ``op`` one of ``= != < > >=``;
  ``PATH configured`` (at least one non-empty name); or
  ``writer PATH and reader PATH share no name``.
* An operand is a ``policy.param`` path, or a parameter name only one policy
  has (``lease_duration``), prefixed by ``writer``/``reader`` in pair rules;
  a literal read in the type of the left operand's default (an enumeration
  token, ``true``/``false``, an integer, ``infinite`` for a duration or
  ``unlimited`` for a count); or a derived term: ``rtt``, ``pp``,
  ``rtt/pp + 2``, or ``N * pp`` with N an integer or a path.
* Durations compare as integer nanoseconds and counts as sample counts;
  infinite and unlimited are +inf.
* ``X op rtt/pp + 2`` is decided exactly, as ``X * pp op rtt + 2 * pp``;
  equality at the threshold is clean for both ``<`` and ``>``.
* ``> 0`` on a duration means finite and positive: an infinite deadline or
  delay means the mechanism is disabled.

The message language:

* A message or suggestion is text with ``{OPERAND}`` placeholders, each an
  operand as conditions write it (``{history.depth}``,
  ``{writer reliability.kind}``, ``{rtt}``, ``{2 * pp}``), or a quotient
  ``{X/pp}`` or ``{X/pp + N}``, or the same with ``//``.
* A placeholder renders by the type of its value: a duration (a path to one,
  ``rtt``, ``pp`` or a product with ``pp``) through ``format_nanoseconds``,
  also past 64 bits; an enumeration by its member name; a count or an
  integer through ``str``; partition names as the list repr.  A quotient
  renders as the smallest integer at or above its exact value, and one
  with ``//`` as the largest at or below it.  So for an integer X,
  ``X < {rtt/pp + 2}`` and ``X > {rtt//pp + 2}`` hold exactly when the
  conditions ``X < rtt/pp + 2`` and ``X > rtt/pp + 2`` do: raising X to ≥
  the first, or lowering it to ≤ the second, clears the rule.
* A suggestion may be guarded alternatives: ``(GUARD, TEXT)`` pairs, then a
  last, unguarded text.  Each guard is a condition; the first that holds
  picks its text.
* ``exemption`` is a condition too.  When it holds the rule is skipped, with
  ``InfiniteLifespanExemption``, before the environment is looked at: rules
  9 and 10 are exempt when the lifespan is infinite, since no expiry is
  intended and comparing it to the cache window is meaningless.

Invariant, enforced by the compiler: a rule's outcome, message, suggestion
and skip reason depend only on the QoS of the endpoint(s) under evaluation,
``rtt`` and ``pp`` (the operands have no way to name a profile, a topic or a
source location), and a text or exemption reads nothing its condition does
not (else ``ValueError`` at import).  So ``Rule.reads`` holds everything
the rule's result depends on.  Only the entities and the topic of a finding
name the endpoint.  The pipeline relies on this to evaluate each QoS class
once and reuse the result for every member.

Clean is the absence of a finding.  ``Rule.outcome`` takes its inputs
directly, ``(qos, rtt, pp)`` for an endpoint rule and ``(writer qos, reader
qos)`` for a pair rule, which reads neither environment input and has no
exemption (else ``ValueError`` at import), so stage 2 never skips.
``evaluate_rule`` takes a rule of the catalog, returns a ``Violation``, a
``SkippedRule`` or None, and checks scope by the endpoint's kind through
``applicable_to``, as ``evaluate_endpoint_rules`` does, which names the
entity and finds the topic once per call, and returns the findings of a
stage in rule order.  ``evaluate_pair_rules`` is the whole of stage 2: it
takes a run's pairs and returns their findings pair by pair, each pair's in
rule order.  A finding names each endpoint by its ``EndpointProfile``:
``(endpoint,)`` or ``(writer, reader)``.  A result becomes a finding in
``_findings`` for stages 1 and 3 and in the pair loop of
``evaluate_pair_rules`` for stage 2, where a call per pair costs more than
the loop's work; ``evaluate_rule`` goes through its rule's stage's.

Keys: stage 2 keys each pair rule's result on what the rule reads, split
into a writer half (the rule id and the writer reads) and a reader half.
The compiler records each read's expression in ``Rule.key_parts``, as a
plain value whose hash is C code (``Duration.nanoseconds``,
``Count.value``, an enumeration's ``_value_``, bools, ints and name
tuples).  ``writer_halves`` and ``reader_halves``, compiled from those
parts, return all eight halves of one endpoint's QoS in one call.  By the
invariant, equal halves mean equal ``outcome`` results, so
``evaluate_pair_rules`` calls them once per distinct QoS and keeps a row of
results per writer half, by reader half: the key work is paid per endpoint
QoS, not per pair, and per pair and rule it does one row lookup.  Stages 1
and 3 keep no results of their own: ``run_pipeline`` evaluates them once
per QoS class.

Findings are frozen tuple-backed records (``model.Record``), since a report
builds one per endpoint or pair a rule fires on: one ``tuple.__new__``
call each.  A finding holds its rule's id and nothing else of the rule:
its ``identifier``, ``stage`` and ``severity`` are read from the catalog
by that id, the one source of each, and its constructor rejects an id the
catalog lacks.
"""

from __future__ import annotations

import enum
import math
import re
from collections import Counter
from operator import attrgetter
from typing import Callable, Iterable

from .model import (
    Count,
    Duration,
    EndpointKind,
    EndpointProfile,
    PARAMETERS,
    Record,
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


# The report levels, most severe first: the order of ``Severity``.
LEVELS: tuple[str, ...] = tuple(severity.level for severity in Severity)


class RuleScope(enum.Enum):
    DATA_WRITER = "DataWriter"
    DATA_READER = "DataReader"
    EITHER = "either"
    PAIR = "pair"


class SkipReason(enum.Enum):
    MISSING_ENV_RTT = "MissingEnvRTT"
    MISSING_ENV_PP = "MissingEnvPP"
    INFINITE_LIFESPAN_EXEMPTION = "InfiniteLifespanExemption"


def _in_catalog(finding: Finding) -> None:
    """A finding's ``_check``: its rule id names a catalog rule."""
    if finding.rule_id.__class__ is not int or finding.rule_id not in _BY_ID:
        raise ValueError(f"no rule {finding.rule_id!r} in the catalog")


def _from_catalog(name: str) -> property:
    """A finding's read-only ``name``: its rule's, looked up in the catalog by id."""
    read = attrgetter(name)
    return property(lambda finding: read(_BY_ID[finding.rule_id]), doc=f"The rule's {name}, from the catalog.")


class Violation(Record, tuple):
    """One rule firing on an endpoint or a pair: its message and repair."""

    rule_id: int
    entities: tuple[EndpointProfile, ...]
    topic_name: str | None
    message: str
    suggestion: str

    _check = _in_catalog
    identifier, stage, severity = map(_from_catalog, ("identifier", "stage", "severity"))


class SkippedRule(Record, tuple):
    """One rule left undecided on an endpoint or a pair, and why."""

    rule_id: int
    entities: tuple[EndpointProfile, ...]
    reason: SkipReason

    _check = _in_catalog
    identifier, stage = map(_from_catalog, ("identifier", "stage"))


Finding = Violation | SkippedRule


class Rule:
    """One catalog row, compiled at construction.

    ``suggestion`` is one text, or guarded alternatives: (guard, text)
    pairs, then a text.  ``outcome(qos, rtt, pp)``, or ``outcome(writer qos,
    reader qos)`` for a pair rule, returns None (clean), a SkipReason (not a
    pair rule's), or the (message, suggestion) of a violation; ``reads``
    holds what the rule reads, and ``requires_env`` the environment inputs
    among them.
    ``key_parts`` maps each read to the expression of its plain value, from
    which stage 2's key halves are built (``writer_halves``,
    ``reader_halves``).  A plain class, not a record: nothing compares,
    hashes or copies a rule.
    """

    def __init__(
        self, id: int, identifier: str, stage: int, severity: Severity, scope: RuleScope, condition: str,
        *, message: str, suggestion: str | tuple[tuple[str, str] | str, ...], exemption: str | None = None,
    ) -> None:
        self.id, self.identifier, self.stage, self.severity = id, identifier, stage, severity
        self.scope, self.condition = scope, condition
        self.message, self.suggestion, self.exemption = message, suggestion, exemption
        self.outcome, self.key_parts = _compile(self)
        self.reads = frozenset(self.key_parts)
        self.requires_env = self.reads & {"rtt", "pp"}

    def __repr__(self) -> str:
        return f"Rule({self.id}, {self.identifier!r})"


# -- the compiler --------------------------------------------------------------
#
# A rule compiles to the source of one Python function of ``(q, rtt, pp)``,
# or of ``(w, r)`` for a pair rule, run through ``exec`` once, at import: the
# check then costs what a hand-written one would.  The texts are the
# catalog's own constants, never input.  Each helper records what it reads in
# ``reads``: ``policy.param`` paths (``writer ``/``reader `` prefixed in pair
# rules), ``rtt`` and ``pp``, each mapped to the expression of its plain value.

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
_NAMESPACE = {
    "INF": math.inf,
    "fmt": format_nanoseconds,
    "EXEMPT": SkipReason.INFINITE_LIFESPAN_EXEMPTION,
    "NO_RTT": SkipReason.MISSING_ENV_RTT,
    "NO_PP": SkipReason.MISSING_ENV_PP,
} | {kind.__name__: kind for kind in map(type, _PARAMETERS.values()) if issubclass(kind, enum.Enum)}
_SENTINELS = {Duration: "infinite", Count: "unlimited"}
_CONJUNCTS = re.compile(r" and (?!reader \S+ share no name)")
_SHARE_NO_NAME = re.compile(r"writer (\S+) and reader (\S+) share no name")
_CONFIGURED = re.compile(r"(\S+) configured")
_COMPARISON = re.compile(r"(.+?) (>=|!=|=|<|>) (.+)")
_QUOTIENT = re.compile(r"(\S+)/pp(?: \+ (\d+))?")
_FLOOR_QUOTIENT = re.compile(r"(\S+)//pp(?: \+ (\d+))?")
_TIMES_PP = re.compile(r"(\S+) \* pp")
_PLACEHOLDER = re.compile(r"\{([^{}]*)\}")


def _plain(value: str, default: object) -> str:
    """``value``, of ``default``'s type, as a plain value: one whose hash is C code."""
    if isinstance(default, Duration):
        return f"{value}.nanoseconds"
    if isinstance(default, Count):
        return f"{value}.value"
    if isinstance(default, enum.Enum):
        return f"{value}._value_"
    return value


def _env(name: str, reads: dict[str, str]) -> None:
    """Record a read of ``rtt`` or ``pp``: -1 when absent, as a duration is never negative."""
    reads[name] = f"-1 if {name} is None else {name}.nanoseconds"


def _parameter(text: str, pair: bool, reads: dict[str, str]) -> tuple[str, object] | None:
    """Attribute access and OMG default of a parameter operand; None if ``text`` names none."""
    side, _, rest = text.partition(" ")
    prefixed = side in ("writer", "reader")
    name = rest if prefixed else text
    path = _PARAMETER_PATHS.get(name, name)
    if "." not in path or " " in path:
        return None
    if path not in _PARAMETERS:
        raise ValueError(f"{text!r}: no such parameter")
    if prefixed is not pair:
        raise ValueError(f"{text!r}: pair rules prefix each parameter with writer/reader, others never")
    value, default = (f"{side[0]}.{path}" if prefixed else f"q.{path}"), _PARAMETERS[path]
    reads[f"{side} {path}" if prefixed else path] = _plain(value, default)
    return value, default


def _number(text: str, pair: bool, reads: dict[str, str]) -> tuple[str, object] | None:
    """``_parameter`` with durations in nanoseconds and counts in samples, INF for the sentinels."""
    parameter = _parameter(text, pair, reads)
    if parameter is None:
        return None
    value, default = parameter
    if isinstance(default, (Duration, Count)):
        number = _plain(value, default)
        value = f"(INF if {number} is None else {number})"
    return value, default


def _operand(text: str, pair: bool, reads: dict[str, str]) -> tuple[str, object] | None:
    """Numeric expression and default (None for a derived term) of an operand; None for a literal."""
    if text in ("rtt", "pp"):
        _env(text, reads)
        return f"{text}.nanoseconds", None
    times = _TIMES_PP.fullmatch(text)
    if times is None:
        return _number(text, pair, reads)
    _env("pp", reads)
    factor = _number(times[1], pair, reads)
    return f"{factor[0] if factor else int(times[1])} * pp.nanoseconds", None


def _term(text: str, pair: bool, reads: dict[str, str]) -> tuple[str, object]:
    """``_operand`` of an operand that must not be a literal."""
    operand = _operand(text, pair, reads)
    if operand is None:
        raise ValueError(f"{text!r} is not an operand")
    return operand


def _literal(token: str, default: object) -> str:
    """A literal read in the type of ``default``, as an expression."""
    kind = type(default)
    if isinstance(default, enum.Enum) and token in kind.__members__:
        return f"{kind.__name__}.{token}"
    if kind is bool and token in ("true", "false"):
        return str(token == "true")
    if token == _SENTINELS.get(kind):
        return "INF"
    if kind in (int, Duration, Count) and token.isascii() and token.isdigit():
        return token
    raise ValueError(f"{token!r} is not a {kind.__name__} literal")


def _conjunct(text: str, pair: bool, reads: dict[str, str]) -> str:
    shared = _SHARE_NO_NAME.fullmatch(text)
    if shared:
        writer_names, _ = _parameter(f"writer {shared[1]}", pair, reads)
        reader_names, _ = _parameter(f"reader {shared[2]}", pair, reads)
        return f"set({writer_names}).isdisjoint({reader_names})"
    configured = _CONFIGURED.fullmatch(text)
    if configured:
        names, _ = _parameter(configured[1], pair, reads)
        return f"any({names})"  # the default list holds one empty name
    comparison = _COMPARISON.fullmatch(text)
    if comparison is None:
        raise ValueError(f"unknown conjunct {text!r}")
    left_text, op, right_text = comparison.groups()
    left, default = _term(left_text, pair, reads)
    op = "==" if op == "=" else op
    quotient = _QUOTIENT.fullmatch(right_text)
    if quotient:
        numerator, _ = _term(quotient[1], pair, reads)
        _env("pp", reads)
        return f"{left} * pp.nanoseconds {op} {numerator} + {quotient[2] or 0} * pp.nanoseconds"
    right = _operand(right_text, pair, reads)
    if right is not None:
        return f"{left} {op} {right[0]}"
    value = _literal(right_text, default)
    if op == ">" and isinstance(default, Duration):
        return f"{value} < {left} < INF"
    return f"{left} {op} {value}"


def _condition(text: str, pair: bool, reads: dict[str, str]) -> str:
    """The expression a condition states: true when it holds."""
    return " or ".join(
        "(" + " and ".join(f"({_conjunct(c, pair, reads)})" for c in _CONJUNCTS.split(alternative)) + ")"
        for alternative in text.split(", or ")
    )


def _placeholder(text: str, pair: bool, reads: dict[str, str]) -> str:
    """The expression whose ``str`` quotes one placeholder."""
    floor = _FLOOR_QUOTIENT.fullmatch(text)
    quotient = floor or _QUOTIENT.fullmatch(text)
    if quotient:  # rounded down after ``//``, else up
        numerator, _ = _term(quotient[1], pair, reads)
        _env("pp", reads)
        if floor:
            return f"{numerator} // pp.nanoseconds + {quotient[2] or 0}"
        return f"-(-{numerator} // pp.nanoseconds) + {quotient[2] or 0}"
    parameter = _parameter(text, pair, reads)
    if parameter is None:  # rtt, pp or a product with pp, in nanoseconds
        return f"fmt({_term(text, pair, reads)[0]})"
    value, default = parameter
    if isinstance(default, Duration):
        return f"fmt({value}.nanoseconds)"
    if isinstance(default, enum.Enum):
        return f"{value}._name_"
    if isinstance(default, tuple):
        return f"list({value})"  # partition names, quoted as the list repr
    return value  # a count or an integer, through str


def _template(text: str, pair: bool, reads: dict[str, str]) -> str:
    """An expression that renders a message template: its text ``%``-formatted
    with its placeholders (which compiles faster than an f-string)."""
    parts = _PLACEHOLDER.split(text)  # literal, placeholder, literal, ...
    if any("{" in literal or "}" in literal for literal in parts[::2]):
        raise ValueError(f"unbalanced brace in {text!r}")
    values = [_placeholder(part, pair, reads) for part in parts[1::2]]
    literal = repr("%s".join(part.replace("%", "%%") for part in parts[::2]))
    return f"{literal} % ({', '.join(values)},)" if values else literal


def _text(text: str | tuple[tuple[str, str] | str, ...], pair: bool, reads: dict[str, str]) -> str:
    """The expression for a template or for guarded alternatives."""
    if isinstance(text, str):
        return _template(text, pair, reads)
    *guarded, last = text
    return " else ".join(
        [f"{_template(t, pair, reads)} if {_condition(g, pair, reads)}" for g, t in guarded]
        + [_template(last, pair, reads)]
    )


def _compile(rule: Rule) -> tuple[Callable, dict[str, str]]:
    """``rule.outcome`` and everything the rule reads."""
    pair = rule.scope is RuleScope.PAIR
    reads: dict[str, str] = {}
    condition = _condition(rule.condition, pair, reads)
    text_reads: dict[str, str] = {}
    texts = f"{_text(rule.message, pair, text_reads)}, {_text(rule.suggestion, pair, text_reads)}"
    lines = []
    if rule.exemption is not None:
        lines.append(f"if {_condition(rule.exemption, pair, text_reads)}: return EXEMPT")
    if text_reads.keys() - reads:
        unread = sorted(text_reads.keys() - reads)
        raise ValueError(f"rule {rule.id}: its texts or exemption read {unread}; its condition does not")
    if pair and (reads.keys() & {"rtt", "pp"} or rule.exemption is not None):
        raise ValueError(f"rule {rule.id}: a pair rule reads no rtt or pp and has no exemption")
    lines += [f"if {need} is None: return NO_{need.upper()}" for need in ("rtt", "pp") if need in reads]
    lines += [f"if not ({condition}): return None", f"return {texts}"]
    namespace = dict(_NAMESPACE)
    params = "w, r" if pair else "q, rtt, pp"
    exec(f"def rule_{rule.id}({params}):\n" + "".join(f"    {line}\n" for line in lines), namespace)
    return namespace[f"rule_{rule.id}"], reads


def _compile_halves(rules: tuple[Rule, ...]) -> tuple[Callable, Callable]:
    """``writer_halves(w)`` and ``reader_halves(r)``: each returns one half of
    every pair rule's key, in rule order, from one endpoint's QoS.

    A rule's key is its id, its reader reads, then its writer reads (the
    reads sorted by name), so a writer half is the id and the writer reads,
    and a reader half the reader reads, a single read as its bare value.
    """
    functions = []
    for side, param in (("writer", "w"), ("reader", "r")):
        halves = []
        for rule in rules:
            parts = [rule.key_parts[read] for read in sorted(rule.key_parts) if read.startswith(f"{side} ")]
            if side == "writer":
                parts.insert(0, str(rule.id))
            halves.append(parts[0] if len(parts) == 1 else "(" + "".join(f"{part}, " for part in parts) + ")")
        namespace: dict = {}
        exec(f"def {side}_halves({param}):\n    return ({', '.join(halves)},)\n", namespace)
        functions.append(namespace[f"{side}_halves"])
    return tuple(functions)


# -- the catalog -------------------------------------------------------------


def _build_catalog() -> tuple[Rule, ...]:
    rules: list[Rule] = []
    add = rules.append

    add(Rule(
        1, "HIST↔RESLIM", 1, Severity.CRITICAL, RuleScope.EITHER,
        "history.kind = KEEP_LAST and history.depth > resource_limits.max_samples_per_instance",
        message="history.kind=KEEP_LAST with history.depth={history.depth} above "
        "resource_limits.max_samples_per_instance={resource_limits.max_samples_per_instance}: "
        "the cache can never hold the configured depth",
        suggestion=(
            (
                "resource_limits.max_samples_per_instance = 0",
                "raise resource_limits.max_samples_per_instance to ≥ {history.depth}",
            ),
            "raise resource_limits.max_samples_per_instance to ≥ {history.depth} "
            "or lower history.depth to ≤ {resource_limits.max_samples_per_instance}",
        ),
    ))
    add(Rule(
        2, "RESLIM↔RESLIM", 1, Severity.CRITICAL, RuleScope.EITHER,
        "resource_limits.max_samples < resource_limits.max_samples_per_instance",
        message="resource_limits.max_samples={resource_limits.max_samples} is below "
        "resource_limits.max_samples_per_instance={resource_limits.max_samples_per_instance}",
        suggestion=(
            (
                "resource_limits.max_samples_per_instance = unlimited",
                "set resource_limits.max_samples to UNLIMITED "
                "or lower resource_limits.max_samples_per_instance to ≤ {resource_limits.max_samples}",
            ),
            "raise resource_limits.max_samples to ≥ {resource_limits.max_samples_per_instance} "
            "or lower resource_limits.max_samples_per_instance to ≤ {resource_limits.max_samples}",
        ),
    ))
    add(Rule(
        3, "LFSPAN→DEADLN", 1, Severity.CRITICAL, RuleScope.EITHER,
        "deadline.period > 0 and lifespan.duration < deadline.period",
        message="lifespan.duration={lifespan.duration} is shorter than deadline.period={deadline.period}: "
        "samples can expire before the deadline window closes",
        suggestion="raise lifespan.duration to ≥ {deadline.period} "
        "or shorten deadline.period to ≤ {lifespan.duration}",
    ))
    add(Rule(
        4, "HIST→DESTORD", 1, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "destination_order.kind = BY_SOURCE_TIMESTAMP and history.kind = KEEP_LAST and history.depth = 1",
        message="destination_order.kind=BY_SOURCE_TIMESTAMP cannot reorder samples with "
        "history.kind=KEEP_LAST and history.depth=1: only the newest sample is retained",
        suggestion="raise history.depth above 1 or switch history.kind to KEEP_ALL",
    ))
    add(Rule(
        5, "RESLIM→DESTORD", 1, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "destination_order.kind = BY_SOURCE_TIMESTAMP and history.kind = KEEP_ALL "
        "and resource_limits.max_samples_per_instance = 1",
        message="destination_order.kind=BY_SOURCE_TIMESTAMP cannot reorder samples with "
        "history.kind=KEEP_ALL and resource_limits.max_samples_per_instance=1: "
        "there is no room to insert an earlier-stamped sample",
        suggestion="raise resource_limits.max_samples_per_instance above 1",
    ))
    add(Rule(
        6, "HIST→DURABL", 1, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "durability.kind >= TRANSIENT_LOCAL and history.kind = KEEP_LAST and history.depth < rtt/pp + 2",
        message="durability.kind={durability.kind} with history.depth={history.depth} "
        "below the retransmission floor rtt/pp + 2 = {rtt/pp + 2} "
        "(rtt={rtt}, pp={pp}): late joiners may miss retained samples",
        suggestion="raise history.depth to ≥ {rtt/pp + 2}",
    ))
    add(Rule(
        7, "RESLIM→DURABL", 1, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "durability.kind >= TRANSIENT_LOCAL and history.kind = KEEP_ALL "
        "and resource_limits.max_samples_per_instance < rtt/pp + 2",
        message="durability.kind={durability.kind} with "
        "resource_limits.max_samples_per_instance={resource_limits.max_samples_per_instance} "
        "below the retransmission floor rtt/pp + 2 = {rtt/pp + 2} "
        "(rtt={rtt}, pp={pp}): late joiners may miss retained samples",
        suggestion="raise resource_limits.max_samples_per_instance to ≥ {rtt/pp + 2}",
    ))
    add(Rule(
        8, "LFSPAN→DURABL", 1, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "durability.kind >= TRANSIENT_LOCAL and lifespan.duration < rtt",
        message="durability.kind={durability.kind} but lifespan.duration={lifespan.duration} "
        "is below rtt={rtt}: retained samples expire before they can reach a late joiner",
        suggestion="raise lifespan.duration above {rtt}",
    ))
    add(Rule(
        9, "HIST↔LFSPAN", 1, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "history.kind = KEEP_LAST and lifespan.duration > history.depth * pp",
        message="lifespan.duration={lifespan.duration} outlives the KEEP_LAST cache "
        "window history.depth × pp = {history.depth * pp} "
        "(depth={history.depth}, pp={pp}): samples are overwritten before they expire",
        suggestion="lower lifespan.duration to ≤ {history.depth * pp} "
        "or raise history.depth to ≥ {lifespan.duration/pp}",
        exemption="lifespan.duration = infinite",
    ))
    add(Rule(
        10, "RESLIM↔LFSPAN", 1, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "history.kind = KEEP_ALL and lifespan.duration > resource_limits.max_samples_per_instance * pp",
        message="lifespan.duration={lifespan.duration} outlives the KEEP_ALL cache window "
        "max_samples_per_instance × pp = {resource_limits.max_samples_per_instance * pp} "
        "(max_samples_per_instance={resource_limits.max_samples_per_instance}, "
        "pp={pp}): samples are dropped before they expire",
        suggestion="lower lifespan.duration to ≤ {resource_limits.max_samples_per_instance * pp} "
        "or raise resource_limits.max_samples_per_instance to ≥ {lifespan.duration/pp}",
        exemption="lifespan.duration = infinite",
    ))
    add(Rule(
        11, "DEADLN→OWNST", 1, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "ownership.kind = EXCLUSIVE and deadline.period = infinite",
        message="ownership.kind=EXCLUSIVE but deadline.period=infinite: a silent owner is never "
        "detected, so ownership can never fail over",
        suggestion="set a finite deadline.period so owner loss triggers a handover",
    ))
    add(Rule(
        12, "LIVENS→OWNST", 1, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "ownership.kind = EXCLUSIVE and liveliness.lease_duration = infinite",
        message="ownership.kind=EXCLUSIVE but liveliness.lease_duration=infinite: a dead owner is "
        "never declared not-alive, so ownership can never fail over",
        suggestion="set a finite liveliness.lease_duration so owner loss is detected",
    ))
    add(Rule(
        13, "LIVENS→RDLIFE", 1, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "reader_data_lifecycle.autopurge_no_writer_samples_delay > 0 "
        "and liveliness.lease_duration = infinite",
        message="reader_data_lifecycle.autopurge_no_writer_samples_delay="
        "{reader_data_lifecycle.autopurge_no_writer_samples_delay} is configured, "
        "but liveliness.lease_duration=infinite means the no-writers state is never entered",
        suggestion="set a finite liveliness.lease_duration so writer loss can start the purge timer",
    ))
    add(Rule(
        14, "RDLIFE→DURABL", 1, Severity.INCIDENTAL, RuleScope.DATA_READER,
        "durability.kind >= TRANSIENT and reader_data_lifecycle.autopurge_disposed_samples_delay = 0",
        message="durability.kind={durability.kind} delivers historical samples, but "
        "reader_data_lifecycle.autopurge_disposed_samples_delay=0s purges disposed instances "
        "immediately; late-arriving samples may vanish before the application reads them",
        suggestion="raise autopurge_disposed_samples_delay above 0s",
    ))
    add(Rule(
        15, "ENTFAC→DURABL", 1, Severity.INCIDENTAL, RuleScope.EITHER,
        "durability.kind = VOLATILE and entity_factory.autoenable_created_entities = false",
        message="durability.kind=VOLATILE with autoenable_created_entities=false: samples published "
        "before enable() is called are lost for this endpoint",
        suggestion="enable the entity promptly, or raise durability.kind to TRANSIENT_LOCAL to keep "
        "pre-enable samples available",
    ))
    add(Rule(
        16, "PART→DURABL", 1, Severity.INCIDENTAL, RuleScope.EITHER,
        "durability.kind >= TRANSIENT_LOCAL and partition.names configured",
        message="partition.names={partition.names} with durability.kind={durability.kind}: "
        "a runtime partition change rematches endpoints and can re-deliver retained samples "
        "to the new match",
        suggestion="treat partition changes as late joins: budget for repeated historical transfers",
    ))
    add(Rule(
        17, "PART→DEADLN", 1, Severity.INCIDENTAL, RuleScope.EITHER,
        "deadline.period > 0 and partition.names configured",
        message="partition.names={partition.names} with finite deadline.period={deadline.period}: "
        "a runtime partition change rematches endpoints and resets deadline timers, "
        "causing transient deadline misses",
        suggestion="expect spurious deadline alarms around partition changes",
    ))
    add(Rule(
        18, "PART→LIVENS", 1, Severity.INCIDENTAL, RuleScope.DATA_READER,
        "liveliness.kind = MANUAL_BY_TOPIC and partition.names configured",
        message="partition.names={partition.names} with liveliness.kind=MANUAL_BY_TOPIC: "
        "a partition change breaks the match, and the writer appears not alive until rematched",
        suggestion="expect liveliness gaps around partition changes",
    ))
    add(Rule(
        19, "OWNST→WDLIFE", 1, Severity.INCIDENTAL, RuleScope.DATA_WRITER,
        "writer_data_lifecycle.autodispose_unregistered_instances = true and ownership.kind = EXCLUSIVE",
        message="autodispose_unregistered_instances=true with ownership.kind=EXCLUSIVE: an unregister "
        "by any writer auto-disposes the instance even when a stronger owner still updates it",
        suggestion="set autodispose_unregistered_instances=false and let the owning writer call dispose "
        "explicitly",
    ))

    # Stage 2: writer/reader compatibility (the RxO checks).
    add(Rule(
        20, "PART↔PART", 2, Severity.CRITICAL, RuleScope.PAIR,
        "writer partition.names and reader partition.names share no name",
        message="no common partition name: writer offers {writer partition.names}, "
        "reader requests {reader partition.names}; the pair will not match",
        suggestion="add at least one partition name shared by both endpoints",
    ))
    add(Rule(
        21, "RELIAB↔RELIAB", 2, Severity.CRITICAL, RuleScope.PAIR,
        "writer reliability.kind < reader reliability.kind",
        message="writer offers reliability.kind={writer reliability.kind} below the reader "
        "request {reader reliability.kind}; the pair will not match",
        suggestion="raise writer reliability.kind to ≥ {reader reliability.kind} "
        "or lower the reader request",
    ))
    add(Rule(
        22, "DURABL↔DURABL", 2, Severity.CRITICAL, RuleScope.PAIR,
        "writer durability.kind < reader durability.kind",
        message="writer offers durability.kind={writer durability.kind} below the reader "
        "request {reader durability.kind}; the pair will not match",
        suggestion="raise writer durability.kind to ≥ {reader durability.kind} "
        "or lower the reader request",
    ))
    add(Rule(
        23, "DEADLN↔DEADLN", 2, Severity.CRITICAL, RuleScope.PAIR,
        "writer deadline.period > reader deadline.period",
        message="writer deadline.period={writer deadline.period} exceeds the reader "
        "requirement {reader deadline.period}; the pair will not match",
        suggestion="lower writer deadline.period to ≤ {reader deadline.period} "
        "or relax the reader requirement",
    ))
    add(Rule(
        24, "LIVENS↔LIVENS", 2, Severity.CRITICAL, RuleScope.PAIR,
        "writer liveliness.kind < reader liveliness.kind, "
        "or writer lease_duration > reader lease_duration",
        message="liveliness offer below request: writer kind={writer liveliness.kind} "
        "lease={writer lease_duration}, reader kind={reader liveliness.kind} "
        "lease={reader lease_duration}; the pair will not match",
        suggestion="raise writer liveliness.kind to ≥ {reader liveliness.kind} and keep "
        "writer lease_duration ≤ {reader lease_duration}",
    ))
    add(Rule(
        25, "OWNST↔OWNST", 2, Severity.CRITICAL, RuleScope.PAIR,
        "writer ownership.kind != reader ownership.kind",
        message="ownership.kind mismatch: writer={writer ownership.kind}, "
        "reader={reader ownership.kind}; the pair will not match",
        suggestion="set both OWNERSHIP kinds identical",
    ))
    add(Rule(
        26, "DESTORD↔DESTORD", 2, Severity.CRITICAL, RuleScope.PAIR,
        "writer destination_order.kind < reader destination_order.kind",
        message="writer offers destination_order.kind={writer destination_order.kind} below "
        "the reader request {reader destination_order.kind}; the pair will not match",
        suggestion="raise writer destination_order.kind to BY_SOURCE_TIMESTAMP or relax the reader request",
    ))
    add(Rule(
        27, "WDLIFE→RDLIFE", 2, Severity.CONDITIONAL, RuleScope.PAIR,
        "writer autodispose_unregistered_instances = false "
        "and reader autopurge_disposed_samples_delay > 0",
        message="writer autodispose_unregistered_instances=false, but the reader configures "
        "autopurge_disposed_samples_delay={reader autopurge_disposed_samples_delay}: without "
        "explicit dispose() calls the purge timer never starts",
        suggestion="have the writer call dispose() explicitly, or set "
        "autodispose_unregistered_instances=true",
    ))

    # Stage 3: checks that depend on deployment assumptions.
    add(Rule(
        28, "RELIAB→DURABL", 3, Severity.CRITICAL, RuleScope.EITHER,
        "durability.kind >= TRANSIENT_LOCAL and reliability.kind = BEST_EFFORT",
        message="durability.kind={durability.kind} requires reliable delivery of retained "
        "samples, but reliability.kind=BEST_EFFORT",
        suggestion="set reliability.kind=RELIABLE whenever durability.kind is TRANSIENT_LOCAL or higher",
    ))
    add(Rule(
        29, "HIST→RELIAB", 3, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "reliability.kind = RELIABLE and history.kind = KEEP_LAST and history.depth < rtt/pp + 2",
        message="reliability.kind=RELIABLE with history.depth={history.depth} below the "
        "retransmission floor rtt/pp + 2 = {rtt/pp + 2} (rtt={rtt}, pp={pp}): "
        "samples rotate out of the cache before they can be repaired",
        suggestion="raise history.depth to ≥ {rtt/pp + 2}",
    ))
    add(Rule(
        30, "RESLIM→RELIAB", 3, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "reliability.kind = RELIABLE and history.kind = KEEP_ALL "
        "and resource_limits.max_samples_per_instance < rtt/pp + 2",
        message="reliability.kind=RELIABLE with "
        "resource_limits.max_samples_per_instance={resource_limits.max_samples_per_instance} "
        "below the retransmission floor rtt/pp + 2 = {rtt/pp + 2} (rtt={rtt}, pp={pp}): "
        "the cache fills before losses can be repaired",
        suggestion="raise resource_limits.max_samples_per_instance to ≥ {rtt/pp + 2}",
    ))
    add(Rule(
        31, "LFSPAN→RELIAB", 3, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "reliability.kind = RELIABLE and lifespan.duration < rtt",
        message="reliability.kind=RELIABLE but lifespan.duration={lifespan.duration} is "
        "below rtt={rtt}: samples expire before one repair round-trip completes, so "
        "delivery degrades to best-effort",
        suggestion="raise lifespan.duration above {rtt}",
    ))
    add(Rule(
        32, "RELIAB→OWNST", 3, Severity.CONDITIONAL, RuleScope.EITHER,
        "ownership.kind = EXCLUSIVE and reliability.kind = BEST_EFFORT",
        message="ownership.kind=EXCLUSIVE with reliability.kind=BEST_EFFORT: packet loss can look "
        "like owner failure and trigger spurious ownership switches",
        suggestion="set reliability.kind=RELIABLE when using exclusive ownership",
    ))
    add(Rule(
        33, "RELIAB→DEADLN", 3, Severity.CONDITIONAL, RuleScope.EITHER,
        "deadline.period > 0 and reliability.kind = BEST_EFFORT",
        message="finite deadline.period={deadline.period} with "
        "reliability.kind=BEST_EFFORT: undetected sample loss surfaces as deadline misses",
        suggestion="set reliability.kind=RELIABLE, or treat deadline alarms as possible transport loss",
    ))
    add(Rule(
        34, "LIVENS→DEADLN", 3, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "deadline.period > 0 and liveliness.lease_duration < deadline.period",
        message="liveliness.lease_duration={liveliness.lease_duration} is shorter than "
        "deadline.period={deadline.period}: liveliness expires first and stops "
        "deadline monitoring",
        suggestion="raise liveliness.lease_duration to ≥ {deadline.period}",
    ))
    add(Rule(
        35, "RELIAB→LIVENS", 3, Severity.CONDITIONAL, RuleScope.EITHER,
        "liveliness.kind = MANUAL_BY_TOPIC and reliability.kind = BEST_EFFORT",
        message="liveliness.kind=MANUAL_BY_TOPIC with reliability.kind=BEST_EFFORT: lost liveliness "
        "assertions make a healthy writer appear not alive",
        suggestion="set reliability.kind=RELIABLE for manual-by-topic liveliness",
    ))
    add(Rule(
        36, "DEADLN→OWNST", 3, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "ownership.kind = EXCLUSIVE and deadline.period < 2 * pp",
        message="ownership.kind=EXCLUSIVE with deadline.period={deadline.period} below "
        "2 × pp = {2 * pp}: ordinary publish jitter will trigger ownership handovers",
        suggestion="raise deadline.period to ≥ {2 * pp}",
    ))
    add(Rule(
        37, "LIVENS→OWNST", 3, Severity.CONDITIONAL, RuleScope.DATA_READER,
        "ownership.kind = EXCLUSIVE and liveliness.lease_duration < 2 * pp",
        message="ownership.kind=EXCLUSIVE with liveliness.lease_duration="
        "{liveliness.lease_duration} below 2 × pp = {2 * pp}: "
        "ordinary publish jitter will trigger ownership handovers",
        suggestion="raise liveliness.lease_duration to ≥ {2 * pp}",
    ))
    add(Rule(
        38, "RELIAB→WDLIFE", 3, Severity.CONDITIONAL, RuleScope.DATA_WRITER,
        "writer_data_lifecycle.autodispose_unregistered_instances = true "
        "and reliability.kind = BEST_EFFORT",
        message="autodispose_unregistered_instances=true with reliability.kind=BEST_EFFORT: dispose "
        "notifications can be lost, leaving readers with stale instances",
        suggestion="set reliability.kind=RELIABLE so lifecycle notifications arrive",
    ))
    add(Rule(
        39, "HIST→DURABL", 3, Severity.INCIDENTAL, RuleScope.DATA_WRITER,
        "durability.kind >= TRANSIENT_LOCAL and history.kind = KEEP_LAST "
        "and history.depth > rtt/pp + 2",
        message="durability.kind={durability.kind} with history.depth={history.depth} "
        "above the retransmission floor rtt/pp + 2 = {rtt//pp + 2} "
        "(rtt={rtt}, pp={pp}): every late join bursts that much history onto the network",
        suggestion="lower history.depth to ≤ {rtt//pp + 2}",
    ))
    add(Rule(
        40, "RESLIM→DURABL", 3, Severity.INCIDENTAL, RuleScope.DATA_WRITER,
        "durability.kind >= TRANSIENT_LOCAL and history.kind = KEEP_ALL "
        "and resource_limits.max_samples_per_instance > rtt/pp + 2",
        message="durability.kind={durability.kind} with "
        "resource_limits.max_samples_per_instance={resource_limits.max_samples_per_instance} "
        "above the retransmission floor rtt/pp + 2 = {rtt//pp + 2} (rtt={rtt}, pp={pp}): "
        "every late join bursts that much history onto the network",
        suggestion="lower resource_limits.max_samples_per_instance to ≤ {rtt//pp + 2}",
    ))
    add(Rule(
        41, "DURABL→DEADLN", 3, Severity.INCIDENTAL, RuleScope.EITHER,
        "deadline.period > 0 and durability.kind >= TRANSIENT_LOCAL",
        message="finite deadline.period={deadline.period} with durability.kind={durability.kind}: "
        "historical retransmissions keep resetting the deadline timer and can mask real "
        "latency violations",
        suggestion="account for history delivery when sizing deadline.period, or use volatile durability",
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


writer_halves, reader_halves = _compile_halves(_BY_STAGE[2])


# -- evaluation --------------------------------------------------------------


def pair_topic(writer: EndpointProfile, reader: EndpointProfile) -> str | None:
    """The topic a pair reports under: the shared topic, else None."""
    return writer.topic_name if writer.topic_name == reader.topic_name else None


def evaluate_rule(
    rule: Rule,
    *,
    writer: EndpointProfile | None = None,
    reader: EndpointProfile | None = None,
    rtt: Duration | None = None,
    pp: Duration | None = None,
) -> Finding | None:
    """Evaluate one rule of the catalog: a Violation, a SkippedRule, or None
    when clean.

    A single-endpoint rule takes one endpoint, a DataWriter as ``writer`` or
    a DataReader as ``reader``, of a kind it is ``applicable_to``; a pair
    rule both, which it evaluates as stage 2 does, keyed by its halves.  A
    rule is skipped when its exemption applies or when a required
    environment input is absent (rtt checked before pp); any other call,
    such as one with a rule built outside the catalog, is a programming
    error and raises ValueError.
    """
    if _BY_ID.get(rule.id) is not rule:
        raise ValueError(f"rule {rule.id} is outside the catalog")
    if rule.scope is RuleScope.PAIR:
        if writer is None or reader is None:
            raise ValueError(f"rule {rule.id} is pair-scoped and needs both endpoints")
        findings = [f for f in evaluate_pair_rules([(writer, reader)]) if f.rule_id == rule.id]
    else:
        if (writer is None) is (reader is None):
            raise ValueError(f"rule {rule.id} is single-endpoint and needs exactly one endpoint")
        endpoint, kind = (writer, EndpointKind.DATA_WRITER) if reader is None else (reader, EndpointKind.DATA_READER)
        if endpoint.endpoint_kind is not kind:
            raise ValueError(f"{endpoint.profile_name!r} is not a {kind.display}")
        if not applicable_to(rule, kind):
            raise ValueError(f"rule {rule.id} does not apply to {kind.display}s")
        findings = _findings((rule,), (endpoint.qos, rtt, pp), (endpoint,), endpoint.topic_name)
    return findings[0] if findings else None


def applicable_to(rule: Rule, kind: EndpointKind) -> bool:
    """Whether a single-endpoint rule applies to endpoints of this kind: a
    scope names the one kind it admits by that kind's display name."""
    return rule.scope is RuleScope.EITHER or rule.scope.value == kind.display


# Stage-1/3 rules that apply to each endpoint kind, in id order, by (stage,
# the kind's value): a string hashes in C, an Enum member in Python.
_APPLICABLE: dict[tuple[int, str], tuple[Rule, ...]] = {
    (stage, kind._value_): tuple(rule for rule in rules_for_stage(stage) if applicable_to(rule, kind))
    for stage in (1, 3)
    for kind in EndpointKind
}


def _findings(
    rules: tuple[Rule, ...], args: tuple, entities: tuple[EndpointProfile, ...], topic_name: str | None
) -> list[Finding]:
    """The findings of single-endpoint ``rules`` on ``args``, the arguments
    of their ``outcome``: where a stage-1 or stage-3 result becomes a
    finding (``evaluate_pair_rules`` holds stage 2's).  Each rule's
    ``outcome`` runs once per call; ``run_pipeline`` makes one call per
    stage and QoS class."""
    findings = []
    new = tuple.__new__  # a finding in one C call
    for rule in rules:
        result = rule.outcome(*args)
        if result is None:
            continue
        if result.__class__ is SkipReason:
            findings.append(new(SkippedRule, (rule.id, entities, result)))
        else:
            message, suggestion = result
            findings.append(new(Violation, (rule.id, entities, topic_name, message, suggestion)))
    return findings


def evaluate_endpoint_rules(
    endpoint: EndpointProfile, stage: int, rtt: Duration | None = None, pp: Duration | None = None
) -> list[Finding]:
    """The findings of every scope-applicable single-endpoint rule of a stage."""
    # _APPLICABLE holds only the rules whose scope admits this kind.
    return _findings(
        _APPLICABLE.get((stage, endpoint.endpoint_kind._value_), ()), (endpoint.qos, rtt, pp),
        (endpoint,), endpoint.topic_name,
    )


_UNSEEN = object()  # a result not computed yet: None is a clean one


def evaluate_pair_rules(pairs: Iterable[tuple[EndpointProfile, EndpointProfile]]) -> list[Violation]:
    """The findings of the stage-2 RxO rules (20-27) on each (writer, reader)
    pair, pair by pair in the order given and in rule order within a pair:
    where a stage-2 result becomes a finding, in the pair loop itself.
    Each is a Violation: the compiler gives a pair rule no way to skip.

    Each distinct writer or reader QoS has its halves of every rule's key
    computed once, and each rule's result is kept in ``memo`` in the row of
    its writer half, by its reader half: it is computed once per distinct
    pair of halves in the call.  The halves and rows are found by QoS
    identity.  All these tables live only in this call, which holds each
    QoS it looks up, so no id is reused while they do.
    """
    rules = _BY_STAGE[2]
    memo: dict[tuple, dict] = {}  # a row of results by reader half, per writer half
    rows_by_writer: dict[int, list[dict]] = {}
    halves_by_reader: dict[int, tuple] = {}
    held = []  # each QoS keyed by identity, alive until the call returns
    findings: list[Violation] = []
    append, new = findings.append, tuple.__new__
    writer_kind, reader_kind = EndpointKind.DATA_WRITER, EndpointKind.DATA_READER
    for writer, reader in pairs:
        if writer.endpoint_kind is not writer_kind:
            raise ValueError(f"{writer.profile_name!r} is not a DataWriter")
        if reader.endpoint_kind is not reader_kind:
            raise ValueError(f"{reader.profile_name!r} is not a DataReader")
        w, r = writer.qos, reader.qos
        rows = rows_by_writer.get(id(w))
        if rows is None:
            rows = rows_by_writer[id(w)] = []
            for half in writer_halves(w):
                row = memo.get(half)
                if row is None:
                    row = memo[half] = {}
                rows.append(row)
            held.append(w)
        halves = halves_by_reader.get(id(r))
        if halves is None:
            halves = halves_by_reader[id(r)] = reader_halves(r)
            held.append(r)
        entities = (writer, reader)  # one tuple for the pair's findings
        # pair_topic, written out: a call per pair costs more than the test
        topic_name = writer.topic_name if writer.topic_name == reader.topic_name else None
        for rule, row, half in zip(rules, rows, halves):
            result = row.get(half, _UNSEEN)
            if result is _UNSEEN:
                result = row[half] = rule.outcome(w, r)
            if result is None:
                continue
            message, suggestion = result
            append(new(Violation, (rule.id, entities, topic_name, message, suggestion)))
    return findings
