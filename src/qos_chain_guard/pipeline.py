"""Three-stage validation pipeline, report assembly, and rendering.

Stage 1 checks every endpoint on its own, stage 2 checks writer/reader
pairs from the pairing plan, stage 3 re-checks endpoints against the
environment assumptions.  All stages always run; staging orders the
report, it never short-circuits it.  Reports are deterministic: same
inputs, byte-identical output.
"""

from __future__ import annotations

import enum
import json
import math
from itertools import chain
from json.encoder import encode_basestring
from typing import Iterable, Sequence

from ._version import __version__
from .model import (
    Duration,
    EndpointKind,
    EndpointProfile,
    MAX_BLOCKING_TIME_ASSUMPTION,
    NANOSECONDS_PER_MILLISECOND,
    Record,
    shorten_literal,
)
from .profiles import ParseDiagnostic, ProfileSet
from .rules import (
    Finding,
    Severity,
    SkippedRule,
    Violation,
    evaluate_endpoint_rules,
    evaluate_pair_rules,
    pair_topic,
    rule_catalog,
)


class EnvironmentLoadError(ValueError):
    """Bad environment file: wrong JSON shape or nonpositive duration."""


class PairingError(ValueError):
    """Bad pairing directive: unknown profile or kind mismatch."""


def _ms_to_duration(value: object, label: str) -> Duration:
    literal = shorten_literal(value)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise EnvironmentLoadError(f"{label}: expected a number of milliseconds, got {literal}")
    # json.loads accepts the Infinity/NaN literals; both are invalid here.
    # Integers are finite, and may be too large for math.isfinite.
    if value <= 0 or (isinstance(value, float) and not math.isfinite(value)):
        raise EnvironmentLoadError(f"{label}: must be positive and finite, got {literal}")
    try:
        duration = Duration.from_millis(value)
    except (OverflowError, ValueError):
        raise EnvironmentLoadError(f"{label}: {literal} ms exceeds the 64-bit nanosecond range") from None
    if duration.nanoseconds == 0:
        raise EnvironmentLoadError(f"{label}: {literal} ms is below the 1 ns resolution")
    return duration


def _duration_to_ms(d: Duration) -> int | float:
    ms = d.nanoseconds / NANOSECONDS_PER_MILLISECOND
    return int(ms) if ms.is_integer() else ms


class EnvironmentModel(Record):
    """Deployment assumptions: round-trip time and publish periods.

    All values are optional; rules that need a missing value are reported
    as skipped rather than guessed.  Present values must be finite and
    positive.
    """

    rtt: Duration | None = None
    default_publish_period: Duration | None = None
    per_profile_publish_period: dict[str, Duration] | None = None

    def _check(self) -> None:
        if self.per_profile_publish_period is None:  # a new table per model
            EnvironmentModel.per_profile_publish_period.__set__(self, {})
        for label, value in self._named_durations():
            if value.is_infinite:
                raise EnvironmentLoadError(f"{label}: must be finite")
            if value.nanoseconds <= 0:
                raise EnvironmentLoadError(f"{label}: must be positive")

    def _named_durations(self):
        if self.rtt is not None:
            yield "rtt", self.rtt
        if self.default_publish_period is not None:
            yield "default_publish_period", self.default_publish_period
        for name, value in self.per_profile_publish_period.items():
            yield f"publish_period[{name}]", value

    def publish_period_for(self, profile_name: str) -> Duration | None:
        """Per-profile override, else the default, else None (skip)."""
        return self.per_profile_publish_period.get(profile_name, self.default_publish_period)

    def echo(self) -> dict:
        """Millisecond echo of the model for reports."""
        return {
            "rtt_ms": _duration_to_ms(self.rtt) if self.rtt is not None else None,
            "default_publish_period_ms": (
                _duration_to_ms(self.default_publish_period)
                if self.default_publish_period is not None
                else None
            ),
            "publish_period_ms": {
                name: _duration_to_ms(value)
                for name, value in sorted(self.per_profile_publish_period.items())
            },
        }


def load_environment(text: str) -> EnvironmentModel:
    """Parse the environment JSON document.

    Accepted shape: {"rtt_ms": number, "default_publish_period_ms": number,
    "publish_period_ms": {profile_name: number}}; every key optional.
    """
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal over the digit limit
        raise EnvironmentLoadError(f"environment file is not valid JSON: {exc}") from exc
    except RecursionError:
        raise EnvironmentLoadError("environment file nests too deeply to parse") from None
    if not isinstance(data, dict):
        raise EnvironmentLoadError("environment file must contain a JSON object")
    known = {"rtt_ms", "default_publish_period_ms", "publish_period_ms"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise EnvironmentLoadError(f"unknown environment keys: {', '.join(unknown)}")
    rtt = _ms_to_duration(data["rtt_ms"], "rtt_ms") if "rtt_ms" in data else None
    default_pp = (
        _ms_to_duration(data["default_publish_period_ms"], "default_publish_period_ms")
        if "default_publish_period_ms" in data
        else None
    )
    per_profile: dict[str, Duration] = {}
    if "publish_period_ms" in data:
        table = data["publish_period_ms"]
        if not isinstance(table, dict):
            raise EnvironmentLoadError("publish_period_ms: expected an object of profile -> ms")
        for name, value in table.items():
            per_profile[name] = _ms_to_duration(value, f"publish_period_ms[{name}]")
    return EnvironmentModel(
        rtt=rtt, default_publish_period=default_pp, per_profile_publish_period=per_profile
    )


class PairOrigin(enum.Enum):
    TOPIC_INDEX = "topic-index"
    EXPLICIT_DIRECTIVE = "directive"


class Pairing(Record):
    """One writer/reader pair to check, by profile name, with how it was
    paired and the topic the two share (None across topics)."""

    writer: str
    reader: str
    origin: PairOrigin
    topic_name: str | None


def build_pairing_plan(
    profile_set: ProfileSet, directives: Sequence[tuple[str, str]] = ()
) -> tuple[Pairing, ...]:
    """Cross every topic's writers with its readers, then add directives.

    Endpoints without a topic pair only through explicit directives.
    Duplicate pairs collapse; a directive naming a missing profile or a
    kind-mismatched pair raises PairingError.
    """
    plan: list[Pairing] = []
    index = profile_set.topic_index
    for topic in sorted(t for t in index if t is not None):
        writers, readers = index[topic]
        for writer in writers:
            for reader in readers:
                plan.append(Pairing(writer, reader, PairOrigin.TOPIC_INDEX, topic))
    # A directive repeats a topic pair exactly when the two share a topic,
    # so only directives need remembering.
    seen: set[tuple[str, str]] = set()
    for writer_name, reader_name in directives:
        for name in (writer_name, reader_name):
            if name not in profile_set.profiles:
                raise PairingError(f"pair directive names unknown profile {name!r}")
        writer = profile_set.profiles[writer_name]
        reader = profile_set.profiles[reader_name]
        if writer.endpoint_kind is not EndpointKind.DATA_WRITER:
            raise PairingError(
                f"pair directive must be writer:reader; {writer_name!r} is a {writer.endpoint_kind.display}"
            )
        if reader.endpoint_kind is not EndpointKind.DATA_READER:
            raise PairingError(
                f"pair directive must be writer:reader; {reader_name!r} is a {reader.endpoint_kind.display}"
            )
        topic = pair_topic(writer, reader)
        if topic is not None or (writer_name, reader_name) in seen:
            continue
        plan.append(Pairing(writer_name, reader_name, PairOrigin.EXPLICIT_DIRECTIVE, topic))
        seen.add((writer_name, reader_name))
    return tuple(plan)


class Report(Record, uncompared=("summary",)):
    """Aggregate of one validation run, ordered deterministically.

    ``summary`` holds the violations per level and the skips.  It is counted
    once, when the report is built, from ``violations`` and ``skipped``,
    whatever value is passed for it (a copy passes the old counts): a
    ``check`` reads it for the exit code and for the report.
    """

    tool_version: str
    inputs: tuple[str, ...]
    environment: EnvironmentModel
    assumptions: tuple[str, ...]
    pairings: tuple[Pairing, ...]
    parse_diagnostics: tuple[ParseDiagnostic, ...]
    violations: tuple[Violation, ...]
    skipped: tuple[SkippedRule, ...]
    summary: dict[str, int] | None = None

    def _check(self) -> None:
        levels = [v.severity.level for v in self.violations]
        Report.summary.__set__(self, {
            "errors": levels.count("error"),
            "warnings": levels.count("warning"),
            "infos": levels.count("info"),
            "skipped": len(self.skipped),
        })

    def count_at_or_above(self, level: str) -> int:
        """Diagnostics at or above a report level (error > warning > info)."""
        included = {"error": ("errors",), "warning": ("errors", "warnings")}.get(
            level, ("errors", "warnings", "infos")
        )
        counts = self.summary
        return sum(counts[key] for key in included)


def _pair_order(pair: tuple[EndpointProfile, EndpointProfile]) -> tuple[str, str, str]:
    """A pair's place in the report: writer name, topic ("" for none), reader name."""
    writer, reader = pair
    return writer.profile_name, pair_topic(writer, reader) or "", reader.profile_name


def _file(
    findings: list[Finding],
    violations: dict[int, list[Violation]],
    skipped: dict[int, list[SkippedRule]],
    entities: tuple[EndpointProfile, ...] | None = None,
    topic_name: str | None = None,
) -> None:
    """Append findings to their rule's list, re-addressed to ``entities`` and
    ``topic_name`` when those are given (a class's findings for another member)."""
    new = tuple.__new__  # a finding in one C call
    for f in findings:
        if type(f) is Violation:
            violations[f.rule_id].append(
                f if entities is None else new(Violation, (
                    f.rule_id, f.identifier, f.stage, f.severity, entities, topic_name, f.message, f.suggestion
                ))
            )
        else:
            skipped[f.rule_id].append(
                f if entities is None else new(SkippedRule, (f.rule_id, f.identifier, f.stage, entities, f.reason))
            )


def run_pipeline(
    profile_set: ProfileSet,
    environment: EnvironmentModel | None = None,
    pairings: tuple[Pairing, ...] | None = None,
    inputs: tuple[str, ...] = (),
) -> Report:
    """Run all three stages over the profile set and assemble the report.

    Rule messages, suggestions and skip reasons depend only on the QoS,
    ``rtt`` and ``pp`` (see ``rules``), so stages 1 and 3 evaluate once per
    (endpoint kind, QoS, publish period), in one pass over the endpoints
    that looks each class up once for both.  The findings of the member
    evaluated are stamped onto every other member with that member's own
    entities and topic.  Classes key on QoS identity; ``parse_profiles``
    interns equal profiles, and an equal but distinct profile only costs
    one more evaluation.  This class cache is the one cache of stages 1
    and 3.  Stage 2 is one ``evaluate_pair_rules`` call over every pair,
    which computes each RxO rule once per (rule, writer values, reader
    values).

    The report order comes from the order of evaluation, with no sort:
    every finding goes to its rule's list, endpoints are visited in name
    order and pairs in (writer, topic, reader) order, a pair with no shared
    topic first, and the lists are joined in rule-id order, which is stage
    order.
    """
    env = environment if environment is not None else EnvironmentModel()
    plan = pairings if pairings is not None else build_pairing_plan(profile_set)
    profiles = profile_set.profiles
    violations: dict[int, list[Violation]] = {rule.id: [] for rule in rule_catalog()}
    skipped: dict[int, list[SkippedRule]] = {rule.id: [] for rule in rule_catalog()}

    by_class: dict[tuple, list[Finding]] = {}
    for name in sorted(profiles):
        endpoint = profiles[name]
        pp = env.publish_period_for(name)
        # Hashed in C: the kind's value, and pp's nanoseconds (None when
        # infinite, -1 when absent), where the members and Duration hash in Python.
        key = (endpoint.endpoint_kind._value_, id(endpoint.qos), -1 if pp is None else pp.nanoseconds)
        findings = by_class.get(key)
        if findings is None:
            # The member evaluated first: its findings already name it.
            findings = by_class[key] = evaluate_endpoint_rules(endpoint, 1, rtt=env.rtt, pp=pp)
            findings += evaluate_endpoint_rules(endpoint, 3, rtt=env.rtt, pp=pp)
            _file(findings, violations, skipped)
        else:
            _file(findings, violations, skipped, (endpoint,), endpoint.topic_name)

    pairs = sorted(((profiles[p.writer], profiles[p.reader]) for p in plan), key=_pair_order)
    _file(evaluate_pair_rules(pairs), violations, skipped)

    return Report(
        tool_version=__version__,
        inputs=tuple(inputs),
        environment=env,
        assumptions=(MAX_BLOCKING_TIME_ASSUMPTION,),
        pairings=plan,
        parse_diagnostics=profile_set.diagnostics,
        violations=tuple(chain.from_iterable(violations.values())),
        skipped=tuple(chain.from_iterable(skipped.values())),
    )


# -- rendering ---------------------------------------------------------------

_STAGE_TITLES = {
    1: "Stage 1: per-endpoint consistency",
    2: "Stage 2: writer/reader compatibility (RxO)",
    3: "Stage 3: environment-dependent checks",
}

_ANSI = {"error": "\x1b[31m", "warning": "\x1b[33m", "info": "\x1b[36m"}
_ANSI_RESET = "\x1b[0m"
# A ``str.translate`` table: each control character as the JSON report
# escapes it (``\n``, ``\u0000``), so a text from the input keeps to its line.
_CONTROL_ESCAPES = {code: encode_basestring(chr(code))[1:-1] for code in range(0x20)}


def _one_line(text: str) -> str:
    """``text`` with its control characters escaped as JSON escapes them."""
    if text.isprintable():  # a quick test: most texts have nothing to escape
        return text
    return text.translate(_CONTROL_ESCAPES)


def _human_report(report: Report, color: bool) -> str:
    # Built once per report: each level label, each endpoint's text, and the
    # text of each entities tuple (a pair's findings share one tuple).  The
    # tables key on identity: an Enum hash runs Python code, and an
    # EndpointProfile hash hashes its whole QoS.  The report keeps every key
    # alive, so no id is reused while rendering.  The rest of a line is
    # formatted per row: a cache keyed on the rule id, identifier and severity,
    # or on the message and suggestion, costs more to look up than to format.
    labels = {
        id(severity): (
            f"{_ANSI[severity.level]}{severity.level.upper()}{_ANSI_RESET}"
            if color
            else severity.level.upper()
        )
        for severity in Severity
    }
    texts: dict[int, str] = {}
    entity_texts: dict[int, str] = {}

    def entity_list(entities: tuple[EndpointProfile, ...]) -> str:
        """The text of ``entities``, kept in ``entity_texts``; a row looks there first."""
        parts = []
        for e in entities:
            text = texts.get(id(e))
            if text is None:
                text = texts[id(e)] = _one_line(str(e))
            parts.append(text)
        text = entity_texts[id(entities)] = " + ".join(parts)
        return text

    lines: list[str] = []
    env = report.environment.echo()
    if report.inputs:
        lines.append(f"inputs: {_one_line(', '.join(report.inputs))}")
    env_bits = []
    if env["rtt_ms"] is not None:
        env_bits.append(f"rtt={env['rtt_ms']}ms")
    if env["default_publish_period_ms"] is not None:
        env_bits.append(f"default publish period={env['default_publish_period_ms']}ms")
    for name, value in env["publish_period_ms"].items():
        env_bits.append(f"publish period[{_one_line(name)}]={value}ms")
    lines.append(f"environment: {', '.join(env_bits) if env_bits else 'none provided'}")
    for assumption in report.assumptions:
        lines.append(f"note: {assumption}")
    lines.append("")

    if not report.violations:
        lines.append("no violations found")
    else:
        # One walk: each violation's line goes under its stage's title, and
        # a stage with no title is not rendered.  A violation is a tuple, and
        # unpacking it is cheaper than seven field reads.
        stage_lines: dict[int, list[str]] = {stage: [] for stage in _STAGE_TITLES}
        for rule_id, identifier, stage, severity, entities, _, message, suggestion in report.violations:
            rows = stage_lines.get(stage)
            if rows is not None:
                rows.append(
                    f"  {labels[id(severity)]} [rule {rule_id} {identifier}] "
                    f"{entity_texts.get(id(entities)) or entity_list(entities)} — {message}; {suggestion}"
                )
        for stage, rows in stage_lines.items():
            if rows:
                lines.append(_STAGE_TITLES[stage])
                lines += rows
                lines.append("")

    if report.skipped:
        lines.append("skipped checks (undecidable with the given inputs)")
        for s in report.skipped:
            lines.append(
                f"  SKIP [rule {s.rule_id} {s.identifier}] "
                f"{entity_texts.get(id(s.entities)) or entity_list(s.entities)} — {s.reason._value_}"
            )
        lines.append("")

    if report.parse_diagnostics:
        lines.append("parse notes")
        for diagnostic in report.parse_diagnostics:
            lines.append(f"  {_one_line(str(diagnostic))}")
        lines.append("")

    counts = report.summary
    lines.append(
        f"summary: {counts['errors']} error(s), {counts['warnings']} warning(s), "
        f"{counts['infos']} info(s), {counts['skipped']} skipped"
    )
    lines.append("")  # the final newline, joined with the rest: one copy of the report
    return "\n".join(lines)


def _json_section(value: object) -> str:
    """``value`` as pretty JSON indented one level, to sit under a top-level key.

    Replacing every newline re-indents exactly: JSON strings hold no raw newline.
    """
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False).replace("\n", "\n  ")


def _add_json_rows(out: list[str], rows: Iterable[str]) -> None:
    """Append ``rows``, each an indented JSON object, to ``out`` as the array they form."""
    separator = "[\n"
    for row in rows:
        out += separator, row
        separator = ",\n"
    out.append("[]" if separator == "[\n" else "\n  ]")


def _json_report(report: Report) -> str:
    """The report as the bytes of ``json.dumps(payload, indent=2, sort_keys=True,
    ensure_ascii=False)``.

    The large arrays are written row by row, keys in sorted order, because
    ``json.dumps`` with ``indent`` never uses the C encoder.  Strings go
    through ``encode_basestring``, the escaper that ``json.dumps`` itself
    calls.  ``tests/test_pipeline.py`` holds the payload as a dict and
    checks the two agree.
    """
    enc = encode_basestring
    entity_json: dict[int, str] = {}  # by identity, as in _human_report

    def entities(refs: tuple[EndpointProfile, ...]) -> str:
        parts = []
        for e in refs:
            text = entity_json.get(id(e))
            if text is None:
                text = entity_json[id(e)] = (
                    "        {\n"
                    f'          "document": {enc(e.source_location.document)},\n'
                    f'          "kind": {enc(e.endpoint_kind.display)},\n'
                    f'          "line": {e.source_location.line},\n'
                    f'          "profile": {enc(e.profile_name)}\n'
                    "        }"
                )
            parts.append(text)
        return ",\n".join(parts)

    def topic(name: str | None) -> str:
        return "null" if name is None else enc(name)

    # One list of pieces, joined once: no section is copied on its own
    # before the report is, so the peak is about the rows plus the report.
    out = ["{\n", f'  "assumptions": {_json_section(list(report.assumptions))},\n', '  "diagnostics": ']
    _add_json_rows(out, (
        "    {\n"
        f'      "entities": [\n{entities(v.entities)}\n      ],\n'
        f'      "identifier": {enc(v.identifier)},\n'
        f'      "level": {enc(v.severity.level)},\n'
        f'      "message": {enc(v.message)},\n'
        f'      "rule_id": {v.rule_id},\n'
        f'      "severity": {enc(v.severity._value_)},\n'
        f'      "stage": {v.stage},\n'
        f'      "suggestion": {enc(v.suggestion)},\n'
        f'      "topic": {topic(v.topic_name)}\n'
        "    }"
        for v in report.violations
    ))
    out.append(
        f',\n  "environment": {_json_section(report.environment.echo())},\n'
        f'  "inputs": {_json_section(list(report.inputs))},\n'
        '  "pairs": '
    )
    _add_json_rows(out, (
        "    {\n"
        f'      "origin": {enc(p.origin._value_)},\n'
        f'      "reader": {enc(p.reader)},\n'
        f'      "topic": {topic(p.topic_name)},\n'
        f'      "writer": {enc(p.writer)}\n'
        "    }"
        for p in report.pairings
    ))
    parse_diagnostics = [
        {"path": d.path, "line": d.line, "level": d.level, "message": d.message}
        for d in report.parse_diagnostics
    ]
    out.append(
        f',\n  "parse_diagnostics": {_json_section(parse_diagnostics)},\n'
        '  "schema_version": 1,\n'
        '  "skipped": '
    )
    _add_json_rows(out, (
        "    {\n"
        f'      "entities": [\n{entities(s.entities)}\n      ],\n'
        f'      "identifier": {enc(s.identifier)},\n'
        f'      "reason": {enc(s.reason._value_)},\n'
        f'      "rule_id": {s.rule_id},\n'
        f'      "stage": {s.stage}\n'
        "    }"
        for s in report.skipped
    ))
    tool = {"name": "qos-chain-guard", "version": report.tool_version}
    out.append(
        f',\n  "summary": {_json_section(report.summary)},\n'
        f'  "tool": {_json_section(tool)}\n'
        "}\n"
    )
    return "".join(out)


def render_report(report: Report, fmt: str = "human", color: bool = False) -> str:
    """Render a report as human-readable text or as stable JSON."""
    if fmt == "human":
        return _human_report(report, color=color)
    if fmt == "json":
        return _json_report(report)
    raise ValueError(f"unknown report format {fmt!r} (expected human or json)")
