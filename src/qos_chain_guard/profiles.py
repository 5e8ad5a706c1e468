"""Ingest of DDS-style XML profile documents and canonical re-serialization.

The accepted grammar is a deliberately small, Fast-DDS-flavored dialect:

    <profiles>                        (optionally wrapped in <dds>)
      <data_writer profile_name="w1">
        <topic>
          <name>chatter</name>
          <qos> ... fallback policies, endpoint wins ... </qos>
        </topic>
        <qos>
          <reliability><kind>RELIABLE</kind></reliability>
          <history><kind>KEEP_LAST</kind><depth>10</depth></history>
          ...
        </qos>
      </data_writer>
      <data_reader profile_name="r1"> ... </data_reader>
    </profiles>

One table, ``POLICY_SCHEMA``, drives both parsing and canonical output.  It
is derived from ``model.PARAMETERS`` at import: every policy is an element,
in declaration order (the canonical order), and every parameter of it is a
child element, read and written by the codec of its default value's type.
Integers are XML Schema integers (an optional sign and ASCII digits);
history depth, ownership strength and finite counts must fit DDS's 32-bit
``long``.  Durations are <sec>/<nanosec> integer pairs (nanosec below
10**9) or the token DURATION_INFINITY; counts are nonnegative integers, the
token UNLIMITED, or the conventional -1 alias; enumeration tokens are the
uppercase forms (RELIABLE, KEEP_ALL, ...); user/group/topic data values are
hex strings; partition names are <name> elements inside <names>.

A parameter absent from a policy element takes the endpoint kind's OMG
default (``default_qos``), and the policy's own constructor builds and
checks it; an endpoint's policy element still replaces the topic's as a
whole.

A document is read in one expat pass, whose events drive one walker.  Each
element above the policies (<dds>, <profiles>, an endpoint, <topic>,
<qos>) is a frame that reads its children in document order by the tables
``_DOCUMENT_READS`` and ``_ENDPOINT_READS``: an unknown child is noted and
not read, and a repeated child is a load error, ``duplicate <X> element in
<Y>``.  A policy element or a topic's <name> is read whole: it and the
elements in it are built as ``_Element`` nodes, which its parser reads by
the same rules (``_parse_params``) when it closes.  A child element of a
value element, such as <x/> in ``<depth>5<x/></depth>``, is unknown too;
text beside child elements is ignored without a note.  Notes follow document
order, and so do load errors: the first one met wins, except that malformed
XML or an entity declaration anywhere in the document wins over it.

One ``QosTable`` per ``load_profile_files`` call, passed through
``parse_document`` for every file, maps an endpoint kind and the source of
a quiet <qos> or policy element (its UTF-8 bytes from its start tag up to
its end tag) to the object parsed from it.  Expat is fed in pieces that end
after each plain ``<qos>`` start tag.  If that start event fired in an
endpoint whose kind's table holds the source, the endpoint gets the stored
object and the rest is fed with the handlers off: expat still reads every
byte, so errors, lines and offsets do not change.  In a <qos> read in full,
each plain policy start tag after only text is its next child, sliced and
looked up once, by the scanner that finds it.  An element read in full is
stored as it closes, so repeats within one document are skipped too, unless
it noted something: each copy of a noisy element notes on its own lines.
``parse_profiles`` then resolves once per distinct (kind, endpoint and
topic ``QosProfile``).
``load_profile_files`` reads every file before it compares profile names,
so a load error in any file wins over a duplicate name.
"""

from __future__ import annotations

import enum
import re
from typing import Callable
from xml.parsers import expat

from .model import (
    Count,
    Duration,
    EndpointKind,
    EndpointProfile,
    PARAMETERS,
    QosProfile,
    Record,
    SourceLocation,
    default_qos,
    resolve_defaults,
    shorten_literal,
    NANOSECONDS_MAX,
    NANOSECONDS_PER_SECOND,
)

INFINITY_TOKEN = "DURATION_INFINITY"
UNLIMITED_TOKEN = "UNLIMITED"
# Shared by every infinite duration and unlimited count: values are frozen.
_INFINITE = Duration.infinite()
_UNLIMITED = Count.unlimited()

# DDS's ``long``, the type of history depth, ownership strength and counts.
LONG_MIN = -(2**31)
LONG_MAX = 2**31 - 1
_INTEGER = re.compile(r"[+-]?[0-9]+")

ENDPOINT_TAGS = {kind.value: kind for kind in EndpointKind}


class ProfileLoadError(Exception):
    """Fatal ingestion problem: malformed XML, bad value, duplicate name."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = path if line is None else f"{path}:{line}"
            prefix += ": "
        super().__init__(prefix + message)


class ParseDiagnostic(Record):
    """Non-fatal note emitted while parsing (unknown element, endpoint without profile_name)."""

    path: str
    line: int
    message: str
    level = "info"  # every parse note is informational

    def __str__(self) -> str:
        return f"{self.level.upper()} {self.path}:{self.line}: {self.message}"


class _Element(list):
    """An element read whole (a policy element or a topic's <name>), or one
    inside it: the list of its child elements, with its tag, the line of its
    start tag, ``raw`` (its own text, every run joined) and ``text`` (stripped)."""

    __slots__ = ("tag", "line", "raw", "text")


class RawEndpoint(Record):
    """One endpoint element before topic merge and default resolution."""

    profile_name: str
    endpoint_kind: EndpointKind
    topic_name: str | None
    endpoint_qos: QosProfile
    topic_qos: QosProfile
    line: int


class ProfileDocument(Record):
    """A parsed profile document: raw endpoints plus parse diagnostics."""

    path: str
    endpoints: list[RawEndpoint]
    diagnostics: list[ParseDiagnostic]


class ProfileSet(Record, uncompared=("diagnostics",)):
    """All endpoints of a run, keyed by unique profile name."""

    profiles: dict[str, EndpointProfile]
    diagnostics: tuple[ParseDiagnostic, ...] = ()

    def __iter__(self):
        return iter(self.profiles.values())

    def __len__(self) -> int:
        return len(self.profiles)

    @property
    def topic_index(self) -> dict[str | None, tuple[tuple[str, ...], tuple[str, ...]]]:
        """topic_name -> (writer names, reader names); None holds unbound endpoints."""
        topics: dict[str | None, tuple[list[str], list[str]]] = {}
        for name in sorted(self.profiles):
            endpoint = self.profiles[name]
            writers, readers = topics.setdefault(endpoint.topic_name, ([], []))
            if endpoint.endpoint_kind is EndpointKind.DATA_WRITER:
                writers.append(name)
            else:
                readers.append(name)
        return {t: (tuple(w), tuple(r)) for t, (w, r) in topics.items()}


# -- the policy schema -------------------------------------------------------


def _bad_value(node: _Element, context: str, message: str, path: str) -> ProfileLoadError:
    """Load error naming the field ``context.tag`` of ``node``."""
    return ProfileLoadError(f"{context}.{node.tag}: {message}", path, node.line)


def _note_unknown(tag: str, line: int, holder: str, path: str, diags: list[ParseDiagnostic]) -> None:
    """Note the element ``<tag>`` at ``line``, a child ``<holder>`` does not take."""
    diags.append(ParseDiagnostic(path, line, f"unknown element <{tag}> in <{holder}>; ignored"))


# ``parse(node, context, path, diags)`` reads one element; ``context`` names
# the enclosing element (``history``), so load errors can name the field
# (``history.depth``).
Parser = Callable[[_Element, str, str, list[ParseDiagnostic]], object]


class Codec(Record):
    """How one parameter element is read from and written to XML.

    ``render(tag, value, indent)`` returns the element's canonical lines.
    """

    parse: Parser
    render: Callable[[str, object, str], list[str]]


def _note_children(node: _Element, path: str, diags: list[ParseDiagnostic]) -> None:
    """Note each child element of a value element, which holds only text."""
    for child in node:
        _note_unknown(child.tag, child.line, node.tag, path, diags)


# The parsers of value elements, registered by ``_leaf``.
_LEAVES: set[Parser] = set()


def _leaf(parse: Parser) -> Parser:
    """Register ``parse`` as the parser of a value element: ``_parse_params``
    notes each child element of its node.  ``parse`` itself is returned, so a
    codec that calls another notes nothing twice."""
    _LEAVES.add(parse)
    return parse


def _parse_params(
    node: _Element, parsers: dict[str, Parser], label: str, path: str, diags: list[ParseDiagnostic]
) -> dict[str, object]:
    """Parse each child of ``node``, in document order, by the parser of its tag.

    ``label`` names ``node`` in load errors (``deadline.period``).  An unknown
    child gets an info note; a repeated child is a load error.
    """
    values: dict[str, object] = {}
    for child in node:
        tag = child.tag
        parse = parsers.get(tag)
        if parse is None:
            _note_unknown(child.tag, child.line, node.tag, path, diags)
        elif tag in values:
            raise ProfileLoadError(f"duplicate <{tag}> element in <{node.tag}>", path, child.line)
        else:
            if child and parse in _LEAVES:
                _note_children(child, path, diags)
            values[tag] = parse(child, label, path, diags)
    return values


def _element(tag: str, body: object, indent: str) -> list[str]:
    return [f"{indent}<{tag}>{body}</{tag}>"]


def _parse_int(node: _Element, context: str, path: str) -> int | None:
    """An XML Schema integer: ``int()`` alone would also take ``1_000`` and non-ASCII digits.

    None stands for a value too long for ``int()`` (past 4300 digits), which
    is outside every parameter's range; the caller's range error echoes it.
    """
    text = node.text
    if not _INTEGER.fullmatch(text):
        raise _bad_value(node, context, f"expected an integer, got {shorten_literal(text)}", path)
    try:
        return int(text)
    except ValueError:  # past Python's digit limit, perhaps only by leading zeros
        sign = "-" if text.startswith("-") else ""
        try:
            return int(sign + (text.lstrip("+-").lstrip("0") or "0"))
        except ValueError:
            return None


@_leaf
def _parse_long(node: _Element, context: str, path: str, diags: list[ParseDiagnostic]) -> int:
    value = _parse_int(node, context, path)
    if value is None or not LONG_MIN <= value <= LONG_MAX:
        got = shorten_literal(node.text)
        raise _bad_value(node, context, f"{got} is outside the 32-bit range [{LONG_MIN}, {LONG_MAX}]", path)
    return value


@_leaf
def _parse_bool(node: _Element, context: str, path: str, diags: list[ParseDiagnostic]) -> bool:
    token = node.text.lower()
    if token == "true":
        return True
    if token == "false":
        return False
    raise _bad_value(node, context, f"expected true or false, got {shorten_literal(node.text)}", path)


@_leaf
def _parse_bytes(node: _Element, context: str, path: str, diags: list[ParseDiagnostic]) -> bytes:
    try:
        return bytes.fromhex("".join(node.text.split()))
    except ValueError:
        got = shorten_literal(node.text)
        raise _bad_value(node, context, f"expected a hex string, got {got}", path) from None


@_leaf
def _parse_count(node: _Element, context: str, path: str, diags: list[ParseDiagnostic]) -> Count:
    if node.text.upper() == UNLIMITED_TOKEN:
        return _UNLIMITED
    value = _parse_long(node, context, path, diags)
    if value == -1:  # conventional vendor alias for unlimited
        return _UNLIMITED
    if value < 0:
        raise _bad_value(node, context, f"count must be nonnegative, -1, or {UNLIMITED_TOKEN}", path)
    return Count(value)


def _count_token(value: Count) -> object:
    return UNLIMITED_TOKEN if value.is_unlimited else value.value


_SEC_MAX = NANOSECONDS_MAX // NANOSECONDS_PER_SECOND


@_leaf
def _parse_duration_part(node: _Element, context: str, path: str, diags: list[ParseDiagnostic]) -> int:
    """``<sec>`` or ``<nanosec>``.  A part past its range on its own is
    rejected here, so the error can echo the literal as written."""
    value = _parse_int(node, context, path)
    if node.tag == "sec":
        if value is not None and value <= _SEC_MAX:
            return value
        message = "duration overflows the 64-bit range: sec "
    elif value is not None and value < NANOSECONDS_PER_SECOND:
        return value
    else:
        message = f"nanosec must be below {NANOSECONDS_PER_SECOND}, got "
    raise ProfileLoadError(f"{context}: {message}{shorten_literal(node.text)}", path, node.line)


_SEC_NANOSEC = dict.fromkeys(("sec", "nanosec"), _parse_duration_part)


def _parse_duration(node: _Element, context: str, path: str, diags: list[ParseDiagnostic]) -> Duration:
    if node.text.upper() == INFINITY_TOKEN:
        if node:
            _note_children(node, path, diags)
        return _INFINITE
    parts = _parse_params(node, _SEC_NANOSEC, f"{context}.{node.tag}", path, diags)
    if not parts:
        got = shorten_literal(node.text)
        raise _bad_value(node, context, f"expected <sec>/<nanosec> or {INFINITY_TOKEN}, got {got}", path)
    sec, nanosec = parts.get("sec", 0), parts.get("nanosec", 0)
    if sec * NANOSECONDS_PER_SECOND + nanosec > NANOSECONDS_MAX:
        # Only the largest whole second gets here (a larger <sec> fails on its
        # own), so both parts are present, each once; quote them as written.
        texts = {child.tag: child.text for child in node}
        sec_text, nanosec_text = (shorten_literal(texts[tag]) for tag in _SEC_NANOSEC)
        message = f"duration overflows the 64-bit range: sec {sec_text}, nanosec {nanosec_text}"
        raise _bad_value(node, context, message, path)
    try:
        return Duration.from_sec_nanosec(sec, nanosec)
    except ValueError as exc:
        raise _bad_value(node, context, str(exc), path) from None


def _render_duration(tag: str, value: Duration, indent: str) -> list[str]:
    if value.is_infinite:
        return _element(tag, INFINITY_TOKEN, indent)
    sec, nanosec = divmod(value.nanoseconds, NANOSECONDS_PER_SECOND)
    return [
        f"{indent}<{tag}>",
        f"{indent}  <sec>{sec}</sec>",
        f"{indent}  <nanosec>{nanosec}</nanosec>",
        f"{indent}</{tag}>",
    ]


def _parse_names(node: _Element, context: str, path: str, diags: list[ParseDiagnostic]) -> tuple[str, ...]:
    names: list[str] = []
    for child in node:
        if child.tag == "name":
            if child:
                _note_children(child, path, diags)
            names.append(child.raw)  # unstripped: "" and " " are distinct partition names
        else:
            _note_unknown(child.tag, child.line, node.tag, path, diags)
    return tuple(names)


def _render_names(tag: str, names: tuple[str, ...], indent: str) -> list[str]:
    from xml.sax.saxutils import escape  # see serialize_canonical

    lines = [f"{indent}<{tag}>"]
    lines.extend(f"{indent}  <name>{escape(name)}</name>" for name in names)
    lines.append(f"{indent}</{tag}>")
    return lines


def _enum_codec(enum_cls: type[enum.Enum]) -> Codec:
    # A plain dict: ``enum_cls[name]`` runs the metaclass's ``__getitem__``.
    members = dict(enum_cls.__members__)

    def parse(node: _Element, context: str, path: str, diags: list[ParseDiagnostic]) -> enum.Enum:
        member = members.get(node.text.upper())
        if member is None:
            got = shorten_literal(node.text)
            expected = ", ".join(known.name for known in enum_cls)
            message = f"unknown kind {got} (expected one of {expected})"
            raise _bad_value(node, context, message, path)
        return member

    return Codec(_leaf(parse), lambda tag, kind, indent: _element(tag, kind.name, indent))


_CODECS: dict[type, Codec] = {
    bool: Codec(_parse_bool, lambda tag, value, indent: _element(tag, "true" if value else "false", indent)),
    int: Codec(_parse_long, _element),
    bytes: Codec(_parse_bytes, lambda tag, value, indent: _element(tag, value.hex(), indent)),
    Count: Codec(_parse_count, lambda tag, value, indent: _element(tag, _count_token(value), indent)),
    Duration: Codec(_parse_duration, _render_duration),
    tuple: Codec(_parse_names, _render_names),
}


def _codec_for(value: object) -> Codec:
    if isinstance(value, enum.Enum):
        return _enum_codec(type(value))
    return _CODECS[type(value)]


# Policy tag -> parameter tag -> codec, both in canonical order.  Parsing
# builds a policy from its entry in ``default_qos``, overridden by the
# parameters present.
POLICY_SCHEMA = {
    tag: {name: _codec_for(default) for name, default in params.items()}
    for tag, params in PARAMETERS.items()
}


def _policy_parser(tag: str, default: object) -> Parser:
    """The parser of one policy element; ``default`` (the endpoint kind's
    ``default_qos`` policy) supplies every parameter the element leaves out.
    The policy's own constructor builds it, and its constraint errors are
    load errors at the element."""
    parsers = {name: codec.parse for name, codec in POLICY_SCHEMA[tag].items()}
    policy = type(default)
    defaults = {name: getattr(default, name) for name in parsers}

    def parse(node: _Element, context: str, path: str, diags: list[ParseDiagnostic]) -> object:
        values = _parse_params(node, parsers, tag, path, diags)
        try:
            return policy(**(defaults | values))
        except ValueError as exc:  # a constraint of the policy
            raise ProfileLoadError(str(exc), path, node.line) from None

    return parse


_parse_topic_name = _leaf(lambda node, *_: node.text or None)

# The elements above the policies, as nested tables: each maps a child's tag
# to its own table, if it is read child by child, or to the parser of it whole.
# A <qos> table holds its kind's policy parsers; the kinds' defaults differ.
_ENDPOINT_READS = {}
for _kind in EndpointKind:
    _policies = {tag: _policy_parser(tag, getattr(default_qos(_kind), tag)) for tag in POLICY_SCHEMA}
    _ENDPOINT_READS[_kind.value] = {"topic": {"name": _parse_topic_name, "qos": _policies}, "qos": _policies}
_DOCUMENT_READS = {"dds": {"profiles": _ENDPOINT_READS}, "profiles": _ENDPOINT_READS}

# A run's QoS table: each endpoint kind's quiet <qos> and policy elements,
# parsed, by source.  Entity declarations are rejected, so a source reads the
# same anywhere; it opens with its start tag, so the two kinds never clash.
QosTable = dict[EndpointKind, dict[bytes, object]]
_POLICY_TAGS = {tag.encode(): tag for tag in POLICY_SCHEMA}
_END_TAGS = {tag: f"</{tag}>".encode() for tag in POLICY_SCHEMA}
# Shared by every endpoint without a <qos>: profiles are frozen.
_NO_QOS = QosProfile()


def _parser(path: str) -> expat.XMLParserType:
    """An expat parser that rejects entity declarations and reads UTF-8 whatever
    the document declares, so its byte index counts in the bytes it is fed."""
    parser = expat.ParserCreate("UTF-8")

    def entity_decl(*args: object) -> None:
        raise ProfileLoadError("XML entity declarations are not supported", path, parser.CurrentLineNumber)

    parser.EntityDeclHandler = entity_decl
    return parser


class _Frame:
    """An open element read child by child: ``reads`` is its table, ``values``
    what its closed children read, ``parsed`` its endpoint kind's table, and
    ``extra`` an endpoint's name or a <qos>'s ``(start, source, notes before)``."""

    __slots__ = ("tag", "line", "reads", "values", "parsed", "extra")

    def __init__(self, tag: str | None, line: int, reads: dict, parsed: dict | None, extra: object) -> None:
        self.tag, self.line, self.reads, self.values, self.parsed, self.extra = tag, line, reads, {}, parsed, extra


class _Walker:
    """Reads one document in one expat pass; see the module docstring."""

    __slots__ = (
        "parser", "data", "view", "path", "parsed", "stack", "nodes", "whole",
        "candidate", "source", "skip_to", "missed", "closed", "endpoints", "diags",
    )

    def __init__(self, data: bytes, path: str, table: QosTable) -> None:
        parser = self.parser = _parser(path)
        parser.buffer_text = True  # each run of text in as few calls as the buffer allows
        # Each piece's last token is parsed before the handlers change (expat 2.6+).
        set_deferral = getattr(parser, "SetReparseDeferralEnabled", None)
        if set_deferral is not None:
            set_deferral(False)
        self.data, self.view, self.path = data, memoryview(data), path
        # Two enum hashes per document, not one per endpoint.
        self.parsed = {tag: table.setdefault(kind, {}) for tag, kind in ENDPOINT_TAGS.items()}
        self.stack, self.nodes = [], []  # the open frames, and the open elements read whole
        self.candidate = self.skip_to = self.closed = -1
        self.source, self.missed = None, False
        self.endpoints, self.diags = [], []
        self.stack.append(_Frame(None, 0, _DOCUMENT_READS, None, None))
        self.read_frames()

    def run(self) -> None:
        data, fed = self.data, 0
        find = data.find
        start = find(b"<qos>")
        while start >= 0:
            stop = find(b"</qos>", start)
            self.candidate, self.source = start, data[start:stop] if stop >= 0 else None
            self.parser.Parse(self.view[fed:start + 5], False)
            fed = self.skip(start + 5, self.skip_to)
            if self.missed:  # the <qos> is read in full
                fed = self.read_policies(fed)
            self.skip_to, self.missed = -1, False
            start = find(b"<qos>", fed)
        self.parser.Parse(self.view[fed:], True)

    def skip(self, fed: int, to: int) -> int:
        """Feed up to ``to`` with the element handlers off; return how far it is fed."""
        if to <= fed:
            return fed
        parser = self.parser
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.Parse(self.view[fed:to], False)
        parser.StartElementHandler, parser.EndElementHandler = self.start, self.end
        return to

    def read_policies(self, fed: int) -> int:
        """Read the children of the <qos> just opened while each is a policy
        element with a plain start tag, with only text between them: a hit
        is fed with the handlers off, a miss is read in full and stored under
        its source if it closes at the end tag found and notes nothing."""
        data, qos = self.data, self.stack[-1]
        read = fed  # how far the <qos>'s children are known
        while True:
            start = data.find(b"<", read)
            tag = _POLICY_TAGS.get(data[start + 1 : data.find(b">", start)]) if start >= 0 else None
            if tag is None or tag in qos.values:
                break
            end_tag = _END_TAGS[tag]
            end = data.find(end_tag, start)
            if end < 0:
                break
            source = data[start:end]
            found = qos.parsed.get(source)
            read = end + len(end_tag)
            if found is not None:
                qos.values[tag] = found
                continue
            fed = self.skip(fed, start)
            noted = len(self.diags)
            self.parser.Parse(self.view[start:read], False)
            fed = read
            if self.closed != end or self.stack[-1] is not qos:
                break  # the end tag found was not its own
            if len(self.diags) == noted:
                qos.parsed[source] = qos.values[tag]
        return self.skip(fed, read)

    def read_frames(self) -> None:
        parser = self.parser
        parser.StartElementHandler, parser.EndElementHandler = self.start, self.end
        parser.CharacterDataHandler = None  # text beside child elements is ignored

    def start(self, tag: str, attrs: dict[str, str]) -> None:
        frame = self.stack[-1]
        read, parsed = frame.reads.get(tag), frame.parsed
        if read is None or tag in frame.values or tag in ENDPOINT_TAGS:
            if self.rejects(tag, attrs, frame, read):
                return self.read_whole(tag, None, frame)  # and drop it
            parsed = self.parsed[tag]
        if type(read) is not dict:
            return self.read_whole(tag, read, frame)
        start = self.parser.CurrentByteIndex
        # Only a <qos> is looked up here, in the slice ``run`` made; ``read_policies`` looks up its children.
        source = self.source if start == self.candidate else None
        if source is not None:
            found = parsed.get(source)
            if found is not None:
                frame.values[tag] = found
                self.skip_to = start + len(source) + 6  # past </qos>
                return
            self.missed = True
        extra = (start, source, len(self.diags)) if tag == "qos" else attrs.get("profile_name")
        self.stack.append(_Frame(tag, self.parser.CurrentLineNumber, read, parsed, extra))

    def rejects(self, tag: str, attrs: dict[str, str], frame: _Frame, read: object) -> bool:
        """Whether ``<tag>`` is dropped with a note; raise its load error if it has one."""
        line, holder = self.parser.CurrentLineNumber, frame.tag
        if read is None and holder is None:
            raise ProfileLoadError(f"expected <profiles> (or <dds>) root element, got <{tag}>", self.path, line)
        if read is None:
            _note_unknown(tag, line, holder, self.path, self.diags)
        elif tag in frame.values:
            raise ProfileLoadError(f"duplicate <{tag}> element in <{holder}>", self.path, line)
        elif "profile_name" not in attrs:
            self.diags.append(ParseDiagnostic(self.path, line, f"<{tag}> without profile_name attribute; ignored"))
        elif not attrs["profile_name"]:
            raise ProfileLoadError("profile_name must be non-empty", self.path, line)
        else:
            return False
        return True

    def end(self, tag: str) -> None:
        frame = self.stack.pop()
        values = frame.values
        if tag == "qos":
            values = QosProfile(**values)
            start, source, noted = frame.extra
            # Stored unless it noted something or its source ends short of its end tag.
            if source is not None and len(self.diags) == noted and self.parser.CurrentByteIndex == start + len(source):
                frame.parsed[source] = values
        elif tag in ENDPOINT_TAGS:
            topic = values.get("topic", {})
            qos, topic_qos = values.get("qos", _NO_QOS), topic.get("qos", _NO_QOS)
            endpoint = RawEndpoint(frame.extra, ENDPOINT_TAGS[tag], topic.get("name"), qos, topic_qos, frame.line)
            return self.endpoints.append(endpoint)
        elif tag == "dds" and "profiles" not in values:
            raise ProfileLoadError("<dds> root contains no <profiles> element", self.path, frame.line)
        self.stack[-1].values[tag] = values

    def read_whole(self, tag: str, parse: Parser | None, frame: _Frame) -> None:
        """Build ``<tag>`` as ``_Element`` nodes, for ``parse`` to read as it closes (None drops it)."""
        self.whole = (parse, frame)
        self.whole_start(tag, None)
        parser = self.parser
        parser.StartElementHandler, parser.EndElementHandler = self.whole_start, self.whole_end
        parser.CharacterDataHandler = self.text

    def whole_start(self, tag: str, attrs: dict[str, str] | None) -> None:
        node = _Element()
        node.tag, node.line, node.raw = tag, self.parser.CurrentLineNumber, []  # its runs of text, until it closes
        if self.nodes:
            self.nodes[-1].append(node)
        self.nodes.append(node)

    def text(self, data: str) -> None:
        self.nodes[-1].raw.append(data)

    def whole_end(self, tag: str) -> None:
        nodes = self.nodes
        node = nodes.pop()
        node.raw = raw = "".join(node.raw)
        node.text = raw.strip()
        if nodes:
            return
        self.closed = self.parser.CurrentByteIndex
        parse, frame = self.whole
        if parse is not None:
            if node and parse in _LEAVES:
                _note_children(node, self.path, self.diags)
            frame.values[tag] = parse(node, frame.tag, self.path, self.diags)
        self.read_frames()

    def close(self) -> None:
        # Breaks the cycle through the handlers, so reference counting frees both.
        parser = self.parser
        parser.StartElementHandler = parser.EndElementHandler = parser.CharacterDataHandler = None
        parser.EntityDeclHandler = None


def _raise_if_malformed(data: bytes, path: str) -> None:
    """Raise the load error that wins over the first one in document order,
    the one the walk raised: malformed XML or an entity declaration anywhere
    in ``data``.  Expat reports the same malformed XML however its input is split."""
    parser = _parser(path)
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        message = f"malformed XML at column {exc.offset + 1}: {expat.errors.messages[exc.code]}"
        raise ProfileLoadError(message, path, exc.lineno) from exc
    finally:
        parser.EntityDeclHandler = None


def parse_document(text: str, path: str = "<string>", table: QosTable | None = None) -> ProfileDocument:
    """Parse one XML document into raw endpoints.

    Raises ProfileLoadError for malformed XML or out-of-range values;
    unrecognized structure is skipped with info diagnostics instead.  An
    element whose source is in ``table`` (a new one if None) is not read
    again: it gets the object parsed before.
    """
    data = text.encode()
    walker = _Walker(data, path, {} if table is None else table)
    try:
        walker.run()
    except (expat.ExpatError, ProfileLoadError):
        _raise_if_malformed(data, path)
        raise
    finally:
        walker.close()
    return ProfileDocument(path, walker.endpoints, walker.diags)


def parse_profiles(documents: list[ProfileDocument]) -> ProfileSet:
    """Merge parsed documents into one ProfileSet with resolved defaults.

    Topic-level QoS fills endpoint gaps (endpoint wins), then OMG defaults
    fill the rest.  Duplicate profile names across documents are an error.
    Equal resolved profiles are interned, so endpoints sharing a QoS bundle
    share one ``QosProfile`` object.  Each distinct (kind, endpoint QoS
    object, topic QoS object) is resolved and interned once: a ``<qos>``
    repeated in the input is one object (see ``parse_document``).
    """
    profiles: dict[str, EndpointProfile] = {}
    interned: dict[QosProfile, QosProfile] = {}
    # By identity: the documents keep every key's objects alive, and hashing
    # a profile costs what resolving it does.
    resolved: dict[tuple[int, int, int], QosProfile] = {}
    diagnostics: list[ParseDiagnostic] = []
    for document in documents:
        diagnostics.extend(document.diagnostics)
        for raw in document.endpoints:
            if raw.profile_name in profiles:
                raise ProfileLoadError(
                    f"duplicate profile name {raw.profile_name!r} "
                    f"(first defined at {profiles[raw.profile_name].source_location})",
                    path=document.path,
                    line=raw.line,
                )
            kind, endpoint_qos, topic_qos = raw.endpoint_kind, raw.endpoint_qos, raw.topic_qos
            key = (id(kind), id(endpoint_qos), id(topic_qos))
            qos = resolved.get(key)
            if qos is None:
                qos = resolve_defaults(endpoint_qos.merged_under(topic_qos), kind)
                qos = resolved[key] = interned.setdefault(qos, qos)
            profiles[raw.profile_name] = EndpointProfile(
                profile_name=raw.profile_name,
                endpoint_kind=kind,
                qos=qos,
                topic_name=raw.topic_name,
                source_location=SourceLocation(document.path, raw.line),
            )
    return ProfileSet(profiles=profiles, diagnostics=tuple(diagnostics))


def load_profile_files(paths: list[str]) -> ProfileSet:
    """Read and parse UTF-8 XML files into one ProfileSet.

    The files share one QoS table, made for this call: a ``<qos>`` or
    policy element repeated in them is read once per endpoint kind.
    """
    table: QosTable = {}
    documents = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ProfileLoadError(f"cannot read file: {exc.strerror or exc}", path=path) from exc
        except UnicodeDecodeError as exc:
            raise ProfileLoadError(f"cannot read file: not valid UTF-8 ({exc.reason})", path=path) from None
        documents.append(parse_document(text, path, table))
    return parse_profiles(documents)


# -- canonical serialization ------------------------------------------------


def _qos_xml(qos: QosProfile, indent: str) -> list[str]:
    pad = indent + "  "
    lines = [f"{indent}<qos>"]
    for tag, params in POLICY_SCHEMA.items():
        policy = getattr(qos, tag)
        lines.append(f"{pad}<{tag}>")
        for name, codec in params.items():
            lines.extend(codec.render(name, getattr(policy, name), pad + "  "))
        lines.append(f"{pad}</{tag}>")
    lines.append(f"{indent}</qos>")
    return lines


def serialize_canonical(profile_set: ProfileSet) -> str:
    """Deterministic canonical form: profiles sorted by name, policies in
    catalog order, every default materialized.  parse(serialize(s)) == s.
    """
    # Imported here, not at the top: xml.sax.saxutils pulls in urllib.request,
    # http, email and ssl, which ``check`` would otherwise load at start-up.
    from xml.sax.saxutils import escape, quoteattr

    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<profiles>"]
    for name in sorted(profile_set.profiles):
        endpoint = profile_set.profiles[name]
        tag = endpoint.endpoint_kind.value
        lines.append(f"  <{tag} profile_name={quoteattr(name)}>")
        if endpoint.topic_name is not None:
            lines.append("    <topic>")
            lines.append(f"      <name>{escape(endpoint.topic_name)}</name>")
            lines.append("    </topic>")
        lines.extend(_qos_xml(endpoint.qos, "    "))
        lines.append(f"  </{tag}>")
    lines.append("</profiles>")
    return "\n".join(lines) + "\n"
