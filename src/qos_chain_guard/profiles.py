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
default (``default_qos``); an endpoint's policy element still replaces the
topic's as a whole.

A document is read in two passes.  ``_parse_xml`` first builds a slim tree
with expat: each element is a ``_Node``, the list of its child elements with
slots for its tag, opening-tag line, attributes and text.  Text arrives
buffered, and each element's runs of text are joined once, when it closes.
It also records the source of each <qos> element: its UTF-8 bytes, from
its opening tag up to its closing tag.  So malformed XML anywhere in a
document is reported before any bad value.  One walker, ``_parse_params``,
then reads the children of every element but <profiles> and <names> (whose
children repeat by design) in document order: an unknown child is skipped
with an info note and never aborts a parse, and a repeated child is a load
error, ``duplicate <X> element in <Y>``.  A child element of a value
element, such as <x/> in ``<depth>5<x/></depth>``, is unknown too, and the
walker notes it (``_leaf`` registers the parsers of value elements); text
inside an element that holds elements is ignored without a note.  Parse
notes follow document order.

The walker reads each distinct <qos> once per run.  ``load_profile_files``
makes one ``QosTable`` per call and passes it through ``parse_document`` for
every file: it maps an endpoint kind and a <qos> source to the
``QosProfile`` parsed from it.  A <qos> whose source is in the table is not
walked; its endpoint gets the stored object.  A <qos> is stored once walked,
unless its walk noted something: a noisy <qos> is walked at each occurrence,
so each copy notes on its own lines.  A <qos> that fails to parse raises, so
it is never stored either.  The same source parses to the same profile
anywhere, since the tree of a <qos> depends only on its bytes (entity
declarations are rejected) and the profile only on that tree and the kind's
defaults.  ``parse_profiles`` then resolves and interns once per distinct
(kind, endpoint ``QosProfile``, topic ``QosProfile``) object triple.

A repeated <qos> is not even built when three things hold: its endpoint's
kind is the kind the table holds its source for, its bytes are that
source, and it opens with a plain ``<qos>`` start tag (no space, no
attribute).  ``_parse_xml`` then makes it a node without children: expat
reads its content and end tag with the element and text handlers off.
Only sources walked in earlier documents are in the table, so a repeat
within one document is still built.
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


class _Node(list):
    """One XML element.  Like ElementTree's ``Element``, a node is the list
    of its child elements, in document order; a value element is an empty
    list.  Its slots hold the tag, the line of its opening tag and the
    attributes; ``raw`` is the text directly inside it, every run joined in
    document order, and ``text`` is ``raw`` stripped.  A node has no
    ``__dict__`` and no list besides itself."""

    __slots__ = ("tag", "line", "attrib", "raw", "text")


def _repeats(data: bytes, table: QosTable) -> list[tuple[int, int, bytes]]:
    """(start, stop, source) of each ``<qos>`` in ``data`` whose bytes, up to
    the next ``</qos>``, are a source some kind's table holds.  Only a plain
    ``<qos>`` start tag is looked for; a candidate may still lie in a comment
    or CDATA, or under the other kind, which ``_parse_xml`` checks."""
    found: list[tuple[int, int, bytes]] = []
    tables = [parsed for parsed in table.values() if parsed]
    if not tables:
        return found
    find = data.find
    start = find(b"<qos>")
    while start >= 0:
        stop = find(b"</qos>", start)
        if stop < 0:
            break
        source = data[start:stop]
        for parsed in tables:
            if source in parsed:
                found.append((start, stop, source))
                start = stop
                break
        else:
            start += 5
        start = find(b"<qos>", start)
    return found


def _parse_xml(
    text: str, path: str, spans: dict[int, bytes] | None = None, table: QosTable | None = None
) -> _Node:
    """Parse to a ``_Node`` tree, tracking opening-tag line numbers.

    Each ``<qos>`` element's source is recorded in ``spans`` under the
    ``id`` of its node: the UTF-8 bytes from its opening tag up to its
    closing tag.  Expat is made to read UTF-8 whatever encoding the
    document declares, and is fed the text's UTF-8 bytes, so its byte
    index counts in them.

    A ``<qos>`` whose source ``table`` already holds for the kind of its
    endpoint is built without children: expat is fed up to the end of its
    plain ``<qos>`` start tag, and if the start event fired there, its
    content and end tag are fed with the element and text handlers off,
    and the node is closed here.  Each piece ends with a whole token, so no
    event is left to fire later.  Expat still reads every byte, so errors,
    lines and byte offsets do not change, and ``parse_qos`` finds the
    source in the table.
    """
    parser = expat.ParserCreate("UTF-8")
    # Each run of text then arrives in as few calls as expat's buffer allows.
    parser.buffer_text = True
    # A token that ends a piece is then parsed before the next piece is fed,
    # so its events never fire with the handlers off (expat 2.6 and later).
    set_deferral = getattr(parser, "SetReparseDeferralEnabled", None)
    if set_deferral is not None:
        set_deferral(False)
    top = _Node()  # holds the root element
    top.tag = None
    stack = [top]
    # Text runs go to one list; an element's runs are those appended while it
    # was the innermost open element, after its children's were taken out.
    parts: list[str] = []
    marks: list[int] = []
    # The start of each open <qos>, innermost last.
    qos_starts: list[int] = []
    if spans is None:
        spans = {}
    data = text.encode()

    def start(tag: str, attrs: dict[str, str]) -> None:
        node = _Node()
        node.tag = tag
        node.line = parser.CurrentLineNumber
        node.attrib = attrs
        stack[-1].append(node)
        stack.append(node)
        marks.append(len(parts))
        if tag == "qos":
            qos_starts.append(parser.CurrentByteIndex)

    def end(tag: str) -> None:
        node = stack.pop()
        runs = len(parts) - marks.pop()
        if runs == 1:
            raw = parts.pop()
        elif runs:
            raw = "".join(parts[-runs:])
            del parts[-runs:]
        else:
            raw = ""
        node.raw = raw
        node.text = raw.strip()
        if tag == "qos":
            spans[id(node)] = data[qos_starts.pop() : parser.CurrentByteIndex]

    def entity_decl(*args: object) -> None:
        raise ProfileLoadError(
            "XML entity declarations are not supported",
            path=path,
            line=parser.CurrentLineNumber,
        )

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = parts.append
    parser.EntityDeclHandler = entity_decl
    feed = parser.Parse
    view = memoryview(data)
    fed = 0
    try:
        for qos_start, stop, source in _repeats(data, table) if table else ():
            opened = qos_start + 5  # the end of the start tag
            feed(view[fed:opened], False)
            fed = opened
            if not qos_starts or qos_starts[-1] != qos_start:
                continue  # in a comment or CDATA, or an event not yet fired
            for node in reversed(stack):
                kind = ENDPOINT_TAGS.get(node.tag)
                if kind is not None:
                    break
            if source not in table.get(kind, ()):
                continue  # the source of the other kind, or outside an endpoint
            # Its content and end tag, read with the handlers off; then the
            # node is closed as ``end`` would close it, keeping ``source``,
            # whose hash the table lookup has cached.
            parser.StartElementHandler = parser.EndElementHandler = parser.CharacterDataHandler = None
            fed = stop + 6
            feed(view[opened:fed], False)
            parser.StartElementHandler = start
            parser.EndElementHandler = end
            parser.CharacterDataHandler = parts.append
            node = stack.pop()
            marks.pop()
            qos_starts.pop()
            node.raw = node.text = ""
            spans[id(node)] = source
        feed(view[fed:], True)
    except expat.ExpatError as exc:
        raise ProfileLoadError(
            f"malformed XML at column {exc.offset + 1}: {expat.errors.messages[exc.code]}",
            path=path,
            line=exc.lineno,
        ) from exc
    finally:
        # The handlers close over ``parser``; dropping them breaks the
        # cycle, so the tree is freed by reference counting, not by the GC.
        parser.StartElementHandler = None
        parser.EndElementHandler = None
        parser.CharacterDataHandler = None
        parser.EntityDeclHandler = None
    if not top:
        raise ProfileLoadError("document has no root element", path=path)
    return top[0]


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


def _bad_value(node: _Node, context: str, message: str, path: str) -> ProfileLoadError:
    """Load error naming the field ``context.tag`` of ``node``."""
    return ProfileLoadError(f"{context}.{node.tag}: {message}", path, node.line)


def _note_unknown(node: _Node, context: str, path: str, diags: list[ParseDiagnostic]) -> None:
    diags.append(
        ParseDiagnostic(path, node.line, f"unknown element <{node.tag}> in {context}; ignored")
    )


# ``parse(node, context, path, diags)`` reads one element; ``context`` names
# the enclosing element (``history``), so load errors can name the field
# (``history.depth``).
Parser = Callable[[_Node, str, str, list[ParseDiagnostic]], object]


class Codec(Record):
    """How one parameter element is read from and written to XML.

    ``render(tag, value, indent)`` returns the element's canonical lines.
    """

    parse: Parser
    render: Callable[[str, object, str], list[str]]


def _note_children(node: _Node, path: str, diags: list[ParseDiagnostic]) -> None:
    """Note each child element of a value element, which holds only text."""
    for child in node:
        _note_unknown(child, f"<{node.tag}>", path, diags)


# The parsers of value elements, registered by ``_leaf``.
_LEAVES: set[Parser] = set()


def _leaf(parse: Parser) -> Parser:
    """Register ``parse`` as the parser of a value element: ``_parse_params``
    notes each child element of its node.  ``parse`` itself is returned, so a
    codec that calls another notes nothing twice."""
    _LEAVES.add(parse)
    return parse


def _parse_params(
    node: _Node, parsers: dict[str, Parser], label: str, path: str, diags: list[ParseDiagnostic]
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
            _note_unknown(child, f"<{node.tag}>", path, diags)
        elif tag in values:
            raise ProfileLoadError(f"duplicate <{tag}> element in <{node.tag}>", path, child.line)
        else:
            if child and parse in _LEAVES:
                _note_children(child, path, diags)
            values[tag] = parse(child, label, path, diags)
    return values


def _element(tag: str, body: object, indent: str) -> list[str]:
    return [f"{indent}<{tag}>{body}</{tag}>"]


def _parse_int(node: _Node, context: str, path: str) -> int | None:
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
def _parse_long(node: _Node, context: str, path: str, diags: list[ParseDiagnostic]) -> int:
    value = _parse_int(node, context, path)
    if value is None or not LONG_MIN <= value <= LONG_MAX:
        got = shorten_literal(node.text)
        raise _bad_value(node, context, f"{got} is outside the 32-bit range [{LONG_MIN}, {LONG_MAX}]", path)
    return value


@_leaf
def _parse_bool(node: _Node, context: str, path: str, diags: list[ParseDiagnostic]) -> bool:
    token = node.text.lower()
    if token == "true":
        return True
    if token == "false":
        return False
    raise _bad_value(node, context, f"expected true or false, got {shorten_literal(node.text)}", path)


@_leaf
def _parse_bytes(node: _Node, context: str, path: str, diags: list[ParseDiagnostic]) -> bytes:
    try:
        return bytes.fromhex("".join(node.text.split()))
    except ValueError:
        got = shorten_literal(node.text)
        raise _bad_value(node, context, f"expected a hex string, got {got}", path) from None


@_leaf
def _parse_count(node: _Node, context: str, path: str, diags: list[ParseDiagnostic]) -> Count:
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
def _parse_duration_part(node: _Node, context: str, path: str, diags: list[ParseDiagnostic]) -> int:
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


def _parse_duration(node: _Node, context: str, path: str, diags: list[ParseDiagnostic]) -> Duration:
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


def _parse_names(node: _Node, context: str, path: str, diags: list[ParseDiagnostic]) -> tuple[str, ...]:
    names: list[str] = []
    for child in node:
        if child.tag == "name":
            if child:
                _note_children(child, path, diags)
            names.append(child.raw)  # unstripped: "" and " " are distinct partition names
        else:
            _note_unknown(child, f"<{node.tag}>", path, diags)
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

    def parse(node: _Node, context: str, path: str, diags: list[ParseDiagnostic]) -> enum.Enum:
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

    The policy is built without a keyword call of its ``__init__``: each
    field is set through its slot, in canonical order, and the policy's
    ``_check``, if any, validates it as ``__init__`` would.
    """
    parsers = {name: codec.parse for name, codec in POLICY_SCHEMA[tag].items()}
    policy = type(default)
    new = object.__new__
    fields = tuple((name, getattr(default, name), getattr(policy, name).__set__) for name in parsers)
    check = getattr(policy, "_check", None)

    def parse(node: _Node, context: str, path: str, diags: list[ParseDiagnostic]) -> object:
        values = _parse_params(node, parsers, tag, path, diags)
        built = new(policy)
        given = values.get
        for name, value, set_field in fields:
            set_field(built, given(name, value))
        if check is not None:
            try:
                check(built)
            except ValueError as exc:  # a constraint of the policy
                raise ProfileLoadError(str(exc), path, node.line) from None
        return built

    return parse


_parse_topic_name = _leaf(lambda node, *_: node.text or None)

# The policy parsers of each endpoint kind, built once at import, since the
# kinds' defaults differ and tables built per call cost a measurable share
# of parsing.
_POLICY_PARSERS = {
    kind: {tag: _policy_parser(tag, getattr(default_qos(kind), tag)) for tag in POLICY_SCHEMA}
    for kind in EndpointKind
}
# A parse's QoS table: each endpoint kind's parsed <qos> elements, by source.
QosTable = dict[EndpointKind, dict[bytes, QosProfile]]


def _endpoint_parsers(
    kind: EndpointKind, spans: dict[int, bytes], table: QosTable
) -> dict[str, Parser]:
    """The parsers of a ``kind`` endpoint's children in one document.

    A ``<qos>`` is looked up in ``table`` by its source (``spans``), and
    walked only when it is not there.  It is stored only if its walk noted
    nothing, so that each copy of a noisy ``<qos>`` notes on its own lines.
    """
    policies = _POLICY_PARSERS[kind]
    parsed = table.setdefault(kind, {})

    def parse_qos(node: _Node, context: str, path: str, diags: list[ParseDiagnostic]) -> QosProfile:
        source = spans[id(node)]
        qos = parsed.get(source)
        if qos is None:
            noted = len(diags)
            qos = QosProfile(**_parse_params(node, policies, "qos", path, diags))
            if len(diags) == noted:
                parsed[source] = qos
        return qos

    topic: dict[str, Parser] = {"name": _parse_topic_name, "qos": parse_qos}

    def parse_topic(node: _Node, context: str, path: str, diags: list[ParseDiagnostic]) -> dict:
        return _parse_params(node, topic, "topic", path, diags)

    return {"topic": parse_topic, "qos": parse_qos}


_DDS_PARSERS: dict[str, Parser] = {"profiles": lambda node, *_: node}
# Shared by every endpoint without a <qos>: profiles are frozen.
_NO_QOS = QosProfile()


def _parse_endpoint(
    node: _Node, kind: EndpointKind, parsers: dict[str, Parser], path: str, diags: list[ParseDiagnostic]
) -> RawEndpoint:
    parts = _parse_params(node, parsers, node.tag, path, diags)
    topic = parts.get("topic", {})
    return RawEndpoint(
        profile_name=node.attrib["profile_name"],
        endpoint_kind=kind,
        topic_name=topic.get("name"),
        endpoint_qos=parts.get("qos", _NO_QOS),
        topic_qos=topic.get("qos", _NO_QOS),
        line=node.line,
    )


def parse_document(text: str, path: str = "<string>", table: QosTable | None = None) -> ProfileDocument:
    """Parse one XML document into raw endpoints.

    Raises ProfileLoadError for malformed XML or out-of-range values;
    unrecognized structure is skipped with info diagnostics instead.  A
    ``<qos>`` whose source is in ``table`` (a new one if None) is not walked
    again: its endpoint shares the ``QosProfile`` parsed before.
    """
    if table is None:
        table = {}
    spans: dict[int, bytes] = {}
    root = _parse_xml(text, path, spans, table)
    diags: list[ParseDiagnostic] = []
    if root.tag == "dds":
        profiles_node = _parse_params(root, _DDS_PARSERS, "dds", path, diags).get("profiles")
        if profiles_node is None:
            raise ProfileLoadError("<dds> root contains no <profiles> element", path=path, line=root.line)
    elif root.tag == "profiles":
        profiles_node = root
    else:
        raise ProfileLoadError(
            f"expected <profiles> (or <dds>) root element, got <{root.tag}>", path=path, line=root.line
        )

    parsers = {kind: _endpoint_parsers(kind, spans, table) for kind in EndpointKind}
    endpoints: list[RawEndpoint] = []
    for child in profiles_node:
        kind = ENDPOINT_TAGS.get(child.tag)
        if kind is None:
            _note_unknown(child, "<profiles>", path, diags)
            continue
        if "profile_name" not in child.attrib:
            diags.append(
                ParseDiagnostic(
                    path, child.line, f"<{child.tag}> without profile_name attribute; ignored"
                )
            )
            continue
        if not child.attrib["profile_name"]:
            raise ProfileLoadError("profile_name must be non-empty", path=path, line=child.line)
        endpoints.append(_parse_endpoint(child, kind, parsers[kind], path, diags))
    return ProfileDocument(path=path, endpoints=endpoints, diagnostics=diags)


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

    The files share one QoS table, made for this call: a ``<qos>`` repeated
    across them is walked once.
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
