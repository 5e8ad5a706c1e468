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

Durations are <sec>/<nanosec> integer pairs or the token DURATION_INFINITY;
counts are nonnegative integers, the token UNLIMITED, or the conventional -1
alias; enumeration tokens are the uppercase forms (RELIABLE, KEEP_ALL, ...);
user/group/topic data values are hex strings.  Unknown elements are skipped
with an info diagnostic; they never abort a parse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from xml.parsers import expat
from xml.sax.saxutils import escape, quoteattr

from .model import (
    Count,
    DEFAULT_MAX_BLOCKING_TIME,
    Deadline,
    DestinationOrder,
    DestinationOrderKind,
    Durability,
    DurabilityKind,
    Duration,
    EndpointKind,
    EndpointProfile,
    EntityFactory,
    GroupData,
    History,
    HistoryKind,
    Lifespan,
    Liveliness,
    LivelinessKind,
    Ownership,
    OwnershipKind,
    OwnershipStrength,
    Partition,
    QosProfile,
    ReaderDataLifecycle,
    Reliability,
    ReliabilityKind,
    ResourceLimits,
    SourceLocation,
    TopicData,
    UserData,
    WriterDataLifecycle,
    resolve_defaults,
    NANOSECONDS_PER_SECOND,
)

INFINITY_TOKEN = "DURATION_INFINITY"
UNLIMITED_TOKEN = "UNLIMITED"

ENDPOINT_TAGS = {
    "data_writer": EndpointKind.DATA_WRITER,
    "data_reader": EndpointKind.DATA_READER,
}

# Policy element tags in canonical (serialization) order; ownership_strength
# rides along with ownership as one policy group.
POLICY_TAGS = (
    "entity_factory",
    "partition",
    "user_data",
    "group_data",
    "topic_data",
    "reliability",
    "durability",
    "deadline",
    "liveliness",
    "history",
    "resource_limits",
    "lifespan",
    "ownership",
    "ownership_strength",
    "destination_order",
    "writer_data_lifecycle",
    "reader_data_lifecycle",
)


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


@dataclass(frozen=True)
class ParseDiagnostic:
    """Non-fatal note emitted while parsing (unknown element, ignored text)."""

    path: str
    line: int
    message: str
    level: str = "info"

    def __str__(self) -> str:
        return f"{self.level.upper()} {self.path}:{self.line}: {self.message}"


@dataclass
class _Node:
    """Minimal XML element with the line of its opening tag."""

    tag: str
    line: int
    attrib: dict[str, str]
    children: list["_Node"] = field(default_factory=list)
    text_parts: list[str] = field(default_factory=list)

    @property
    def text(self) -> str:
        return "".join(self.text_parts).strip()

    def child(self, tag: str) -> "_Node | None":
        for c in self.children:
            if c.tag == tag:
                return c
        return None


def _parse_xml(text: str, path: str) -> _Node:
    """Parse to a ``_Node`` tree, tracking opening-tag line numbers."""
    parser = expat.ParserCreate()
    root: list[_Node] = []
    stack: list[_Node] = []

    def start(tag: str, attrs: dict[str, str]) -> None:
        node = _Node(tag=tag, line=parser.CurrentLineNumber, attrib=attrs)
        if stack:
            stack[-1].children.append(node)
        else:
            root.append(node)
        stack.append(node)

    def end(tag: str) -> None:
        stack.pop()

    def chardata(data: str) -> None:
        if stack:
            stack[-1].text_parts.append(data)

    def entity_decl(*args: object) -> None:
        raise ProfileLoadError(
            "XML entity declarations are not supported",
            path=path,
            line=parser.CurrentLineNumber,
        )

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chardata
    parser.EntityDeclHandler = entity_decl
    try:
        parser.Parse(text, True)
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
    if not root:
        raise ProfileLoadError("document has no root element", path=path)
    return root[0]


@dataclass
class RawEndpoint:
    """One endpoint element before topic merge and default resolution."""

    profile_name: str
    endpoint_kind: EndpointKind
    topic_name: str | None
    endpoint_qos: QosProfile
    topic_qos: QosProfile
    line: int


@dataclass
class ProfileDocument:
    """A parsed profile document: raw endpoints plus parse diagnostics."""

    path: str
    text: str
    endpoints: list[RawEndpoint]
    diagnostics: list[ParseDiagnostic]


@dataclass(frozen=True)
class ProfileSet:
    """All endpoints of a run, keyed by unique profile name."""

    profiles: dict[str, EndpointProfile]
    diagnostics: tuple[ParseDiagnostic, ...] = field(default=(), compare=False)

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


# -- value parsers ----------------------------------------------------------


def _fail(message: str, path: str, line: int) -> ProfileLoadError:
    return ProfileLoadError(message, path=path, line=line)


def _parse_int(node: _Node, label: str, path: str) -> int:
    try:
        return int(node.text)
    except ValueError:
        raise _fail(f"{label}: expected an integer, got {node.text!r}", path, node.line) from None


def _parse_bool(node: _Node, label: str, path: str) -> bool:
    token = node.text.lower()
    if token == "true":
        return True
    if token == "false":
        return False
    raise _fail(f"{label}: expected true or false, got {node.text!r}", path, node.line)


def _parse_duration(node: _Node, label: str, path: str) -> Duration:
    if node.text.upper() == INFINITY_TOKEN:
        return Duration.infinite()
    sec_node = node.child("sec")
    nanosec_node = node.child("nanosec")
    if sec_node is None and nanosec_node is None:
        raise _fail(
            f"{label}: expected <sec>/<nanosec> or {INFINITY_TOKEN}, got {node.text!r}",
            path,
            node.line,
        )
    sec = _parse_int(sec_node, f"{label}.sec", path) if sec_node is not None else 0
    nanosec = _parse_int(nanosec_node, f"{label}.nanosec", path) if nanosec_node is not None else 0
    if sec < 0 or nanosec < 0:
        raise _fail(f"{label}: duration components must be nonnegative", path, node.line)
    try:
        return Duration.from_sec_nanosec(sec, nanosec)
    except ValueError as exc:
        raise _fail(f"{label}: {exc}", path, node.line) from None


def _parse_count(node: _Node, label: str, path: str) -> Count:
    token = node.text.upper()
    if token == UNLIMITED_TOKEN:
        return Count.unlimited()
    value = _parse_int(node, label, path)
    if value == -1:  # conventional vendor alias for unlimited
        return Count.unlimited()
    if value < 0:
        raise _fail(f"{label}: count must be nonnegative, -1, or {UNLIMITED_TOKEN}", path, node.line)
    return Count.finite(value)


def _parse_enum(node: _Node, enum_cls, label: str, path: str):
    token = node.text.upper()
    try:
        return enum_cls[token]
    except KeyError:
        expected = ", ".join(member.name for member in enum_cls)
        raise _fail(f"{label}: unknown kind {node.text!r} (expected one of {expected})", path, node.line) from None


def _parse_bytes(node: _Node, label: str, path: str) -> bytes:
    token = "".join(node.text.split())
    try:
        return bytes.fromhex(token)
    except ValueError:
        raise _fail(f"{label}: expected a hex string, got {node.text!r}", path, node.line) from None


# -- policy parsers ---------------------------------------------------------


def _note_unknown(node: _Node, context: str, path: str, diags: list[ParseDiagnostic]) -> None:
    diags.append(
        ParseDiagnostic(path, node.line, f"unknown element <{node.tag}> in {context}; ignored")
    )


def _expect_params(
    node: _Node, known: dict[str, _Node | None], path: str, diags: list[ParseDiagnostic]
) -> None:
    for child in node.children:
        if child.tag in known:
            known[child.tag] = child
        else:
            _note_unknown(child, f"<{node.tag}>", path, diags)


def _parse_policy(node: _Node, path: str, diags: list[ParseDiagnostic]):
    tag = node.tag
    if tag == "entity_factory":
        params: dict[str, _Node | None] = {"autoenable_created_entities": None}
        _expect_params(node, params, path, diags)
        autoenable = params["autoenable_created_entities"]
        if autoenable is None:
            raise _fail("entity_factory: missing <autoenable_created_entities>", path, node.line)
        return EntityFactory(_parse_bool(autoenable, "entity_factory.autoenable_created_entities", path))
    if tag == "partition":
        names_node = node.child("names")
        names: list[str] = []
        if names_node is not None:
            for child in names_node.children:
                if child.tag == "name":
                    names.append("".join(child.text_parts))
                else:
                    _note_unknown(child, "<names>", path, diags)
        for child in node.children:
            if child.tag != "names":
                _note_unknown(child, "<partition>", path, diags)
        return Partition(names=tuple(names))
    if tag in ("user_data", "group_data", "topic_data"):
        value_node = node.child("value")
        value = _parse_bytes(value_node, f"{tag}.value", path) if value_node is not None else b""
        cls = {"user_data": UserData, "group_data": GroupData, "topic_data": TopicData}[tag]
        return cls(value=value)
    if tag == "reliability":
        params = {"kind": None, "max_blocking_time": None}
        _expect_params(node, params, path, diags)
        kind = (
            _parse_enum(params["kind"], ReliabilityKind, "reliability.kind", path)
            if params["kind"] is not None
            else None
        )
        blocking = (
            _parse_duration(params["max_blocking_time"], "reliability.max_blocking_time", path)
            if params["max_blocking_time"] is not None
            else None
        )
        if kind is None:
            raise _fail("reliability: missing <kind>", path, node.line)
        if blocking is None:
            blocking = DEFAULT_MAX_BLOCKING_TIME
        return Reliability(kind=kind, max_blocking_time=blocking)
    if tag == "durability":
        params = {"kind": None}
        _expect_params(node, params, path, diags)
        if params["kind"] is None:
            raise _fail("durability: missing <kind>", path, node.line)
        return Durability(kind=_parse_enum(params["kind"], DurabilityKind, "durability.kind", path))
    if tag == "deadline":
        params = {"period": None}
        _expect_params(node, params, path, diags)
        if params["period"] is None:
            raise _fail("deadline: missing <period>", path, node.line)
        return Deadline(period=_parse_duration(params["period"], "deadline.period", path))
    if tag == "liveliness":
        params = {"kind": None, "lease_duration": None}
        _expect_params(node, params, path, diags)
        kind = (
            _parse_enum(params["kind"], LivelinessKind, "liveliness.kind", path)
            if params["kind"] is not None
            else LivelinessKind.AUTOMATIC
        )
        lease = (
            _parse_duration(params["lease_duration"], "liveliness.lease_duration", path)
            if params["lease_duration"] is not None
            else Duration.infinite()
        )
        return Liveliness(kind=kind, lease_duration=lease)
    if tag == "history":
        params = {"kind": None, "depth": None}
        _expect_params(node, params, path, diags)
        kind = (
            _parse_enum(params["kind"], HistoryKind, "history.kind", path)
            if params["kind"] is not None
            else HistoryKind.KEEP_LAST
        )
        depth = _parse_int(params["depth"], "history.depth", path) if params["depth"] is not None else 1
        if depth < 1:
            raise _fail(f"history.depth: must be >= 1, got {depth}", path, node.line)
        return History(kind=kind, depth=depth)
    if tag == "resource_limits":
        params = {"max_samples": None, "max_instances": None, "max_samples_per_instance": None}
        _expect_params(node, params, path, diags)
        counts = {
            name: _parse_count(param, f"resource_limits.{name}", path)
            if param is not None
            else Count.unlimited()
            for name, param in params.items()
        }
        return ResourceLimits(**counts)
    if tag == "lifespan":
        params = {"duration": None}
        _expect_params(node, params, path, diags)
        if params["duration"] is None:
            raise _fail("lifespan: missing <duration>", path, node.line)
        return Lifespan(duration=_parse_duration(params["duration"], "lifespan.duration", path))
    if tag == "ownership":
        params = {"kind": None}
        _expect_params(node, params, path, diags)
        if params["kind"] is None:
            raise _fail("ownership: missing <kind>", path, node.line)
        return Ownership(kind=_parse_enum(params["kind"], OwnershipKind, "ownership.kind", path))
    if tag == "ownership_strength":
        params = {"value": None}
        _expect_params(node, params, path, diags)
        if params["value"] is None:
            raise _fail("ownership_strength: missing <value>", path, node.line)
        return OwnershipStrength(value=_parse_int(params["value"], "ownership_strength.value", path))
    if tag == "destination_order":
        params = {"kind": None}
        _expect_params(node, params, path, diags)
        if params["kind"] is None:
            raise _fail("destination_order: missing <kind>", path, node.line)
        return DestinationOrder(
            kind=_parse_enum(params["kind"], DestinationOrderKind, "destination_order.kind", path)
        )
    if tag == "writer_data_lifecycle":
        params = {"autodispose_unregistered_instances": None}
        _expect_params(node, params, path, diags)
        if params["autodispose_unregistered_instances"] is None:
            raise _fail(
                "writer_data_lifecycle: missing <autodispose_unregistered_instances>", path, node.line
            )
        return WriterDataLifecycle(
            autodispose_unregistered_instances=_parse_bool(
                params["autodispose_unregistered_instances"],
                "writer_data_lifecycle.autodispose_unregistered_instances",
                path,
            )
        )
    if tag == "reader_data_lifecycle":
        params = {"autopurge_disposed_samples_delay": None, "autopurge_no_writer_samples_delay": None}
        _expect_params(node, params, path, diags)
        delays = {
            name: _parse_duration(param, f"reader_data_lifecycle.{name}", path)
            if param is not None
            else Duration.infinite()
            for name, param in params.items()
        }
        return ReaderDataLifecycle(**delays)
    raise AssertionError(f"no parser for policy tag {tag!r}")


def _parse_qos(node: _Node, path: str, diags: list[ParseDiagnostic]) -> QosProfile:
    policies: dict[str, object] = {}
    for child in node.children:
        if child.tag not in POLICY_TAGS:
            _note_unknown(child, "<qos>", path, diags)
            continue
        if child.tag in policies:
            raise _fail(f"duplicate <{child.tag}> policy element", path, child.line)
        policies[child.tag] = _parse_policy(child, path, diags)
    return QosProfile(**policies)  # type: ignore[arg-type]


def _parse_endpoint(node: _Node, kind: EndpointKind, path: str, diags: list[ParseDiagnostic]) -> RawEndpoint:
    name = node.attrib.get("profile_name", "")
    topic_name: str | None = None
    endpoint_qos: QosProfile | None = None
    topic_qos: QosProfile | None = None
    saw_topic = False
    for child in node.children:
        if child.tag == "topic":
            if saw_topic:
                raise _fail(f"duplicate <topic> element in <{node.tag}>", path, child.line)
            saw_topic = True
            name_node = child.child("name")
            if name_node is not None:
                topic_name = name_node.text or None
            qos_node = child.child("qos")
            if qos_node is not None:
                topic_qos = _parse_qos(qos_node, path, diags)
            for sub in child.children:
                if sub.tag not in ("name", "qos"):
                    _note_unknown(sub, "<topic>", path, diags)
        elif child.tag == "qos":
            if endpoint_qos is not None:
                raise _fail(f"duplicate <qos> element in <{node.tag}>", path, child.line)
            endpoint_qos = _parse_qos(child, path, diags)
        else:
            _note_unknown(child, f"<{node.tag}>", path, diags)
    return RawEndpoint(
        profile_name=name,
        endpoint_kind=kind,
        topic_name=topic_name,
        endpoint_qos=endpoint_qos if endpoint_qos is not None else QosProfile(),
        topic_qos=topic_qos if topic_qos is not None else QosProfile(),
        line=node.line,
    )


def parse_document(text: str, path: str = "<string>") -> ProfileDocument:
    """Parse one XML document into raw endpoints.

    Raises ProfileLoadError for malformed XML or out-of-range values;
    unrecognized structure is skipped with info diagnostics instead.
    """
    root = _parse_xml(text, path)
    diags: list[ParseDiagnostic] = []
    if root.tag == "dds":
        profiles_node = root.child("profiles")
        if profiles_node is None:
            raise ProfileLoadError("<dds> root contains no <profiles> element", path=path, line=root.line)
        for child in root.children:
            if child.tag != "profiles":
                _note_unknown(child, "<dds>", path, diags)
    elif root.tag == "profiles":
        profiles_node = root
    else:
        raise ProfileLoadError(
            f"expected <profiles> (or <dds>) root element, got <{root.tag}>", path=path, line=root.line
        )

    endpoints: list[RawEndpoint] = []
    for child in profiles_node.children:
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
        endpoints.append(_parse_endpoint(child, kind, path, diags))
    return ProfileDocument(path=path, text=text, endpoints=endpoints, diagnostics=diags)


def parse_profiles(documents: list[ProfileDocument]) -> ProfileSet:
    """Merge parsed documents into one ProfileSet with resolved defaults.

    Topic-level QoS fills endpoint gaps (endpoint wins), then OMG defaults
    fill the rest.  Duplicate profile names across documents are an error.
    Equal resolved profiles are interned, so endpoints sharing a QoS bundle
    share one ``QosProfile`` object.
    """
    profiles: dict[str, EndpointProfile] = {}
    interned: dict[QosProfile, QosProfile] = {}
    origins: dict[str, SourceLocation] = {}
    diagnostics: list[ParseDiagnostic] = []
    for document in documents:
        diagnostics.extend(document.diagnostics)
        for raw in document.endpoints:
            location = SourceLocation(document.path, raw.line)
            if raw.profile_name in profiles:
                raise ProfileLoadError(
                    f"duplicate profile name {raw.profile_name!r} "
                    f"(first defined at {origins[raw.profile_name]})",
                    path=document.path,
                    line=raw.line,
                )
            qos = resolve_defaults(raw.endpoint_qos.merged_under(raw.topic_qos), raw.endpoint_kind)
            profiles[raw.profile_name] = EndpointProfile(
                profile_name=raw.profile_name,
                endpoint_kind=raw.endpoint_kind,
                qos=interned.setdefault(qos, qos),
                topic_name=raw.topic_name,
                source_location=location,
            )
            origins[raw.profile_name] = location
    return ProfileSet(profiles=profiles, diagnostics=tuple(diagnostics))


def load_profile_files(paths: list[str]) -> ProfileSet:
    """Read and parse UTF-8 XML files into one ProfileSet."""
    documents = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ProfileLoadError(f"cannot read file: {exc.strerror or exc}", path=path) from exc
        documents.append(parse_document(text, path))
    return parse_profiles(documents)


# -- canonical serialization ------------------------------------------------


def _duration_xml(tag: str, d: Duration, indent: str) -> list[str]:
    if d.is_infinite:
        return [f"{indent}<{tag}>{INFINITY_TOKEN}</{tag}>"]
    sec, nanosec = divmod(d.nanoseconds, NANOSECONDS_PER_SECOND)
    return [
        f"{indent}<{tag}>",
        f"{indent}  <sec>{sec}</sec>",
        f"{indent}  <nanosec>{nanosec}</nanosec>",
        f"{indent}</{tag}>",
    ]


def _count_xml(tag: str, c: Count, indent: str) -> str:
    body = UNLIMITED_TOKEN if c.is_unlimited else str(c.value)
    return f"{indent}<{tag}>{body}</{tag}>"


def _bool_xml(tag: str, value: bool, indent: str) -> str:
    return f"{indent}<{tag}>{'true' if value else 'false'}</{tag}>"


def _qos_xml(qos: QosProfile, indent: str) -> list[str]:
    pad = indent + "  "
    inner = pad + "  "
    lines = [f"{indent}<qos>"]
    lines.append(f"{pad}<entity_factory>")
    lines.append(_bool_xml("autoenable_created_entities", qos.entity_factory.autoenable_created_entities, inner))
    lines.append(f"{pad}</entity_factory>")
    lines.append(f"{pad}<partition>")
    lines.append(f"{inner}<names>")
    for name in qos.partition.names:
        lines.append(f"{inner}  <name>{escape(name)}</name>")
    lines.append(f"{inner}</names>")
    lines.append(f"{pad}</partition>")
    for tag, value in (
        ("user_data", qos.user_data.value),
        ("group_data", qos.group_data.value),
        ("topic_data", qos.topic_data.value),
    ):
        lines.append(f"{pad}<{tag}>")
        lines.append(f"{inner}<value>{value.hex()}</value>")
        lines.append(f"{pad}</{tag}>")
    lines.append(f"{pad}<reliability>")
    lines.append(f"{inner}<kind>{qos.reliability.kind.name}</kind>")
    lines.extend(_duration_xml("max_blocking_time", qos.reliability.max_blocking_time, inner))
    lines.append(f"{pad}</reliability>")
    lines.append(f"{pad}<durability>")
    lines.append(f"{inner}<kind>{qos.durability.kind.name}</kind>")
    lines.append(f"{pad}</durability>")
    lines.append(f"{pad}<deadline>")
    lines.extend(_duration_xml("period", qos.deadline.period, inner))
    lines.append(f"{pad}</deadline>")
    lines.append(f"{pad}<liveliness>")
    lines.append(f"{inner}<kind>{qos.liveliness.kind.name}</kind>")
    lines.extend(_duration_xml("lease_duration", qos.liveliness.lease_duration, inner))
    lines.append(f"{pad}</liveliness>")
    lines.append(f"{pad}<history>")
    lines.append(f"{inner}<kind>{qos.history.kind.name}</kind>")
    lines.append(f"{inner}<depth>{qos.history.depth}</depth>")
    lines.append(f"{pad}</history>")
    lines.append(f"{pad}<resource_limits>")
    lines.append(_count_xml("max_samples", qos.resource_limits.max_samples, inner))
    lines.append(_count_xml("max_instances", qos.resource_limits.max_instances, inner))
    lines.append(_count_xml("max_samples_per_instance", qos.resource_limits.max_samples_per_instance, inner))
    lines.append(f"{pad}</resource_limits>")
    lines.append(f"{pad}<lifespan>")
    lines.extend(_duration_xml("duration", qos.lifespan.duration, inner))
    lines.append(f"{pad}</lifespan>")
    lines.append(f"{pad}<ownership>")
    lines.append(f"{inner}<kind>{qos.ownership.kind.name}</kind>")
    lines.append(f"{pad}</ownership>")
    lines.append(f"{pad}<ownership_strength>")
    lines.append(f"{inner}<value>{qos.ownership_strength.value}</value>")
    lines.append(f"{pad}</ownership_strength>")
    lines.append(f"{pad}<destination_order>")
    lines.append(f"{inner}<kind>{qos.destination_order.kind.name}</kind>")
    lines.append(f"{pad}</destination_order>")
    lines.append(f"{pad}<writer_data_lifecycle>")
    lines.append(
        _bool_xml(
            "autodispose_unregistered_instances",
            qos.writer_data_lifecycle.autodispose_unregistered_instances,
            inner,
        )
    )
    lines.append(f"{pad}</writer_data_lifecycle>")
    lines.append(f"{pad}<reader_data_lifecycle>")
    lines.extend(
        _duration_xml(
            "autopurge_disposed_samples_delay",
            qos.reader_data_lifecycle.autopurge_disposed_samples_delay,
            inner,
        )
    )
    lines.extend(
        _duration_xml(
            "autopurge_no_writer_samples_delay",
            qos.reader_data_lifecycle.autopurge_no_writer_samples_delay,
            inner,
        )
    )
    lines.append(f"{pad}</reader_data_lifecycle>")
    lines.append(f"{indent}</qos>")
    return lines


def serialize_canonical(profile_set: ProfileSet) -> str:
    """Deterministic canonical form: profiles sorted by name, policies in
    catalog order, every default materialized.  parse(serialize(s)) == s.
    """
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
