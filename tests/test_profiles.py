"""Parser behavior, load errors, and canonical round-trips."""

from __future__ import annotations

import enum
import gc
import re
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from xml.parsers import expat

import pytest
from hypothesis import example, given, settings, strategies as st

from qos_chain_guard.model import (
    Count,
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
    NANOSECONDS_MAX,
    NANOSECONDS_PER_SECOND,
    Ownership,
    OwnershipKind,
    OwnershipStrength,
    PARAMETERS,
    POLICIES,
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
    default_qos,
    resolve_defaults,
    shorten_literal,
)
from qos_chain_guard import profiles
from qos_chain_guard.profiles import (
    POLICY_SCHEMA,
    ParseDiagnostic,
    ProfileLoadError,
    ProfileSet,
    parse_document,
    parse_profiles,
    serialize_canonical,
)

from support import perfbench_workloads

WRITER_XML = """<?xml version="1.0" encoding="UTF-8"?>
<profiles>
  <data_writer profile_name="w1">
    <topic><name>scan</name></topic>
    <qos>
      <reliability><kind>RELIABLE</kind></reliability>
      <history><kind>KEEP_LAST</kind><depth>10</depth></history>
    </qos>
  </data_writer>
</profiles>
"""


def parse_set(*texts: str) -> ProfileSet:
    return parse_profiles([parse_document(t, f"doc{i}.xml") for i, t in enumerate(texts)])


def test_parse_simple_writer():
    ps = parse_set(WRITER_XML)
    assert len(ps) == 1
    w = ps.profiles["w1"]
    assert w.endpoint_kind is EndpointKind.DATA_WRITER
    assert w.topic_name == "scan"
    assert w.qos.reliability.kind is ReliabilityKind.RELIABLE
    assert w.qos.history.depth == 10
    assert w.qos.is_resolved  # absent policies resolved to defaults
    assert w.qos.durability.kind is DurabilityKind.VOLATILE


def test_infinite_duration_token():
    ps = parse_set(
        """<profiles>
        <data_writer profile_name="w1">
          <qos><lifespan><duration>DURATION_INFINITY</duration></lifespan></qos>
        </data_writer>
        </profiles>"""
    )
    assert ps.profiles["w1"].qos.lifespan.duration.is_infinite


def test_sec_nanosec_duration_and_unlimited_aliases():
    ps = parse_set(
        """<profiles>
        <data_reader profile_name="r1">
          <qos>
            <deadline><period><sec>1</sec><nanosec>500000000</nanosec></period></deadline>
            <resource_limits>
              <max_samples>100</max_samples>
              <max_instances>-1</max_instances>
              <max_samples_per_instance>UNLIMITED</max_samples_per_instance>
            </resource_limits>
          </qos>
        </data_reader>
        </profiles>"""
    )
    qos = ps.profiles["r1"].qos
    assert qos.deadline.period == Duration.from_millis(1500)
    assert qos.resource_limits.max_samples == Count(100)
    assert qos.resource_limits.max_instances.is_unlimited
    assert qos.resource_limits.max_samples_per_instance.is_unlimited


def test_duplicate_profile_name_is_load_error():
    doc = """<profiles><data_writer profile_name="w1"/></profiles>"""
    with pytest.raises(ProfileLoadError, match="duplicate profile name"):
        parse_set(doc, doc)


def test_malformed_xml_reports_line_and_column():
    with pytest.raises(ProfileLoadError, match=r"doc0\.xml:3.*malformed XML at column 3"):
        parse_set("<profiles>\n  <data_writer profile_name='w'>\n</profiles>")


def test_negative_depth_is_load_error():
    with pytest.raises(ProfileLoadError, match="history.depth"):
        parse_set(
            """<profiles><data_writer profile_name="w1">
            <qos><history><depth>-3</depth></history></qos>
            </data_writer></profiles>"""
        )


def test_negative_duration_is_load_error():
    with pytest.raises(ProfileLoadError, match="deadline.period"):
        parse_set(
            """<profiles><data_writer profile_name="w1">
            <qos><deadline><period><sec>-1</sec></period></deadline></qos>
            </data_writer></profiles>"""
        )


def test_bad_enum_token_is_load_error():
    with pytest.raises(ProfileLoadError, match="reliability.kind"):
        parse_set(
            """<profiles><data_writer profile_name="w1">
            <qos><reliability><kind>MOSTLY_RELIABLE</kind></reliability></qos>
            </data_writer></profiles>"""
        )


def test_unknown_elements_downgrade_to_info_diagnostics():
    ps = parse_set(
        """<profiles>
        <data_writer profile_name="w1">
          <qos>
            <reliability><kind>RELIABLE</kind><banana>1</banana></reliability>
            <transport_options><shm/></transport_options>
          </qos>
          <gadget/>
        </data_writer>
        <mystery_block/>
        </profiles>"""
    )
    assert len(ps) == 1  # never aborts the run
    messages = [d.message for d in ps.diagnostics]
    assert any("banana" in m for m in messages)
    assert any("transport_options" in m for m in messages)
    assert any("gadget" in m for m in messages)
    assert any("mystery_block" in m for m in messages)
    assert all(d.level == "info" for d in ps.diagnostics)


def test_endpoint_without_profile_name_is_skipped_with_note():
    ps = parse_set("""<profiles><data_writer/><data_reader profile_name="r"/></profiles>""")
    assert list(ps.profiles) == ["r"]
    assert any("without profile_name" in d.message for d in ps.diagnostics)


def test_source_location_points_at_opening_element():
    text = "\n".join(
        [
            "<profiles>",
            '  <data_writer profile_name="w1">',
            "  </data_writer>",
            '  <data_reader profile_name="r1"/>',
            "</profiles>",
        ]
    )
    ps = parse_set(text)
    assert ps.profiles["w1"].source_location == SourceLocation("doc0.xml", 2)
    assert ps.profiles["r1"].source_location == SourceLocation("doc0.xml", 4)


def test_dds_wrapper_root_is_accepted():
    ps = parse_set("""<dds><profiles><data_writer profile_name="w"/></profiles></dds>""")
    assert "w" in ps.profiles


def test_entity_declarations_are_rejected():
    with pytest.raises(ProfileLoadError, match="entity declarations"):
        parse_set(
            """<?xml version="1.0"?>
            <!DOCTYPE profiles [<!ENTITY x "boom">]>
            <profiles/>"""
        )


def test_parse_leaves_no_cyclic_garbage():
    # The expat handlers must not keep the parser, and with it the whole
    # element tree, alive in a reference cycle.
    gc.collect()
    gc.disable()
    try:
        parse_document(WRITER_XML, "w.xml")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_duplicate_containers_and_policies_are_load_errors():
    with pytest.raises(ProfileLoadError, match="duplicate <qos>"):
        parse_set('<profiles><data_writer profile_name="w"><qos/><qos/></data_writer></profiles>')
    with pytest.raises(ProfileLoadError, match="duplicate <topic>"):
        parse_set('<profiles><data_writer profile_name="w"><topic/><topic/></data_writer></profiles>')
    with pytest.raises(ProfileLoadError, match="duplicate <profiles> element in <dds>"):
        parse_set("<dds><profiles/><profiles/></dds>")
    with pytest.raises(ProfileLoadError, match="duplicate <history> element in <qos>"):
        parse_set(
            """<profiles><data_writer profile_name="w">
            <qos><history><depth>2</depth></history><history><depth>3</depth></history></qos>
            </data_writer></profiles>"""
        )


def _writer_with(line2: str) -> str:
    return f"""<profiles><data_writer profile_name="w">
            {line2}
            </data_writer></profiles>"""


# One input per level of the one walker: (parent, repeated child, document
# with the repeat on line 2).
@pytest.mark.parametrize(
    "parent, tag, document",
    [
        ("topic", "name", _writer_with("<topic><name>a</name><name>b</name></topic>")),
        ("topic", "qos", _writer_with("<topic><name>a</name><qos/><qos/></topic>")),
        ("dds", "profiles", "<dds>\n<profiles/><profiles/>\n</dds>"),
        ("data_writer", "topic", _writer_with("<topic/><topic/>")),
        ("data_writer", "qos", _writer_with("<qos/><qos/>")),
        ("qos", "history", _writer_with("<qos><history/><history/></qos>")),
        ("history", "depth", _writer_with("<qos><history><depth>2</depth><depth>3</depth></history></qos>")),
        ("period", "sec", _writer_with("<qos><deadline><period><sec>1</sec><sec>2</sec></period></deadline></qos>")),
    ],
    ids=["name", "qos", "dds-profiles", "endpoint-topic", "endpoint-qos", "qos-policy",
         "policy-parameter", "duration-sec"],
)
def test_repeated_topic_child_is_load_error(parent, tag, document):
    with pytest.raises(ProfileLoadError, match=rf"^doc0\.xml:2: duplicate <{tag}> element in <{parent}>$"):
        parse_set(document)


def test_notes_inside_topic_follow_document_order():
    ps = parse_set(
        """<profiles><data_writer profile_name="w"><topic>
        <first/>
        <qos><second/><history><third/></history></qos>
        <fourth/>
        </topic></data_writer></profiles>"""
    )
    assert [(d.line, d.message) for d in ps.diagnostics] == [
        (2, "unknown element <first> in <topic>; ignored"),
        (3, "unknown element <second> in <qos>; ignored"),
        (3, "unknown element <third> in <history>; ignored"),
        (4, "unknown element <fourth> in <topic>; ignored"),
    ]


@pytest.mark.parametrize("repeat", ["<qos/>", "<name>b</name>"])
def test_load_error_in_topic_qos_wins_over_a_later_repeat(repeat):
    # Children are parsed in document order, so the first error met wins.
    with pytest.raises(ProfileLoadError) as excinfo:
        parse_set(
            _writer_with(f"<topic><name>a</name><qos><history><depth>x</depth></history></qos>{repeat}</topic>")
        )
    assert str(excinfo.value) == "doc0.xml:2: history.depth: expected an integer, got 'x'"


def test_notes_and_load_errors_follow_document_order():
    ps = parse_set(
        """<dds><profiles>
        <data_writer profile_name="w">
        <bogus/>
        </data_writer></profiles>
        <log_config/></dds>"""
    )
    assert [(d.line, d.message) for d in ps.diagnostics] == [
        (3, "unknown element <bogus> in <data_writer>; ignored"),
        (5, "unknown element <log_config> in <dds>; ignored"),
    ]
    second_profiles = '<dds><profiles>\n<data_writer profile_name=""/>\n</profiles>\n<profiles/></dds>'
    errors = [
        # The first load error met, not the second <profiles> after it.
        (second_profiles, "doc0.xml:2: profile_name must be non-empty"),
        # Malformed XML, or an entity declaration, wins over any error.
        (
            _writer_with("<qos><history><depth>0</depth></history></qos>\n</profiles>"),
            "doc0.xml:3: malformed XML at column 3: mismatched tag",
        ),
        ('<!DOCTYPE dds [<!ENTITY x "boom">]>' + second_profiles, "doc0.xml:1: XML entity declarations are not supported"),
    ]
    for document, message in errors:
        with pytest.raises(ProfileLoadError) as excinfo:
            parse_set(document)
        assert str(excinfo.value) == message


def test_repeated_parameter_element_is_load_error():
    with pytest.raises(ProfileLoadError, match=r"doc0\.xml:2: duplicate <depth> element in <history>"):
        parse_set(
            """<profiles><data_writer profile_name="w">
            <qos><history><depth>2</depth><depth>3</depth></history></qos>
            </data_writer></profiles>"""
        )


@pytest.mark.parametrize(
    "policy,expected",
    [
        (
            "<deadline><period><sec>2</sec><millisec>5</millisec></period></deadline>",
            Deadline(Duration.from_sec_nanosec(2, 0)),
        ),
        ("<user_data><value>ab</value><comment>x</comment></user_data>", UserData(b"\xab")),
    ],
    ids=["duration", "user_data"],
)
def test_unknown_children_of_any_parameter_get_an_info_note(policy, expected):
    ps = parse_set(f'<profiles><data_writer profile_name="w"><qos>{policy}</qos></data_writer></profiles>')
    tag = re.match(r"<(\w+)>", policy).group(1)
    assert getattr(ps.profiles["w"].qos, tag) == expected
    [note] = ps.diagnostics
    assert note.level == "info" and "unknown element" in note.message


@pytest.mark.parametrize(
    "element,holder,read,expected",
    [
        ("<qos><history><depth>5\n<x/></depth></history></qos>", "depth", lambda e: e.qos.history.depth, 5),
        (
            "<qos><history><kind>KEEP_ALL\n<x/></kind></history></qos>",
            "kind",
            lambda e: e.qos.history.kind,
            HistoryKind.KEEP_ALL,
        ),
        (
            "<qos><deadline><period><sec>2\n<x/></sec></period></deadline></qos>",
            "sec",
            lambda e: e.qos.deadline.period,
            Duration.from_sec_nanosec(2, 0),
        ),
        (
            "<qos><deadline><period>DURATION_INFINITY\n<x/></period></deadline></qos>",
            "period",
            lambda e: e.qos.deadline.period,
            Duration.infinite(),
        ),
        ("<topic><name>t\n<x/></name></topic>", "name", lambda e: e.topic_name, "t"),
        (
            # A partition name keeps its whitespace, so the newline goes first.
            "\n<qos><partition><names><name>a<x/></name></names></partition></qos>",
            "name",
            lambda e: e.qos.partition.names,
            ("a",),
        ),
    ],
    ids=["integer", "enum", "duration-sec", "infinite-duration", "topic-name", "partition-name"],
)
def test_child_element_of_a_value_element_gets_an_info_note(element, holder, read, expected):
    # Each child <x/> is on line 3 of the document.
    ps = parse_set(_writer_with(element))
    assert read(ps.profiles["w"]) == expected
    assert [(d.line, d.message) for d in ps.diagnostics] == [(3, f"unknown element <x> in <{holder}>; ignored")]


@pytest.mark.parametrize("nanosec", ["1000000000", "5000000000", "0001000000000", "+1000000000"])
def test_nanosec_of_a_second_or_more_is_load_error(nanosec):
    # The literal is quoted as written, as in every other duration error.
    got = re.escape(repr(nanosec))
    with pytest.raises(ProfileLoadError, match=rf"deadline\.period: nanosec must be below 1000000000, got {got}$"):
        parse_set(
            '<profiles><data_writer profile_name="w1"><qos><deadline><period>'
            f"<sec>1</sec><nanosec>{nanosec}</nanosec>"
            "</period></deadline></qos></data_writer></profiles>"
        )


@pytest.mark.parametrize(
    "policy,start,end",
    [
        # Past Python's 4300-digit limit for int(): the same range error as a shorter literal.
        (
            f"<history><depth>{'7' * 5000}</depth></history>",
            "history.depth: '777",
            "(5002 characters) is outside the 32-bit range [-2147483648, 2147483647]",
        ),
        (
            f"<deadline><period><sec>{'9' * 4299}</sec></period></deadline>",
            "deadline.period: duration overflows the 64-bit range: sec '999",
            "(4301 characters)",
        ),
        (
            f"<deadline><period><sec>{'9' * 5000}</sec></period></deadline>",
            "deadline.period: duration overflows the 64-bit range: sec '999",
            "(5002 characters)",
        ),
    ],
    ids=["5000-digit-depth", "4299-digit-sec", "5000-digit-sec"],
)
def test_long_literal_is_shortened_in_the_error(policy, start, end):
    with pytest.raises(ProfileLoadError) as excinfo:
        parse_set(f'<profiles><data_writer profile_name="w1"><qos>{policy}</qos></data_writer></profiles>')
    message = str(excinfo.value)
    assert message.startswith(f"doc0.xml:1: {start}")
    assert message.endswith(end)
    assert len(message) < 150


@pytest.mark.parametrize("nanosec", ["854775808", "999999999", "854775807"])
def test_duration_past_the_64_bit_range_quotes_both_literals(nanosec):
    document = (
        '<profiles><data_writer profile_name="w1"><qos><deadline><period>'
        f"<sec>9223372036</sec><nanosec>{nanosec}</nanosec>"
        "</period></deadline></qos></data_writer></profiles>"
    )
    if nanosec == "854775807":  # the largest finite duration
        assert parse_set(document).profiles["w1"].qos.deadline.period == Duration(2**63 - 1)
        return
    with pytest.raises(ProfileLoadError) as excinfo:
        parse_set(document)
    assert str(excinfo.value) == (
        "doc0.xml:1: deadline.period: duration overflows the 64-bit range: "
        f"sec '9223372036', nanosec '{nanosec}'"
    )


def _writer_qos(policy: str):
    ps = parse_set(f'<profiles><data_writer profile_name="w1"><qos>{policy}</qos></data_writer></profiles>')
    return ps.profiles["w1"].qos


@pytest.mark.parametrize(
    "policy,error",
    [
        (
            "<history><depth>1_000</depth></history>",
            "history.depth: expected an integer, got '1_000'",
        ),
        (
            "<history><depth>١٢</depth></history>",  # Arabic-Indic digits
            "history.depth: expected an integer, got '١٢'",
        ),
        (
            "<history><depth>2147483648</depth></history>",
            "history.depth: '2147483648' is outside the 32-bit range [-2147483648, 2147483647]",
        ),
        (
            f"<ownership_strength><value>1{'0' * 399}</value></ownership_strength>",
            "ownership_strength.value: '1000000000000000000000000000000...0000000' (402 characters) "
            "is outside the 32-bit range [-2147483648, 2147483647]",
        ),
        (
            "<ownership_strength><value>-2147483649</value></ownership_strength>",
            "ownership_strength.value: '-2147483649' is outside the 32-bit range [-2147483648, 2147483647]",
        ),
        (
            f"<resource_limits><max_samples>{'9' * 60}</max_samples></resource_limits>",
            "resource_limits.max_samples: '9999999999999999999999999999999...9999999' (62 characters) "
            "is outside the 32-bit range [-2147483648, 2147483647]",
        ),
        (
            "<deadline><period><sec>1_0</sec></period></deadline>",
            "deadline.period.sec: expected an integer, got '1_0'",
        ),
        # The other value errors of the leaf parsers.
        (
            "<writer_data_lifecycle><autodispose_unregistered_instances>yes"
            "</autodispose_unregistered_instances></writer_data_lifecycle>",
            "writer_data_lifecycle.autodispose_unregistered_instances: expected true or false, got 'yes'",
        ),
        (
            "<user_data><value>abc</value></user_data>",
            "user_data.value: expected a hex string, got 'abc'",
        ),
        (
            "<resource_limits><max_samples>-2</max_samples></resource_limits>",
            "resource_limits.max_samples: count must be nonnegative, -1, or UNLIMITED",
        ),
    ],
    ids=["underscore", "non-ascii-digits", "depth-past-long", "400-digit-strength",
         "strength-below-long", "60-digit-count", "underscore-sec", "bool-token", "odd-hex", "negative-count"],
)
def test_value_outside_its_xml_form_or_range_is_load_error(policy, error):
    with pytest.raises(ProfileLoadError) as excinfo:
        _writer_qos(policy)
    assert str(excinfo.value) == f"doc0.xml:1: {error}"


def test_integer_bounds_and_sign_are_accepted():
    qos = _writer_qos(
        "<history><depth>+2147483647</depth></history>"
        "<ownership_strength><value>-2147483648</value></ownership_strength>"
        "<resource_limits><max_samples>2147483647</max_samples></resource_limits>"
    )
    assert qos.history.depth == 2**31 - 1
    assert qos.ownership_strength.value == -(2**31)
    assert qos.resource_limits.max_samples == Count(2**31 - 1)


def test_duration_seconds_keep_the_64_bit_nanosecond_range():
    # 2**32 s is past a 32-bit long but within 64-bit nanoseconds.
    qos = _writer_qos("<deadline><period><sec>4294967296</sec></period></deadline>")
    assert qos.deadline.period == Duration.from_sec_nanosec(2**32, 0)


@pytest.mark.parametrize("kind", list(EndpointKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("tag", list(POLICIES))
def test_policy_element_without_parameters_takes_the_default(tag, kind):
    ps = parse_set(f'<profiles><{kind.value} profile_name="e"><qos><{tag}/></qos></{kind.value}></profiles>')
    assert getattr(ps.profiles["e"].qos, tag) == getattr(default_qos(kind), tag)


def test_partial_endpoint_policy_still_replaces_the_topic_policy():
    ps = parse_set(
        """<profiles><data_reader profile_name="r1">
          <topic><name>t</name><qos>
            <reliability><kind>RELIABLE</kind><max_blocking_time><sec>5</sec></max_blocking_time></reliability>
          </qos></topic>
          <qos><reliability><kind>RELIABLE</kind></reliability></qos>
        </data_reader></profiles>"""
    )
    reliability = ps.profiles["r1"].qos.reliability
    assert reliability.kind is ReliabilityKind.RELIABLE
    # The endpoint left max_blocking_time out: the OMG default, not the topic's 5 s.
    assert reliability.max_blocking_time == default_qos(EndpointKind.DATA_READER).reliability.max_blocking_time


def _readme_policy_table() -> dict[str, list[str]]:
    """The README's "Policy element | Parameters" table as tag -> parameter cells."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = text.split("| Policy element | Parameters |", 1)[1].splitlines()[2:]
    table = {}
    for line in lines:
        if not line.strip().startswith("|"):
            break
        tags, params = line.strip().strip("|").split("|")
        for tag in re.findall(r"`(\w+)`", tags):
            table[tag] = params
    return table


def test_readme_policy_table_matches_the_schema():
    table = _readme_policy_table()
    assert list(table) == list(POLICY_SCHEMA)
    writer_defaults = default_qos(EndpointKind.DATA_WRITER)
    for tag, cell in table.items():
        # Parameter names are the backquoted words outside parentheses.
        names = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", cell))
        assert names == list(POLICY_SCHEMA[tag]), tag
        for name, tokens in re.findall(r"`(\w+)` \(([^)]*)\)", cell):
            default = getattr(getattr(writer_defaults, tag), name)
            if isinstance(default, enum.Enum):
                assert re.findall(r"`(\w+)`", tokens) == [m.name for m in type(default)], f"{tag}.{name}"


def test_topic_qos_merges_under_endpoint_qos():
    ps = parse_set(
        """<profiles>
        <data_writer profile_name="w1">
          <topic>
            <name>scan</name>
            <qos>
              <durability><kind>TRANSIENT</kind></durability>
              <history><kind>KEEP_LAST</kind><depth>7</depth></history>
            </qos>
          </topic>
          <qos>
            <history><kind>KEEP_LAST</kind><depth>2</depth></history>
          </qos>
        </data_writer>
        </profiles>"""
    )
    qos = ps.profiles["w1"].qos
    assert qos.history.depth == 2  # endpoint wins
    assert qos.durability.kind is DurabilityKind.TRANSIENT  # topic fills the gap


def test_topic_index_partitions_by_topic_with_unbound_bucket():
    ps = parse_set(
        """<profiles>
        <data_writer profile_name="w1"><topic><name>a</name></topic></data_writer>
        <data_writer profile_name="w2"><topic><name>a</name></topic></data_writer>
        <data_reader profile_name="r1"><topic><name>a</name></topic></data_reader>
        <data_reader profile_name="free"/>
        </profiles>"""
    )
    index = ps.topic_index
    assert index["a"] == (("w1", "w2"), ("r1",))
    assert index[None] == ((), ("free",))


def test_serialize_materializes_all_policies():
    ps = parse_set(
        """<profiles><data_writer profile_name="w1">
        <qos><durability><kind>TRANSIENT</kind></durability></qos>
        </data_writer></profiles>"""
    )
    text = serialize_canonical(ps)
    for tag in (
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
    ):
        assert f"<{tag}>" in text
    assert "<kind>TRANSIENT</kind>" in text
    assert "DURATION_INFINITY" in text  # defaults materialized explicitly


def test_empty_profile_set_serializes_to_empty_container():
    text = serialize_canonical(ProfileSet(profiles={}))
    assert text == '<?xml version="1.0" encoding="UTF-8"?>\n<profiles>\n</profiles>\n'
    assert parse_profiles([parse_document(text, "x")]) == ProfileSet(profiles={})


GOLDEN_INPUT = """<profiles>
  <data_writer profile_name="w1">
    <topic><name>scan</name></topic>
    <qos>
      <durability><kind>TRANSIENT</kind></durability>
      <history><kind>KEEP_LAST</kind><depth>4</depth></history>
    </qos>
  </data_writer>
</profiles>"""

GOLDEN_CANONICAL = """<?xml version="1.0" encoding="UTF-8"?>
<profiles>
  <data_writer profile_name="w1">
    <topic>
      <name>scan</name>
    </topic>
    <qos>
      <entity_factory>
        <autoenable_created_entities>true</autoenable_created_entities>
      </entity_factory>
      <partition>
        <names>
          <name></name>
        </names>
      </partition>
      <user_data>
        <value></value>
      </user_data>
      <group_data>
        <value></value>
      </group_data>
      <topic_data>
        <value></value>
      </topic_data>
      <reliability>
        <kind>RELIABLE</kind>
        <max_blocking_time>
          <sec>0</sec>
          <nanosec>100000000</nanosec>
        </max_blocking_time>
      </reliability>
      <durability>
        <kind>TRANSIENT</kind>
      </durability>
      <deadline>
        <period>DURATION_INFINITY</period>
      </deadline>
      <liveliness>
        <kind>AUTOMATIC</kind>
        <lease_duration>DURATION_INFINITY</lease_duration>
      </liveliness>
      <history>
        <kind>KEEP_LAST</kind>
        <depth>4</depth>
      </history>
      <resource_limits>
        <max_samples>UNLIMITED</max_samples>
        <max_instances>UNLIMITED</max_instances>
        <max_samples_per_instance>UNLIMITED</max_samples_per_instance>
      </resource_limits>
      <lifespan>
        <duration>DURATION_INFINITY</duration>
      </lifespan>
      <ownership>
        <kind>SHARED</kind>
      </ownership>
      <ownership_strength>
        <value>0</value>
      </ownership_strength>
      <destination_order>
        <kind>BY_RECEPTION_TIMESTAMP</kind>
      </destination_order>
      <writer_data_lifecycle>
        <autodispose_unregistered_instances>true</autodispose_unregistered_instances>
      </writer_data_lifecycle>
      <reader_data_lifecycle>
        <autopurge_disposed_samples_delay>DURATION_INFINITY</autopurge_disposed_samples_delay>
        <autopurge_no_writer_samples_delay>DURATION_INFINITY</autopurge_no_writer_samples_delay>
      </reader_data_lifecycle>
    </qos>
  </data_writer>
</profiles>
"""


def test_canonical_output_is_bit_exact():
    ps = parse_set(GOLDEN_INPUT)
    assert serialize_canonical(ps) == GOLDEN_CANONICAL


def test_round_trip_of_fixture():
    ps = parse_set(WRITER_XML)
    again = parse_profiles([parse_document(serialize_canonical(ps), "canon.xml")])
    assert again == ps


def test_canonical_form_is_a_fixed_point():
    ps = parse_set(WRITER_XML)
    once = serialize_canonical(ps)
    twice = serialize_canonical(parse_profiles([parse_document(once, "c")]))
    assert once == twice


# -- randomized round-trip ----------------------------------------------------

_names = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x2FA1, blacklist_categories=("Cs",)),
    max_size=8,
)
_topic_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_/-]{0,11}", fullmatch=True)
_durations = st.one_of(
    st.just(Duration.infinite()),
    st.integers(min_value=0, max_value=10**15).map(Duration),
)
_counts = st.one_of(
    st.just(Count.unlimited()),
    st.integers(min_value=0, max_value=10**9).map(Count),
)


@st.composite
def qos_profiles(draw) -> QosProfile:
    return QosProfile(
        entity_factory=EntityFactory(draw(st.booleans())),
        partition=Partition(tuple(draw(st.lists(_names, min_size=1, max_size=3)))),
        user_data=UserData(draw(st.binary(max_size=6))),
        group_data=GroupData(draw(st.binary(max_size=6))),
        topic_data=TopicData(draw(st.binary(max_size=6))),
        reliability=Reliability(draw(st.sampled_from(ReliabilityKind)), draw(_durations)),
        durability=Durability(draw(st.sampled_from(DurabilityKind))),
        deadline=Deadline(draw(_durations)),
        liveliness=Liveliness(draw(st.sampled_from(LivelinessKind)), draw(_durations)),
        history=History(draw(st.sampled_from(HistoryKind)), draw(st.integers(1, 10**6))),
        resource_limits=ResourceLimits(draw(_counts), draw(_counts), draw(_counts)),
        lifespan=Lifespan(draw(_durations)),
        ownership=Ownership(draw(st.sampled_from(OwnershipKind))),
        ownership_strength=OwnershipStrength(draw(st.integers(-10**6, 10**6))),
        destination_order=DestinationOrder(draw(st.sampled_from(DestinationOrderKind))),
        writer_data_lifecycle=WriterDataLifecycle(draw(st.booleans())),
        reader_data_lifecycle=ReaderDataLifecycle(draw(_durations), draw(_durations)),
    )


@st.composite
def profile_sets(draw) -> ProfileSet:
    n = draw(st.integers(min_value=0, max_value=4))
    profiles = {}
    for i in range(n):
        name = f"profile_{i}"
        profiles[name] = EndpointProfile(
            profile_name=name,
            endpoint_kind=draw(st.sampled_from(EndpointKind)),
            qos=draw(qos_profiles()),
            topic_name=draw(st.one_of(st.none(), _topic_names)),
        )
    return ProfileSet(profiles=profiles)


@settings(max_examples=40, deadline=None)
@given(profile_sets())
def test_parse_serialize_parse_is_identity(ps):
    text = serialize_canonical(ps)
    once = parse_profiles([parse_document(text, "round.xml")])
    assert once == ps
    assert serialize_canonical(once) == text


# -- the walker against the reference parser ---------------------------------
#
# The reference first builds a tree of one dataclass per element, with a
# second list for its runs of text, so malformed XML anywhere wins over any
# other load error.  It then reads every level of the tree, from the root
# to the values, children in document order through one helper,
# ``_ref_params``, with a frozen copy of the policy and leaf parsers: the
# first note or load error met comes first.  It runs nothing of the code
# under test but its records.


@dataclass
class _ReferenceNode:
    """Minimal XML element with the line of its opening tag."""

    tag: str
    line: int
    attrib: dict[str, str]
    children: list["_ReferenceNode"] = field(default_factory=list)
    text_parts: list[str] = field(default_factory=list)

    @property
    def text(self) -> str:
        return "".join(self.text_parts).strip()


def _reference_parse_xml(text: str, path: str) -> _ReferenceNode:
    """Parse to a ``_ReferenceNode`` tree, tracking opening-tag line numbers."""
    parser = expat.ParserCreate()
    root: list[_ReferenceNode] = []
    stack: list[_ReferenceNode] = []

    def start(tag: str, attrs: dict[str, str]) -> None:
        node = _ReferenceNode(tag=tag, line=parser.CurrentLineNumber, attrib=attrs)
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


# The policy and leaf parsers, frozen on the reference tree, so that the
# references share no parser with the code under test: only the model's
# records, defaults and ``PARAMETERS``.


def _ref_note(node: _ReferenceNode, holder: str, path: str, diags: list) -> None:
    diags.append(ParseDiagnostic(path, node.line, f"unknown element <{node.tag}> in <{holder}>; ignored"))


def _ref_error(node: _ReferenceNode, context: str, message: str, path: str) -> ProfileLoadError:
    return ProfileLoadError(f"{context}.{node.tag}: {message}", path, node.line)


def _ref_integer(node: _ReferenceNode, context: str, path: str) -> int | None:
    text = node.text
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise _ref_error(node, context, f"expected an integer, got {shorten_literal(text)}", path)
    digits = text.lstrip("+-").lstrip("0") or "0"
    if len(digits) > 4300:
        return None  # past ``int()``'s digit limit, and outside every range
    return -int(digits) if text.startswith("-") else int(digits)


def _ref_long(node: _ReferenceNode, context: str, path: str, diags: list) -> int:
    value = _ref_integer(node, context, path)
    if value is None or not -(2**31) <= value < 2**31:
        message = f"{shorten_literal(node.text)} is outside the 32-bit range [-2147483648, 2147483647]"
        raise _ref_error(node, context, message, path)
    return value


def _ref_bool(node: _ReferenceNode, context: str, path: str, diags: list) -> bool:
    if node.text.lower() not in ("true", "false"):
        raise _ref_error(node, context, f"expected true or false, got {shorten_literal(node.text)}", path)
    return node.text.lower() == "true"


def _ref_bytes(node: _ReferenceNode, context: str, path: str, diags: list) -> bytes:
    try:
        return bytes.fromhex("".join(node.text.split()))
    except ValueError:
        raise _ref_error(node, context, f"expected a hex string, got {shorten_literal(node.text)}", path) from None


def _ref_count(node: _ReferenceNode, context: str, path: str, diags: list) -> Count:
    if node.text.upper() == "UNLIMITED":
        return Count.unlimited()
    value = _ref_long(node, context, path, diags)
    if value == -1:
        return Count.unlimited()
    if value < 0:
        raise _ref_error(node, context, "count must be nonnegative, -1, or UNLIMITED", path)
    return Count(value)


def _ref_duration_part(node: _ReferenceNode, context: str, path: str, diags: list) -> int:
    value = _ref_integer(node, context, path)
    if node.tag == "sec":
        if value is not None and value <= NANOSECONDS_MAX // NANOSECONDS_PER_SECOND:
            return value
        message = "duration overflows the 64-bit range: sec "
    elif value is not None and value < NANOSECONDS_PER_SECOND:
        return value
    else:
        message = f"nanosec must be below {NANOSECONDS_PER_SECOND}, got "
    raise ProfileLoadError(f"{context}: {message}{shorten_literal(node.text)}", path, node.line)


def _ref_duration(node: _ReferenceNode, context: str, path: str, diags: list) -> Duration:
    if node.text.upper() == "DURATION_INFINITY":
        for child in node.children:
            _ref_note(child, node.tag, path, diags)
        return Duration.infinite()
    parts = dict.fromkeys(("sec", "nanosec"), _ref_duration_part)
    values = _ref_params(node, parts, f"{context}.{node.tag}", path, diags)
    if not values:
        message = f"expected <sec>/<nanosec> or DURATION_INFINITY, got {shorten_literal(node.text)}"
        raise _ref_error(node, context, message, path)
    sec, nanosec = values.get("sec", 0), values.get("nanosec", 0)
    if sec * NANOSECONDS_PER_SECOND + nanosec > NANOSECONDS_MAX:
        texts = {child.tag: shorten_literal(child.text) for child in node.children}
        message = f"duration overflows the 64-bit range: sec {texts['sec']}, nanosec {texts['nanosec']}"
        raise _ref_error(node, context, message, path)
    try:
        return Duration.from_sec_nanosec(sec, nanosec)
    except ValueError as exc:
        raise _ref_error(node, context, str(exc), path) from None


def _ref_names(node: _ReferenceNode, context: str, path: str, diags: list) -> tuple[str, ...]:
    names = []
    for child in node.children:
        if child.tag != "name":
            _ref_note(child, node.tag, path, diags)
            continue
        for grandchild in child.children:
            _ref_note(grandchild, "name", path, diags)
        names.append("".join(child.text_parts))
    return tuple(names)


def _ref_enum(enum_cls: type[enum.Enum]):
    def parse(node: _ReferenceNode, context: str, path: str, diags: list) -> enum.Enum:
        for member in enum_cls:
            if member.name == node.text.upper():
                return member
        expected = ", ".join(member.name for member in enum_cls)
        raise _ref_error(node, context, f"unknown kind {shorten_literal(node.text)} (expected one of {expected})", path)

    return parse


_REF_LEAVES = {bool: _ref_bool, int: _ref_long, bytes: _ref_bytes, Count: _ref_count}


def _ref_parser(default: object):
    if isinstance(default, enum.Enum):
        return _ref_enum(type(default))
    return {**_REF_LEAVES, Duration: _ref_duration, tuple: _ref_names}[type(default)]


def _ref_params(node: _ReferenceNode, parsers: dict, context: object, path: str, diags: list) -> dict:
    """Each child of ``node``, in document order, read by ``parsers[tag](child,
    context, path, diags)``: an unknown child is noted, a repeated one is a
    load error, and the child elements of a value element are noted."""
    values: dict[str, object] = {}
    for child in node.children:
        parse = parsers.get(child.tag)
        if parse is None:
            _ref_note(child, node.tag, path, diags)
        elif child.tag in values:
            raise ProfileLoadError(f"duplicate <{child.tag}> element in <{node.tag}>", path, child.line)
        else:
            if parse not in _REF_CONTAINERS:
                for grandchild in child.children:
                    _ref_note(grandchild, child.tag, path, diags)
            values[child.tag] = parse(child, context, path, diags)
    return values


def _ref_policy(node: _ReferenceNode, kind: EndpointKind, path: str, diags: list) -> object:
    """A policy element, parameters left out taken from ``kind``'s defaults."""
    default = getattr(default_qos(kind), node.tag)
    parsers = {name: _ref_parser(getattr(default, name)) for name in PARAMETERS[node.tag]}
    values = _ref_params(node, parsers, node.tag, path, diags)
    try:
        return type(default)(**{name: values.get(name, getattr(default, name)) for name in parsers})
    except ValueError as exc:
        raise ProfileLoadError(str(exc), path, node.line) from None


def _reference_qos(node: _ReferenceNode, kind: EndpointKind, path: str, diags: list) -> QosProfile:
    return QosProfile(**_ref_params(node, dict.fromkeys(PARAMETERS, _ref_policy), kind, path, diags))


def _ref_topic(node: _ReferenceNode, kind: EndpointKind, path: str, diags: list) -> dict:
    return _ref_params(node, {"name": lambda name, *_: name.text or None, "qos": _reference_qos}, kind, path, diags)


def _reference_endpoint(node: _ReferenceNode, kind: EndpointKind, path: str, diags: list) -> profiles.RawEndpoint:
    values = _ref_params(node, {"topic": _ref_topic, "qos": _reference_qos}, kind, path, diags)
    topic = values.get("topic", {})
    return profiles.RawEndpoint(
        profile_name=node.attrib["profile_name"],
        endpoint_kind=kind,
        topic_name=topic.get("name"),
        endpoint_qos=values.get("qos", QosProfile()),
        topic_qos=topic.get("qos", QosProfile()),
        line=node.line,
    )


def _ref_profiles(node: _ReferenceNode, context: object, path: str, diags: list) -> list:
    endpoints = []
    for child in node.children:
        kind = next((kind for kind in EndpointKind if kind.value == child.tag), None)
        if kind is None:
            _ref_note(child, "profiles", path, diags)
        elif "profile_name" not in child.attrib:
            diags.append(ParseDiagnostic(path, child.line, f"<{child.tag}> without profile_name attribute; ignored"))
        elif not child.attrib["profile_name"]:
            raise ProfileLoadError("profile_name must be non-empty", path=path, line=child.line)
        else:
            endpoints.append(_reference_endpoint(child, kind, path, diags))
    return endpoints


# The parsers that read their element's children themselves.
_REF_CONTAINERS = {_ref_duration, _ref_names, _ref_policy, _reference_qos, _ref_topic, _ref_profiles}


def _reference_parse_document(text: str, path: str):
    root = _reference_parse_xml(text, path)
    diags: list = []
    if root.tag == "dds":
        endpoints = _ref_params(root, {"profiles": _ref_profiles}, None, path, diags).get("profiles")
        if endpoints is None:
            raise ProfileLoadError("<dds> root contains no <profiles> element", path=path, line=root.line)
    elif root.tag == "profiles":
        endpoints = _ref_profiles(root, None, path, diags)
    else:
        raise ProfileLoadError(
            f"expected <profiles> (or <dds>) root element, got <{root.tag}>", path=path, line=root.line
        )
    return profiles.ProfileDocument(path=path, endpoints=endpoints, diagnostics=diags)


def _fuzz_documents():
    # Imported on first draw: test_fuzz_cli imports this module.
    from test_fuzz_cli import _profile_documents

    return _profile_documents()


def _parsed(parse, text: str):
    """(load error message, None) or (None, what ``parse`` returned)."""
    try:
        return None, parse(text, "doc.xml")
    except ProfileLoadError as exc:
        return str(exc), None


def _assert_parses_as_the_reference(text: str) -> None:
    """The same endpoints and notes, in order, or the same load error, line and column."""
    expected_error, expected = _parsed(_reference_parse_document, text)
    error, actual = _parsed(parse_document, text)
    assert error == expected_error
    if error is None:
        assert actual.endpoints == expected.endpoints
        assert actual.diagnostics == expected.diagnostics


# The fuzz documents seldom put an unknown child before a sibling that has
# notes of its own, so one such document is always run.
@example(
    """<dds><bogus/><profiles><data_writer profile_name="w"><bogus/>
    <qos><bogus/><deadline><period><bogus/><sec>1</sec></period></deadline><history><bogus/></history></qos>
    <topic><name>t</name></topic></data_writer></profiles></dds>"""
)
@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.deferred(_fuzz_documents))
def test_walker_parses_as_the_reference_parser(text):
    _assert_parses_as_the_reference(text)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.deferred(_fuzz_documents))
def test_tree_matches_the_reference_builder_on_fuzz_documents(text):
    _assert_parses_as_the_reference(text)


@pytest.mark.parametrize("workload", ["wide", "class-heavy", "dense", "desk"])
def test_walker_matches_the_reference_builder_on_benchmark_documents(workload):
    workloads = perfbench_workloads()
    for endpoints in workloads.generate(workload, 7).files:
        _assert_parses_as_the_reference(workloads.emit_document(endpoints))


def _writer_document(qos: str, tail: str = "") -> str:
    return f'<profiles>\n<data_writer profile_name="w"><qos>\n{qos}\n</qos></data_writer>\n{tail}</profiles>'


_BAD_DEPTH = "<history><depth>0</depth></history>"


@pytest.mark.parametrize(
    "text",
    [
        "<profiles>\n  <x a='1'>\n    <y>v &amp; w</y>\n  </x>tail\n</profiles>",
        "<profiles><x>5<bogus/> 6 </x></profiles>",
        '<!DOCTYPE profiles [<!ENTITY x "boom">]>\n<profiles/>',
        "<profiles>\n<x></profiles>",
        "",
        # The first error in the walk's order wins, at its line.
        _writer_document(_BAD_DEPTH + "\n<deadline><period><sec>-1</sec></period></deadline>"),
        '<profiles><data_writer profile_name="w">\n<qos/>\n<qos>' + _BAD_DEPTH + "</qos></data_writer></profiles>",
        _writer_document("<history><depth>2</depth></history>\n<history><depth>2</depth></history>"),
        # Malformed XML, or an entity declaration, wins over any error after it.
        _writer_document(_BAD_DEPTH, "<broken>\n"),
        "<bogus>\n<x></bogus>",
        '<!DOCTYPE profiles [<!ENTITY x "boom">]>\n<profiles><x></profiles>',
        # Under <dds>, an error in the first <profiles> wins over a second
        # <profiles> after it, a <profiles> further down is not one, and the
        # notes of <dds>'s children come in document order with the others.
        '<dds><profiles>\n<data_writer profile_name=""/>\n</profiles>\n<profiles/></dds>',
        "<dds>\n<log_config><profiles/></log_config>\n</dds>",
        '<dds><profiles><data_writer profile_name="w"><bogus/></data_writer></profiles>\n<log/></dds>',
        # An infinite duration notes its children, whatever they hold.
        _writer_document("<deadline><period><sec>x</sec>\n<y/>DURATION_<z/>INFINITY</period></deadline>"),
        # An endpoint without a name is not read.
        "<profiles><data_writer>\n<qos>" + _BAD_DEPTH + "</qos></data_writer></profiles>",
    ],
    ids=[
        "mixed", "split", "entity", "malformed", "empty", "first_error", "duplicate_first", "duplicate_copy", "malformed_last",
        "malformed_after_root", "entity_first", "second_profiles", "no_profiles", "dds_notes_first",
        "infinite_duration", "unnamed_endpoint",
    ],
)
def test_walker_matches_the_reference_builder_on_fixed_documents(text):
    _assert_parses_as_the_reference(text)


def test_long_text_spanning_expat_buffers_is_kept_whole():
    # Over 8 KiB with newlines and entity references: expat hands such a run
    # over in several calls, even with its text buffered.
    line = "  a &amp; b\n"
    body = line * 1200
    assert len(body) > 8 * 1024
    text = (
        '<profiles><data_writer profile_name="w"><topic><name>' + body + "</name></topic>"
        "<qos><partition><names><name>" + body + "</name></names></partition></qos>"
        "</data_writer></profiles>"
    )
    expected = body.replace("&amp;", "&")
    (raw,) = parse_document(text).endpoints
    assert raw.topic_name == expected.strip()
    assert raw.endpoint_qos.partition.names == (expected,)


# -- the QoS table against parsing every <qos> on its own ----------------------
#
# ``load_profile_files`` walks each distinct <qos> once per call and resolves
# each distinct (kind, endpoint QoS, topic QoS) once.  The reference walks
# every document with the reference parser above and resolves every endpoint.


def _reference_load(paths: list[str]) -> tuple[dict[str, tuple], list[ParseDiagnostic]]:
    """name -> (endpoint, its source location), and the notes, in order."""
    found: dict[str, tuple] = {}
    notes: list[ParseDiagnostic] = []
    # Every file is read before any profile name is compared.
    documents = [_reference_parse_document(Path(path).read_text(encoding="utf-8"), path) for path in paths]
    for document in documents:
        notes += document.diagnostics
        for raw in document.endpoints:
            if raw.profile_name in found:
                first = found[raw.profile_name][1]
                raise ProfileLoadError(
                    f"duplicate profile name {raw.profile_name!r} (first defined at {first})", document.path, raw.line
                )
            qos = resolve_defaults(raw.endpoint_qos.merged_under(raw.topic_qos), raw.endpoint_kind)
            endpoint = EndpointProfile(raw.profile_name, raw.endpoint_kind, qos, raw.topic_name)
            found[raw.profile_name] = (endpoint, SourceLocation(document.path, raw.line))
    return found, notes


def _written(directory: Path, texts: list[str]) -> list[str]:
    paths = []
    for i, text in enumerate(texts):
        path = directory / f"doc{i}.xml"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths


def _loaded(load, paths: list[str]):
    try:
        return None, load(paths)
    except ProfileLoadError as exc:
        return str(exc), None


def _assert_loads_as_the_reference(paths: list[str]) -> ProfileSet | None:
    expected_error, expected = _loaded(_reference_load, paths)
    error, actual = _loaded(profiles.load_profile_files, paths)
    assert error == expected_error
    if error is not None:
        return None
    endpoints, notes = expected
    assert actual.profiles == {name: endpoint for name, (endpoint, _) in endpoints.items()}
    assert {name: e.source_location for name, e in actual.profiles.items()} == {
        name: location for name, (_, location) in endpoints.items()
    }
    assert list(actual.diagnostics) == notes
    return actual


_TABLE_QOS = """<qos>
      <reliability><max_blocking_time><sec>1</sec></max_blocking_time></reliability>
      <history><kind>KEEP_LAST</kind><depth>4</depth></history>
    </qos>"""


def _endpoint(tag: str, name: str, body: str, topic: str = "t") -> str:
    return f'  <{tag} profile_name="{name}">\n    <topic><name>{topic}</name>{body}</topic>\n    {body}\n  </{tag}>\n'


def _profiles(*endpoints: str, declaration: str = "") -> str:
    return f"{declaration}<profiles>\n{''.join(endpoints)}</profiles>\n"


def test_a_repeated_qos_resolves_by_kind_within_and_across_documents(tmp_path):
    first = _profiles(
        _endpoint("data_writer", "w1", _TABLE_QOS),
        _endpoint("data_reader", "r1", _TABLE_QOS),
        _endpoint("data_writer", "w2", _TABLE_QOS),
        '  <data_writer profile_name="bare_w"/>\n  <data_reader profile_name="bare_r"/>\n',
    )
    # One more <qos> that differs from the others only in its last value.
    deeper = _TABLE_QOS.replace("<depth>4</depth>", "<depth>5</depth>")
    # A <reliability> that only a writer holds before a reader's distinct <qos> repeats it.
    slower = _TABLE_QOS.replace("<sec>1</sec>", "<sec>2</sec>")
    second = _profiles(
        _endpoint("data_reader", "r2", _TABLE_QOS),
        _endpoint("data_writer", "w3", _TABLE_QOS),
        _endpoint("data_writer", "w4", deeper),
        _endpoint("data_writer", "w5", slower),
        _endpoint("data_reader", "r3", slower.replace("<depth>4</depth>", "<depth>6</depth>")),
    )
    ps = _assert_loads_as_the_reference(_written(tmp_path, [first, second]))
    assert ps.profiles["w4"].qos.history.depth == 5
    # <reliability> without <kind>, and no <qos> at all, take each kind's default kind.
    kinds = {name: e.qos.reliability.kind.name for name, e in ps.profiles.items()}
    assert kinds == {
        **dict.fromkeys(["w1", "w2", "w3", "w4", "w5", "bare_w"], "RELIABLE"),
        **dict.fromkeys(["r1", "r2", "r3", "bare_r"], "BEST_EFFORT"),
    }
    assert ps.profiles["w1"].qos is ps.profiles["w3"].qos and ps.profiles["r1"].qos is ps.profiles["r2"].qos


def test_one_parse_walks_a_repeated_qos_once_per_kind(monkeypatch):
    walked = []

    def counted(**policies):
        walked.append(policies)
        return QosProfile(**policies)

    monkeypatch.setattr(profiles, "QosProfile", counted)
    table: profiles.QosTable = {}
    one = parse_document(_profiles(_endpoint("data_writer", "w1", _TABLE_QOS)), "a.xml", table)
    two = parse_document(
        _profiles(_endpoint("data_writer", "w2", _TABLE_QOS), _endpoint("data_reader", "r2", _TABLE_QOS)),
        "b.xml",
        table,
    )
    # The topic's and the endpoint's <qos> of w1, then r2's first: one per kind.
    assert len(walked) == 2
    (w1,), (w2, r2) = one.endpoints, two.endpoints
    assert w1.endpoint_qos is w1.topic_qos is w2.endpoint_qos is w2.topic_qos
    assert r2.endpoint_qos is r2.topic_qos and r2.endpoint_qos is not w1.endpoint_qos


@pytest.mark.parametrize("declaration", ["", '<?xml version="1.0" encoding="ISO-8859-1"?>\n'])
def test_non_ascii_qos_sources_of_equal_byte_length_stay_apart(tmp_path, declaration):
    # é and è are both two bytes in UTF-8.  The comment before the first
    # <qos> puts its byte offsets 80 past its character offsets, more than
    # the length of a <qos>, and each <qos> is followed by the same comment:
    # sliced by character, each source would be the same run of that
    # comment.  A str is parsed as UTF-8 whatever encoding it declares.
    def endpoint(tag: str, name: str, partition: str) -> str:
        qos = f"<qos><partition><names><name>{partition}</name></names></partition></qos>"
        return f'  <{tag} profile_name="{name}">{qos}<!--{"a" * 200}--></{tag}>\n'

    text = _profiles(
        f"  <!--{'ü' * 80}-->\n",
        endpoint("data_writer", "wé", "é"),
        endpoint("data_writer", "wè", "è"),
        endpoint("data_reader", "rè", "è"),
        endpoint("data_reader", "ré", "é"),
        declaration=declaration,
    )
    paths = _written(tmp_path, [text, _renamed(text, "again_")])
    ps = _assert_loads_as_the_reference(paths)
    names = {name: e.qos.partition.names[0] for name, e in ps.profiles.items()}
    assert names == {prefix + name: name[-1] for prefix in ("", "again_") for name in ("wé", "wè", "rè", "ré")}


def test_a_repeated_noisy_qos_notes_each_occurrence_on_its_own_line(tmp_path):
    noisy = "<qos><bogus/><deadline><period><sec>1</sec></period></deadline></qos>"
    first = _profiles(_endpoint("data_writer", "w1", noisy), _endpoint("data_reader", "r1", noisy))
    second = _profiles(_endpoint("data_writer", "w2", noisy))
    ps = _assert_loads_as_the_reference(_written(tmp_path, [first, second]))
    notes = [(Path(d.path).name, d.line) for d in ps.diagnostics]
    # Each endpoint's topic <qos> and its own <qos>, both on their lines.
    assert notes == [("doc0.xml", 3), ("doc0.xml", 4), ("doc0.xml", 7), ("doc0.xml", 8), ("doc1.xml", 3), ("doc1.xml", 4)]


def test_malformed_xml_still_wins_over_a_bad_value_in_a_repeated_qos(tmp_path):
    bad = "<qos><history><depth>0</depth></history></qos>"
    first = _profiles(_endpoint("data_writer", "w1", _TABLE_QOS))
    second = _profiles(
        _endpoint("data_writer", "w2", _TABLE_QOS), _endpoint("data_reader", "r2", bad)
    ).replace("</profiles>", "<broken></profiles>")
    paths = _written(tmp_path, [first, second])
    _assert_loads_as_the_reference(paths)
    with pytest.raises(ProfileLoadError, match=r"doc1\.xml:\d+: malformed XML"):
        profiles.load_profile_files(paths)
    # Without the malformed tail, the bad value is the error.
    paths = _written(tmp_path, [second.replace("<broken>", ""), first])
    _assert_loads_as_the_reference(paths)
    with pytest.raises(ProfileLoadError, match=r"doc0\.xml:\d+: history\.depth: must be >= 1"):
        profiles.load_profile_files(paths)


def _renamed(text: str, prefix: str) -> str:
    return re.sub(r"""profile_name=(["'])""", rf"profile_name=\g<1>{prefix}", text)


def _kinds_swapped(text: str) -> str:
    return re.sub(r"data_(writer|reader)", lambda m: "data_reader" if m[1] == "writer" else "data_writer", text)


# A duplicate name in the first file, and a load error in the last: every
# file is read before names are compared, so the load error wins.
@example(
    text='<profiles><data_writer profile_name="w"></data_writer><data_writer profile_name="w"></data_writer></profiles>',
    other=(
        '<profiles><data_writer profile_name="w"><topic><name><bogus/>t</name>'
        "<qos><history><bogus/><depth><bogus/></depth></history></qos></topic></data_writer></profiles>"
    ),
)
@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.deferred(_fuzz_documents), st.deferred(_fuzz_documents))
def test_the_qos_table_loads_as_the_reference_on_fuzz_document_sets(text, other):
    # The same <qos> literals again under new names, then under the other
    # kind, then another document: hits within and across documents and
    # kinds, noisy literals among them.
    texts = [text, _renamed(text, "again_"), _kinds_swapped(_renamed(text, "swapped_")), _renamed(other, "other_")]
    with tempfile.TemporaryDirectory() as directory:
        _assert_loads_as_the_reference(_written(Path(directory), texts))


def _qos_profiles_in(value: object) -> list[QosProfile]:
    """The ``QosProfile`` objects in ``value`` and in the dicts it nests."""
    if isinstance(value, QosProfile):
        return [value]
    if isinstance(value, dict):
        return [qos for v in value.values() for qos in _qos_profiles_in(v)]
    return []


def test_the_qos_table_lives_for_one_load(tmp_path):
    # The canonical form sets every policy, so resolving a <qos> returns the
    # object parsed: a table kept across loads would hand it out again.
    text = serialize_canonical(
        parse_set(_profiles(_endpoint("data_writer", "w1", _TABLE_QOS), _endpoint("data_reader", "r1", _TABLE_QOS)))
    )
    paths = _written(tmp_path, [text, _renamed(text, "again_")])
    one = profiles.load_profile_files(paths)
    assert one.profiles["w1"].qos is one.profiles["again_w1"].qos
    two = profiles.load_profile_files(paths)
    assert one == two
    assert not {id(e.qos) for e in one} & {id(e.qos) for e in two}
    # Nor does any module keep parsed profiles between loads.
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("qos_chain_guard"):
            for name, value in vars(module).items():
                if isinstance(value, dict) and not name.startswith("__"):
                    assert not _qos_profiles_in(value), (module_name, name)


# -- a repeated <qos> skipped -------------------------------------------------
#
# A <qos> whose source the table holds, for the kind of its endpoint, is read
# by expat with the handlers off.  The first document below puts three quiet
# writer literals in the table; each second document repeats them where the
# copy must still be read, or skipped with care.

_COMMENTED_QOS = _TABLE_QOS.replace("<history>", "<!-- </qos> --><history>")
_NON_ASCII_QOS = "<qos>\n      <partition><names><name>café</name><name>über</name></names></partition>\n    </qos>"
_SKIP_FIRST = _profiles(
    *(_endpoint("data_writer", f"first_{i}", qos) for i, qos in enumerate((_TABLE_QOS, _COMMENTED_QOS, _NON_ASCII_QOS)))
)
# Each second document, and how many of its <qos> are read in full.
_SKIP_SECONDS = {
    # The topic's; the endpoint's copy of it was stored for readers.
    "other_kind": (_profiles(_endpoint("data_reader", "r", _TABLE_QOS)), 1),
    "spaced": (_profiles(_endpoint("data_writer", "w", _TABLE_QOS.replace("<qos>", "<qos >"))), 2),
    "after_comment": (_profiles(_endpoint("data_writer", "w", f"<!-- {_TABLE_QOS} -->{_TABLE_QOS}")), 0),
    "in_cdata": (_profiles(_endpoint("data_writer", "w", _TABLE_QOS, topic=f"<![CDATA[{_TABLE_QOS}]]>")), 0),
    "comment_inside": (_profiles(_endpoint("data_writer", "w", _COMMENTED_QOS)), 2),
    "latin_1_crlf": (
        _profiles(
            _endpoint("data_writer", "wé", _NON_ASCII_QOS, topic="ü" * 40),
            _endpoint("data_writer", "w", _TABLE_QOS),
            declaration='<?xml version="1.0" encoding="ISO-8859-1"?>\n',
        ).replace("\n", "\r\n"),
        0,
    ),
}


def _recording(patch: pytest.MonkeyPatch) -> list:
    """The walker's frames and the elements it reads whole, as it makes them."""
    made: list = []
    for name in ("_Frame", "_Element"):
        base = getattr(profiles, name)

        def init(self, *args, base=base) -> None:
            made.append(self)
            base.__init__(self, *args)

        patch.setattr(profiles, name, type(name, (base,), {"__slots__": (), "__init__": init}))
    return made


def _read_in_full(first: str, second: str) -> Counter:
    """How many elements of ``second`` are read in full, by tag, once
    ``first`` has filled the table.  ``second`` is read as a file is, with
    LF line ends."""
    table: profiles.QosTable = {}
    parse_document(first, "first.xml", table)
    with pytest.MonkeyPatch.context() as patch:
        made = _recording(patch)
        parse_document(second.replace("\r\n", "\n"), "second.xml", table)
    return Counter(item.tag for item in made)


@pytest.mark.parametrize("case", _SKIP_SECONDS)
def test_a_copy_skips_only_where_it_loads_as_the_reference(tmp_path, case):
    second, read = _SKIP_SECONDS[case]
    _assert_loads_as_the_reference(_written(tmp_path, [_SKIP_FIRST, second]))
    assert _read_in_full(_SKIP_FIRST, second)["qos"] == read


def test_a_repeated_qos_makes_no_node_for_its_children(tmp_path, monkeypatch):
    built = _recording(monkeypatch)
    text = _profiles(_endpoint("data_writer", "w", _TABLE_QOS), _endpoint("data_reader", "r", _TABLE_QOS))
    profiles.load_profile_files(_written(tmp_path, [text, _renamed(text, "again_")]))
    # Each document's frames: the document's (no tag), its <profiles>,
    # endpoints and topics; only the first document's topic <qos> are read,
    # one per kind.  The elements read whole: the topic names, and the six
    # elements of each <qos> read, but for the reader's <history>, which
    # the kinds share.
    frames = Counter({None: 2, "profiles": 2, "data_writer": 2, "data_reader": 2, "topic": 4, "qos": 2})
    elements = Counter(dict.fromkeys(["reliability", "max_blocking_time", "sec"], 2))
    elements.update(["history", "kind", "depth"])
    assert Counter(node.tag for node in built) == frames + elements + Counter(name=4)


_AFTER_A_COPY = {
    "malformed": ("<broken>\n</profiles>", r"doc1\.xml:\d+: malformed XML at column 3: mismatched tag"),
    "bad_value": (
        _endpoint("data_writer", "bad", "<qos><history><depth>0</depth></history></qos>") + "</profiles>",
        r"doc1\.xml:\d+: history\.depth: must be >= 1",
    ),
    "notes": (_endpoint("data_writer", "noisy", "<qos><bogus/></qos>") + "</profiles>", None),
}


@pytest.mark.parametrize("case", _AFTER_A_COPY)
def test_what_follows_a_skipped_copy_reads_as_before(tmp_path, case):
    tail, error = _AFTER_A_COPY[case]
    copies = _renamed(_SKIP_FIRST, "again_")
    assert _read_in_full(_SKIP_FIRST, copies)["qos"] == 2  # the two holding "</qos>" in a comment
    paths = _written(tmp_path, [_SKIP_FIRST, copies.replace("</profiles>", tail)])
    # The same error, at the same line and column, or the same notes on the same lines.
    ps = _assert_loads_as_the_reference(paths)
    if error is not None:
        with pytest.raises(ProfileLoadError, match=error):
            profiles.load_profile_files(paths)
    else:
        assert [(Path(d.path).name, d.line) for d in ps.diagnostics] == [("doc1.xml", 31), ("doc1.xml", 32)]


# -- a repeated policy element skipped ----------------------------------------
#
# A quiet policy element is stored when it closes, so a copy under either
# endpoint kind (only the same one for <reliability>, whose default differs
# by kind), in the same document or a later one, is skipped when it is the
# next child of a <qos> read in full.  The first document below stores
# two quiet writer policies; the <qos> of each second document differs from
# its, so only policy elements repeat.

_HISTORY = "<history><kind>KEEP_LAST</kind><depth>4</depth></history>"
_DURABLE = "<durability><kind>TRANSIENT_LOCAL</kind></durability>"


def _qos_endpoint(tag: str, name: str, qos: str) -> str:
    return f'  <{tag} profile_name="{name}"><topic><name>t</name></topic>\n    {qos}\n  </{tag}>\n'


_POLICY_FIRST = _profiles(_qos_endpoint("data_writer", "first", f"<qos>{_DURABLE}{_HISTORY}</qos>"))
# Each second document, and how many of its <durability> and <history>
# elements are read in full.
_POLICY_SECONDS = {
    "repeated": (_profiles(_qos_endpoint("data_writer", "w", f"<qos>\n{_HISTORY}\n{_DURABLE}\n</qos>")), 0, 0),
    "in_comment": (_profiles(_qos_endpoint("data_writer", "w", f"<qos>{_DURABLE}<!-- {_HISTORY} -->{_HISTORY}</qos>")), 0, 1),
    "in_cdata": (_profiles(_qos_endpoint("data_writer", "w", f"<qos>{_DURABLE}<![CDATA[{_HISTORY}]]>{_HISTORY}</qos>")), 0, 1),
    "spaced": (_profiles(_qos_endpoint("data_writer", "w", f"<qos>{_DURABLE}{_HISTORY.replace('<history>', '<history >')}</qos>")), 0, 1),
    "other_kind": (_profiles(_qos_endpoint("data_reader", "r", f"<qos>{_DURABLE}{_HISTORY}</qos>")), 0, 0),
    # The first </history> lies in a comment, so neither copy is stored, and
    # the <qos>'s later children are read in full.
    "comment_inside": (
        _profiles(
            *(
                _qos_endpoint("data_writer", name, f"<qos>{_HISTORY.replace('<depth>', '<!-- </history> --><depth>')}{_DURABLE}{end}</qos>")
                for name, end in (("w", ""), ("v", "<ownership/>"))
            )
        ),
        2,
        2,
    ),
    # The first endpoint's <history> and <qos> end with spaced end tags, so
    # the first exact </history> is the second endpoint's.
    "spaced_end_tags": (
        _profiles(
            _qos_endpoint("data_writer", "w", f"<qos>{_HISTORY.replace('</history>', '</history >')}</qos >"),
            _qos_endpoint("data_writer", "v", f"<qos>{_HISTORY}{_DURABLE}</qos>"),
        ),
        1,
        2,
    ),
    # Its <history> ends with a spaced end tag, and the first exact one lies
    # in CDATA before a copy of <durability>, which is text.
    "cdata_after_spaced_end_tag": (
        _profiles(
            _qos_endpoint(
                "data_writer", "w", f"<qos>{_HISTORY.replace('</history>', '</history >')}<![CDATA[</history>{_DURABLE}]]></qos>"
            )
        ),
        0,
        1,
    ),
    # Its <history> ends with a spaced end tag, and the first exact one lies
    # in a comment after a <durability>, which is an element: no copy of the
    # <history> is stored, so the second <qos> reads its <durability> too.
    "element_before_end_tag_in_comment": (
        _profiles(
            *(
                _qos_endpoint(
                    "data_writer",
                    name,
                    f"<qos>{_HISTORY.replace('</history>', '</history >')}"
                    f"<durability><kind>TRANSIENT</kind></durability><!-- </history> -->{end}</qos>",
                )
                for name, end in (("w", ""), ("v", "<ownership/>"))
            )
        ),
        2,
        2,
    ),
    "latin_1_crlf": (
        _profiles(
            _qos_endpoint("data_writer", "wé", f"<qos>{_DURABLE}\n      {_HISTORY}\n<partition><names><name>ü</name></names></partition></qos>"),
            declaration='<?xml version="1.0" encoding="ISO-8859-1"?>\n',
        ).replace("\n", "\r\n"),
        0,
        0,
    ),
}


@pytest.mark.parametrize("case", _POLICY_SECONDS)
def test_a_policy_copy_skips_only_where_it_loads_as_the_reference(tmp_path, case):
    second, durability, history = _POLICY_SECONDS[case]
    _assert_loads_as_the_reference(_written(tmp_path, [_POLICY_FIRST, second]))
    read = _read_in_full(_POLICY_FIRST, second)
    assert (read["durability"], read["history"]) == (durability, history)


def test_a_quiet_policy_is_parsed_once_per_parser_and_load(tmp_path, monkeypatch):
    # The kinds share each policy's parser but reliability's, whose default differs.
    parsed, counting = [], {}
    for reads in profiles._ENDPOINT_READS.values():
        for tag in ("history", "reliability"):
            parse = reads["qos"][tag]
            if parse not in counting:
                counting[parse] = lambda *args, parse=parse, tag=tag: parsed.append(tag) or parse(*args)
            monkeypatch.setitem(reads["qos"], tag, counting[parse])
    assert len(counting) == 3
    # Three distinct <qos> per kind, each with the same <history> and <reliability>.
    blocking = "<reliability><max_blocking_time><sec>2</sec></max_blocking_time></reliability>"
    within = _profiles(
        *(
            _qos_endpoint(tag, f"{tag}_{i}", f"<qos>{before}{_HISTORY}{blocking}</qos>")
            for tag in ("data_writer", "data_reader")
            for i, before in enumerate(("", _DURABLE, "<ownership></ownership>"))
        )
    )
    paths = _written(tmp_path, [within, _renamed(within, "again_")])
    _assert_loads_as_the_reference(paths)
    assert Counter(parsed) == {"history": 1, "reliability": 2}
    profiles.load_profile_files(paths)
    assert Counter(parsed) == {"history": 2, "reliability": 4}
    # A <qos> repeated within one document is one object too.
    a, b = parse_document(_profiles(_endpoint("data_writer", "a", _TABLE_QOS), _endpoint("data_writer", "b", _TABLE_QOS))).endpoints
    assert a.topic_qos is a.endpoint_qos is b.topic_qos is b.endpoint_qos


def test_a_repeated_noisy_policy_notes_each_occurrence_on_its_own_line(tmp_path):
    noisy = "<history><bogus/><depth>4</depth></history>"
    first = _profiles(*(_qos_endpoint("data_writer", name, f"<qos>{before}{noisy}</qos>") for name, before in (("w", ""), ("v", _DURABLE))))
    second = _profiles(_qos_endpoint("data_reader", "r", f"<qos>{noisy}</qos>"), _qos_endpoint("data_writer", "u", f"<qos>{_DURABLE}{noisy}</qos>"))
    ps = _assert_loads_as_the_reference(_written(tmp_path, [first, second]))
    assert [(Path(d.path).name, d.line) for d in ps.diagnostics] == [("doc0.xml", 3), ("doc0.xml", 6), ("doc1.xml", 3), ("doc1.xml", 6)]


def test_malformed_xml_after_a_skipped_policy_copy_reads_as_before(tmp_path):
    second = _POLICY_SECONDS["repeated"][0].replace("</profiles>", "<broken>\n</profiles>")
    paths = _written(tmp_path, [_POLICY_FIRST, second])
    _assert_loads_as_the_reference(paths)
    with pytest.raises(ProfileLoadError, match=r"doc1\.xml:9: malformed XML at column 3: mismatched tag"):
        profiles.load_profile_files(paths)
