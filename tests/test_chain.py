"""Dependency-chain graph fidelity and export formats."""

from __future__ import annotations

import json
import re

from qos_chain_guard.chain import (
    MATRIX_DEVIATIONS,
    POLICY_NODES,
    chain_graph,
    export_chain_graph,
    identifier_cells,
)
from qos_chain_guard.model import EndpointKind, QosProfile, default_qos
from qos_chain_guard.rules import Severity, rule_catalog

# Hand transcription of the dependency matrix, row-major, one entry per
# non-empty cell: (row, column, severity, direction).  Direction 'f' points
# row->column, 'r' column->row, 'b' both ways.
EXPECTED_CELLS = [
    ("ENTFAC", "DURABL", "incidental", "f"),
    ("PART", "PART", "critical", "b"),
    ("PART", "DURABL", "incidental", "f"),
    ("PART", "DEADLN", "incidental", "f"),
    ("PART", "LIVENS", "incidental", "f"),
    ("RELIAB", "RELIAB", "critical", "b"),
    ("RELIAB", "DURABL", "critical", "f"),
    ("RELIAB", "DEADLN", "conditional", "f"),
    ("RELIAB", "LIVENS", "conditional", "f"),
    ("RELIAB", "HIST", "conditional", "r"),
    ("RELIAB", "RESLIM", "conditional", "r"),
    ("RELIAB", "LFSPAN", "conditional", "r"),
    ("RELIAB", "OWNST", "critical", "f"),
    ("RELIAB", "WDLIFE", "conditional", "f"),
    ("DURABL", "ENTFAC", "incidental", "r"),
    ("DURABL", "PART", "incidental", "r"),
    ("DURABL", "RELIAB", "critical", "r"),
    ("DURABL", "DURABL", "critical", "b"),
    ("DURABL", "DEADLN", "incidental", "f"),
    ("DURABL", "HIST", "conditional", "r"),
    ("DURABL", "RESLIM", "conditional", "r"),
    ("DURABL", "LFSPAN", "conditional", "r"),
    ("DURABL", "RDLIFE", "incidental", "r"),
    ("DEADLN", "PART", "incidental", "r"),
    ("DEADLN", "RELIAB", "conditional", "r"),
    ("DEADLN", "DURABL", "incidental", "r"),
    ("DEADLN", "DEADLN", "critical", "b"),
    ("DEADLN", "LIVENS", "conditional", "r"),
    ("DEADLN", "OWNST", "conditional", "f"),
    ("LIVENS", "PART", "incidental", "r"),
    ("LIVENS", "RELIAB", "conditional", "r"),
    ("LIVENS", "DEADLN", "conditional", "f"),
    ("LIVENS", "LIVENS", "critical", "b"),
    ("LIVENS", "OWNST", "conditional", "f"),
    ("LIVENS", "RDLIFE", "conditional", "f"),
    ("HIST", "RELIAB", "conditional", "f"),
    ("HIST", "DURABL", "conditional", "f"),
    ("HIST", "RESLIM", "critical", "b"),
    ("HIST", "LFSPAN", "conditional", "b"),
    ("HIST", "DESTORD", "conditional", "b"),
    ("RESLIM", "RELIAB", "conditional", "f"),
    ("RESLIM", "DURABL", "conditional", "f"),
    ("RESLIM", "HIST", "critical", "b"),
    ("RESLIM", "RESLIM", "critical", "b"),
    ("RESLIM", "LFSPAN", "conditional", "b"),
    ("RESLIM", "DESTORD", "conditional", "f"),
    ("LFSPAN", "RELIAB", "conditional", "f"),
    ("LFSPAN", "DURABL", "conditional", "f"),
    ("LFSPAN", "HIST", "conditional", "b"),
    ("LFSPAN", "RESLIM", "conditional", "b"),
    ("OWNST", "RELIAB", "critical", "r"),
    ("OWNST", "DEADLN", "conditional", "r"),
    ("OWNST", "LIVENS", "conditional", "r"),
    ("OWNST", "OWNST", "critical", "b"),
    ("OWNST", "WDLIFE", "incidental", "f"),
    ("DESTORD", "HIST", "conditional", "r"),
    ("DESTORD", "RESLIM", "conditional", "r"),
    ("DESTORD", "DESTORD", "critical", "b"),
    ("WDLIFE", "RELIAB", "conditional", "r"),
    ("WDLIFE", "OWNST", "incidental", "r"),
    ("WDLIFE", "RDLIFE", "conditional", "f"),
    ("RDLIFE", "DURABL", "incidental", "f"),
    ("RDLIFE", "LIVENS", "conditional", "r"),
    ("RDLIFE", "WDLIFE", "conditional", "r"),
]

_DIRECTIONS = {"f": "forward", "r": "reverse", "b": "bidirectional"}


def test_sixteen_nodes_with_lifecycle_flags():
    graph = chain_graph()
    assert len(graph.nodes) == 16
    by_abbr = {n.abbreviation: n for n in graph.nodes}
    assert by_abbr["ENTFAC"].lifecycle == ("discovery",)
    assert by_abbr["RELIAB"].lifecycle == ("discovery", "data-exchange", "disassociation")
    assert by_abbr["HIST"].lifecycle == ("data-exchange",)
    assert by_abbr["DEADLN"].lifecycle == ("discovery", "data-exchange")
    assert by_abbr["WDLIFE"].lifecycle == ("disassociation",)
    assert by_abbr["RDLIFE"].lifecycle == ("disassociation",)


def test_edge_multiset_matches_transcription_cell_for_cell():
    graph = chain_graph()
    actual = sorted(
        (e.source, e.target, e.severity.value, e.direction.value) for e in graph.edges
    )
    expected = sorted((s, t, sev, _DIRECTIONS[d]) for s, t, sev, d in EXPECTED_CELLS)
    assert actual == expected
    assert len(graph.edges) == len(EXPECTED_CELLS) == 64


def test_every_matrix_deviation_departs_from_the_identifiers():
    # An entry the identifiers already give is stale and should be deleted.
    derived = identifier_cells()
    assert len(MATRIX_DEVIATIONS) == 5
    for cell, published in MATRIX_DEVIATIONS.items():
        assert derived.get(cell) != published, f"deviation {cell} is given by the rule identifiers"


def test_edges_are_row_major_in_node_order():
    position = {node.abbreviation: index for index, node in enumerate(POLICY_NODES)}
    keys = [(position[e.source], position[e.target]) for e in chain_graph().edges]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def _owners() -> dict[str, set[str]]:
    """Parameter name -> the policies that have a parameter of that name."""
    defaults = default_qos(EndpointKind.DATA_WRITER)
    owners: dict[str, set[str]] = {}
    for policy in QosProfile.__slots__:
        for param in getattr(defaults, policy).__slots__:
            owners.setdefault(param, set()).add(policy)
    return owners


def _policies_named_in(condition: str) -> set[str]:
    """Policies a condition names: ``policy.param`` paths, and parameter
    names that only one policy has (``lease_duration``)."""
    owners = _owners()
    named = set()
    for token in re.findall(r"\b[a-z_]+(?:\.[a-z_]+)?\b", condition):
        policy, dot, _ = token.partition(".")
        if dot:
            named.add(policy)
        elif len(owners.get(token, ())) == 1:
            named |= owners[token]
    return named


def _reads_named_in(condition: str) -> set[str]:
    """What a condition reads: each ``policy.param`` path (a parameter name
    only one policy has stands for its path), with the ``writer``/``reader``
    that precedes it, and ``rtt`` and ``pp``."""
    owners = _owners()
    reads = set()
    for side, token in re.findall(r"(?:\b(writer|reader) )?\b([a-z_]+(?:\.[a-z_]+)?)\b", condition):
        if token in ("rtt", "pp"):
            reads.add(token)
            continue
        if "." not in token:
            if len(owners.get(token, ())) != 1:
                continue
            token = f"{next(iter(owners[token]))}.{token}"
        reads.add(f"{side} {token}" if side else token)
    return reads


def test_every_identifier_policy_appears_in_the_rule_condition():
    # The identifiers drive the graph and the conditions drive evaluation.
    policy_of = {node.abbreviation: node.policy_name.split()[0].lower() for node in POLICY_NODES}
    extra = {}
    for rule in rule_catalog():
        named = _policies_named_in(rule.condition)
        identified = {policy_of[abbreviation] for abbreviation in re.split("[→↔]", rule.identifier)}
        assert identified <= named, (rule.id, rule.identifier, rule.condition)
        if named - identified:
            extra[rule.id] = named - identified
    # The only other policy a condition names: the KEEP_ALL guard.
    assert extra == {rule_id: {"history"} for rule_id in (5, 7, 10, 30, 40)}


def test_rule_reads_are_what_the_condition_names():
    # The compiler rejects a text that reads beyond its condition, so the
    # condition alone tells what each rule's result depends on.
    for rule in rule_catalog():
        policies = {path.split()[-1].split(".")[0] for path in rule.reads - {"rtt", "pp"}}
        assert policies == _policies_named_in(rule.condition), (rule.id, rule.reads)
        assert rule.reads == _reads_named_in(rule.condition), (rule.id, rule.reads)
        assert rule.requires_env == rule.reads & {"rtt", "pp"}, rule.id


def test_discovery_only_metadata_policies_have_no_edges():
    graph = chain_graph()
    for abbr in ("USRDATA", "GRPDATA", "TOPDATA"):
        assert not [e for e in graph.edges if abbr in (e.source, e.target)]


def test_directed_edges_include_rxo_self_loops():
    directed = set(chain_graph().directed_edges())
    assert ("RELIAB", "DURABL", Severity.CRITICAL) in directed
    for abbr in ("PART", "RELIAB", "DURABL", "DEADLN", "LIVENS", "OWNST", "DESTORD"):
        assert (abbr, abbr, Severity.CRITICAL) in directed
    assert ("RESLIM", "RESLIM", Severity.CRITICAL) in directed


def test_dot_export_colors_by_severity():
    dot = export_chain_graph("dot")
    assert dot.startswith("digraph qos_policy_chain {")
    assert "RELIAB -> DURABL [color=red]" in dot
    assert "PART -> PART [color=red, dir=both]" in dot
    assert "color=orange" in dot and "color=gray" in dot
    assert "USRDATA ->" not in dot


def test_json_export_lists_nodes_with_lifecycle_and_cells():
    payload = json.loads(export_chain_graph("json"))
    assert len(payload["nodes"]) == 16
    assert len(payload["edges"]) == 64
    hist_node = next(n for n in payload["nodes"] if n["abbreviation"] == "HIST")
    assert hist_node["lifecycle"] == ["data-exchange"]
    assert {"source": "RELIAB", "target": "DURABL", "severity": "critical", "direction": "forward"} in payload["edges"]


def test_exports_are_deterministic():
    assert export_chain_graph("dot") == export_chain_graph("dot")
    assert export_chain_graph("json") == export_chain_graph("json")
