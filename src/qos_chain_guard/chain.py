"""The policy dependency-chain graph and its DOT/JSON exports.

The graph is the 16x16 dependency matrix, one edge record per non-empty
cell, keeping the cell's severity and arrow direction (mirror cells are not
reconciled).  The cells are derived from the rule catalog's identifiers:
``A→B`` gives a forward cell in row A and a reverse cell in row B, ``A↔B``
a two-way cell in both rows, and rules sharing a cell give it their highest
severity.  ``MATRIX_DEVIATIONS`` lists the few cells where the published
matrix departs from the identifiers.  Nodes carry the lifecycle phases each
policy touches.
"""

from __future__ import annotations

import enum
import json

from .model import Record
from .rules import Severity, rule_catalog


class EdgeDirection(enum.Enum):
    FORWARD = "forward"  # row policy -> column policy
    REVERSE = "reverse"  # column policy -> row policy
    BIDIRECTIONAL = "bidirectional"


class PolicyNode(Record):
    """One policy of the dependency graph and its lifecycle phases."""

    abbreviation: str
    policy_name: str
    lifecycle: tuple[str, ...]


class ChainEdge(Record):
    """One non-empty matrix cell: row policy x column policy."""

    source: str
    target: str
    severity: Severity
    direction: EdgeDirection


_DISCOVERY = "discovery"
_DATA = "data-exchange"
_DISASSOCIATION = "disassociation"

POLICY_NODES: tuple[PolicyNode, ...] = (
    PolicyNode("ENTFAC", "ENTITY_FACTORY", (_DISCOVERY,)),
    PolicyNode("PART", "PARTITION", (_DISCOVERY,)),
    PolicyNode("USRDATA", "USER_DATA", (_DISCOVERY,)),
    PolicyNode("GRPDATA", "GROUP_DATA", (_DISCOVERY,)),
    PolicyNode("TOPDATA", "TOPIC_DATA", (_DISCOVERY,)),
    PolicyNode("RELIAB", "RELIABILITY", (_DISCOVERY, _DATA, _DISASSOCIATION)),
    PolicyNode("DURABL", "DURABILITY", (_DISCOVERY, _DATA, _DISASSOCIATION)),
    PolicyNode("DEADLN", "DEADLINE", (_DISCOVERY, _DATA)),
    PolicyNode("LIVENS", "LIVELINESS", (_DISCOVERY, _DATA, _DISASSOCIATION)),
    PolicyNode("HIST", "HISTORY", (_DATA,)),
    PolicyNode("RESLIM", "RESOURCE_LIMITS", (_DATA,)),
    PolicyNode("LFSPAN", "LIFESPAN", (_DATA,)),
    PolicyNode("OWNST", "OWNERSHIP (+STRENGTH)", (_DISCOVERY, _DATA, _DISASSOCIATION)),
    PolicyNode("DESTORD", "DESTINATION_ORDER", (_DISCOVERY, _DATA)),
    PolicyNode("WDLIFE", "WRITER_DATA_LIFECYCLE", (_DISASSOCIATION,)),
    PolicyNode("RDLIFE", "READER_DATA_LIFECYCLE", (_DISASSOCIATION,)),
)

Cell = tuple[Severity, EdgeDirection]

# Severities from highest to lowest.
_SEVERITY_RANK = tuple(Severity)


def identifier_cells() -> dict[tuple[str, str], Cell]:
    """The (row, column) -> (severity, direction) cells the rule identifiers give."""
    cells: dict[tuple[str, str], Cell] = {}

    def put(row: str, column: str, severity: Severity, direction: EdgeDirection) -> None:
        # Rules sharing a cell all point the same way; the highest severity wins.
        held, _ = cells.get((row, column), (severity, direction))
        cells[row, column] = (min(held, severity, key=_SEVERITY_RANK.index), direction)

    for rule in rule_catalog():
        if "↔" in rule.identifier:
            a, b = rule.identifier.split("↔")
            put(a, b, rule.severity, EdgeDirection.BIDIRECTIONAL)
            put(b, a, rule.severity, EdgeDirection.BIDIRECTIONAL)
        else:
            a, b = rule.identifier.split("→")
            put(a, b, rule.severity, EdgeDirection.FORWARD)
            put(b, a, rule.severity, EdgeDirection.REVERSE)
    return cells


# Matrix cells the identifiers do not give: (row, column) -> the published
# cell, or None where the matrix leaves the cell empty.
MATRIX_DEVIATIONS: dict[tuple[str, str], Cell | None] = {
    # Rule 32 (RELIAB→OWNST) is conditional; the matrix marks both cells critical.
    ("RELIAB", "OWNST"): (Severity.CRITICAL, EdgeDirection.FORWARD),
    ("OWNST", "RELIAB"): (Severity.CRITICAL, EdgeDirection.REVERSE),
    # Rule 4 (HIST→DESTORD) runs one way; the matrix's HIST row draws it both
    # ways, while the DESTORD row keeps the one-way arrow.
    ("HIST", "DESTORD"): (Severity.CONDITIONAL, EdgeDirection.BIDIRECTIONAL),
    # Rule 3 (LFSPAN→DEADLN) has no cell in the matrix.
    ("LFSPAN", "DEADLN"): None,
    ("DEADLN", "LFSPAN"): None,
}


def _matrix_edges() -> tuple[ChainEdge, ...]:
    """The non-empty matrix cells, row-major in ``POLICY_NODES`` order."""
    position = {node.abbreviation: index for index, node in enumerate(POLICY_NODES)}
    cells = {**identifier_cells(), **MATRIX_DEVIATIONS}
    return tuple(
        ChainEdge(row, column, *cell)
        for (row, column), cell in sorted(
            cells.items(), key=lambda item: (position[item[0][0]], position[item[0][1]])
        )
        if cell is not None
    )


CHAIN_EDGES: tuple[ChainEdge, ...] = _matrix_edges()


class ChainGraph(Record):
    """The policy dependency graph: its nodes and its matrix cells."""

    nodes: tuple[PolicyNode, ...]
    edges: tuple[ChainEdge, ...]

    def directed_edges(self) -> tuple[tuple[str, str, Severity], ...]:
        """Unique (source, target, severity) triples implied by the cells.

        Forward cells point row->column, reverse cells column->row, and
        bidirectional cells contribute both; exact duplicates (each pair of
        mirror cells names the same dependency) collapse to one.
        """
        arrows: list[tuple[str, str, Severity]] = []
        for edge in self.edges:
            if edge.direction is not EdgeDirection.REVERSE:
                arrows.append((edge.source, edge.target, edge.severity))
            if edge.direction is not EdgeDirection.FORWARD:
                arrows.append((edge.target, edge.source, edge.severity))
        return tuple(dict.fromkeys(arrows))


def chain_graph() -> ChainGraph:
    return ChainGraph(nodes=POLICY_NODES, edges=CHAIN_EDGES)


_EDGE_COLORS = {
    Severity.CRITICAL: "red",
    Severity.CONDITIONAL: "orange",
    Severity.INCIDENTAL: "gray",
}


def export_chain_graph(fmt: str = "dot") -> str:
    """Render the chain graph as Graphviz DOT or as JSON."""
    graph = chain_graph()
    if fmt == "json":
        payload = {
            "nodes": [
                {
                    "abbreviation": node.abbreviation,
                    "policy": node.policy_name,
                    "lifecycle": list(node.lifecycle),
                }
                for node in graph.nodes
            ],
            "edges": [
                {
                    "source": edge.source,
                    "target": edge.target,
                    "severity": edge.severity.value,
                    "direction": edge.direction.value,
                }
                for edge in graph.edges
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt != "dot":
        raise ValueError(f"unknown graph format {fmt!r} (expected dot or json)")

    lines = [
        "digraph qos_policy_chain {",
        "  rankdir=LR;",
        '  node [shape=box, style=rounded, fontname="Helvetica"];',
    ]
    for node in graph.nodes:
        phases = ",".join(node.lifecycle)
        lines.append(
            f'  {node.abbreviation} [label="{node.abbreviation}", tooltip="{node.policy_name} ({phases})"];'
        )
    directed = graph.directed_edges()
    drawn: set[tuple[str, str, Severity]] = set()
    for source, target, severity in directed:
        if (source, target, severity) in drawn:
            continue
        # An arrow whose mirror (or a self-loop) has the same severity is drawn once, both ways.
        mirror = (target, source, severity)
        both = ", dir=both" if mirror in directed else ""
        drawn.add(mirror)
        lines.append(f"  {source} -> {target} [color={_EDGE_COLORS[severity]}{both}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
