"""Offline dependency-chain linter for DDS DataWriter/DataReader QoS profiles.

Parses DDS-style XML profile documents, resolves OMG defaults, evaluates a
41-rule catalog of policy dependency violations across three stages
(per-endpoint consistency, writer/reader RxO compatibility, and
environment-dependent checks), and renders deterministic reports.

The dependency-graph names (``ChainGraph``, ``chain_graph``, ...) load the
``chain`` module on first use, so ``check`` never imports it.
"""

from ._version import __version__
from .model import (
    Count,
    Duration,
    EndpointKind,
    EndpointProfile,
    HistoryKind,
    DestinationOrderKind,
    DurabilityKind,
    LivelinessKind,
    OwnershipKind,
    QosProfile,
    ReliabilityKind,
    SourceLocation,
    default_qos,
    format_duration,
    resolve_defaults,
)
from .pipeline import (
    EnvironmentLoadError,
    EnvironmentModel,
    PairOrigin,
    Pairing,
    PairingError,
    Report,
    build_pairing_plan,
    load_environment,
    render_report,
    run_pipeline,
)
from .profiles import (
    ParseDiagnostic,
    ProfileDocument,
    ProfileLoadError,
    ProfileSet,
    load_profile_files,
    parse_document,
    parse_profiles,
    serialize_canonical,
)
from .rules import (
    Rule,
    RuleScope,
    Severity,
    SkipReason,
    SkippedRule,
    Violation,
    evaluate_pair_rules,
    evaluate_rule,
    rule_catalog,
)

__all__ = [
    "__version__",
    "ChainEdge",
    "ChainGraph",
    "Count",
    "DestinationOrderKind",
    "DurabilityKind",
    "Duration",
    "EdgeDirection",
    "EndpointKind",
    "EndpointProfile",
    "EnvironmentLoadError",
    "EnvironmentModel",
    "HistoryKind",
    "LivelinessKind",
    "OwnershipKind",
    "PairOrigin",
    "Pairing",
    "PairingError",
    "ParseDiagnostic",
    "PolicyNode",
    "ProfileDocument",
    "ProfileLoadError",
    "ProfileSet",
    "QosProfile",
    "ReliabilityKind",
    "Report",
    "Rule",
    "RuleScope",
    "Severity",
    "SkipReason",
    "SkippedRule",
    "SourceLocation",
    "Violation",
    "build_pairing_plan",
    "chain_graph",
    "default_qos",
    "evaluate_pair_rules",
    "evaluate_rule",
    "export_chain_graph",
    "format_duration",
    "load_environment",
    "load_profile_files",
    "parse_document",
    "parse_profiles",
    "render_report",
    "resolve_defaults",
    "rule_catalog",
    "run_pipeline",
    "serialize_canonical",
]


def __getattr__(name: str) -> object:
    # Only the chain names listed in __all__ are missing from the globals.
    if name in __all__:
        from . import chain

        return getattr(chain, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
