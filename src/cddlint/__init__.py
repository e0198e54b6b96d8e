"""cddlint: Intrinsic Complexity Point (ICP) counting and budget enforcement
for Java sources, with @ICP annotation reconciliation and repository-history
evolution metrics."""

from .annotations import DriftStatus, RewriteConflict, extract_declared, reconcile
from .engine import IcpSite, UnitAnalysis, Verdict, analyze_unit, verdict
from .methods import MethodStats, method_stats
from .rules import ConfigError, IcpCategory, RuleSet, default_rules, load_rules
from .syntax import ParseError, SourceUnit, parse_unit, physical_loc

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DriftStatus",
    "IcpCategory",
    "IcpSite",
    "MethodStats",
    "ParseError",
    "RewriteConflict",
    "RuleSet",
    "SourceUnit",
    "UnitAnalysis",
    "Verdict",
    "analyze_unit",
    "default_rules",
    "extract_declared",
    "load_rules",
    "method_stats",
    "parse_unit",
    "physical_loc",
    "reconcile",
    "verdict",
]
