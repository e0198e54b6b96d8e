"""Declared @ICP extraction, drift reconciliation and fix-mode rewriting.

The class-level @ICP annotation is the single source of declared truth.
Site-level annotations (and `// @ICP(n)` marker comments) are advisory: legal
annotation positions cannot express every counted site, so `reconcile`
compares them with the sites in their span only as `site_mismatches`, which
no renderer shows yet; they never drive a verdict, and fix mode rewrites
only the class level. The parser records the site-level ones as it reads
them (`SourceUnit.site_icp`), lambda bodies included, so extraction walks
no statements.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Optional

from .engine import UnitAnalysis
from .records import Record
from .syntax import ast, parse_unit
from .syntax.ast import Span, iter_type_decls
from .values import format_icp


class MalformedIcp(Exception):
    """An @ICP annotation with a missing or non-decimal argument."""

    def __init__(self, span: Span):
        self.span = span
        super().__init__(
            f"@ICP needs a decimal argument (line {span.line_start})"
        )


class RewriteConflict(Exception):
    """Duplicate class-level @ICP annotations make the rewrite ambiguous."""

    def __init__(self, type_name: str, spans: tuple[Span, ...]):
        self.type_name = type_name
        self.spans = spans
        super().__init__(f"duplicate @ICP on {type_name}")


class DriftStatus(enum.Enum):
    IN_SYNC = "in_sync"
    DRIFTED = "drifted"
    UNANNOTATED = "unannotated"


class DeclaredIcp(Record):
    _fields = (
        "class_level",  # dict[str, Fraction] by dotted type name
        "site_level",  # (ast.SiteIcp, ...), as the parser recorded them
    )

    def is_empty(self) -> bool:
        return not self.class_level and not self.site_level


class SiteMismatch(Record):
    _fields = ("span", "declared", "computed")  # declared, computed: Fraction


class DriftReport(Record):
    _fields = (
        "declared_total",  # Fraction | None
        "delta",  # computed - declared; None when unannotated
        "status",  # DriftStatus
        "site_mismatches",  # (SiteMismatch, ...)
    )


def extract_declared(unit: ast.SourceUnit) -> DeclaredIcp:
    """The class-level @ICP of each type, and the site-level ones the parser
    recorded; raises MalformedIcp for an @ICP with no decimal argument."""
    class_level: dict[str, Fraction] = {}
    for dotted, decl in iter_type_decls(unit):
        for anno in decl.annotations:
            if anno.simple_name() == "ICP":
                if anno.numeric_arg is None:
                    raise MalformedIcp(anno.span)
                class_level.setdefault(dotted, anno.numeric_arg)
    for site in unit.site_icp:
        if site.value is None:
            raise MalformedIcp(site.use_span)
    return DeclaredIcp((class_level, unit.site_icp))


def drift(total: Fraction, declared_total: Optional[Fraction]
          ) -> tuple[Optional[Fraction], DriftStatus]:
    """The class-level rule: (computed - declared, status), with no delta
    when the type has no class-level @ICP."""
    if declared_total is None:
        return None, DriftStatus.UNANNOTATED
    delta = total - declared_total
    return delta, DriftStatus.DRIFTED if delta else DriftStatus.IN_SYNC


def reconcile(analysis: UnitAnalysis, declared: DeclaredIcp) -> DriftReport:
    """Class-level comparison decides the status; site-level is advisory."""
    declared_total = declared.class_level.get(analysis.type_name)
    delta, status = drift(analysis.total, declared_total)

    mismatches: list[SiteMismatch] = []
    for entry in declared.site_level:
        if entry.owner != analysis.type_name:
            continue
        computed = sum(
            (site.cost for site in analysis.sites if entry.span.contains(site.span)),
            Fraction(0),
        )
        if computed != entry.value:
            mismatches.append(SiteMismatch((entry.span, entry.value, computed)))

    return DriftReport((declared_total, delta, status, tuple(mismatches)))


def class_icp_spans(decl: ast.TypeDecl) -> tuple[Span, ...]:
    """The spans of a type's class-level @ICP annotations, a malformed one
    included: fix mode rewrites them, and refuses more than one."""
    return tuple(a.span for a in decl.annotations if a.simple_name() == "ICP")


class _FixTarget(Record):
    """What fix mode reads of one type, as `series.UnitResult` holds it."""

    _fields = ("type_name", "total", "icp_spans", "header_start")


def apply_fix(text: str, analysis: UnitAnalysis) -> str:
    """Rewrite (or insert) the class-level @ICP so declared equals computed.

    Only the class-level annotation line changes; every other byte of the
    file is preserved. Idempotent: a second run returns identical text.
    """
    decl = dict(iter_type_decls(parse_unit(text))).get(analysis.type_name)
    if decl is None:
        return text
    return apply_fixes(text, [_FixTarget((
        analysis.type_name, analysis.total, class_icp_spans(decl), decl.header_start))])


def apply_fixes(text: str, units: Iterable) -> str:
    """apply_fix for several types of one file, with no parse: each unit is
    read for `type_name`, `total`, `icp_spans` (its `class_icp_spans`) and
    `header_start`, as a `series.UnitResult` holds them."""
    data = text.encode("utf-8")
    edits: list[tuple[int, int, bytes]] = []  # (start, end, replacement)

    for unit in units:
        if len(unit.icp_spans) > 1:
            raise RewriteConflict(unit.type_name, unit.icp_spans)
        rendered = f"@ICP({format_icp(unit.total)})".encode("utf-8")
        if unit.icp_spans:
            span = unit.icp_spans[0]
            if data[span.byte_start:span.byte_end] != rendered:
                edits.append((span.byte_start, span.byte_end, rendered))
        else:
            header = unit.header_start
            line_start = max(data.rfind(b"\n", 0, header), data.rfind(b"\r", 0, header)) + 1
            indent_end = line_start
            while indent_end < len(data) and data[indent_end] in (0x20, 0x09):
                indent_end += 1
            indent = data[line_start:indent_end]
            edits.append((line_start, line_start,
                          indent + rendered + _line_terminator(data, header)))

    if not edits:
        return text
    edits.sort(key=lambda e: e[0], reverse=True)
    for start, end, replacement in edits:
        data = data[:start] + replacement + data[end:]
    return data.decode("utf-8")


def _line_terminator(data: bytes, pos: int) -> bytes:
    """How the line holding byte `pos` ends: CR LF, a lone CR or LF; LF
    for a last line with no terminator."""
    lf = data.find(b"\n", pos)
    cr = data.find(b"\r", pos, len(data) if lf < 0 else lf)
    if cr < 0:
        return b"\n"
    return b"\r\n" if data[cr + 1:cr + 2] == b"\n" else b"\r"
