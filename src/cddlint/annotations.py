"""Declared @ICP extraction, drift reconciliation and fix-mode rewriting.

The class-level @ICP annotation is the single source of declared truth.
Site-level annotations (and `// @ICP(n)` marker comments) are advisory: legal
annotation positions cannot express every counted site, so mismatches at that
level are reported but never drive a verdict, and fix mode rewrites only the
class level.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .engine import UnitAnalysis
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


@dataclass(frozen=True)
class SiteAnnotation:
    owner: str  # dotted type name the annotated element belongs to
    span: Span  # span of the annotated element
    value: Fraction


@dataclass(frozen=True)
class DeclaredIcp:
    class_level: dict[str, Fraction]
    site_level: tuple[SiteAnnotation, ...]

    def is_empty(self) -> bool:
        return not self.class_level and not self.site_level


@dataclass(frozen=True)
class SiteMismatch:
    span: Span
    declared: Fraction
    computed: Fraction


@dataclass(frozen=True)
class DriftReport:
    declared_total: Optional[Fraction]
    delta: Optional[Fraction]  # computed - declared; None when unannotated
    status: DriftStatus
    site_mismatches: tuple[SiteMismatch, ...]


def _icp_value(anno: ast.AnnotationUse) -> Fraction:
    if anno.numeric_arg is None:
        raise MalformedIcp(anno.span)
    return anno.numeric_arg


def extract_declared(unit: ast.SourceUnit) -> DeclaredIcp:
    """Collect @ICP values from types, members, locals and marker comments."""
    class_level: dict[str, Fraction] = {}
    site_level: list[SiteAnnotation] = []

    for dotted, decl in iter_type_decls(unit):
        for anno in decl.annotations:
            if anno.simple_name() == "ICP":
                class_level.setdefault(dotted, _icp_value(anno))

        def site(span: Span, value: Fraction) -> None:
            site_level.append(SiteAnnotation(dotted, span, value))

        for f in decl.fields:
            for anno in f.annotations:
                if anno.simple_name() == "ICP":
                    site(f.span, _icp_value(anno))
        for m in decl.methods:
            for anno in m.annotations:
                if anno.simple_name() == "ICP":
                    site(m.span, _icp_value(anno))
            if m.body is not None:
                for stmt in _iter_stmts(m.body):
                    for anno in stmt.annotations:
                        if anno.simple_name() == "ICP":
                            site(stmt.span, _icp_value(anno))
                    for marker in stmt.markers:
                        site(stmt.span, marker.value)

    return DeclaredIcp(class_level, tuple(site_level))


def _iter_stmts(stmt: ast.Stmt) -> Iterator[ast.Stmt]:
    yield stmt
    if isinstance(stmt, ast.Block):
        for s in stmt.stmts:
            yield from _iter_stmts(s)
    elif isinstance(stmt, ast.If):
        while True:  # an `else if` chain is walked here, not by recursion
            yield from _iter_stmts(stmt.then)
            if not isinstance(stmt.else_branch, ast.If):
                break
            stmt = stmt.else_branch
            yield stmt
        if stmt.else_branch is not None:
            yield from _iter_stmts(stmt.else_branch)
    elif isinstance(stmt, ast.Loop):
        for s in stmt.init:
            yield from _iter_stmts(s)
        if stmt.var is not None:
            yield from _iter_stmts(stmt.var)
        yield from _iter_stmts(stmt.body)
    elif isinstance(stmt, ast.Switch):
        for case in stmt.cases:
            for s in case.stmts:
                yield from _iter_stmts(s)
    elif isinstance(stmt, ast.Try):
        for res in stmt.resources:
            yield from _iter_stmts(res)
        yield from _iter_stmts(stmt.body)
        for clause in stmt.catches:
            yield from _iter_stmts(clause.body)
        if stmt.finally_block is not None:
            yield from _iter_stmts(stmt.finally_block)


def reconcile(analysis: UnitAnalysis, declared: DeclaredIcp) -> DriftReport:
    """Class-level comparison decides the status; site-level is advisory."""
    declared_total = declared.class_level.get(analysis.type_name)
    if declared_total is None:
        delta, status = None, DriftStatus.UNANNOTATED
    else:
        delta = analysis.total - declared_total
        status = DriftStatus.DRIFTED if delta else DriftStatus.IN_SYNC

    mismatches: list[SiteMismatch] = []
    for entry in declared.site_level:
        if entry.owner != analysis.type_name:
            continue
        computed = sum(
            (site.cost for site in analysis.sites if entry.span.contains(site.span)),
            Fraction(0),
        )
        if computed != entry.value:
            mismatches.append(SiteMismatch(entry.span, entry.value, computed))

    return DriftReport(declared_total, delta, status, tuple(mismatches))


def apply_fix(text: str, analysis: UnitAnalysis) -> str:
    """Rewrite (or insert) the class-level @ICP so declared equals computed.

    Only the class-level annotation line changes; every other byte of the
    file is preserved. Idempotent: a second run returns identical text.
    """
    return apply_fixes(text, [analysis], parse_unit(text))


def apply_fixes(text: str, analyses: list[UnitAnalysis], unit: ast.SourceUnit) -> str:
    """apply_fix for several units of one file; ``unit`` is ``text`` parsed."""
    data = text.encode("utf-8")
    decls = dict(iter_type_decls(unit))
    edits: list[tuple[int, int, bytes]] = []  # (start, end, replacement)

    for analysis in analyses:
        decl = decls.get(analysis.type_name)
        if decl is None:
            continue
        icp_spans = [
            a.span for a in decl.annotations if a.simple_name() == "ICP"
        ]
        if len(icp_spans) > 1:
            raise RewriteConflict(analysis.type_name, tuple(icp_spans))
        rendered = f"@ICP({format_icp(analysis.total)})".encode("utf-8")
        if icp_spans:
            span = icp_spans[0]
            if data[span.byte_start:span.byte_end] != rendered:
                edits.append((span.byte_start, span.byte_end, rendered))
        else:
            line_start = data.rfind(b"\n", 0, decl.header_start) + 1
            indent_end = line_start
            while indent_end < len(data) and data[indent_end] in (0x20, 0x09):
                indent_end += 1
            indent = data[line_start:indent_end]
            edits.append((line_start, line_start, indent + rendered + b"\n"))

    if not edits:
        return text
    edits.sort(key=lambda e: e[0], reverse=True)
    for start, end, replacement in edits:
        data = data[:start] + replacement + data[end:]
    return data.decode("utf-8")
