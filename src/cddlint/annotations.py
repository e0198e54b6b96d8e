"""Class-level @ICP extraction, the drift rule, and fix-mode rewriting.

The class-level @ICP annotation is the single source of declared truth:
`extract_declared` reads it for each type in one pass over the type's
annotations, `reconcile` compares it with the computed total, and
`apply_fixes` rewrites it. Site-level annotations are advisory, as legal
annotation positions cannot express every counted site: they never drive a
verdict, and fix mode rewrites only the class level. The parser records them
as it reads them (`SourceUnit.site_icp`), lambda bodies included; a comment
is never one. A malformed @ICP, one with
no decimal argument, gets a note; it leaves unannotated only the type whose
class-level @ICP it is, so a malformed site-level one changes no value.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Optional

from .syntax import ast
# cddbench/tracer.py hooks this name here; this module does not call it
from .syntax import parse_unit  # noqa: F401
from .syntax.ast import Span
from .values import format_icp


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


def extract_declared(unit: ast.SourceUnit
                     ) -> tuple[list[tuple[Optional[Fraction], tuple[Span, ...]]], Optional[str]]:
    """Per type, in `SourceUnit.types` order, the value of its first
    class-level @ICP (None when it has none) and the spans of all of them, a
    malformed one included: fix mode rewrites them, and refuses more than
    one; the value is None too when one of them has no decimal argument.
    Then the note of the first @ICP with no decimal argument, class level
    first, or None."""
    declared = []
    malformed: list[Span] = []  # of each @ICP with no decimal argument
    for decl in unit.types:
        annos = [a for a in decl.annotations if a.simple_name() == "ICP"]
        bad = [a.span for a in annos if a.numeric_arg is None]
        malformed += bad
        declared.append((annos[0].numeric_arg if annos and not bad else None,
                         tuple(a.span for a in annos)))
    malformed += (s.use_span for s in unit.site_icp if s.value is None)
    if not malformed:
        return declared, None
    return declared, f"@ICP needs a decimal argument (line {malformed[0].line_start})"


def reconcile(total: Fraction, declared: Optional[Fraction]
              ) -> tuple[Optional[Fraction], DriftStatus]:
    """The class-level rule: (computed - declared, status), with no delta
    when the type has no class-level @ICP."""
    if declared is None:
        return None, DriftStatus.UNANNOTATED
    delta = total - declared
    return delta, DriftStatus.DRIFTED if delta else DriftStatus.IN_SYNC


def apply_fixes(data: bytes, units: Iterable) -> bytes:
    """Rewrite (or insert) the class-level @ICP of each unit of one file's
    bytes so that declared equals computed, with no parse: each unit is read
    for `type_name`, `total`, `icp_spans` and `header_start`, as a
    `series.UnitResult` holds them, and spans are byte offsets into `data`.

    A missing @ICP goes on a line of its own above a header that starts its
    line, with the header's indent, and right before a header that follows
    other code on its line. Only a class-level @ICP, or the line of a header
    it is inserted on or above, changes; every other byte of the file is
    preserved. Idempotent: a second run returns identical bytes.
    """
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
            indent = data[line_start:header]
            if indent.strip(b" \t"):  # code before the header: insert on its line
                edits.append((header, header, rendered + b" "))
            else:
                edits.append((line_start, line_start,
                              indent + rendered + _line_terminator(data, header)))

    edits.sort(key=lambda e: e[0], reverse=True)
    for start, end, replacement in edits:
        data = data[:start] + replacement + data[end:]
    return data


def _line_terminator(data: bytes, pos: int) -> bytes:
    """How the line holding byte `pos` ends: CR LF, a lone CR or LF; LF
    for a last line with no terminator."""
    lf = data.find(b"\n", pos)
    cr = data.find(b"\r", pos, len(data) if lf < 0 else lf)
    if cr < 0:
        return b"\n"
    return b"\r\n" if data[cr + 1:cr + 2] == b"\n" else b"\r"
