"""Check-run report: per-unit rows plus summary, rendered as text, JSON or CSV,
either as the check report or as the drift report of ``reconcile``.

All three renderings of each show the same numbers; JSON documents carry a
schema_version and validate against the shipped schema files.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .annotations import DriftReport, DriftStatus
from .engine import UnitAnalysis, Verdict
from .rules import IcpCategory
from .values import format_icp, json_number


@dataclass(frozen=True)
class UnitRow:
    path: str
    type_name: str
    total: Fraction
    subtotals: dict[IcpCategory, Fraction]
    limit: Fraction
    over_limit: bool
    declared_total: Optional[Fraction]
    delta: Optional[Fraction]  # computed - declared; None when unannotated
    drift_status: DriftStatus


@dataclass(frozen=True)
class FileIssue:
    path: str
    message: str


@dataclass(frozen=True)
class CheckReport:
    rows: tuple[UnitRow, ...]
    issues: tuple[FileIssue, ...]
    parse_failures: int

    @property
    def over_limit_count(self) -> int:
        return sum(1 for r in self.rows if r.over_limit)

    @property
    def drifted_count(self) -> int:
        return sum(1 for r in self.rows if r.drift_status is DriftStatus.DRIFTED)

    @property
    def unannotated_count(self) -> int:
        return sum(1 for r in self.rows if r.drift_status is DriftStatus.UNANNOTATED)


def make_row(analysis: UnitAnalysis, unit_verdict: Verdict, drift: DriftReport) -> UnitRow:
    return UnitRow(
        path=analysis.path,
        type_name=analysis.type_name,
        total=analysis.total,
        subtotals=analysis.subtotals,
        limit=unit_verdict.applicable_limit,
        over_limit=unit_verdict.over_limit,
        declared_total=drift.declared_total,
        delta=drift.delta,
        drift_status=drift.status,
    )


def _top_categories(row: UnitRow, n: int = 3) -> str:
    ranked = sorted(
        ((cat, sub) for cat, sub in row.subtotals.items() if sub > 0),
        key=lambda item: (-item[1], item[0].value),
    )
    return ", ".join(f"{cat.value} {format_icp(sub)}" for cat, sub in ranked[:n])


def render_text(report: CheckReport) -> str:
    lines: list[str] = []
    for row in report.rows:
        if not row.over_limit:
            continue
        top = _top_categories(row)
        suffix = f" - {top}" if top else ""
        lines.append(
            f"{row.path}:{row.type_name}: {format_icp(row.total)} ICPs "
            f"(limit {format_icp(row.limit)}){suffix}"
        )
    for issue in report.issues:
        lines.append(f"{issue.path}: {issue.message}")
    lines.append(
        f"{len(report.rows)} units, {report.over_limit_count} over limit, "
        f"{report.drifted_count} drifted, {report.unannotated_count} unannotated, "
        f"{report.parse_failures} parse failures"
    )
    return "\n".join(lines) + "\n"


def render_json_mapping(report: CheckReport) -> dict:
    return {
        "schema_version": 1,
        "units": [
            {
                "path": row.path,
                "type": row.type_name,
                "total": json_number(row.total),
                "subtotals": {
                    cat.value: json_number(sub) for cat, sub in row.subtotals.items()
                },
                "limit": json_number(row.limit),
                "over_limit": row.over_limit,
                "declared_total": (
                    json_number(row.declared_total)
                    if row.declared_total is not None else None
                ),
                "drift_status": row.drift_status.value,
            }
            for row in report.rows
        ],
        "summary": {
            "units": len(report.rows),
            "over_limit_count": report.over_limit_count,
            "drifted_count": report.drifted_count,
            "unannotated_count": report.unannotated_count,
            "parse_failures": report.parse_failures,
        },
        "diagnostics": [
            {"path": issue.path, "message": issue.message} for issue in report.issues
        ],
    }


def render_csv(report: CheckReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "path", "type", "total", "limit", "over_limit", "declared", "drift_status",
        *(cat.value for cat in IcpCategory),
    ])
    for row in report.rows:
        writer.writerow([
            row.path,
            row.type_name,
            format_icp(row.total),
            format_icp(row.limit),
            "true" if row.over_limit else "false",
            format_icp(row.declared_total) if row.declared_total is not None else "",
            row.drift_status.value,
            *(format_icp(row.subtotals[cat]) for cat in IcpCategory),
        ])
    return buf.getvalue()


def render_drift_text(report: CheckReport) -> str:
    lines: list[str] = []
    for row in report.rows:
        if row.drift_status is DriftStatus.IN_SYNC:
            continue
        declared = (format_icp(row.declared_total)
                    if row.declared_total is not None else "-")
        delta = ""
        if row.delta is not None:
            delta = f" (delta {'+' if row.delta > 0 else ''}{format_icp(row.delta)})"
        lines.append(f"{row.path}:{row.type_name}: {row.drift_status.value}: "
                     f"declared {declared}, computed {format_icp(row.total)}{delta}")
    for issue in report.issues:
        lines.append(f"{issue.path}: {issue.message}")
    lines.append(f"{len(report.rows)} units, {report.drifted_count} drifted, "
                 f"{report.unannotated_count} unannotated")
    return "\n".join(lines) + "\n"


def render_drift_json_mapping(report: CheckReport) -> dict:
    return {
        "schema_version": 1,
        "units": [
            {
                "path": row.path,
                "type": row.type_name,
                "declared_total": (json_number(row.declared_total)
                                   if row.declared_total is not None else None),
                "computed_total": json_number(row.total),
                "delta": json_number(row.delta) if row.delta is not None else None,
                "status": row.drift_status.value,
            }
            for row in report.rows
        ],
        "summary": {
            "units": len(report.rows),
            "drifted_count": report.drifted_count,
            "unannotated_count": report.unannotated_count,
            "parse_failures": report.parse_failures,
        },
    }


def render_drift_csv(report: CheckReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["path", "type", "declared", "computed", "delta", "status"])
    for row in report.rows:
        writer.writerow([
            row.path,
            row.type_name,
            format_icp(row.declared_total) if row.declared_total is not None else "",
            format_icp(row.total),
            format_icp(row.delta) if row.delta is not None else "",
            row.drift_status.value,
        ])
    return buf.getvalue()
