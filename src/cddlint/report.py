"""Check-run report: per-unit rows plus summary, rendered as text, JSON or CSV,
either as the check report or as the drift report of ``reconcile``.

All three renderings of each show the same numbers; JSON documents carry a
schema_version and validate against the shipped schema files.

`csv_document` imports `csv` where it runs, so a text or JSON run does not
load it; history's CSV is written by it too.
"""

from __future__ import annotations

import io

from .annotations import DriftStatus
from .records import Record
from .rules import IcpCategory
from .values import format_icp, json_number


class FileIssue(Record):
    _fields = ("path", "line", "message")  # line: int, or None for the whole file

    def __str__(self) -> str:
        where = self.path if self.line is None else f"{self.path}:{self.line}"
        return f"{where}: {self.message}"


class CheckReport(Record):
    # ((recorded path, series.UnitResult), ...), (FileIssue, ...), int
    _fields = ("rows", "issues", "parse_failures")

    @property
    def over_limit_count(self) -> int:
        return sum(1 for _, u in self.rows if u.over_limit)

    @property
    def drifted_count(self) -> int:
        return sum(1 for _, u in self.rows if u.status is DriftStatus.DRIFTED)

    @property
    def unannotated_count(self) -> int:
        return sum(1 for _, u in self.rows if u.status is DriftStatus.UNANNOTATED)


def _top_categories(subtotals: dict, n: int = 3) -> str:
    ranked = sorted(
        ((cat, sub) for cat, sub in subtotals.items() if sub > 0),
        key=lambda item: (-item[1], item[0].value),
    )
    return ", ".join(f"{cat.value} {format_icp(sub)}" for cat, sub in ranked[:n])


def render_text(report: CheckReport) -> str:
    lines: list[str] = []
    for path, u in report.rows:
        if not u.over_limit:
            continue
        top = _top_categories(u.subtotals)
        suffix = f" - {top}" if top else ""
        lines.append(
            f"{path}:{u.type_name}: {format_icp(u.total)} ICPs "
            f"(limit {format_icp(u.limit)}){suffix}"
        )
    lines += map(str, report.issues)
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
                "path": path,
                "type": u.type_name,
                "total": json_number(u.total),
                "subtotals": {
                    cat.value: json_number(sub) for cat, sub in u.subtotals.items()
                },
                "limit": json_number(u.limit),
                "over_limit": u.over_limit,
                "declared_total": (
                    json_number(u.declared) if u.declared is not None else None
                ),
                "drift_status": u.status.value,
            }
            for path, u in report.rows
        ],
        "summary": {
            "units": len(report.rows),
            "over_limit_count": report.over_limit_count,
            "drifted_count": report.drifted_count,
            "unannotated_count": report.unannotated_count,
            "parse_failures": report.parse_failures,
        },
        "diagnostics": _json_diagnostics(report),
    }


def _json_diagnostics(report: CheckReport) -> list[dict]:
    return [{"path": issue.path,
             "message": issue.message if issue.line is None
             else f"line {issue.line}: {issue.message}"} for issue in report.issues]


def csv_document(header: list[str], rows) -> str:
    """A header row and rows as CSV text, LF-terminated."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_csv(report: CheckReport) -> str:
    return csv_document([
        "path", "type", "total", "limit", "over_limit", "declared", "drift_status",
        *(cat.value for cat in IcpCategory),
    ], ([
        path,
        u.type_name,
        format_icp(u.total),
        format_icp(u.limit),
        "true" if u.over_limit else "false",
        format_icp(u.declared) if u.declared is not None else "",
        u.status.value,
        *(format_icp(u.subtotals[cat]) for cat in IcpCategory),
    ] for path, u in report.rows))


def render_drift_text(report: CheckReport) -> str:
    lines: list[str] = []
    for path, u in report.rows:
        if u.status is DriftStatus.IN_SYNC:
            continue
        declared = format_icp(u.declared) if u.declared is not None else "-"
        delta = ""
        if u.delta is not None:
            delta = f" (delta {'+' if u.delta > 0 else ''}{format_icp(u.delta)})"
        lines.append(f"{path}:{u.type_name}: {u.status.value}: "
                     f"declared {declared}, computed {format_icp(u.total)}{delta}")
    lines += map(str, report.issues)
    lines.append(f"{len(report.rows)} units, {report.drifted_count} drifted, "
                 f"{report.unannotated_count} unannotated")
    return "\n".join(lines) + "\n"


def render_drift_json_mapping(report: CheckReport) -> dict:
    return {
        "schema_version": 1,
        "units": [
            {
                "path": path,
                "type": u.type_name,
                "declared_total": json_number(u.declared) if u.declared is not None else None,
                "computed_total": json_number(u.total),
                "delta": json_number(u.delta) if u.delta is not None else None,
                "status": u.status.value,
            }
            for path, u in report.rows
        ],
        "summary": {
            "units": len(report.rows),
            "drifted_count": report.drifted_count,
            "unannotated_count": report.unannotated_count,
            "parse_failures": report.parse_failures,
        },
        "diagnostics": _json_diagnostics(report),
    }


def render_drift_csv(report: CheckReport) -> str:
    return csv_document(["path", "type", "declared", "computed", "delta", "status"], ([
        path,
        u.type_name,
        format_icp(u.declared) if u.declared is not None else "",
        format_icp(u.total),
        format_icp(u.delta) if u.delta is not None else "",
        u.status.value,
    ] for path, u in report.rows))
