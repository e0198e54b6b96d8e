"""The per-file result every command reads, and per-commit evolution
metrics: class counts, mean LOC, mean ICP, percent of classes over the
limit, method-length stats and budget-commit detection.

`analyze_file` is the one place a file's bytes are parsed, analysed,
judged against its limit and reconciled with its class-level @ICP. `check`
and `reconcile` render its `FileResult`s, `reconcile --fix` rewrites files
from them with no second parse, and a snapshot's metrics aggregate one per
non-test file; a snapshot shows whole-file failures only, not diagnostics
or malformed-@ICP notes.

`series()` walks the range once, from the changes the provider yields per
commit for the wanted paths that are not test paths, so no test file is
fetched: a raw path's (path, key) pair, where the key is the git blob id,
or the bytes for snapshot folders, or None when the path is gone. One tree,
keyed by raw path, holds each current pair and its `FileResult`; only pairs
that differ from the tree's are fetched and analysed. The pair covers every
input of a result: the bytes, and the path that limit overrides depend on;
the rules are fixed for the call. Changes wait in `pending`, so a snapshot
whose fetch fails leaves the tree as it was and hands its changes to the
next. Ordinals count from the oldest commit walked, which in a shallow
clone is its boundary commit.

`read_snapshot_files`, `analyze_file` on each non-test file, and
`analyze_snapshot` are the independent full read of one commit that a
series snapshot must equal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from ..annotations import extract_declared, reconcile
from ..engine import analyze_unit, verdict
from ..methods import method_stats, stats_from_lengths
from ..records import Record
from ..report import csv_document
from ..rules import RuleSet
from ..syntax import ParseError, parse_unit, physical_loc
from ..values import exact_sum, format_fixed2
from .providers import (
    Changes, CommitMeta, GitProvider, Pair, RangeSpec, SnapshotDirProvider,
)

Provider = Union[GitProvider, SnapshotDirProvider]

CSV_COLUMNS = [
    "ordinal", "commit_id", "timestamp", "class_count", "mean_loc", "mean_icp",
    "percent_over_limit", "cdd_commit", "methods_counted", "method_mean_loc",
    "method_p50", "method_max", "pct_methods_le_24",
]


class SnapshotFile(Record):
    _fields = (
        "path", "data",  # str, bytes
        "is_test",  # bool
    )


class SnapshotStats(Record):
    _fields = (
        "class_count",  # int
        # Fraction | None each, None when the snapshot has no class
        "mean_physical_loc", "mean_icp", "percent_over_limit",
        "methods",  # MethodStats
        "parse_failures",  # int
        "diagnostics",  # (str, ...)
    )


class SnapshotMetrics(Record):
    _fields = (
        "commit",  # CommitMeta
        "stats",  # SnapshotStats
        "cdd_commit",  # (unit name, description) | None
    )


class SeriesReport(Record):
    _fields = (
        "snapshots",  # (SnapshotMetrics, ...)
        "rules_digest",  # str
        "parameters",  # dict
    )


def read_snapshot_files(
    provider: Provider, commit: CommitMeta, rules: RuleSet
) -> list[SnapshotFile]:
    """Fetch every matching file at one commit, test files included, in
    git's path order."""
    [tree] = provider.changes([commit], rules.is_wanted_path)
    try:
        blobs = provider.read_files([tree[raw] for raw in sorted(tree)])
    finally:
        provider.close()
    return [SnapshotFile((path, data, rules.is_test_path(path))) for path, data in blobs]


def detect_cdd_commit(message: str, rules: RuleSet) -> Optional[tuple[str, str]]:
    first_line = message.split("\n", 1)[0]
    m = rules.commit_pattern.match(first_line)
    if m is None:
        return None
    groups = m.groups()
    unit = groups[0] if groups else m.group(0)
    description = groups[1] if len(groups) > 1 else ""
    return unit or "", description or ""


class UnitResult(Record):
    """One type of a file, as `analyze_file` judged it. Each field names
    who reads it: check, reconcile, fix (reconcile --fix) and history."""

    _fields = (
        "type_name",  # dotted for a nested type; check, reconcile, fix
        "total",  # Fraction; all
        "subtotals",  # dict[IcpCategory, Fraction]; check
        "limit", "over_limit",  # the verdict, Fraction and bool; check, history
        "declared",  # the class-level @ICP value, Fraction | None; check, reconcile
        # `annotations.reconcile`: computed - declared (None when unannotated),
        # and the DriftStatus; check, reconcile, fix
        "delta", "status",
        "loc",  # int; history
        "icp_spans",  # the class-level @ICP spans; fix rewrites them
        "header_start",  # byte offset; fix inserts a missing @ICP at or above it
    )


class FileResult(Record):
    """One file: its units, or, when it did not parse, only `failure`."""

    _fields = (
        "units",  # (UnitResult, ...), outer types before their nested ones
        "method_lengths", "excluded_methods",  # (int, ...), int; history
        "diagnostics",  # (ast.Diagnostic, ...), the parser's; check, reconcile, fix
        "malformed",  # the note of a malformed @ICP, or None; check, reconcile, fix
        "failure",  # "parse failed: ...", or None when the file parsed; all
    )

    @classmethod
    def failed(cls, failure: str) -> FileResult:
        return cls(((), (), 0, (), None, failure))


def analyze_file(path: str, data: bytes, rules: RuleSet) -> FileResult:
    """Parse, analyse and judge one file's bytes, and reconcile its
    class-level @ICP: the one per-file path, whose result check, reconcile,
    reconcile --fix and history all read (`UnitResult` names who reads each
    field). A `ParseError`, which a byte that is not UTF-8 raises too, or a
    `RecursionError` becomes its `failure`, the first as `parse failed: line
    N: message`; a malformed @ICP gives the file a note, and leaves
    unannotated only the unit whose class-level @ICP it is. Limit overrides
    and test globs match `path`.

    LOC attribution: a file with a single top-level class, its first unit,
    gives that class `physical_loc(data)`, which counts a lone CR as a line
    end; any other class, member and local ones included, gets its own
    declaration span height.
    """
    try:
        unit = parse_unit(data, path)
        analyses = analyze_unit(unit, rules)
    except ParseError as exc:
        line = exc.diagnostics[-1].span.line_start
        return FileResult.failed(f"parse failed: line {line}: {exc}")
    except RecursionError:
        return FileResult.failed("parse failed: nesting too deep")
    declared, malformed = extract_declared(unit)
    # one top-level type: the first type's span holds every other type's
    whole_file = all(unit.types[0].span.contains(decl.span) for decl in unit.types[1:])
    units = []
    for a, decl, (value, spans) in zip(analyses, unit.types, declared):
        v = verdict(a, rules)
        loc = (physical_loc(data) if whole_file and not units
               else a.span.line_end - a.span.line_start + 1)
        units.append(UnitResult((
            a.type_name, a.total, a.subtotals, v.applicable_limit, v.over_limit,
            value, *reconcile(a.total, value), loc, spans, decl.header_start,
        )))
    lengths = tuple(n for a in analyses for n in a.method_lengths)
    excluded = sum(a.excluded_methods for a in analyses)
    return FileResult((tuple(units), lengths, excluded, unit.diagnostics, malformed, None))


def analyze_snapshot(results: list[tuple[str, FileResult]]) -> SnapshotStats:
    """Class metrics over the (path, `FileResult`) rows of a snapshot's
    non-test files, in path order; whole-file failures are tallied, not
    fatal."""
    totals: list[Fraction] = []
    lengths: list[int] = []
    loc = over = excluded = 0
    diagnostics: list[str] = []
    for path, r in results:
        if r.failure is not None:
            diagnostics.append(f"{path}: {r.failure}")
            continue
        for u in r.units:
            totals.append(u.total)
            loc += u.loc
            over += u.over_limit
        lengths += r.method_lengths
        excluded += r.excluded_methods

    count = len(totals)
    return SnapshotStats((
        count,
        Fraction(loc, count) if count else None,
        exact_sum(totals) / count if count else None,
        Fraction(100 * over, count) if count else None,
        stats_from_lengths(lengths, excluded),
        len(diagnostics),
        tuple(diagnostics),
    ))


def _apply(tree: dict[bytes, tuple[Pair, FileResult]], pending: Changes,
           provider: Provider, rules: RuleSet) -> None:
    """Bring `tree` up to date with `pending`, reading only the pairs that
    differ from the tree's; a read or an analysis that raises changes none."""
    new = [(raw, pair) for raw, pair in pending.items()
           if pair is not None and (raw not in tree or tree[raw][0] != pair)]
    results = {raw: (pair, analyze_file(path, data, rules)) for (raw, pair), (path, data)
               in zip(new, provider.read_files([pair for _, pair in new]))}
    for raw, pair in pending.items():
        if pair is None:
            tree.pop(raw, None)
    tree.update(results)


def series(
    provider: Provider, range_spec: RangeSpec, rules: RuleSet,
    parameters: Optional[dict] = None,
) -> SeriesReport:
    snapshots: list[SnapshotMetrics] = []
    failures: list[str] = []
    commits = provider.list_commits(range_spec)
    tree: dict[bytes, tuple[Pair, FileResult]] = {}
    pending: Changes = {}

    def analyzed(path: str) -> bool:
        return rules.is_wanted_path(path) and not rules.is_test_path(path)

    try:
        for commit, changed in zip(commits, provider.changes(commits, analyzed)):
            pending.update(changed)
            try:
                _apply(tree, pending, provider, rules)
                pending = {}
                stats = analyze_snapshot(
                    [(pair[0], result) for _, (pair, result) in sorted(tree.items())])
            except Exception as exc:  # per-snapshot isolation
                failures.append(f"{commit.id}: {exc}")
                stats = SnapshotStats((0, None, None, None,
                                       method_stats([], rules), 0, (str(exc),)))
            snapshots.append(
                SnapshotMetrics((commit, stats, detect_cdd_commit(commit.message, rules)))
            )
    finally:
        provider.close()
    if failures and len(failures) == len(commits):
        raise RuntimeError(
            "every snapshot failed; first error: " + failures[0]
        )
    return SeriesReport((tuple(snapshots), rules.digest(), parameters or {}))


def _fmt(value: Optional[Fraction]) -> str:
    return "" if value is None else format_fixed2(value)


def render_csv(report: SeriesReport) -> str:
    rows = []
    for snap in report.snapshots:
        m = snap.stats.methods
        rows.append([
            snap.commit.ordinal,
            snap.commit.id,
            snap.commit.timestamp,
            snap.stats.class_count,
            _fmt(snap.stats.mean_physical_loc),
            _fmt(snap.stats.mean_icp),
            _fmt(snap.stats.percent_over_limit),
            snap.cdd_commit[0] if snap.cdd_commit else "",
            m.counted_methods,
            _fmt(m.mean_loc),
            _fmt(m.median_loc),
            m.max_loc if m.max_loc is not None else "",
            _fmt(m.percent_at_or_under_24),
        ])
    return csv_document(CSV_COLUMNS, rows)


def _json_2dp(value: Optional[Fraction]) -> Optional[float]:
    return None if value is None else float(format_fixed2(value))


def render_json_mapping(report: SeriesReport) -> dict:
    snapshots = []
    for snap in report.snapshots:
        m = snap.stats.methods
        snapshots.append({
            "ordinal": snap.commit.ordinal,
            "commit_id": snap.commit.id,
            "timestamp": snap.commit.timestamp,
            "class_count": snap.stats.class_count,
            "mean_loc": _json_2dp(snap.stats.mean_physical_loc),
            "mean_icp": _json_2dp(snap.stats.mean_icp),
            "percent_over_limit": _json_2dp(snap.stats.percent_over_limit),
            "cdd_commit": (
                {"unit": snap.cdd_commit[0], "description": snap.cdd_commit[1]}
                if snap.cdd_commit else None
            ),
            "method_stats": {
                "counted": m.counted_methods,
                "excluded": m.excluded_methods,
                "min": m.min_loc,
                "mean": _json_2dp(m.mean_loc),
                "median": _json_2dp(m.median_loc),
                "max": m.max_loc,
                "stddev": round(m.stddev_loc, 4) if m.stddev_loc is not None else None,
                "percent_at_or_under_24": _json_2dp(m.percent_at_or_under_24),
            },
            "parse_failures": snap.stats.parse_failures,
            "diagnostics": list(snap.stats.diagnostics),
        })
    return {
        "schema_version": 1,
        "rules_digest": report.rules_digest,
        "parameters": report.parameters,
        "snapshots": snapshots,
    }
