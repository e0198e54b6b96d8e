"""Per-commit evolution metrics: class counts, mean LOC, mean ICP, percent of
classes over the limit, method-length stats and budget-commit detection.

A snapshot's metrics are aggregated from one `FileResult` per non-test file.
`series()` walks the range once: the provider yields each snapshot's wanted
files as (path, key) pairs, where the key is the git blob id, or the sha256
of the bytes for snapshot folders. A `FileMemo` keeps what the previous
snapshot's pairs came to: the decoded file with its test flag, or its "not
UTF-8" note, and each non-test file's `FileResult`. Only pairs new since
that snapshot are fetched, decoded, matched against the test globs, parsed
and analysed. The key covers every input of a result: the bytes, and the
path that test globs, limit overrides and diagnostics depend on; the rules
are fixed for the call. The memo is replaced by each snapshot's entries, so
it never holds more than one snapshot, and nothing outlives the call.

`read_snapshot_files` followed by `analyze_snapshot` without a memo is the
independent full read of one commit that a series snapshot must equal.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Union

from ..engine import analyze_unit, verdict
from ..methods import MethodStats, method_lengths, method_stats, stats_from_lengths
from ..rules import RuleSet
from ..syntax import ParseError, parse_unit
from ..values import format_fixed2
from .providers import (
    CommitMeta, GitProvider, Listing, RangeSpec, SnapshotDirProvider,
)

Provider = Union[GitProvider, SnapshotDirProvider]

CSV_COLUMNS = [
    "ordinal", "commit_id", "timestamp", "class_count", "mean_loc", "mean_icp",
    "percent_over_limit", "cdd_commit", "methods_counted", "method_mean_loc",
    "method_p50", "method_max", "pct_methods_le_24",
]


@dataclass(frozen=True)
class SnapshotFile:
    path: str
    text: str
    is_test: bool
    key: str = ""  # the provider's key for the bytes; a memo needs it


@dataclass(frozen=True)
class SnapshotStats:
    class_count: int
    mean_physical_loc: Optional[Fraction]
    mean_icp: Optional[Fraction]
    percent_over_limit: Optional[Fraction]
    methods: MethodStats
    parse_failures: int
    diagnostics: tuple[str, ...]


@dataclass(frozen=True)
class SnapshotMetrics:
    commit: CommitMeta
    stats: SnapshotStats
    cdd_commit: Optional[tuple[str, str]]  # (unit name, description)


@dataclass(frozen=True)
class SeriesReport:
    snapshots: tuple[SnapshotMetrics, ...]
    rules_digest: str
    parameters: dict


def _decode(path: str, key: str, blob: bytes, rules: RuleSet) -> Union[SnapshotFile, str]:
    """A fetched file, or the note that skips it when it is not UTF-8."""
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError:
        return f"{path}: skipped (not valid UTF-8)"
    return SnapshotFile(path, text, rules.is_test_path(path), key)


def _split(entries) -> tuple[list[SnapshotFile], list[str]]:
    files = [e for e in entries if isinstance(e, SnapshotFile)]
    return files, [e for e in entries if isinstance(e, str)]


def read_snapshot_files(
    provider: Provider, commit: CommitMeta, rules: RuleSet
) -> tuple[list[SnapshotFile], list[str]]:
    """Fetch every matching file at one commit, with no memo; files that are
    not UTF-8 are skipped with a note."""
    [listing] = provider.listings([commit], rules.is_wanted_path)
    try:
        blobs = provider.read_files(listing)
    finally:
        provider.close()
    return _split([_decode(path, key, blob, rules)
                   for (path, key), (_, blob) in zip(listing, blobs)])


def detect_cdd_commit(message: str, rules: RuleSet) -> Optional[tuple[str, str]]:
    first_line = message.split("\n", 1)[0]
    m = rules.commit_pattern.match(first_line)
    if m is None:
        return None
    groups = m.groups()
    unit = groups[0] if groups else m.group(0)
    description = groups[1] if len(groups) > 1 else ""
    return unit or "", description or ""


@dataclass(frozen=True)
class FileResult:
    """What one non-test file adds to its snapshot: per-class LOC and totals,
    how many classes are over their limit, the counted method lengths, and
    the excluded method count; or, when it did not parse, only `failure`."""

    class_locs: tuple[int, ...] = ()
    totals: tuple[Fraction, ...] = ()
    over_limit: int = 0
    method_lengths: tuple[int, ...] = ()
    excluded_methods: int = 0
    failure: Optional[str] = None


def analyze_file(f: SnapshotFile, rules: RuleSet) -> FileResult:
    """Parse and analyse one file; a parse failure, or nesting too deep for
    the parser or the engine, becomes the file's diagnostic.

    LOC attribution: a file with a single top-level class contributes its
    whole-file physical line count to that class; any other class gets its own
    declaration span height.
    """
    try:
        unit = parse_unit(f.text, f.path)
        analyses = analyze_unit(unit, rules)
    except ParseError as exc:
        return FileResult(failure=f"{f.path}: parse failed: {exc}")
    except RecursionError:
        return FileResult(failure=f"{f.path}: parse failed: nesting too deep")
    class_locs = [a.span.line_end - a.span.line_start + 1 for a in analyses]
    if len(unit.types) == 1:  # the first analysis is the top-level class's
        class_locs[0] = unit.physical_lines
    lengths, excluded = method_lengths(unit, rules)
    return FileResult(
        class_locs=tuple(class_locs),
        totals=tuple(a.total for a in analyses),
        over_limit=sum(verdict(a, rules).over_limit for a in analyses),
        method_lengths=tuple(lengths),
        excluded_methods=excluded,
    )


class FileMemo:
    """What the last snapshot's (path, key) pairs came to: the decoded file
    or its "not UTF-8" note, and the `FileResult` of each non-test file. One
    memo serves one provider and one `RuleSet`."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], Union[SnapshotFile, str]] = {}
        self._results: dict[tuple[str, str], FileResult] = {}

    def read(
        self, listing: Listing,
        read_files: Callable[[Listing], list[tuple[str, bytes]]], rules: RuleSet,
    ) -> tuple[list[SnapshotFile], list[str]]:
        """A snapshot's files and notes, as `read_snapshot_files` gives them;
        only the pairs the last snapshot did not list are read."""
        unseen = [pair for pair in listing if pair not in self._entries]
        blobs = dict(zip(unseen, (blob for _, blob in read_files(unseen))))
        self._entries = {pair: self._entries.get(pair)
                         or _decode(*pair, blobs[pair], rules) for pair in listing}
        return _split([self._entries[pair] for pair in listing])

    def analyze(self, files: list[SnapshotFile], rules: RuleSet) -> list[FileResult]:
        current: dict[tuple[str, str], FileResult] = {}
        results = []
        for f in files:
            key = (f.path, f.key)
            result = self._results.get(key) or analyze_file(f, rules)
            current[key] = result
            results.append(result)
        self._results = current
        return results


def analyze_snapshot(
    files: list[SnapshotFile], rules: RuleSet, memo: Optional[FileMemo] = None
) -> SnapshotStats:
    """Class metrics over non-test units; parse failures are tallied, not
    fatal. With a memo, files whose (path, key) the memo's last snapshot
    held reuse that snapshot's results; the metrics are the same either way."""
    if memo is None:
        memo = FileMemo()
    results = memo.analyze([f for f in files if not f.is_test], rules)

    class_locs: list[int] = []
    totals: list[Fraction] = []
    lengths: list[int] = []
    over = excluded = 0
    diagnostics: list[str] = []
    for r in results:
        if r.failure is not None:
            diagnostics.append(r.failure)
            continue
        class_locs += r.class_locs
        totals += r.totals
        over += r.over_limit
        lengths += r.method_lengths
        excluded += r.excluded_methods

    count = len(totals)
    return SnapshotStats(
        class_count=count,
        mean_physical_loc=Fraction(sum(class_locs), count) if count else None,
        mean_icp=sum(totals, Fraction(0)) / count if count else None,
        percent_over_limit=Fraction(100 * over, count) if count else None,
        methods=stats_from_lengths(lengths, excluded),
        parse_failures=len(diagnostics),
        diagnostics=tuple(diagnostics),
    )


def series(
    provider: Provider, range_spec: RangeSpec, rules: RuleSet,
    parameters: Optional[dict] = None,
) -> SeriesReport:
    snapshots: list[SnapshotMetrics] = []
    failures: list[str] = []
    commits = provider.list_commits(range_spec)
    memo = FileMemo()
    try:
        for commit, listing in zip(commits, provider.listings(commits, rules.is_wanted_path)):
            try:
                files, notes = memo.read(listing, provider.read_files, rules)
                stats = analyze_snapshot(files, rules, memo)
                if notes:
                    stats = replace(stats, diagnostics=tuple(notes) + stats.diagnostics)
            except Exception as exc:  # per-snapshot isolation
                failures.append(f"{commit.id}: {exc}")
                stats = SnapshotStats(0, None, None, None,
                                      method_stats([], rules), 0, (str(exc),))
            snapshots.append(
                SnapshotMetrics(commit, stats, detect_cdd_commit(commit.message, rules))
            )
    finally:
        provider.close()
    if failures and len(failures) == len(commits):
        raise RuntimeError(
            "every snapshot failed; first error: " + failures[0]
        )
    return SeriesReport(
        snapshots=tuple(snapshots),
        rules_digest=rules.digest(),
        parameters=parameters or {},
    )


def _fmt(value: Optional[Fraction]) -> str:
    return "" if value is None else format_fixed2(value)


def render_csv(report: SeriesReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for snap in report.snapshots:
        m = snap.stats.methods
        writer.writerow([
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
    return buf.getvalue()


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
