"""Command-line interface.

Subcommands: init, check, reconcile [--fix], history. Exit codes: 0 success,
1 when the configured fail-on condition triggers (or a fix conflict), 2 for
configuration, I/O, or repository/tool errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .annotations import (
    DeclaredIcp,
    DriftStatus,
    MalformedIcp,
    RewriteConflict,
    apply_fixes,
    extract_declared,
    reconcile,
)
from .engine import analyze_unit, verdict
from .history import (
    GitProvider,
    RangeEmpty,
    RepoNotFound,
    SnapshotDirProvider,
    VcsToolError,
    render_json_mapping as render_series_json,
    series,
)
from .history.series import render_csv as render_series_csv
from .report import (
    CheckReport,
    FileIssue,
    UnitRow,
    make_row,
    render_csv,
    render_drift_csv,
    render_drift_json_mapping,
    render_drift_text,
    render_json_mapping,
    render_text,
)
from .rules import DEFAULT_CONFIG_DOCUMENT, ConfigError, RuleSet, default_rules, load_rules
from .syntax import ParseError, parse_unit

CONFIG_FILE_NAME = "cdd.json"
CONFIG_ENV_VAR = "CDD_CONFIG"


class _ExitWith(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _ExitWith as exc:
        print(f"cddlint: error: {exc.message}", file=sys.stderr)
        return exc.code


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help=f"config file (default: ${CONFIG_ENV_VAR} or ./{CONFIG_FILE_NAME})")
    common.add_argument("--format", choices=["text", "json", "csv"], default="text",
                        help="report format (default: text)")
    common.add_argument("--fail-on", choices=["over-limit", "drift", "never"],
                        default="over-limit", dest="fail_on",
                        help="condition that makes the exit code 1 (default: over-limit)")

    parser = argparse.ArgumentParser(
        prog="cddlint",
        description="Count Intrinsic Complexity Points, enforce limits, "
                    "reconcile @ICP annotations, and mine history metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", parents=[common],
                            help="write a default cdd.json")
    p_init.add_argument("target", nargs="?", default=".",
                        help="directory to write the config into")
    p_init.add_argument("--force", action="store_true",
                        help="overwrite an existing config")
    p_init.set_defaults(handler=cmd_init)

    p_check = sub.add_parser("check", parents=[common],
                             help="analyze units and enforce the limit")
    p_check.add_argument("paths", nargs="*", default=None,
                         help="files or directories (default: .)")
    p_check.set_defaults(handler=cmd_check)

    p_rec = sub.add_parser("reconcile", parents=[common],
                           help="compare declared @ICP values with computed totals")
    p_rec.add_argument("paths", nargs="*", default=None)
    p_rec.add_argument("--fix", action="store_true",
                       help="rewrite class-level @ICP annotations in place")
    p_rec.set_defaults(handler=cmd_reconcile)

    p_hist = sub.add_parser("history", parents=[common],
                            help="per-commit evolution metrics (CSV + JSON)")
    p_hist.add_argument("repo", nargs="?", default=".",
                        help="git repository path (default: .)")
    p_hist.add_argument("--range", metavar="N|A..B", default=None,
                        help="last N commits, or commit range A..B")
    p_hist.add_argument("--snapshots", metavar="DIR", default=None,
                        help="read NNNN_<id>/ snapshot folders instead of git")
    p_hist.add_argument("--output-dir", metavar="DIR", default=".",
                        help="where to write cdd_series.csv / cdd_series.json")
    p_hist.set_defaults(handler=cmd_history)

    return parser


# ── configuration ────────────────────────────────────────────────────────

def _load_config(args) -> RuleSet:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if path:
        file = Path(path)
        if not file.is_file():
            raise _ExitWith(2, f"config file not found: {path}")
    else:
        file = Path(CONFIG_FILE_NAME)
        if not file.is_file():
            return default_rules()
    try:
        return load_rules(file.read_text(encoding="utf-8"))
    except OSError as exc:
        raise _ExitWith(2, f"cannot read {file}: {exc}") from exc
    except ConfigError as exc:
        raise _ExitWith(2, f"{file}: {exc}") from exc


# ── file discovery ───────────────────────────────────────────────────────

def _discover(paths: Optional[list[str]], rules: RuleSet) -> list[tuple[Path, str]]:
    """Resolve (file, recorded_path) pairs; recorded paths drive glob matching,
    ordering and report output."""
    found: dict[str, Path] = {}
    for raw in paths or ["."]:
        p = Path(raw)
        if p.is_file():
            rec = p.as_posix().removeprefix("./")
            found.setdefault(rec, p)
        elif p.is_dir():
            for child in p.rglob("*"):
                if not child.is_file():
                    continue
                rel = child.relative_to(p).as_posix()
                rec = rel if raw in (".", "./") else f"{p.as_posix().rstrip('/')}/{rel}"
                rec = rec.removeprefix("./")
                if rules.is_wanted_path(_rule_path(rec)):
                    found.setdefault(rec, child)
        else:
            raise _ExitWith(2, f"no such file or directory: {raw}")
    return [(found[rec], rec) for rec in sorted(found)]


def _rule_path(rec: str) -> str:
    """The path that path rules (include/exclude globs, limit overrides) see:
    an absolute path is the same file named relative to the working
    directory, as if its directory had been given so."""
    return Path(os.path.relpath(rec)).as_posix() if os.path.isabs(rec) else rec


# ── commands ─────────────────────────────────────────────────────────────

def cmd_init(args) -> int:
    target = Path(args.target)
    if not target.is_dir():
        raise _ExitWith(2, f"not a directory: {args.target}")
    config = target / CONFIG_FILE_NAME
    if config.exists() and not args.force:
        raise _ExitWith(2, f"{config} already exists (use --force to overwrite)")
    try:
        config.write_text(DEFAULT_CONFIG_DOCUMENT, encoding="utf-8")
    except OSError as exc:
        raise _ExitWith(2, f"cannot write {config}: {exc}") from exc
    print(f"wrote {config}")
    return 0


def _analyze_files(files: list[tuple[Path, str]], rules: RuleSet, on_file=None):
    """Shared check/reconcile pipeline: analyses + drift per unit, issues.

    ``on_file(rec, file, text, unit, file_rows)``, if given, sees each parsed
    file while its unit is alive; no unit outlives its file's turn.
    """
    rows: list[UnitRow] = []
    issues: list[FileIssue] = []
    parse_failures = 0
    for file, rec in files:
        try:
            text = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            issues.append(FileIssue(rec, f"unreadable: {exc}"))
            parse_failures += 1
            continue
        try:
            unit = parse_unit(text, rec)
            analyses = analyze_unit(unit, rules)
        except ParseError as exc:
            issues.append(FileIssue(rec, f"parse failed: {exc}"))
            parse_failures += 1
            continue
        except RecursionError:
            issues.append(FileIssue(rec, "parse failed: nesting too deep"))
            parse_failures += 1
            continue
        try:
            declared = extract_declared(unit)
        except MalformedIcp as exc:  # the file's units count as unannotated
            issues.append(FileIssue(rec, str(exc)))
            declared = DeclaredIcp({}, ())
        file_rows = []
        for analysis in analyses:
            v = verdict(analysis, rules, _rule_path(rec))
            row = make_row(analysis, v, reconcile(analysis, declared))
            rows.append(row)
            file_rows.append((analysis, row))
        if on_file is not None:
            on_file(rec, file, text, unit, file_rows)
    rows.sort(key=lambda r: (r.path, r.type_name))
    return rows, issues, parse_failures


def _should_fail(args, report: CheckReport) -> bool:
    if args.fail_on == "over-limit":
        return report.over_limit_count > 0
    if args.fail_on == "drift":
        return report.drifted_count + report.unannotated_count > 0
    return False


def cmd_check(args) -> int:
    rules = _load_config(args)
    files = _discover(args.paths, rules)
    rows, issues, parse_failures = _analyze_files(files, rules)
    report = CheckReport(tuple(rows), tuple(issues), parse_failures)
    if args.format == "json":
        print(json.dumps(render_json_mapping(report), indent=2))
    elif args.format == "csv":
        sys.stdout.write(render_csv(report))
    else:
        sys.stdout.write(render_text(report))
    return 1 if _should_fail(args, report) else 0


def cmd_reconcile(args) -> int:
    rules = _load_config(args)
    files = _discover(args.paths, rules)
    if args.fix:
        return _fix_files(files, rules)
    rows, issues, parse_failures = _analyze_files(files, rules)
    report = CheckReport(tuple(rows), tuple(issues), parse_failures)
    if args.format == "json":
        print(json.dumps(render_drift_json_mapping(report), indent=2))
    elif args.format == "csv":
        sys.stdout.write(render_drift_csv(report))
    else:
        sys.stdout.write(render_drift_text(report))
    return 1 if args.fail_on == "drift" and _should_fail(args, report) else 0


def _fix_files(files: list[tuple[Path, str]], rules: RuleSet) -> int:
    """reconcile --fix: each file's fix is made from the unit parsed for its
    analysis; nothing is written until every file has been read."""
    fixes: list[tuple[str, Path, str]] = []
    conflicts = 0

    def fix(rec, file, text, unit, file_rows) -> None:
        nonlocal conflicts
        if all(row.drift_status is DriftStatus.IN_SYNC for _, row in file_rows):
            return
        try:
            fixed = apply_fixes(text, [a for a, _ in file_rows], unit)
        except RewriteConflict as exc:
            print(f"{rec}: {exc}", file=sys.stderr)
            conflicts += 1
            return
        if fixed != text:
            fixes.append((rec, file, fixed))

    _analyze_files(files, rules, fix)
    for rec, file, fixed in fixes:
        file.write_text(fixed, encoding="utf-8")
        print(f"fixed {rec}")
    print(f"{len(fixes)} files changed")
    return 1 if conflicts else 0


def cmd_history(args) -> int:
    rules = _load_config(args)
    range_spec = args.range
    if isinstance(range_spec, str) and range_spec.isdigit():
        range_spec = int(range_spec)
    try:
        if args.snapshots:
            provider = SnapshotDirProvider(args.snapshots)
            parameters = {"mode": "snapshots", "range": args.range}
        else:
            provider = GitProvider(args.repo)
            parameters = {"mode": "git", "range": args.range}
        report = series(provider, range_spec, rules, parameters)
    except (RepoNotFound, VcsToolError, RangeEmpty, RuntimeError) as exc:
        raise _ExitWith(2, str(exc)) from exc

    out_dir = Path(args.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "cdd_series.csv"
        json_path = out_dir / "cdd_series.json"
        csv_path.write_text(render_series_csv(report), encoding="utf-8")
        json_path.write_text(
            json.dumps(render_series_json(report), indent=2) + "\n",
            encoding="utf-8",
        )
    except OSError as exc:
        raise _ExitWith(2, f"cannot write series output: {exc}") from exc
    print(f"wrote {csv_path} and {json_path} ({len(report.snapshots)} snapshots)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
