"""Command-line interface.

Subcommands: init, check, reconcile [--fix], history. Exit codes: 0 success,
1 when the configured fail-on condition triggers (or a fix conflict), 2 for
configuration, I/O, or repository/tool errors.

check and reconcile read each file as bytes and hand it to
`series.analyze_file`, the one per-file path that history shares; they
render its `FileResult`s, and reconcile --fix rewrites files from them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Iterator, Optional

# cddbench/tracer.py hooks these names here; this module calls none of them
from . import analyze_unit, extract_declared, parse_unit, reconcile, verdict  # noqa: F401
from .annotations import DriftStatus, RewriteConflict, apply_fixes
from .history import (
    GitProvider,
    RangeEmpty,
    RepoNotFound,
    SnapshotDirProvider,
    VcsToolError,
    render_json_mapping as render_series_json,
    series,
)
from .history.series import FileResult, UnitResult, analyze_file
from .history.series import render_csv as render_series_csv
from .report import (
    CheckReport,
    FileIssue,
    render_csv,
    render_drift_csv,
    render_drift_json_mapping,
    render_drift_text,
    render_json_mapping,
    render_text,
)
from .rules import DEFAULT_CONFIG_DOCUMENT, ConfigError, RuleSet, default_rules, load_rules

CONFIG_FILE_NAME = "cdd.json"
CONFIG_ENV_VAR = "CDD_CONFIG"


class _StoreGiven(argparse.Action):
    """Store an option's value and note that it was given, so that a run
    that does not read it can refuse it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*namespace.given, self.option_strings[0])


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
    # each subcommand takes only the options it reads
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="PATH",
                        help=f"config file (default: ${CONFIG_ENV_VAR} or ./{CONFIG_FILE_NAME})")
    report = argparse.ArgumentParser(add_help=False, parents=[config])
    report.add_argument("--format", choices=["text", "json", "csv"], default="text",
                        action=_StoreGiven, help="report format (default: text)")
    report.set_defaults(given=())

    parser = argparse.ArgumentParser(
        prog="cddlint",
        description="Count Intrinsic Complexity Points, enforce limits, "
                    "reconcile @ICP annotations, and mine history metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="write a default cdd.json")
    p_init.add_argument("target", nargs="?", default=".",
                        help="directory to write the config into")
    p_init.add_argument("--force", action="store_true",
                        help="overwrite an existing config")
    p_init.set_defaults(handler=cmd_init)

    p_check = sub.add_parser("check", parents=[report],
                             help="analyze units and enforce the limit")
    p_check.add_argument("paths", nargs="*", default=None,
                         help="files or directories (default: .)")
    p_check.add_argument("--fail-on", choices=["over-limit", "drift", "never"],
                         default="over-limit", dest="fail_on",
                         help="condition that makes the exit code 1 (default: over-limit)")
    p_check.set_defaults(handler=cmd_check)

    p_rec = sub.add_parser("reconcile", parents=[report],
                           help="compare declared @ICP values with computed totals")
    p_rec.add_argument("paths", nargs="*", default=None)
    p_rec.add_argument("--fix", action="store_true",
                       help="rewrite class-level @ICP annotations in place; "
                            "takes neither --format nor --fail-on")
    p_rec.add_argument("--fail-on", choices=["drift", "never"], default="never",
                       dest="fail_on", action=_StoreGiven,
                       help="condition that makes the exit code 1 (default: never)")
    p_rec.set_defaults(handler=cmd_reconcile)

    p_hist = sub.add_parser("history", parents=[config],
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

def _discover(paths: Optional[list[str]], rules: RuleSet) -> list[tuple[str, str]]:
    """Resolve (file, recorded_path) pairs; recorded paths drive glob matching,
    ordering and report output. A directory is walked as `Path.rglob` walks
    it: a link to a file is listed under its own name, a link to a directory
    is not entered and a broken link is skipped."""
    found: dict[str, str] = {}
    for raw in paths or ["."]:
        p = Path(raw)
        if p.is_file():
            rec = p.as_posix().removeprefix("./")
            found.setdefault(rec, os.fspath(p))
        elif p.is_dir():
            top = os.fspath(p)
            base = p.as_posix().rstrip("/")
            for dirpath, _, names in os.walk(top):
                rel = dirpath[len(top):].lstrip(os.sep).replace(os.sep, "/")
                prefix = (f"{base}/{rel}/" if rel else f"{base}/").removeprefix("./")
                for name in names:
                    rec = prefix + name
                    if rules.is_wanted_path(_rule_path(rec)):
                        file = os.path.join(dirpath, name)
                        if os.path.isfile(file):
                            found.setdefault(rec, file)
        else:
            raise _ExitWith(2, f"no such file or directory: {raw}")
    return [(found[rec], rec) for rec in sorted(found)]


def _rule_path(rec: str) -> str:
    """The path that path rules (include/exclude globs, limit overrides) see:
    an absolute path is the same file named relative to the working
    directory, as if its directory had been given so."""
    return os.path.relpath(rec).replace(os.sep, "/") if os.path.isabs(rec) else rec


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


def _analyze_files(files: list[tuple[str, str]], rules: RuleSet
                   ) -> Iterator[tuple[str, str, bytes, FileResult]]:
    """(recorded path, file, bytes, result) per file, in turn; a file that
    cannot be read fails as a whole."""
    for file, rec in files:
        try:
            with open(file, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            yield rec, file, b"", FileResult.failed(f"unreadable: {exc}")
        else:
            yield rec, file, data, analyze_file(_rule_path(rec), data, rules)


def _file_issues(rec: str, result: FileResult) -> list[FileIssue]:
    """A file's diagnostics, then its malformed-@ICP note or failure."""
    issues = [FileIssue((rec, d.span.line_start, d.message)) for d in result.diagnostics]
    note = result.malformed or result.failure  # never both
    if note:
        issues.append(FileIssue((rec, None, note)))
    return issues


def _check_report(files: list[tuple[str, str]], rules: RuleSet) -> CheckReport:
    """One (recorded path, unit) row per unit, by path and type; each file's
    issues, in path order."""
    rows: list[tuple[str, UnitResult]] = []
    issues: list[FileIssue] = []
    parse_failures = 0
    for rec, _, _, result in _analyze_files(files, rules):
        issues += _file_issues(rec, result)
        parse_failures += result.failure is not None
        rows += ((rec, u) for u in result.units)
    rows.sort(key=lambda row: (row[0], row[1].type_name))
    return CheckReport((tuple(rows), tuple(issues), parse_failures))


def _render(args, report: CheckReport, as_json, as_csv, as_text) -> int:
    """Print the report in the format asked for; the exit code --fail-on gives."""
    if args.format == "json":
        print(json.dumps(as_json(report), indent=2))
    else:
        sys.stdout.write((as_csv if args.format == "csv" else as_text)(report))
    if args.fail_on == "over-limit":
        return int(report.over_limit_count > 0)
    if args.fail_on == "drift":
        return int(report.drifted_count + report.unannotated_count > 0)
    return 0


def cmd_check(args) -> int:
    rules = _load_config(args)
    report = _check_report(_discover(args.paths, rules), rules)
    return _render(args, report, render_json_mapping, render_csv, render_text)


def cmd_reconcile(args) -> int:
    rules = _load_config(args)
    if args.fix and args.given:
        raise _ExitWith(2, f"{args.given[0]} cannot be used with --fix")
    files = _discover(args.paths, rules)
    if args.fix:
        return _fix_files(files, rules)
    return _render(args, _check_report(files, rules),
                   render_drift_json_mapping, render_drift_csv, render_drift_text)


def _fix_files(files: list[tuple[str, str]], rules: RuleSet) -> int:
    """reconcile --fix: each file is rewritten from its `FileResult`, with no
    second parse; nothing is written until every file has been read. A
    file's issues go to stderr, as check's text shows them."""
    fixes: list[tuple[str, str, bytes]] = []
    conflicts = 0
    for rec, file, data, result in _analyze_files(files, rules):
        for issue in _file_issues(rec, result):
            print(issue, file=sys.stderr)
        if all(u.status is DriftStatus.IN_SYNC for u in result.units):
            continue
        try:
            fixed = apply_fixes(data, result.units)
        except RewriteConflict as exc:
            print(f"{rec}: {exc}", file=sys.stderr)
            conflicts += 1
            continue
        if fixed != data:
            fixes.append((rec, file, fixed))
    for rec, file, fixed in fixes:
        with open(file, "wb") as out:
            out.write(fixed)
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
