"""Run the cddlint CLI in-process with a span around each layer's calls.

Usage: python3 cddbench/tracer.py SPANS_OUT CLI_ARG...

Each public layer function is replaced, from outside the program, under the
name its caller looks it up by, so the code under test is unchanged. A span
is [layer, parent index, start ns, end ns, counters]. Spans stay in memory
and are written to SPANS_OUT as JSON once main() returns; the process then
exits with main()'s code, as the console script would.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

SPANS: list[list] = []
_open = [-1]  # indices of the spans currently running, innermost last


def _wrap(layer, fn, counters=None):
    """Record a span per call; `counters(args, result)` runs after the span
    ends, so its own cost is not charged to this layer."""

    def traced(*args, **kwargs):
        span = [layer, _open[-1], 0, 0, None]
        _open.append(len(SPANS))
        SPANS.append(span)
        span[2] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[3] = perf_counter_ns()
            span[4] = {"failed": 1}
            raise
        else:
            span[3] = perf_counter_ns()
            if counters is not None:
                span[4] = counters(args, result)
            return result
        finally:
            _open.pop()

    return traced


def _scanned(args, tokens):
    return {"bytes": len(args[0]), "tokens": len(tokens)}


def _parsed(args, unit):
    return {"text": hash(args[0])}  # distinct texts within one process


def _analyzed(args, analyses):
    return {"units": len(analyses), "sites": sum(len(a.sites) for a in analyses)}


def _fixed(args, text):
    return {"written": int(text != args[0])}


def _snapshot(args, stats):
    return {"snapshots": 1}


def _read(args, files):
    return {"blobs": len(files), "bytes": sum(len(blob) for _, blob in files)}


def install() -> list[str]:
    """Patch every hook; returns the names that no longer exist."""
    import cddlint.annotations
    import cddlint.cli
    import cddlint.history.providers
    import cddlint.syntax.parser

    cli = cddlint.cli
    # `cddlint.history.series` the attribute is the series() function
    series = sys.modules["cddlint.history.series"]
    git = cddlint.history.providers.GitProvider
    hooks = [
        (cddlint.syntax.parser, "tokenize_bytes", "scanner", _scanned),
        (cli, "parse_unit", "parser", _parsed),
        (series, "parse_unit", "parser", _parsed),
        (cddlint.annotations, "parse_unit", "parser", _parsed),
        (cli, "analyze_unit", "engine", _analyzed),
        (cli, "verdict", "engine", None),
        (series, "analyze_unit", "engine", _analyzed),
        (series, "verdict", "engine", None),
        (cli, "extract_declared", "annotations.extract", None),
        (cli, "reconcile", "annotations.reconcile", None),
        (cli, "apply_fixes", "annotations.fix", _fixed),
        (series, "method_stats", "methods", None),
        (cli, "render_json_mapping", "report", None),
        (cli, "render_csv", "report", None),
        (cli, "render_text", "report", None),
        (cli, "render_series_json", "report", None),
        (cli, "render_series_csv", "report", None),
        (git, "list_commits", "providers", None),
        (git, "read_files", "providers", _read),
        (cli, "series", "series", None),
        (series, "analyze_snapshot", "series", _snapshot),
        (cli, "load_rules", "rules", None),
    ]
    missing = []
    for owner, name, layer, counters in hooks:
        fn = getattr(owner, name, None)
        if fn is None:
            missing.append(f"{owner.__name__}.{name}")
        else:
            setattr(owner, name, _wrap(layer, fn, counters))
    return missing


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    missing = install()
    for name in missing:
        print(f"tracer: no hook for {name}", file=sys.stderr)
    import cddlint.cli

    try:
        return _wrap("cli", cddlint.cli.main)(argv)
    finally:
        sys.stdout.flush()
        with open(spans_out, "w", encoding="utf-8") as out:
            json.dump({"missing": missing, "spans": SPANS}, out,
                      separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
