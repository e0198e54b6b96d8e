#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the cddlint CLI.

Usage:
  python3 cddbench/run.py --workload {check_tree,history_git,reconcile_fix}
      --seed N --seconds S --trace {0,1} [--save RESULTS.jsonl]

Run from the root of a source checkout; the CLI runs from `src/`. The
benchmark builds a seeded corpus (see corpus.py), then drives the real CLI as
a closed loop with a single client: one fresh interpreter at a time, the next
one started only after the previous one has exited and its output has been
checked against the corpus' independent reference.

BENCHMARK.json names two workloads, history_git and reconcile_fix, so that
its time budget allows long runs. reconcile_fix goes through check's pipeline
(discover, read, parse, extract, analyze, reconcile) and adds the fix path;
check_tree, `check --format json` on a plain tree, runs the same way by hand.

--trace 0 reports the end-to-end metrics: the mean set-up time, the mean
wall and CPU time (user + sys, reaped `git` children included) and the median
peak RSS of one invocation. Times are calibrated to the host's speed over the
run (see REFERENCE_S) and printed as measured too. --trace 1 alternates
untraced invocations with ones run through tracer.py, which wraps each
layer's public functions from outside, and reports per-layer self time and
counters, plus the tracing overhead.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from corpus import (FILE_BYTES, LIMIT, Corpus, class_level_icp, config_document,
                    generate_class)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"

CLI = "import sys; from cddlint.cli import main; sys.exit(main())"
# what every invocation pays before it does any work
SETUP = ("import sys, cddlint.cli as cli; "
         "cli.load_rules(open(sys.argv[1], encoding='utf-8').read())")

# Sizes keep one invocation near 2-3 s on a 2-CPU machine, so that a run
# holds more than the 11 samples a tail percentile needs.
CHECK_FILES = 1000
HISTORY_BASE_FILES = 120
HISTORY_COMMITS = 12
FIX_FILES = 700
STALE_SHARE = 0.5


# ── host speed ───────────────────────────────────────────────────────────

# On a shared host the speed of this machine wanders by up to +-25% over tens
# of seconds (a fixed CPU loop timed back to back reads the same spread in
# 0.1 s and in 4 s windows), so no run length averages it out: the median
# wall times of ten 55 s runs spread (quartile distance over median) by up to
# 0.18. So a fixed, interpreter-bound job runs in this process before the
# first child and after every child, sampling the host's speed all through
# the run, and the reported times are calibrated: the children's mean time x REFERENCE_S / the job's mean
# time, i.e. seconds at the host speed at which the job takes REFERENCE_S (its
# mean on the 2-vCPU VM the bounds were set on). Both are time averages over
# the same minute, so the drift cancels, though not fully (the job and
# cddlint do not slow down by the same factor): in two sets of ten runs per
# workload, mean wall times that spread 0.10-0.42 as measured spread 0.09-0.20
# calibrated. The times as measured are printed and saved beside them.
REFERENCE_S = 0.097
_REFERENCE_LINES = [line for k in range(40)
                    for line in generate_class(random.Random(k), f"Ref{k}")[0]]


def reference_job() -> tuple[float, float]:
    """Wall and CPU time of a hand-written tokenizer run over fixed lines: the
    shape of cddlint's own work, none of its code."""
    wall, cpu = time.perf_counter(), time.process_time()
    counts: dict[str, int] = {}
    for _ in range(20):
        for line in _REFERENCE_LINES:
            i, n = 0, len(line)
            while i < n:
                c = line[i]
                if c.isalnum() or c == "_":
                    j = i + 1
                    while j < n and (line[j].isalnum() or line[j] == "_"):
                        j += 1
                    token, i = line[i:j], j
                elif c.isspace():
                    i += 1
                    continue
                else:
                    token, i = c, i + 1
                counts[token] = counts.get(token, 0) + 1
    return time.perf_counter() - wall, time.process_time() - cpu


references: list[tuple[float, float]] = []  # reference_job() times of this run


def host_slowdown() -> tuple[float, float]:
    """How much slower than nominal the host ran, in wall and CPU time, over
    the run so far."""
    return (statistics.fmean(r[0] for r in references) / REFERENCE_S,
            statistics.fmean(r[1] for r in references) / REFERENCE_S)


# ── processes ────────────────────────────────────────────────────────────

@dataclass
class Invocation:
    wall_s: float  # as measured
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # run from cached bytecode, as an installed cddlint does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONUNBUFFERED", None)
    # git must not read configuration from outside the checkout
    env["GIT_CONFIG_NOSYSTEM"] = "1"
    env["GIT_CONFIG_GLOBAL"] = os.devnull
    return env


def invoke(argv: list[str], cwd: Path, log_dir: Path) -> Invocation:
    """Run one child; its CPU time and peak RSS come from wait4 on that child
    alone (RUSAGE_CHILDREN would fold in every child reaped so far)."""
    if not references:
        references.append(reference_job())
    out_path, err_path = log_dir / "stdout", log_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    references.append(reference_job())
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
        exit_code=proc.returncode,
        stdout=out_path.read_text("utf-8", "replace"),
        stderr=err_path.read_text("utf-8", "replace"),
    )


def environment(work: Path) -> dict:
    # importing the CLI also fills the bytecode cache before any timing
    probe = subprocess.run(
        [sys.executable, "-c",
         "import cddlint.cli, cddlint.syntax as s; print(s.active_backend())"],
        env=child_env(), cwd=work, capture_output=True, text=True, check=True)
    git = subprocess.run(["git", "--version"], capture_output=True, text=True,
                         check=True)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git": git.stdout.strip(),
        "scanner_backend": probe.stdout.strip(),
    }


# ── workloads ────────────────────────────────────────────────────────────

def write_tree(base: Path, files, config: str) -> None:
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    (base / "cdd.json").write_text(config, encoding="utf-8")
    for f in files:
        target = base / f.path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(f.text, encoding="utf-8")


class CheckTree:
    """`check --format json` over a tree; every unit total is checked."""

    def __init__(self, corpus, work: Path):
        self.files = corpus.tree(CHECK_FILES)
        self.cwd = work / "tree"
        write_tree(self.cwd, self.files, config_document())
        self.expected = {(f.path, name): total
                         for f in self.files for name, total in f.expected.items()}
        over = any(t > LIMIT for t in self.expected.values())
        self.expected_exit = 1 if over else 0  # --fail-on over-limit, the default
        self.args = ["check", "--format", "json", "."]

    def prepare(self) -> None:
        pass

    def verify(self, inv: Invocation) -> str | None:
        if inv.exit_code != self.expected_exit:
            return f"exit {inv.exit_code}, expected {self.expected_exit}"
        doc = json.loads(inv.stdout)
        got = {(u["path"], u["type"]): Fraction(str(u["total"])) for u in doc["units"]}
        if got != self.expected:
            wrong = sorted(k for k in self.expected.keys() | got.keys()
                           if got.get(k) != self.expected.get(k))
            return f"{len(wrong)} units disagree, first {wrong[0]}"
        return None

    def output_bytes(self, inv: Invocation) -> int:
        return len(inv.stdout.encode("utf-8"))

    def describe(self) -> str:
        size = sum(len(f.text.encode("utf-8")) for f in self.files)
        return (f"{len(self.files)} files, {size / 1e3:.0f} kB, "
                f"{len(self.expected)} units")


class HistoryGit:
    """`history` over a synthetic repository: a base tree, then commits that
    each edit or add one or two files; every snapshot's class count and mean
    ICP are checked."""

    def __init__(self, corpus, work: Path):
        self.cwd = work
        (work / "cdd.json").write_text(config_document(), encoding="utf-8")
        state = {f.path: f for f in corpus.tree(HISTORY_BASE_FILES)}
        commits = [("initial tree", list(state.values()))]
        edits = 0
        for n in range(1, HISTORY_COMMITS):
            touched = []
            # the shape is the same for every seed: every third commit
            # touches two files, and every fourth edit adds a new file
            for _ in range(2 if n % 3 == 0 else 1):
                edits += 1
                generated = sorted(p for p, f in state.items()
                                   if len(f.expected) == 1 and "/Gen_" in p)
                if edits % 4:
                    f = corpus.regenerate(state[corpus.rng.choice(generated)])
                else:
                    f = corpus.new_file_of_size(FILE_BYTES)
                state[f.path] = f
                touched.append(f)
            commits.append((f"change {n}", touched))
        self.snapshots = []
        state = {}
        for _, touched in commits:
            state.update((f.path, f) for f in touched)
            self.snapshots.append(self._snapshot(state))
        self.blobs = {f.text for _, touched in commits for f in touched}
        self.repo = work / "repo"
        fast_import(self.repo, commits)
        self.out = work / "series"
        self.args = ["history", "repo", "--output-dir", "series"]

    @staticmethod
    def _snapshot(state) -> tuple[int, Fraction]:
        totals = [t for f in state.values() for t in f.expected.values()]
        return len(totals), Fraction(sum(totals)) / len(totals)

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def verify(self, inv: Invocation) -> str | None:
        if inv.exit_code != 0:
            return f"exit {inv.exit_code}: {inv.stderr.strip()[-200:]}"
        doc = json.loads((self.out / "cdd_series.json").read_text("utf-8"))
        rows = doc["snapshots"]
        if len(rows) != len(self.snapshots):
            return f"{len(rows)} snapshots, expected {len(self.snapshots)}"
        for row, (count, mean) in zip(rows, self.snapshots):
            # mean_icp is rounded to two decimals
            if row["class_count"] != count or abs(row["mean_icp"] - mean) > 0.00501:
                return (f"snapshot {row['ordinal']}: {row['class_count']} classes, "
                        f"mean {row['mean_icp']}, expected {count}, {float(mean):.4f}")
        return None

    def output_bytes(self, inv: Invocation) -> int:
        written = sum(p.stat().st_size for p in self.out.iterdir())
        return len(inv.stdout.encode("utf-8")) + written

    def describe(self) -> str:
        return (f"{HISTORY_BASE_FILES} base files, {len(self.snapshots)} commits, "
                f"{len(self.blobs)} distinct blobs, "
                f"{sum(c for c, _ in self.snapshots)} class snapshots")


class ReconcileFix:
    """`reconcile --fix` on a fresh copy of an annotated tree in which every
    class-level @ICP of a seeded half of the files is stale; the copy is made
    before the clock starts. Every rewritten @ICP is checked, and every other
    line must be left as it was."""

    def __init__(self, corpus, work: Path):
        stale = set(corpus.rng.sample(range(FIX_FILES), round(STALE_SHARE * FIX_FILES)))
        self.files = [corpus.annotate(f, i in stale)
                      for i, f in enumerate(corpus.tree(FIX_FILES))]
        self.cwd = work / "tree"
        self.stale = sum(f.stale for f in self.files)
        self.args = ["reconcile", "--fix", "."]

    def prepare(self) -> None:
        write_tree(self.cwd, self.files, config_document())

    def verify(self, inv: Invocation) -> str | None:
        if inv.exit_code != 0:
            return f"exit {inv.exit_code}: {inv.stderr.strip()[-200:]}"
        last = inv.stdout.strip().splitlines()[-1]
        if last != f"{self.stale} files changed":
            return f"reported {last!r}, expected {self.stale} files changed"
        for f in self.files:
            lines = (self.cwd / f.path).read_text("utf-8").split("\n")
            before = f.text.split("\n")
            if len(lines) != len(before):
                return f"{f.path}: line count changed"
            for name, at in f.icp_lines.items():
                if class_level_icp(lines[at]) != f.expected[name]:
                    return f"{f.path}: {name} reads {lines[at].strip()}"
            kept = set(range(len(lines))) - set(f.icp_lines.values())
            if any(lines[i] != before[i] for i in kept):
                return f"{f.path}: a line other than a class-level @ICP changed"
        return None

    def output_bytes(self, inv: Invocation) -> int:
        return len(inv.stdout.encode("utf-8"))

    def describe(self) -> str:
        units = sum(len(f.expected) for f in self.files)
        return f"{len(self.files)} files, {units} units, {self.stale} files stale"


WORKLOADS = {"check_tree": CheckTree, "history_git": HistoryGit,
             "reconcile_fix": ReconcileFix}


def fast_import(repo: Path, commits) -> None:
    """Build the repository in one `git fast-import`, with fixed dates."""
    subprocess.run(["git", "init", "-q", str(repo)], env=child_env(), check=True)
    stream = bytearray()

    def data(payload: bytes) -> None:
        stream.extend(b"data %d\n" % len(payload) + payload + b"\n")

    for n, (message, touched) in enumerate(commits):
        stream += b"commit refs/heads/main\n"
        stream += b"committer Bench <bench@example.invalid> %d +0000\n" % (
            1_600_000_000 + 3600 * n)
        data(message.encode("utf-8"))
        for f in touched:
            stream += f"M 100644 inline {f.path}\n".encode("utf-8")
            data(f.text.encode("utf-8"))
    subprocess.run(["git", "-C", str(repo), "fast-import", "--quiet"],
                   input=bytes(stream), env=child_env(), check=True)
    subprocess.run(["git", "-C", str(repo), "symbolic-ref", "HEAD", "refs/heads/main"],
                   env=child_env(), check=True)


# ── traces ───────────────────────────────────────────────────────────────

def layer_unit(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "bytes" if "bytes" in name else "count"


def layer_metrics(spans: list[list], output_bytes: int) -> dict[str, float]:
    """Per-layer self time and counters of one traced invocation.

    Self time is a span's duration minus the part of it that its direct
    children cover. Children lie inside their parent and never overlap each
    other, which is checked, so the layers' self times add up to the duration
    of the root `cli` span, the traced main().
    """
    child_ns = [0] * len(spans)
    last_child_end = [0] * len(spans)
    for layer, parent, start, end, _ in spans:  # in order of start
        if parent >= 0:
            p = spans[parent]
            if not (p[2] <= start <= end <= p[3] and start >= last_child_end[parent]):
                raise ValueError(f"{layer} span leaves its parent {p[0]} "
                                 "or overlaps a sibling")
            child_ns[parent] += end - start
            last_child_end[parent] = end
    self_ns: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    totals: Counter = Counter()
    texts: set = set()
    for (layer, _, start, end, counters), child in zip(spans, child_ns):
        self_ns[layer] += end - start - child
        calls[layer] += 1
        for key, value in (counters or {}).items():
            if key == "text":
                texts.add(value)
            else:
                totals[f"{layer}.{key}"] += value
    [root] = [s for s in spans if s[1] < 0]

    def s(layer: str) -> float:
        return self_ns[layer] / 1e9

    return {
        "scanner.calls": calls["scanner"],
        "scanner.self_s": s("scanner"),
        "scanner.tokens": totals["scanner.tokens"],
        "scanner.mb_per_s": (totals["scanner.bytes"] / 1e6 / s("scanner")
                             if self_ns["scanner"] else 0.0),
        "parser.calls": calls["parser"],
        "parser.self_s": s("parser"),
        "parser.failures": totals["parser.failed"],
        "parser.reparse_ratio": calls["parser"] / len(texts) if texts else 0.0,
        "engine.calls": calls["engine"],
        "engine.self_s": s("engine"),
        "engine.units": totals["engine.units"],
        "engine.sites": totals["engine.sites"],
        "annotations.extract.self_s": s("annotations.extract"),
        "annotations.reconcile.self_s": s("annotations.reconcile"),
        "annotations.fix.self_s": s("annotations.fix"),
        "annotations.fix.files_written": totals["annotations.fix.written"],
        "methods.self_s": s("methods"),
        "report.self_s": s("report"),
        "report.bytes_out": output_bytes,
        "providers.self_s": s("providers"),
        "providers.blobs": totals["providers.blobs"],
        "providers.bytes": totals["providers.bytes"],
        "series.snapshots": totals["series.snapshots"],
        "series.self_s": s("series"),
        "rules.self_s": s("rules"),
        "cli.self_s": s("cli"),
        "trace.main_s": (root[3] - root[2]) / 1e9,
    }


def compiled_scanner_comparison(blobs: list[bytes]) -> dict[str, float]:
    """Pure vs compiled scanner throughput, when the compiled one is built."""
    sys.path.insert(0, str(SRC))
    try:
        from cddlint.syntax import _scan_c, _scan_py
    except ImportError:
        return {}
    size = sum(len(b) for b in blobs)
    rates = {}
    for name, backend in (("pure", _scan_py), ("compiled", _scan_c)):
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            for blob in blobs:
                backend.scan(blob)
            best = min(best, time.perf_counter() - started)
        rates[name] = size / 1e6 / best
    return {"scanner.pure_mb_per_s": rates["pure"],
            "scanner.compiled_mb_per_s": rates["compiled"],
            "scanner.compiled_speedup_ratio": rates["compiled"] / rates["pure"]}


# ── the run ──────────────────────────────────────────────────────────────

def tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it, and its value."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return 100 * (k + 1) / len(ordered), ordered[k]


def measure_setup(cwd: Path, work: Path) -> Invocation:
    inv = invoke([sys.executable, "-c", SETUP, "cdd.json"], cwd, work)
    if inv.exit_code != 0:
        raise RuntimeError(f"set-up failed: {inv.stderr.strip()[-300:]}")
    return inv


def run(args, work: Path) -> dict:
    env = environment(work)
    print(f"cddbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env))
    workload = WORKLOADS[args.workload](Corpus(args.seed), work)
    print(f"corpus: {workload.describe()}")

    plain = [sys.executable, "-c", CLI, *workload.args]
    spans_path = work / "spans.json"
    traced = [sys.executable, str(TRACER), str(spans_path), *workload.args]
    untraced_runs: list[Invocation] = []
    traced_runs: list[Invocation] = []
    layers: list[dict[str, float]] = []
    setup: list[Invocation] = []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        for argv in ([plain, traced] if args.trace else [plain]):
            workload.prepare()
            spans_path.unlink(missing_ok=True)
            inv = invoke(argv, workload.cwd, work)
            attempted += 1
            problem = workload.verify(inv)
            if argv is traced and problem is None:
                trace = json.loads(spans_path.read_text("utf-8"))
                try:
                    if trace["missing"]:
                        raise ValueError("no hook for " + ", ".join(trace["missing"]))
                    layers.append(layer_metrics(trace["spans"],
                                                workload.output_bytes(inv)))
                except ValueError as exc:
                    problem = f"trace: {exc}"
            if problem is not None:
                failed += 1
                print(f"FAILED: {problem}")
            (traced_runs if argv is traced else untraced_runs).append(inv)
        if not args.trace:
            # one set-up sample per loop, so they spread over the whole run
            setup.append(measure_setup(workload.cwd, work))
        if time.perf_counter() >= deadline:
            break

    median, mean = statistics.median, statistics.fmean
    slow_wall, slow_cpu = host_slowdown()
    walls = [i.wall_s / slow_wall for i in untraced_runs]  # calibrated
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        for name in layers[0] if layers else ():
            metrics[name] = (median(l[name] for l in layers), layer_unit(name))
        if traced_runs:
            metrics["trace.overhead_s"] = (
                mean(i.wall_s for i in traced_runs) / slow_wall - mean(walls), "s")
        metrics["fail_ratio"] = (failed / attempted, "ratio")
        extra = compiled_scanner_comparison(
            [f.text.encode("utf-8") for f in Corpus(args.seed).tree(300)])
    else:
        # means, not medians: they are time averages over the run, like the
        # reference job's, so the host's drift cancels in the ratio
        metrics["setup_s"] = (mean(i.wall_s for i in setup) / slow_wall, "s")
        metrics["wall_s"] = (mean(walls), "s")
        metrics["cpu_s"] = (mean(i.cpu_s for i in untraced_runs) / slow_cpu, "s")
        metrics["peak_rss_mb"] = (median(i.peak_rss_mb for i in untraced_runs), "MB")
        extra = {}

    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:14.6f} {unit}")
    for name, value in extra.items():  # only when the compiled scanner is built
        print(f"  {name:32} {value:14.6f} {layer_unit(name)}")
    if not args.trace:
        top = tail(walls)
        print(f"  wall_s samples {len(walls)}: median {median(walls):.6f} s; " + (
            f"p{top[0]:.1f} {top[1]:.6f} s" if top else
            "no tail percentile: fewer than 11 samples"))
        print(f"  setup_s samples {len(setup)}: "
              + " ".join(f"{i.wall_s / slow_wall:.4f}" for i in setup))
        print("  as measured, uncalibrated means: "
              f"setup_s {mean(i.wall_s for i in setup):.6f}, "
              f"wall_s {mean(i.wall_s for i in untraced_runs):.6f}, "
              f"cpu_s {mean(i.cpu_s for i in untraced_runs):.6f}; host slowdown "
              f"{slow_wall:.3f} wall, {slow_cpu:.3f} CPU, {len(references)} samples")
    print(f"  fail_ratio {failed}/{attempted}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.save:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "env": env,
                  **result, "scanner_comparison": extra,
                  "samples": {  # [wall, cpu] as measured
                      "cli": [[i.wall_s, i.cpu_s] for i in untraced_runs],
                      "setup": [[i.wall_s, i.cpu_s] for i in setup],
                      "reference": references}}
        with open(args.save, "a", encoding="utf-8") as out:
            out.write(json.dumps(record) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", metavar="RESULTS.jsonl",
                        help="append the result, with its environment, to this file")
    args = parser.parse_args()

    for needed in (SRC / "cddlint" / "cli.py", ROOT / "tests" / "fixtures"):
        if not needed.exists():
            print(f"cddbench: {needed.relative_to(ROOT)} not found; run from the "
                  "root of a cddlint source checkout", file=sys.stderr)
            return 2
    work = HERE / f".work-{os.getpid()}"
    work.mkdir()
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
