"""Compare the command-line outputs of two versions of cddlint, byte for byte.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are `src` directories, each holding a `cddlint`
package. Every case runs `python -m cddlint` once per side, in a fresh
interpreter with that side on PYTHONPATH (hash seeds 1 and 2), and compares
the exit code, the standard output and the standard error:

* `check` and `reconcile`, each in text, JSON and CSV, under the default
  rules and under the corpus' `config_document()` (`--config`), on the
  oracle and listing fixtures and on `Corpus(seed).tree(1000)` for seeds 5,
  11 and 29 (48 cases);
* `check --format json` and `reconcile --format csv` on the same four
  inputs under `GLOBS_CONFIG`, which sets every pattern list (8 cases);
* `reconcile --fix` on the seed-29 `reconcile_fix` tree of
  `cddbench/run.py`, also comparing every file of the tree it leaves;
* `history` on the seed-29 `history_git` repository of `cddbench/run.py`,
  under its own `cdd.json` and under `GLOBS_CONFIG`, also comparing the CSV
  and JSON it writes (2 cases);
* `modern`: the twelve hand-scored `TYPE_HEADER_CASES` of
  `tests/test_type_headers.py` (records, sealed types, `@interface`,
  initializers, local, anonymous and enum-constant bodies, switch
  expressions), as one file each, under the corpus rules: `check --format
  json` on them, and `history --snapshots` over `NNNN_<case>/` folders, each
  adding one case to the one before, also comparing the CSV and JSON it
  writes (2 cases);
* `commented`: the oracle and listing fixtures as `commented` of
  `tools/parse_parity.py` writes them, with a `// @ICP(1)` line before each
  statement it puts comments before, under the default rules: `check
  --format json` and `reconcile --format json` (2 cases).

The inputs are built once, with `cddbench/corpus.py`, the workload classes
of `cddbench/run.py`, the cases of `tests/test_type_headers.py` and
`tools/parse_parity.py`, read with CHANGE_SRC's `cddlint`, in a temporary folder that is removed at the
end. The tool prints each case that differs and what differs in it, then
the number of cases; it exits 1 if any case differs, else 0.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "cddbench"))
from corpus import Corpus, config_document  # noqa: E402
from run import HistoryGit, ReconcileFix, write_tree  # noqa: E402

from parse_parity import commented  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"
TREE_SEEDS = (5, 11, 29)
TREE_FILES = 1000  # CHECK_FILES of cddbench/run.py
WORKLOAD_SEED = 29
HASH_SEEDS = ("1", "2")
REPORTS = [(command, fmt) for command in ("check", "reconcile")
           for fmt in ("text", "json", "csv")]
# the corpus rules with every pattern list set, so that a fault in matching a
# path or a type name shows: the inputs' paths are `oracle/C01.java`,
# `listing/...` and `src/main/java/app/m00/C01_00012.java`, and the type
# names `C01`, `C01_00012` and `Gen_00034`; of two overrides that match
# `dto/BigDto_...`, the first wins
GLOBS_CONFIG = {
    **json.loads(config_document()),
    "include_globs": ["**/m0?/**", "**/m1?/*.java", "oracle/*.java", "listing/**"],
    "exclude_globs": ["**/m05/**", "**/C1?_*.java", "oracle/C2?.java"],
    "test_globs": ["**/src/test/**", "**/m07/**", "**/C0?_*.java"],
    "limit_overrides": [{"pattern": "**/dto/**", "limit": 20},
                        {"pattern": "BigDto*", "limit": 3},
                        {"pattern": "Gen_*1", "limit": 4},
                        {"pattern": "C0?", "limit": 2}],
}
GLOBS_CONFIG["internal_types"] += ["ResponseStatus*", "org.springframework.*"]


def run_cli(src: Path, hash_seed: str, argv: list[str], cwd: Path) -> dict[str, bytes]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
    env.pop("CDD_CONFIG", None)  # a config named outside would apply to both
    proc = subprocess.run([sys.executable, "-m", "cddlint", *argv], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, check=False)
    return {"exit": str(proc.returncode).encode(), "stdout": proc.stdout,
            "stderr": proc.stderr}


def read_tree(base: Path) -> dict[str, bytes]:
    return {p.relative_to(base).as_posix(): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()}


def report_cases(work: Path) -> list[tuple[str, list[str], Path]]:
    """(name, argv, cwd) of each check and reconcile report case."""
    config = work / "corpus-cdd.json"
    config.write_text(config_document(), encoding="utf-8")
    globs = work / "globs-cdd.json"
    globs.write_text(json.dumps(GLOBS_CONFIG), encoding="utf-8")
    inputs = [("fixtures", FIXTURES, ["oracle", "listing"])]
    for seed in TREE_SEEDS:
        tree = work / f"tree{seed}"
        write_tree(tree, Corpus(seed).tree(TREE_FILES), config_document())
        (tree / "cdd.json").unlink()  # the default rules apply with no --config
        inputs.append((f"tree{seed}", tree, ["."]))
    cases = []
    for name, cwd, paths in inputs:
        for rules, options, reports in (
                ("default", [], REPORTS), ("corpus", ["--config", str(config)], REPORTS),
                ("globs", ["--config", str(globs)], [("check", "json"), ("reconcile", "csv")])):
            for command, fmt in reports:
                cases.append((f"{name} {command} --format {fmt} ({rules} rules)",
                              [command, "--format", fmt, *options, *paths], cwd))
    return cases


def modern_cases(work: Path, change_src: Path) -> tuple[list[str], list[str]]:
    """Write the `TYPE_HEADER_CASES` to `work`, as files under `cases/` and
    as cumulative snapshot folders under `snapshots/` with their
    `commits.jsonl`; return the argv of `check` and of `history` on them,
    run in `work`, under the corpus rules that `report_cases` writes."""
    sys.path[:0] = [str(change_src), str(ROOT / "tests")]
    from test_type_headers import TYPE_HEADER_CASES

    cases, snapshots = work / "cases", work / "snapshots"
    cases.mkdir(parents=True)
    commits = []
    for ordinal, (name, (source, _)) in enumerate(TYPE_HEADER_CASES.items()):
        (cases / f"{name}.java").write_text(source, encoding="utf-8")
        shutil.copytree(cases, snapshots / f"{ordinal:04d}_{name}")
        commits.append(json.dumps({"id": name, "message": f"Add {name}",
                                   "timestamp": 1_600_000_000 + 86_400 * ordinal}) + "\n")
    (snapshots / "commits.jsonl").write_text("".join(commits), encoding="utf-8")
    config = ["--config", str(work.parent / "corpus-cdd.json")]
    return (["check", "--format", "json", *config, "cases"],
            ["history", "--snapshots", "snapshots", "--output-dir", "series", *config])


def commented_cases(work: Path) -> list[tuple[str, list[str]]]:
    """Write the fixtures to `work` with comments and `// @ICP(1)` marker
    lines; return the name and argv of each case on them, run in `work`."""
    for path in sorted(FIXTURES.rglob("*.java")):
        target = work / path.relative_to(FIXTURES)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(commented(path.read_text("utf-8"), "// @ICP(1)"), encoding="utf-8")
    return [(f"commented: {command} --format json (default rules)",
             [command, "--format", "json", "oracle", "listing"])
            for command in ("check", "reconcile")]


def compare(name: str, sides: list[dict[str, bytes]]) -> bool:
    """Print what differs between the two sides' outputs; True if nothing."""
    parent, change = sides
    differ = sorted(key for key in parent.keys() | change.keys()
                    if parent.get(key) != change.get(key))
    if differ:
        print(f"DIFFER {name}: {', '.join(differ[:10])}"
              + (f" and {len(differ) - 10} more" if len(differ) > 10 else ""))
    return not differ


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.strip().split("\n\n")[1])
    srcs = [Path(a).resolve() for a in argv]
    same = []
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        work = Path(tmp)
        for name, cli_argv, cwd in report_cases(work):
            same.append(compare(name, [run_cli(src, seed, cli_argv, cwd)
                                       for src, seed in zip(srcs, HASH_SEEDS)]))

        fix = ReconcileFix(Corpus(WORKLOAD_SEED), work / "fix")
        sides = []
        for src, seed in zip(srcs, HASH_SEEDS):
            fix.prepare()  # a fresh copy of the stale tree
            outputs = run_cli(src, seed, fix.args, fix.cwd)
            outputs.update(("tree " + path, data) for path, data in read_tree(fix.cwd).items())
            sides.append(outputs)
        same.append(compare(f"reconcile_fix seed {WORKLOAD_SEED}: reconcile --fix", sides))

        modern = work / "modern"
        check, snapshots_history = modern_cases(modern, srcs[1])
        same.append(compare("modern: check --format json (corpus rules)",
                            [run_cli(src, seed, check, modern)
                             for src, seed in zip(srcs, HASH_SEEDS)]))

        marked = work / "commented"
        for name, cli_argv in commented_cases(marked):
            same.append(compare(name, [run_cli(src, seed, cli_argv, marked)
                                       for src, seed in zip(srcs, HASH_SEEDS)]))

        (work / "history").mkdir()
        history = HistoryGit(Corpus(WORKLOAD_SEED), work / "history")
        globs = ["--config", str(work / "globs-cdd.json")]  # written by report_cases
        histories = [(f"history_git seed {WORKLOAD_SEED}: history{rules}",
                      history.args + options, history.cwd, history.out)
                     for rules, options in (("", []), (" (globs rules)", globs))]
        histories.append(("modern: history --snapshots (corpus rules)", snapshots_history,
                          modern, modern / "series"))
        for name, cli_argv, cwd, out in histories:
            sides = []
            for src, seed in zip(srcs, HASH_SEEDS):
                shutil.rmtree(out, ignore_errors=True)  # no series output left from the other side
                outputs = run_cli(src, seed, cli_argv, cwd)
                outputs.update(read_tree(out))
                sides.append(outputs)
            same.append(compare(name, sides))

    print(f"cases: {len(same)}, differ: {same.count(False)}")
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
