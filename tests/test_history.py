"""History mining: commit walking, snapshot reading, series metrics, and the
hand-computed 5-commit golden CSV in both provider modes."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from cddlint.history import (
    GitProvider,
    RangeEmpty,
    RepoNotFound,
    SnapshotDirProvider,
    analyze_snapshot,
    detect_cdd_commit,
    read_snapshot_files,
    render_csv,
    render_json_mapping,
    series,
)
from cddlint.history.series import SnapshotFile
from cddlint.rules import LimitOverride, default_rules

from conftest import (
    A_V1, A_V2, BIG, DEEP_SOURCE, TEST_FILE, commit_tree, dated_env, run_git,
)

# `cddlint.history.series` the attribute is the series() function
series_module = importlib.import_module("cddlint.history.series")

RULES = default_rules(internal_types=("Internal*",))

# Hand-computed from the fixture sources in conftest: A v1 is 8 lines with
# total 2.0 and a 6-line method; A v2 is 9 lines / 3.0 / 7; Big is 20 lines /
# 13.0 (2 fields + 3 uses + 3 branches + 3 conditions + 2 exception blocks)
# with a 15-line method. The test file never contributes.
EXPECTED_ROWS = [
    "0,{id0},2021-10-01T00:00:00Z,1,8.00,2.00,0.00,,1,6.00,6.00,6,100.00",
    "1,{id1},2021-10-02T00:00:00Z,1,9.00,3.00,0.00,,1,7.00,7.00,7,100.00",
    "2,{id2},2021-10-03T00:00:00Z,1,9.00,3.00,0.00,,1,7.00,7.00,7,100.00",
    "3,{id3},2021-10-04T00:00:00Z,2,14.50,8.00,50.00,,2,11.00,11.00,15,100.00",
    "4,{id4},2021-10-05T00:00:00Z,2,14.50,8.00,50.00,Big,2,11.00,11.00,15,100.00",
]

HEADER = (
    "ordinal,commit_id,timestamp,class_count,mean_loc,mean_icp,"
    "percent_over_limit,cdd_commit,methods_counted,method_mean_loc,"
    "method_p50,method_max,pct_methods_le_24"
)


def expected_csv(ids: list[str]) -> str:
    rows = [HEADER]
    for row in EXPECTED_ROWS:
        rows.append(row.format(**{f"id{i}": cid for i, cid in enumerate(ids)}))
    return "\n".join(rows) + "\n"


class TestListSnapshots:
    def test_full_walk(self, history_repo):
        repo, ids = history_repo
        commits = GitProvider(repo).list_commits()
        assert [c.id for c in commits] == ids
        assert [c.ordinal for c in commits] == [0, 1, 2, 3, 4]
        assert commits[0].timestamp == "2021-10-01T00:00:00Z"
        assert commits[4].message.startswith("cdd(Big):")

    def test_count_range(self, history_repo):
        repo, ids = history_repo
        commits = GitProvider(repo).list_commits(2)
        assert [c.id for c in commits] == ids[-2:]
        assert [c.ordinal for c in commits] == [3, 4]

    def test_id_range_excludes_start(self, history_repo):
        repo, ids = history_repo
        commits = GitProvider(repo).list_commits(f"{ids[1]}..{ids[3]}")
        assert [c.id for c in commits] == ids[2:4]

    def test_missing_path_is_repo_not_found(self, tmp_path):
        with pytest.raises(RepoNotFound):
            GitProvider(tmp_path / "nope")

    def test_plain_directory_is_repo_not_found(self, tmp_path):
        with pytest.raises(RepoNotFound):
            GitProvider(tmp_path)

    def test_zero_count_is_range_empty(self, history_repo):
        repo, _ = history_repo
        with pytest.raises(RangeEmpty):
            GitProvider(repo).list_commits(0)


class TestReadSnapshotFiles:
    def test_test_files_flagged_and_docs_filtered(self, history_repo):
        repo, ids = history_repo
        provider = GitProvider(repo)
        commits = provider.list_commits()
        files, diags = read_snapshot_files(provider, commits[2], RULES)
        assert diags == []
        by_path = {f.path: f for f in files}
        assert set(by_path) == {"A.java", "src/test/TA.java"}
        assert not by_path["A.java"].is_test
        assert by_path["src/test/TA.java"].is_test

    def test_readme_never_matches_include_globs(self, history_repo):
        repo, ids = history_repo
        provider = GitProvider(repo)
        commits = provider.list_commits()
        files, _ = read_snapshot_files(provider, commits[4], RULES)
        assert all(f.path.endswith(".java") for f in files)

    def test_binary_file_skipped_with_diagnostic(self, tmp_path):
        root = tmp_path / "snaps"
        (root / "0000_c0").mkdir(parents=True)
        (root / "0000_c0" / "Bin.java").write_bytes(b"\xff\xfe\x00junk")
        (root / "0000_c0" / "Ok.java").write_text("class Ok {}")
        (root / "commits.jsonl").write_text(
            json.dumps({"id": "c0", "timestamp": "2021-10-01T00:00:00Z",
                        "message": "x"}) + "\n"
        )
        provider = SnapshotDirProvider(root)
        [commit] = provider.list_commits()
        files, diags = read_snapshot_files(provider, commit, RULES)
        assert [f.path for f in files] == ["Ok.java"]
        assert diags and "Bin.java" in diags[0]


class TestDetectCddCommit:
    def test_matching_message(self):
        got = detect_cdd_commit(
            "cdd(CertificateDetailsController): recompute totals", RULES
        )
        assert got == ("CertificateDetailsController", "recompute totals")

    def test_non_matching_message(self):
        assert detect_cdd_commit("fix: typo", RULES) is None

    def test_pattern_is_case_sensitive(self):
        assert detect_cdd_commit("CDD(Foo): x", RULES) is None

    def test_only_first_line_matters(self):
        assert detect_cdd_commit("refactor\ncdd(Foo): x", RULES) is None


def _n_if_class(name: str, n: int) -> SnapshotFile:
    body = "\n".join(f"    if (x{i} > 0) {{}}" for i in range(n))
    params = ", ".join(f"int x{i}" for i in range(n))
    return SnapshotFile(f"{name}.java",
                        f"class {name} {{\n  void f({params}) {{\n{body}\n  }}\n}}\n",
                        False)


class TestAnalyzeSnapshot:
    def test_half_over_limit(self):
        # 4 ifs = 8.0, 6 ifs = 12.0 under default costs
        stats = analyze_snapshot([_n_if_class("Under", 4), _n_if_class("Over", 6)],
                                 RULES)
        assert stats.class_count == 2
        assert stats.percent_over_limit == 50
        assert stats.mean_icp == 10

    def test_empty_snapshot(self):
        stats = analyze_snapshot([], RULES)
        assert stats.class_count == 0
        assert stats.mean_icp is None
        assert stats.percent_over_limit is None

    def test_listing_alone(self, listing_source):
        rules = default_rules(internal_types=(
            "CertificateRepository", "TrainingCompleted", "Student",
            "CertificateResponse", "Training",
        ))
        stats = analyze_snapshot(
            [SnapshotFile("CertificateDetailsController.java", listing_source, False)],
            rules,
        )
        assert stats.class_count == 1
        assert stats.mean_icp == 8

    def test_parse_failure_tallied_not_fatal(self):
        broken = SnapshotFile("Broken.java", "not java at all", False)
        stats = analyze_snapshot([broken, _n_if_class("Ok", 1)], RULES)
        assert stats.parse_failures == 1
        assert stats.class_count == 1

    def test_too_deep_nesting_keeps_the_other_classes(self):
        deep = SnapshotFile("Deep.java", DEEP_SOURCE, False)
        stats = analyze_snapshot([deep, _n_if_class("Ok", 1)], RULES)
        assert stats.parse_failures == 1
        assert stats.diagnostics == ("Deep.java: parse failed: nesting too deep",)
        assert stats.class_count == 1
        assert stats.mean_icp == 2

    def test_class_loc_attribution(self):
        # two top-level classes: each class, the nested one too, counts its
        # declaration's lines: A 1-6 is 6, A.N 3-5 is 3, B 8-10 is 3
        two = SnapshotFile("Two.java", (
            "class A {\n  void f() {}\n  static class N {\n    int x;\n  }\n}\n"
            "\nclass B {\n  int y;\n}\n"), False)
        # one top-level class counts the file's 6 lines; S.M 4-5 is 2
        one = SnapshotFile("One.java", (
            "package p;\n\nclass S {\n  class M {\n  }\n}\n"), False)
        stats = analyze_snapshot([two, one], RULES)
        assert stats.class_count == 5
        assert stats.mean_physical_loc == Fraction(6 + 3 + 3 + 6 + 2, 5)

    def test_exclusion_correctness(self):
        files = [
            SnapshotFile("A.java", "class A {}", False),
            SnapshotFile("src/test/T.java", "class T {}", True),
        ]
        stats = analyze_snapshot(files, RULES)
        assert stats.class_count == 1
        as_plain = [SnapshotFile(f.path, f.text, False) for f in files]
        stats2 = analyze_snapshot(as_plain, RULES)
        assert stats2.class_count == 2


class TestSeriesGolden:
    def test_repo_mode_matches_expected_csv(self, history_repo):
        repo, ids = history_repo
        report = series(GitProvider(repo), None, RULES)
        assert render_csv(report) == expected_csv(ids)

    def test_snapshot_dir_mode_matches_expected_csv(self, history_repo,
                                                    history_snapshot_dir):
        _, ids = history_repo
        report = series(SnapshotDirProvider(history_snapshot_dir), None, RULES)
        assert render_csv(report) == expected_csv(ids)

    def test_exactly_one_cdd_commit_flagged(self, history_repo):
        repo, _ = history_repo
        report = series(GitProvider(repo), None, RULES)
        flagged = [s for s in report.snapshots if s.cdd_commit]
        assert len(flagged) == 1
        assert flagged[0].cdd_commit == ("Big", "recompute totals")

    def test_percent_over_limit_series_shape(self, history_repo):
        repo, _ = history_repo
        report = series(GitProvider(repo), None, RULES)
        pcts = [s.stats.percent_over_limit for s in report.snapshots]
        assert pcts == [0, 0, 0, 50, 50]

    def test_single_commit_range(self, history_repo):
        repo, _ = history_repo
        report = series(GitProvider(repo), 1, RULES)
        assert len(report.snapshots) == 1

    def test_snapshot_purity_rerun_identical(self, history_repo):
        repo, _ = history_repo
        first = series(GitProvider(repo), None, RULES)
        second = series(GitProvider(repo), None, RULES)
        assert render_csv(first) == render_csv(second)
        assert json.dumps(render_json_mapping(first)) == json.dumps(
            render_json_mapping(second)
        )

    def test_order_independence_parallel_analysis(self, history_repo):
        repo, ids = history_repo
        provider = GitProvider(repo)
        commits = provider.list_commits()
        snapshots = [read_snapshot_files(provider, c, RULES)[0] for c in commits]
        sequential = [analyze_snapshot(files, RULES) for files in snapshots]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda fs: analyze_snapshot(fs, RULES), snapshots))
        assert parallel == sequential

    def test_rules_digest_is_stable(self, history_repo):
        repo, _ = history_repo
        a = series(GitProvider(repo), None, RULES)
        assert a.rules_digest == RULES.digest()
        assert a.rules_digest != default_rules().digest()


# Each commit maps paths to contents (None deletes). Over the five commits: A is
# reverted A1 -> A2 -> A1; Same1 and Same2 hold identical bytes; a test file
# changes; Broken fails to parse in every commit; Bin is never valid UTF-8;
# Deep nests too deeply; Big arrives and its copy Same1 leaves. Big's 13.0 is
# over the limit everywhere but at Same2.java, so the path matters.
MEMO_RULES = default_rules(
    internal_types=("Internal*",),
    limit_overrides=(LimitOverride("Same2.java", Fraction(20)),),
)
MEMO_COMMITS = [
    {"A.java": A_V1, "Same1.java": BIG, "Broken.java": "not java at all",
     "src/test/TA.java": TEST_FILE, "Bin.java": b"\xff\xfe\x00junk"},
    {"A.java": A_V2, "Same2.java": BIG, "Deep.java": DEEP_SOURCE},
    {"A.java": A_V1, "src/test/TA.java": TEST_FILE + "// more\n"},
    {"Big.java": BIG, "Same1.java": None, "Bin.java": b"\xfe\xff\x00junk"},
    {"README.md": "notes\n", "Deep.java": None},
]


@pytest.fixture()
def memo_repo(tmp_path) -> Path:
    repo = tmp_path / "memo"
    for i, changes in enumerate(MEMO_COMMITS):
        commit_tree(repo, changes, f"commit {i}", f"2021-11-0{i + 1}T00:00:00Z")
    return repo


def fresh_stats(provider, commit, rules):
    """One commit read in full and analysed without a memo: the reference
    each series snapshot must equal, diagnostics included."""
    files, notes = read_snapshot_files(provider, commit, rules)
    alone = analyze_snapshot(files, rules)
    return replace(alone, diagnostics=tuple(notes) + alone.diagnostics)


class TestSeriesMemo:
    def test_every_snapshot_equals_a_fresh_analysis(self, memo_repo):
        provider = GitProvider(memo_repo)
        report = series(provider, None, MEMO_RULES)
        for snap in report.snapshots:
            assert snap.stats == fresh_stats(provider, snap.commit, MEMO_RULES)
        # the fixture reaches every case it is meant to
        stats = [s.stats for s in report.snapshots]
        assert [s.parse_failures for s in stats] == [1, 2, 2, 2, 1]
        assert all(any("Bin.java" in d for d in s.diagnostics) for s in stats)
        assert [s.class_count for s in stats] == [2, 3, 3, 3, 3]
        third = Fraction(100, 3)
        assert [s.percent_over_limit for s in stats] == [50] + [third] * 4

    def test_parses_only_pairs_new_since_the_previous_snapshot(
            self, memo_repo, monkeypatch):
        provider = GitProvider(memo_repo)
        expected = 0
        previous: set = set()
        for commit in provider.list_commits():
            files, _ = read_snapshot_files(provider, commit, MEMO_RULES)
            current = {(f.path, f.text) for f in files if not f.is_test}
            expected += len(current - previous)
            previous = current
        assert expected == 8  # 3, then A2, Same2 and Deep, A1 again, Big, none

        # every matching pair is read, test files and non-UTF-8 ones too
        expected_reads = 0
        tree: dict = {}
        previous = set()
        for changes in MEMO_COMMITS:
            tree.update(changes)
            current = {(path, content) for path, content in tree.items()
                       if content is not None and path.endswith(".java")}
            expected_reads += len(current - previous)
            previous = current
        assert expected_reads == 12  # 5, 3, A1 and TA, Big and Bin, none

        parsed = []
        real = series_module.parse_unit

        def counting(text, path):
            parsed.append(path)
            return real(text, path)

        read = []
        real_read = GitProvider.read_files

        def counting_read(self, pairs):
            read.extend(pairs)
            return real_read(self, pairs)

        monkeypatch.setattr(series_module, "parse_unit", counting)
        monkeypatch.setattr(GitProvider, "read_files", counting_read)
        series(provider, None, MEMO_RULES)
        assert len(parsed) == expected
        assert len(read) == expected_reads


BROKEN = "not java at all"


@pytest.fixture()
def merge_repo(tmp_path) -> tuple[Path, list[str]]:
    """Five first-parent commits: a base, a `git mv` rename, a delete, the
    `--no-ff` merge of a side branch, and an edit of a file the merge brought.
    The three unparseable files `src/a-b.java`, `src/a/X.java` and
    `src/a0.java` are in git's path order; `src/a/X.java` arrives last."""
    repo = tmp_path / "merge"
    base = {"src/a-b.java": BROKEN, "src/a0.java": BROKEN,
            "Old.java": A_V1, "Gone.java": BIG}
    commit_tree(repo, base, "base", "2021-12-01T00:00:00Z")
    trunk = run_git(repo, "symbolic-ref", "--short", "HEAD")
    run_git(repo, "checkout", "-q", "-b", "side")
    commit_tree(repo, {"src/a/X.java": BROKEN, "Side.java": A_V2},
                "side work", "2021-12-02T00:00:00Z")
    commit_tree(repo, {"Side.java": BIG.replace("class Big", "class Side")},
                "more side work", "2021-12-03T00:00:00Z")
    run_git(repo, "checkout", "-q", trunk)
    run_git(repo, "mv", "Old.java", "src/New.java")
    commit_tree(repo, {}, "move Old", "2021-12-04T00:00:00Z")
    commit_tree(repo, {"Gone.java": None}, "drop Gone", "2021-12-05T00:00:00Z")
    run_git(repo, "merge", "-q", "--no-ff", "side", "-m", "merge side",
            env=dated_env("2021-12-06T00:00:00Z"))
    commit_tree(repo, {"src/a/X.java": A_V1.replace("class A", "class X")},
                "fix X", "2021-12-07T00:00:00Z")
    ids = run_git(repo, "rev-list", "--first-parent", "--reverse", "HEAD").split()
    assert run_git(repo, "rev-list", "--merges", "HEAD").split() == [ids[3]]
    return repo, ids


class TestGitWalk:
    @pytest.mark.parametrize("span", ["all", "last 2", "A..B"])
    def test_every_snapshot_equals_a_fresh_read(self, merge_repo, span):
        repo, ids = merge_repo
        range_spec = {"all": None, "last 2": 2, "A..B": f"{ids[1]}..{ids[3]}"}[span]
        provider = GitProvider(repo)
        report = series(provider, range_spec, RULES)
        for snap in report.snapshots:
            assert snap.stats == fresh_stats(provider, snap.commit, RULES)

    def test_the_merge_brings_the_side_branch(self, merge_repo):
        repo, ids = merge_repo
        report = series(GitProvider(repo), None, RULES)
        stats = [s.stats for s in report.snapshots]
        # Old, Gone | New, Gone | New | New, Side | New, Side, X
        assert [s.class_count for s in stats] == [2, 2, 1, 2, 3]
        # parse failures come in git's path order
        assert [d.split(":")[0] for d in stats[3].diagnostics] == [
            "src/a-b.java", "src/a/X.java", "src/a0.java"]


class TestListingOrder:
    def test_snapshot_dirs_list_files_as_git_does(self, tmp_path):
        # part by part `src/a/X.java` would sort first; bytewise '-' < '/' < '0'
        tree = {"src/a0.java": BROKEN, "src/a/X.java": BROKEN, "src/a-b.java": BROKEN}
        repo = tmp_path / "repo"
        commit_tree(repo, tree, "c0", "2021-12-01T00:00:00Z")
        commit_id = run_git(repo, "rev-parse", "HEAD")
        snapshots = tmp_path / "snapshots"
        for path, content in tree.items():
            target = snapshots / f"0000_{commit_id}" / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(content, encoding="utf-8")
        (snapshots / "commits.jsonl").write_text(json.dumps(
            {"id": commit_id, "timestamp": "2021-12-01T00:00:00Z", "message": "c0"}
        ) + "\n", encoding="utf-8")
        [in_git] = series(GitProvider(repo), None, RULES).snapshots
        [in_dirs] = series(SnapshotDirProvider(snapshots), None, RULES).snapshots
        assert [d.split(":")[0] for d in in_git.stats.diagnostics] == [
            "src/a-b.java", "src/a/X.java", "src/a0.java"]
        assert in_dirs.stats.diagnostics == in_git.stats.diagnostics


class TestReadByBlobId:
    @pytest.mark.parametrize("name", [os.fsdecode(b"caf\xe9.java"), "New\nLine.java"],
                             ids=["not-utf8", "newline"])
    def test_unusual_file_name(self, tmp_path, name):
        repo = tmp_path / "odd"
        commit_tree(repo, {name: A_V1, "Big.java": BIG}, "c0", "2021-12-01T00:00:00Z")
        commit_tree(repo, {name: BROKEN}, "c1", "2021-12-02T00:00:00Z")
        provider = GitProvider(repo)
        report = series(provider, None, RULES)
        stats = [s.stats for s in report.snapshots]
        assert [s.class_count for s in stats] == [2, 1]
        shown = name.encode("utf-8", "surrogateescape").decode("utf-8", "replace")
        [failure] = stats[1].diagnostics
        assert failure.startswith(f"{shown}: parse failed")
        for snap in report.snapshots:
            assert snap.stats == fresh_stats(provider, snap.commit, RULES)


def drop_blob(repo: Path, spec: str) -> None:
    """Delete the loose object of the blob `spec` names, as a damaged
    repository would lack it."""
    blob_id = run_git(repo, "rev-parse", spec)
    (repo / ".git" / "objects" / blob_id[:2] / blob_id[2:]).unlink()


@pytest.fixture()
def git_processes(monkeypatch) -> list[subprocess.Popen]:
    """Every process started through `subprocess` from here on."""
    started: list[subprocess.Popen] = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started


class TestGitProcesses:
    def test_a_series_starts_a_fixed_number(self, history_repo, tmp_path,
                                            git_processes):
        long_repo = tmp_path / "long"
        for i in range(12):
            commit_tree(long_repo, {"A.java": (A_V1, A_V2)[i % 2],
                                    f"F{i}.java": f"class F{i} {{}}\n"},
                        f"commit {i}", f"2021-12-{i + 1:02d}T00:00:00Z")
        counts = []
        for repo in (history_repo[0], long_repo):
            provider = GitProvider(repo)
            git_processes.clear()
            report = series(provider, None, RULES)
            counts.append((len(report.snapshots), len(git_processes)))
            assert all(p.returncode is not None for p in git_processes)
        # log, ls-tree, the raw-diff log and one cat-file, whatever the length
        assert counts == [(5, 4), (12, 4)]

    def test_no_cat_file_left_when_every_snapshot_fails(self, tmp_path,
                                                        git_processes):
        repo = tmp_path / "damaged"
        commit_tree(repo, {"A.java": A_V1, "Big.java": BIG}, "c0",
                    "2021-12-01T00:00:00Z")
        commit_tree(repo, {"A.java": A_V2}, "c1", "2021-12-02T00:00:00Z")
        drop_blob(repo, "HEAD:Big.java")
        git_processes.clear()
        with pytest.raises(RuntimeError, match="every snapshot failed"):
            series(GitProvider(repo), None, RULES)
        assert any("cat-file" in p.args for p in git_processes)
        assert all(p.returncode is not None for p in git_processes)


class TestMissingObject:
    def test_fails_only_the_snapshots_that_list_it(self, tmp_path):
        repo = tmp_path / "damaged"
        commit_tree(repo, {"A.java": A_V1, "Big.java": BIG}, "c0",
                    "2021-12-01T00:00:00Z")
        commit_tree(repo, {"C.java": "class C {}\n"}, "c1", "2021-12-02T00:00:00Z")
        commit_tree(repo, {"A.java": A_V2}, "c2", "2021-12-03T00:00:00Z")
        drop_blob(repo, "HEAD~2:A.java")
        provider = GitProvider(repo)
        report = series(provider, None, RULES)
        stats = [s.stats for s in report.snapshots]
        assert [s.diagnostics for s in stats[:2]] == [("object missing for A.java",)] * 2
        assert [s.class_count for s in stats] == [0, 0, 3]
        assert stats[2] == fresh_stats(provider, report.snapshots[2].commit, RULES)
