"""History mining: commit walking, snapshot reading, series metrics, and the
hand-computed 5-commit golden CSV in both provider modes."""

from __future__ import annotations

import importlib
import io
import json
import os
import random
import subprocess
import tarfile
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
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
from cddlint import cli
from cddlint.history.providers import CommitMeta, _iso_utc, apply_range
from cddlint.history.series import SnapshotFile, SnapshotStats, analyze_file
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

    def test_a_message_may_hold_any_separator(self, tmp_path):
        repo = tmp_path / "separators"
        messages = ["first", "second\x1ethird", "fourth\x1ffifth\n\nbody\x1e"]
        for i, message in enumerate(messages):
            commit_tree(repo, {"A.java": (A_V1, A_V2)[i % 2]}, message,
                        f"2021-12-0{i + 1}T00:00:00Z")
        provider = GitProvider(repo)
        assert [c.message for c in provider.list_commits()] == messages
        report = series(provider, None, RULES)
        assert [s.stats.class_count for s in report.snapshots] == [1, 1, 1]
        assert [s.commit.ordinal for s in report.snapshots] == [0, 1, 2]

    def test_an_ambiguous_prefix_is_refused(self, walk_repos, tmp_path, capsys):
        repo = walk_repos[0]
        ids = run_git(repo, "rev-list", "--first-parent", "--reverse", "HEAD").split()
        assert len(ids) > 16  # so two of them share their first hex digit
        digit = next(d for d in "0123456789abcdef"
                     if sum(i.startswith(d) for i in ids) > 1)
        provider = GitProvider(repo)
        for range_spec in (f"{digit}..", f"..{digit}"):
            with pytest.raises(RangeEmpty, match=f"prefix '{digit}' is ambiguous"):
                provider.list_commits(range_spec)
        out = tmp_path / "series"
        assert cli.main(["history", str(repo), "--range", f"{digit}..",
                         "--output-dir", str(out)]) == 2
        assert f"commit prefix '{digit}' is ambiguous" in capsys.readouterr().err
        assert not out.exists()
        # a full id, or a prefix no other id has, still selects its commit
        shared = [i for i in ids if i.startswith(digit)]
        unique = next(i[:12] for i in ids if sum(j.startswith(i[:12]) for j in ids) == 1)
        for end in (shared[0], unique):
            whole = next(i for i in ids if i.startswith(end))
            commits = provider.list_commits(f"..{end}")
            assert [c.id for c in commits] == ids[:ids.index(whole) + 1]

    def test_a_whole_id_wins_over_a_longer_one_it_starts(self):
        # snapshot folders name commits freely: `c1` is whole, and starts `c10`
        commits = [CommitMeta((cid, "", "", n)) for n, cid in enumerate(["c10", "c1"])]
        assert apply_range(commits, "..c1") == commits
        assert apply_range(commits, "c10..c1") == commits[1:]
        with pytest.raises(RangeEmpty, match="prefix 'c' is ambiguous"):
            apply_range(commits, "c..")


class TestReadSnapshotFiles:
    def test_test_files_flagged_and_docs_filtered(self, history_repo):
        repo, ids = history_repo
        provider = GitProvider(repo)
        commits = provider.list_commits()
        files = read_snapshot_files(provider, commits[2], RULES)
        by_path = {f.path: f for f in files}
        assert set(by_path) == {"A.java", "src/test/TA.java"}
        assert not by_path["A.java"].is_test
        assert by_path["src/test/TA.java"].is_test

    def test_readme_never_matches_include_globs(self, history_repo):
        repo, ids = history_repo
        provider = GitProvider(repo)
        commits = provider.list_commits()
        files = read_snapshot_files(provider, commits[4], RULES)
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
        files = read_snapshot_files(provider, commit, RULES)
        assert [f.path for f in files] == ["Bin.java", "Ok.java"]
        # the bytes are read as they are, and fail the file as a whole
        assert files[0].data == b"\xff\xfe\x00junk"
        stats = full_read(files, RULES)
        assert stats.diagnostics == (
            "Bin.java: parse failed: line 1: invalid character 0xff",)
        assert (stats.parse_failures, stats.class_count) == (1, 1)


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


def _file(path: str, text: str) -> SnapshotFile:
    return SnapshotFile((path, text.encode(), False))


def _n_if_class(name: str, n: int) -> SnapshotFile:
    body = "\n".join(f"    if (x{i} > 0) {{}}" for i in range(n))
    params = ", ".join(f"int x{i}" for i in range(n))
    return _file(f"{name}.java",
                 f"class {name} {{\n  void f({params}) {{\n{body}\n  }}\n}}\n")


def full_read(files: list[SnapshotFile], rules) -> SnapshotStats:
    """The metrics of a snapshot's files: each non-test one analysed alone,
    in the order given."""
    return analyze_snapshot([(f.path, analyze_file(f.path, f.data, rules))
                             for f in files if not f.is_test])


class TestAnalyzeSnapshot:
    def test_half_over_limit(self):
        # 4 ifs = 8.0, 6 ifs = 12.0 under default costs
        stats = full_read([_n_if_class("Under", 4), _n_if_class("Over", 6)], RULES)
        assert stats.class_count == 2
        assert stats.percent_over_limit == 50
        assert stats.mean_icp == 10

    def test_empty_snapshot(self):
        stats = analyze_snapshot([])
        assert stats.class_count == 0
        assert stats.mean_icp is None
        assert stats.percent_over_limit is None

    def test_listing_alone(self, listing_source):
        rules = default_rules(internal_types=(
            "CertificateRepository", "TrainingCompleted", "Student",
            "CertificateResponse", "Training",
        ))
        stats = full_read([_file("CertificateDetailsController.java", listing_source)],
                          rules)
        assert stats.class_count == 1
        assert stats.mean_icp == 8

    def test_parse_failure_tallied_not_fatal(self):
        broken = _file("Broken.java", "not java at all")
        stats = full_read([broken, _n_if_class("Ok", 1)], RULES)
        assert stats.parse_failures == 1
        assert stats.class_count == 1

    def test_too_deep_nesting_keeps_the_other_classes(self):
        deep = _file("Deep.java", DEEP_SOURCE)
        stats = full_read([deep, _n_if_class("Ok", 1)], RULES)
        assert stats.parse_failures == 1
        assert stats.diagnostics == ("Deep.java: parse failed: nesting too deep",)
        assert stats.class_count == 1
        assert stats.mean_icp == 2

    def test_class_loc_attribution(self):
        # two top-level classes: each class, the nested one too, counts its
        # declaration's lines: A 1-6 is 6, A.N 3-5 is 3, B 8-10 is 3
        two = _file("Two.java", (
            "class A {\n  void f() {}\n  static class N {\n    int x;\n  }\n}\n"
            "\nclass B {\n  int y;\n}\n"))
        # one top-level class counts the file's 6 lines; S.M 4-5 is 2
        one = _file("One.java", "package p;\n\nclass S {\n  class M {\n  }\n}\n")
        stats = full_read([two, one], RULES)
        assert stats.class_count == 5
        assert stats.mean_physical_loc == Fraction(6 + 3 + 3 + 6 + 2, 5)

    def test_a_malformed_icp_changes_no_metric(self):
        # check and reconcile note it; a snapshot adds no diagnostic, and the
        # annotation line only counts towards LOC: the file's 6 lines and
        # Bad.In's 2-5 give 5, and In's `if` is 2.0 (1 branch, 1 condition)
        source = ("class Bad {\n  @ICP(2)\n  static class In {\n"
                  "    void f(boolean x) { if (x) {} }\n  }\n}\n")
        well, malformed = (
            full_read([_file("Bad.java", text)], RULES)
            for text in (source, source.replace("@ICP(2)", "@ICP(x)")))
        assert malformed == well
        assert (malformed.parse_failures, malformed.diagnostics) == (0, ())
        assert malformed.class_count == 2
        assert malformed.mean_physical_loc == Fraction(6 + 4, 2)
        assert malformed.mean_icp == Fraction(0 + 2, 2)

    def test_exclusion_correctness(self, tmp_path):
        repo = tmp_path / "repo"
        commit_tree(repo, {"A.java": "class A {}", "src/test/T.java": "class T {}"},
                    "c0", "2021-12-01T00:00:00Z")
        for rules, count in ((RULES, 1), (RULES._replace(test_globs=()), 2)):
            [snap] = series(GitProvider(repo), None, rules).snapshots
            assert snap.stats.class_count == count


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
        snapshots = [read_snapshot_files(provider, c, RULES) for c in commits]
        sequential = [full_read(files, RULES) for files in snapshots]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda fs: full_read(fs, RULES), snapshots))
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
    limit_overrides=(LimitOverride(("Same2.java", Fraction(20))),),
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
    return full_read(read_snapshot_files(provider, commit, rules), rules)


class TestSeriesMemo:
    def test_every_snapshot_equals_a_fresh_analysis(self, memo_repo):
        provider = GitProvider(memo_repo)
        report = series(provider, None, MEMO_RULES)
        for snap in report.snapshots:
            assert snap.stats == fresh_stats(provider, snap.commit, MEMO_RULES)
        # the fixture reaches every case it is meant to
        stats = [s.stats for s in report.snapshots]
        assert [s.parse_failures for s in stats] == [2, 3, 3, 3, 2]
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
            files = read_snapshot_files(provider, commit, MEMO_RULES)
            current = {(f.path, f.data) for f in files if not f.is_test}
            expected += len(current - previous)
            previous = current
        assert expected == 10  # 4, then A2, Same2 and Deep, A1 again, Big and Bin, none

        # each such pair is read once, a non-UTF-8 one too; a test file never
        expected_reads = 0
        tree: dict = {}
        previous = set()
        for changes in MEMO_COMMITS:
            tree.update(changes)
            current = {(path, content) for path, content in tree.items()
                       if content is not None and path.endswith(".java")
                       and not path.startswith("src/test/")}
            expected_reads += len(current - previous)
            previous = current
        assert expected_reads == 10

        parsed = []
        real = series_module.analyze_file

        def counting(path, data, rules):
            parsed.append(path)
            return real(path, data, rules)

        read = []
        real_read = GitProvider.read_files

        def counting_read(self, pairs):
            read.extend(pairs)
            return real_read(self, pairs)

        monkeypatch.setattr(series_module, "analyze_file", counting)
        monkeypatch.setattr(GitProvider, "read_files", counting_read)
        series(provider, None, MEMO_RULES)
        assert len(parsed) == expected
        assert len(read) == expected_reads

    def test_a_change_to_a_test_file_alone_fetches_no_blob(self, tmp_path, monkeypatch):
        repo = tmp_path / "repo"
        commit_tree(repo, {"A.java": A_V1, "src/test/TA.java": TEST_FILE},
                    "c0", "2021-12-01T00:00:00Z")
        for i in (1, 2):
            commit_tree(repo, {"src/test/TA.java": TEST_FILE + f"// {i}\n"},
                        f"c{i}", f"2021-12-0{i + 1}T00:00:00Z")
        read = []
        real_read = GitProvider.read_files

        def recording_read(self, pairs):
            read.append([path for path, _ in pairs])
            return real_read(self, pairs)

        monkeypatch.setattr(GitProvider, "read_files", recording_read)
        report = series(GitProvider(repo), None, RULES)
        assert read == [["A.java"], [], []]
        assert [s.stats.class_count for s in report.snapshots] == [1, 1, 1]


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


# The kinds of change a seeded walk history mixes. A re-add brings a deleted
# path back with the first blob it had; a move is a `git mv`, which the raw
# diff shows as a delete and an add.
WALK_KINDS = ("add", "edit", "delete", "re-add", "move", "test", "not-utf8", "broken")


def _walk_source(rng: random.Random, serial: int) -> str:
    n = rng.randrange(1, 7)
    ifs = "\n".join(f"    if (x > {k}) {{ x--; }}" for k in range(n))
    generated = f"class W{serial} {{\n  int f(int x) {{\n{ifs}\n    return x;\n  }}\n}}\n"
    return rng.choice([A_V1, A_V2, BIG, generated, generated])


def build_walk_history(repo: Path, seed: int, n_commits: int = 20) -> list[str]:
    """Commit `n_commits` seeded changes to `repo`: three files, then one
    change of each kind per round of WALK_KINDS, in a seeded order where a
    delete comes before the re-add. Returns each commit's kind."""
    rng = random.Random(seed)
    tree: dict[str, object] = {}
    first: dict[str, object] = {}  # path -> the first content it had
    gone: list[str] = []
    kinds = ["add"]
    while len(kinds) < n_commits:
        order = rng.sample(WALK_KINDS, len(WALK_KINDS))
        i, j = order.index("re-add"), order.index("delete")
        if i < j:
            order[i], order[j] = order[j], order[i]
        kinds += order
    kinds = kinds[:n_commits]
    for i, kind in enumerate(kinds):
        files = sorted(p for p in tree if not p.startswith("src/test/"))
        changes: dict[str, object] = {}
        if i == 0:
            changes = {f"src/p{k}/F{k}.java": _walk_source(rng, k) for k in range(3)}
        elif kind == "add":
            changes = {f"src/p{rng.randrange(3)}/F{i}.java": _walk_source(rng, i)}
        elif kind == "edit":
            changes = {rng.choice(files): _walk_source(rng, i) + f"// edit {i}\n"}
        elif kind == "delete":
            path = rng.choice(files)
            gone.append(path)
            changes = {path: None}
        elif kind == "re-add":
            path = gone.pop()
            changes = {path: first[path]}
        elif kind == "move":
            path, moved = rng.choice(files), f"src/moved/M{i}.java"
            (repo / "src/moved").mkdir(exist_ok=True)
            run_git(repo, "mv", path, moved)
            tree[moved] = first[moved] = tree.pop(path)
        elif kind == "test":
            changes = {f"src/test/T{rng.randrange(2)}.java": TEST_FILE + f"// {i}\n"}
        elif kind == "not-utf8":
            changes = {f"Bin{rng.randrange(2)}.java": b"\xff\xfe" + bytes([i]) + b"junk"}
        else:
            changes = {f"Broken{rng.randrange(2)}.java": f"{BROKEN} {i}"}
        for path, content in changes.items():
            if content is None:
                del tree[path]
            else:
                tree[path] = content
                first.setdefault(path, content)
        commit_tree(repo, changes, f"{kind} {i}", f"2022-01-{i + 1:02d}T00:00:00Z")
    return kinds


@pytest.fixture(scope="module")
def walk_repos(tmp_path_factory) -> list[Path]:
    """Three seeded walk histories of 20 commits each."""
    repos = []
    for seed in (1, 2, 3):
        repo = tmp_path_factory.mktemp("walk") / f"seed{seed}"
        assert set(build_walk_history(repo, seed)) == set(WALK_KINDS)
        repos.append(repo)
    return repos


def export_snapshots(repo: Path, root: Path) -> Path:
    """Write each first-parent commit of `repo` as a `NNNN_<id>/` folder,
    with the commits.jsonl that describes them; a link stays a link."""
    lines = []
    for commit in GitProvider(repo).list_commits():
        archive = subprocess.run(["git", "-C", str(repo), "archive", commit.id],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            for member in tar.getmembers():
                if not (member.isfile() or member.issym()):
                    continue
                target = root / f"{commit.ordinal:04d}_{commit.id}" / member.name
                target.parent.mkdir(parents=True, exist_ok=True)
                if member.issym():
                    target.symlink_to(member.linkname)
                else:
                    target.write_bytes(tar.extractfile(member).read())
        lines.append(json.dumps({"id": commit.id, "timestamp": commit.timestamp,
                                 "message": commit.message}))
    (root / "commits.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root


def without_ordinals(snapshots) -> list:
    return [s._replace(commit=s.commit._replace(ordinal=None)) for s in snapshots]


class TestChangeDrivenWalk:
    @pytest.mark.parametrize("span", ["all", "last 5", "A..B"])
    def test_every_snapshot_equals_a_fresh_read(self, walk_repos, span):
        for repo in walk_repos:
            ids = run_git(repo, "rev-list", "--first-parent", "--reverse", "HEAD").split()
            range_spec, count = {"all": (None, 20), "last 5": (5, 5),
                                 "A..B": (f"{ids[3]}..{ids[15]}", 12)}[span]
            provider = GitProvider(repo)
            report = series(provider, range_spec, RULES)
            assert len(report.snapshots) == count
            for snap in report.snapshots:
                assert snap.stats == fresh_stats(provider, snap.commit, RULES)

    def test_a_shallow_clone_counts_from_its_boundary_commit(self, walk_repos, tmp_path):
        for n, repo in enumerate(walk_repos):
            clone = tmp_path / f"shallow{n}"
            run_git(tmp_path, "clone", "-q", "--depth", "3", f"file://{repo}", str(clone))
            assert run_git(clone, "rev-parse", "--is-shallow-repository") == "true"
            full = series(GitProvider(repo), None, RULES).snapshots
            shallow = series(GitProvider(clone), None, RULES).snapshots
            assert [s.commit.ordinal for s in shallow] == [0, 1, 2]
            assert without_ordinals(shallow) == without_ordinals(full[-3:])

    def test_snapshot_folders_give_the_same_series(self, walk_repos, tmp_path):
        for n, repo in enumerate(walk_repos):
            folders = export_snapshots(repo, tmp_path / f"snapshots{n}")
            in_git = series(GitProvider(repo), None, RULES)
            in_dirs = series(SnapshotDirProvider(folders), None, RULES)
            assert in_dirs.snapshots == in_git.snapshots

    def test_snapshot_folder_keys_are_the_bytes(self, history_snapshot_dir):
        provider = SnapshotDirProvider(history_snapshot_dir)
        commits = provider.list_commits()
        every_change = list(provider.changes(commits, lambda path: True))
        assert len(every_change) == len(commits)
        # after the first commit's whole tree, only what each commit changed
        assert [sorted(changed) for changed in every_change[1:]] == [
            [b"A.java"], [b"src/test/TA.java"], [b"Big.java"], [b"README.md"]]
        tree: dict = {}
        for commit, changed in zip(commits, every_change):
            tree.update(changed)
            listing = [pair for pair in tree.values() if pair is not None]
            base = next(history_snapshot_dir.glob(f"*_{commit.id}"))
            assert listing == [(path, (base / path).read_bytes()) for path, _ in listing]
            assert provider.read_files(listing) == listing
            assert {path for path, _ in listing} == {
                child.relative_to(base).as_posix()
                for child in base.rglob("*") if child.is_file()}


def series_documents(repo: Path, tmp_path: Path) -> tuple[dict, dict]:
    """The `history` JSON of `repo` and of its snapshot folders, less the
    `parameters` that name the mode."""
    folders = export_snapshots(repo, tmp_path / "snapshots")
    documents = []
    for mode in ([str(repo)], ["--snapshots", str(folders)]):
        out = tmp_path / f"out{len(documents)}"
        assert cli.main(["history", *mode, "--output-dir", str(out)]) == 0
        document = json.loads((out / "cdd_series.json").read_text("utf-8"))
        del document["parameters"]
        documents.append(document)
    return documents[0], documents[1]


class TestLinksAndNames:
    """A snapshot holds no symbolic link, and shows a file name that is not
    UTF-8 as git does, whichever provider reads it."""

    @pytest.fixture()
    def link_repo(self, tmp_path) -> Path:
        # a link in the first commit's tree, a link added by a diff, and a
        # link replaced by a file
        repo = tmp_path / "links"
        commit_tree(repo, {"src/real/A.java": A_V1, "src/Link.java": Path("real/A.java")},
                    "c0", "2021-12-01T00:00:00Z")
        commit_tree(repo, {"src/Big.java": BIG, "src/BigLink.java": Path("Big.java")},
                    "c1", "2021-12-02T00:00:00Z")
        commit_tree(repo, {"src/Link.java": A_V2}, "c2", "2021-12-03T00:00:00Z")
        return repo

    def test_a_link_is_no_file_of_a_git_snapshot(self, link_repo):
        provider = GitProvider(link_repo)
        report = series(provider, None, RULES)
        assert [s.stats.class_count for s in report.snapshots] == [1, 2, 3]
        assert [s.stats.diagnostics for s in report.snapshots] == [(), (), ()]
        for snap in report.snapshots:
            assert snap.stats == fresh_stats(provider, snap.commit, RULES)

    def test_a_link_is_no_file_of_a_snapshot_folder(self, link_repo, tmp_path):
        in_git, in_dirs = series_documents(link_repo, tmp_path)
        assert [s["class_count"] for s in in_dirs["snapshots"]] == [1, 2, 3]
        assert in_dirs == in_git

    def test_a_name_that_is_not_utf8_reads_as_in_git(self, tmp_path):
        repo = tmp_path / "names"
        commit_tree(repo, {os.fsdecode(b"caf\xe9.java"): BROKEN, "A.java": A_V1},
                    "c0", "2021-12-01T00:00:00Z")
        in_git, in_dirs = series_documents(repo, tmp_path)
        [failure] = in_git["snapshots"][0]["diagnostics"]
        assert failure.startswith("caf\ufffd.java: parse failed")
        assert in_dirs == in_git


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


class TestLazilyLoadedOutputs:
    """`datetime` is not imported where these outputs are made; the outputs
    are the ones it gave."""

    @pytest.mark.parametrize("epoch", [0, -86_400, 1_600_000_000, 2**31, 4_102_444_800])
    def test_timestamps_match_datetime(self, epoch):
        expected = datetime.fromtimestamp(epoch, tz=timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ")
        assert _iso_utc(epoch) == expected


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
