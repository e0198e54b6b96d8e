"""Shared fixtures: the annotated controller golden file, the oracle corpus,
and a deterministic 5-commit history fixture (git repo + snapshot dir)."""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
ORACLE_DIR = FIXTURES / "oracle"

LISTING_PATH = FIXTURES / "listing" / "CertificateDetailsController.java"

LISTING_INTERNAL_TYPES = (
    "CertificateRepository",
    "TrainingCompleted",
    "Student",
    "CertificateResponse",
    "Training",
)


@pytest.fixture(scope="session")
def listing_source() -> str:
    return LISTING_PATH.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def oracle_manifest() -> dict:
    return json.loads((ORACLE_DIR / "manifest.json").read_text(encoding="utf-8"))


# Nested far deeper than the parser's recursion allows (it gives out at
# about 140 parentheses): each file holding it must fail alone, as a parse
# failure.
DEEP_SOURCE = (
    "class Deep {\n  int f(int a) {\n    return "
    + "(" * 1000 + "a" + ")" * 1000 + ";\n  }\n}\n"
)

# 5,000-term operator chains, far longer than recursion would allow: the
# engine walks a chain in a loop, so each is analysed whole.
LONG_GUARD_SOURCE = (
    "class Guard {\n  void f(boolean a) {\n    if ("
    + " && ".join(["a"] * 5000) + ") {}\n  }\n}\n"
)
# a 1,000-link `else if` chain: 1,000 ifs, 1,000 conditions, 1,000 elses
ELSE_IF_SOURCE = (
    "class Chain {\n  int f(int x) {\n    "
    + "\n    else ".join(f"if (x == {i}) return {i};" for i in range(1000))
    + "\n    else return -1;\n  }\n}\n"
)
LONG_SUM_SOURCE = (
    "class Sum {\n  Repo repo;\n  int f() {\n    return "
    + " + ".join(["repo.size()"] * 5000) + ";\n  }\n}\n"
)


# ── history fixture ──────────────────────────────────────────────────────
#
# Five commits with hand-computed metrics (see test_history.EXPECTED_ROWS):
#   0  add A.java            (8 lines, total 2.0, one 6-line method)
#   1  grow A.java           (9 lines, total 3.0, one 7-line method)
#   2  add src/test/TA.java  (test file: excluded everywhere)
#   3  add Big.java          (20 lines, total 13.0 -> over the limit of 10)
#   4  docs-only commit with a cdd(...) message

A_V1 = """\
class A {
  int f(int x) {
    if (x > 0) {
      return 1;
    }
    return 0;
  }
}
"""

A_V2 = """\
class A {
  int f(int x) {
    if (x > 0) {
      return 1;
    } else {
      return 2;
    }
  }
}
"""

TEST_FILE = """\
class TA {
  void testA() {
    if (true) {
    }
  }
}
"""

BIG = """\
class Big {
  private InternalA a;
  private InternalB b;

  void f(int x) {
    if (x > 0 && a != null) {
      a.run();
    } else {
      b.run();
    }
    while (x > 0) {
      x--;
    }
    try {
      a.go();
    } catch (Exception e) {
      x = 0;
    }
  }
}
"""

HISTORY_COMMITS = [
    # (timestamp ISO, message, {path: content or None to delete})
    ("2021-10-01T00:00:00Z", "add certificate flow", {"A.java": A_V1}),
    ("2021-10-02T00:00:00Z", "handle the unhappy path", {"A.java": A_V2}),
    ("2021-10-03T00:00:00Z", "cover A with a test", {"src/test/TA.java": TEST_FILE}),
    ("2021-10-04T00:00:00Z", "add bulk validation", {"Big.java": BIG}),
    ("2021-10-05T00:00:00Z", "cdd(Big): recompute totals", {"README.md": "notes\n"}),
]


def run_git(repo: Path, *args: str, env: dict | None = None) -> str:
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout.strip()


def commit_tree(repo: Path, changes: dict, message: str, timestamp: str) -> None:
    """Write `changes` (path -> str or bytes, a Path for a symbolic link to
    it, None deletes) and commit them at `timestamp`; the repository is
    created on first use."""
    if not repo.exists():
        repo.mkdir()
        run_git(repo, "init", "-q")
        run_git(repo, "config", "user.name", "fixture")
        run_git(repo, "config", "user.email", "fixture@example.com")
    for path, content in changes.items():
        target = repo / path
        if content is None or target.is_symlink():
            target.unlink()
        if content is None:
            continue
        target.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, Path):
            target.symlink_to(content)
        elif isinstance(content, bytes):
            target.write_bytes(content)
        else:
            target.write_text(content, encoding="utf-8")
    run_git(repo, "add", "-A")
    run_git(repo, "commit", "-q", "-m", message, env=dated_env(timestamp))


def dated_env(timestamp: str) -> dict:
    """The environment that dates a git commit at `timestamp` (ISO, UTC)."""
    env = dict(os.environ)
    git_date = timestamp.replace("Z", " +0000").replace("T", " ")
    env["GIT_AUTHOR_DATE"] = git_date
    env["GIT_COMMITTER_DATE"] = git_date
    return env


@pytest.fixture()
def history_repo(tmp_path: Path) -> tuple[Path, list[str]]:
    """Build the 5-commit repo; returns (path, commit ids oldest first)."""
    repo = tmp_path / "repo"
    for timestamp, message, changes in HISTORY_COMMITS:
        commit_tree(repo, changes, message, timestamp)
    ids = run_git(repo, "rev-list", "--first-parent", "--reverse", "HEAD").split()
    assert len(ids) == len(HISTORY_COMMITS)
    return repo, ids


@pytest.fixture()
def history_snapshot_dir(tmp_path: Path, history_repo) -> Path:
    """The same five snapshots as plain directories plus commits.jsonl."""
    repo, ids = history_repo
    root = tmp_path / "snapshots"
    root.mkdir()
    tree: dict[str, str] = {}
    lines = []
    for ordinal, ((timestamp, message, changes), commit_id) in enumerate(
            zip(HISTORY_COMMITS, ids)):
        for path, content in changes.items():
            tree[path] = content
        snap = root / f"{ordinal:04d}_{commit_id}"
        for path, content in tree.items():
            target = snap / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(content, encoding="utf-8")
        lines.append(json.dumps(
            {"id": commit_id, "timestamp": timestamp, "message": message}
        ))
    (root / "commits.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root
