"""Snapshot providers: git repositories and directory-of-snapshots trees.

Both providers serve a series through the same calls: `list_commits`, then
`listings`, which yields each selected commit's wanted files as (path, key)
pairs, then `read_files` for the pairs a caller has not seen, and `close`.
The key stands for a file's bytes, so an unchanged file keeps its key from
one snapshot to the next.

Git access goes through the `git` executable using object reads only; the
working tree is never touched. A series costs a fixed number of git
processes, whatever its length: one `log` for the commit list, one `ls-tree`
of the first selected commit, one first-parent raw-diff `log` over the rest
of the range, and one long-lived `cat-file --batch` that is asked for blobs
by id. A merge contributes its diff against its first parent, so each
snapshot is the tree of its commit. The key is the blob id, so a path that
is not UTF-8, or that holds a newline, is read like any other.

The directory provider reads plain `NNNN_<id>/` folders, so the pipeline
can be exercised without git. It reads and hashes every file of each
snapshot it lists; its key is the sha256 of the bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

RangeSpec = Union[None, int, str]  # None=all, int=last N, "A..B"=id range
Listing = list[tuple[str, str]]  # a snapshot's (path, key) pairs
PathFilter = Callable[[str], bool]


class RepoNotFound(Exception):
    pass


class RangeEmpty(Exception):
    pass


class VcsToolError(Exception):
    pass


@dataclass(frozen=True)
class CommitMeta:
    id: str
    timestamp: str  # ISO-8601 UTC
    message: str
    ordinal: int  # position in the full first-parent walk, oldest = 0


def _iso_utc(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def apply_range(commits: list[CommitMeta], range_spec: RangeSpec) -> list[CommitMeta]:
    """Bound an oldest-first commit list by count or by `A..B` (A exclusive)."""
    selected = commits
    if isinstance(range_spec, int):
        if range_spec <= 0:
            raise RangeEmpty(f"range count must be positive, got {range_spec}")
        selected = commits[-range_spec:]
    elif isinstance(range_spec, str) and range_spec:
        if ".." not in range_spec:
            raise RangeEmpty(f"range must look like A..B, got {range_spec!r}")
        start_id, _, end_id = range_spec.partition("..")
        lo = 0
        hi = len(commits)
        if start_id:
            lo = _find_commit(commits, start_id) + 1
        if end_id:
            hi = _find_commit(commits, end_id) + 1
        selected = commits[lo:hi]
    if not selected:
        raise RangeEmpty("no commits in the requested range")
    return selected


def _find_commit(commits: list[CommitMeta], commit_id: str) -> int:
    for i, c in enumerate(commits):
        if c.id == commit_id or c.id.startswith(commit_id):
            return i
    raise RangeEmpty(f"commit {commit_id!r} not found in first-parent history")


class GitProvider:
    def __init__(self, repo_path: Union[str, Path]):
        self.repo_path = Path(repo_path)
        self._cat_file: Optional[subprocess.Popen] = None
        if not self.repo_path.is_dir():
            raise RepoNotFound(f"{repo_path}: no such directory")
        try:
            self._git("rev-parse", "--git-dir")
        except VcsToolError as exc:
            raise RepoNotFound(f"{repo_path}: not a git repository ({exc})") from exc

    def _git(self, *args: str) -> bytes:
        try:
            proc = subprocess.run(
                ["git", "-C", str(self.repo_path), *args], capture_output=True
            )
        except FileNotFoundError as exc:
            raise VcsToolError("git executable not found on PATH") from exc
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace").strip()
            raise VcsToolError(f"git {args[0]} failed: {stderr}")
        return proc.stdout

    def list_commits(self, range_spec: RangeSpec = None) -> list[CommitMeta]:
        out = self._git(
            "log", "--first-parent", "--reverse", "--format=%H%x1f%ct%x1f%B%x1e"
        )
        commits: list[CommitMeta] = []
        for i, record in enumerate(out.decode("utf-8", "replace").split("\x1e")):
            record = record.strip("\n")
            if not record.strip():
                continue
            commit_id, epoch, message = record.split("\x1f", 2)
            commits.append(
                CommitMeta(commit_id.strip(), _iso_utc(int(epoch)),
                           message.rstrip("\n"), len(commits))
            )
        if not commits:
            raise RangeEmpty("repository has no commits")
        return apply_range(commits, range_spec)

    def listings(
        self, commits: list[CommitMeta], path_filter: PathFilter
    ) -> Iterator[Listing]:
        """Yield, for each of `commits` (consecutive in the first-parent
        walk, oldest first), the (path, blob id) pairs of the blobs whose
        path `path_filter` accepts, in `ls-tree` order: bytewise by path.
        A path that is not UTF-8 is shown with replacement characters."""
        tree: dict[bytes, tuple[str, str]] = {}  # raw path -> pair

        def put(raw: bytes, blob_id: bytes) -> None:
            path = raw.decode("utf-8", "replace")
            if path_filter(path):
                tree[raw] = (path, blob_id.decode("ascii"))

        for record in self._git("ls-tree", "-r", "-z", commits[0].id).split(b"\0"):
            if record:
                meta, _, raw = record.partition(b"\t")
                _, kind, blob_id = meta.split(b" ")
                if kind == b"blob":
                    put(raw, blob_id)
        yield [tree[raw] for raw in sorted(tree)]
        if len(commits) == 1:
            return

        out = self._git(
            "log", "--first-parent", "--reverse", "--diff-merges=first-parent",
            "--raw", "-z", "--no-renames", "--no-abbrev", "--format=%H",
            f"{commits[0].id}..{commits[-1].id}", "--",
        )
        # -z output: a commit id, then per changed path a
        # ":mode mode id id status" record and the path, all NUL-separated
        walked: list[str] = []
        diffs: list[list[tuple[bytes, bytes]]] = []
        tokens = iter(out.split(b"\0"))
        for token in tokens:
            token = token.lstrip(b"\n")
            if token.startswith(b":"):
                _, new_mode, _, blob_id, status = token.split(b" ")
                # deleted, or replaced by a submodule
                gone = status == b"D" or new_mode == b"160000"
                diffs[-1].append((next(tokens), b"" if gone else blob_id))
            elif token:
                walked.append(token.decode("ascii"))
                diffs.append([])
        if walked != [c.id for c in commits[1:]]:
            raise VcsToolError("git log walked other commits than the range holds")
        for diff in diffs:
            for raw, blob_id in diff:
                if blob_id:
                    put(raw, blob_id)
                else:
                    tree.pop(raw, None)
            yield [tree[raw] for raw in sorted(tree)]

    def read_files(self, pairs: Listing) -> list[tuple[str, bytes]]:
        """Fetch the blobs of (path, blob id) pairs by id. A missing object
        raises `VcsToolError` naming its path."""
        files: list[tuple[str, bytes]] = []
        for path, blob_id in pairs:
            blob = self._fetch(blob_id)
            if blob is None:
                raise VcsToolError(f"object missing for {path}")
            files.append((path, blob))
        return files

    def _fetch(self, blob_id: str) -> Optional[bytes]:
        """One round trip to the `cat-file --batch` process kept until
        `close`: the id is written and its whole reply read before the next
        request, so neither pipe can fill. A missing object has a one-line
        reply, so the stream stays in step; it gives None."""
        if self._cat_file is None:
            try:
                self._cat_file = subprocess.Popen(
                    ["git", "-C", str(self.repo_path), "cat-file", "--batch"],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                )
            except FileNotFoundError as exc:
                raise VcsToolError("git executable not found on PATH") from exc
        proc = self._cat_file
        try:
            proc.stdin.write(blob_id.encode("ascii") + b"\n")
            proc.stdin.flush()
            header = proc.stdout.readline()
            if header.endswith(b" missing\n"):
                return None
            size = int(header.split()[2])
            body = proc.stdout.read(size + 1)  # the blob and a newline
            if len(body) != size + 1:
                raise ValueError("short read")
        except (BrokenPipeError, IndexError, ValueError) as exc:
            self.close()
            raise VcsToolError(f"git cat-file failed on {blob_id}: {exc}") from exc
        return body[:-1]

    def close(self) -> None:
        """Stop the `cat-file` process, if one runs, and reap it."""
        proc, self._cat_file = self._cat_file, None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass
        proc.stdout.close()
        proc.wait()


_SNAPSHOT_DIR_RE = re.compile(r"^(\d+)_(.+)$")


class SnapshotDirProvider:
    """Reads `NNNN_<id>/` snapshot folders described by commits.jsonl."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        if not self.root.is_dir():
            raise RepoNotFound(f"{root}: no such directory")
        manifest = self.root / "commits.jsonl"
        if not manifest.is_file():
            raise RepoNotFound(f"{root}: missing commits.jsonl")
        self._meta: dict[str, dict] = {}
        for line in manifest.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            self._meta[record["id"]] = record
        self._dirs: dict[str, Path] = {}
        ordered: list[tuple[int, str]] = []
        for child in sorted(self.root.iterdir()):
            m = _SNAPSHOT_DIR_RE.match(child.name)
            if child.is_dir() and m:
                ordered.append((int(m.group(1)), m.group(2)))
                self._dirs[m.group(2)] = child
        self._order = [cid for _, cid in sorted(ordered)]
        self._blobs: dict[tuple[str, str], bytes] = {}  # of the last listing

    def list_commits(self, range_spec: RangeSpec = None) -> list[CommitMeta]:
        commits: list[CommitMeta] = []
        for ordinal, commit_id in enumerate(self._order):
            meta = self._meta.get(commit_id)
            if meta is None:
                raise VcsToolError(f"commits.jsonl has no entry for {commit_id}")
            ts = meta["timestamp"]
            timestamp = _iso_utc(ts) if isinstance(ts, int) else str(ts)
            commits.append(
                CommitMeta(commit_id, timestamp, str(meta["message"]), ordinal)
            )
        if not commits:
            raise RangeEmpty("snapshot directory has no snapshots")
        return apply_range(commits, range_spec)

    def listings(
        self, commits: list[CommitMeta], path_filter: PathFilter
    ) -> Iterator[Listing]:
        """Yield each commit's (path, sha256) pairs of the files whose path
        `path_filter` accepts, bytewise by path as git lists them; the bytes
        of the last listing are kept for `read_files`."""
        for commit in commits:
            base = self._dirs.get(commit.id)
            if base is None:
                raise VcsToolError(f"no snapshot directory for {commit.id}")
            self._blobs = {}
            files = {child.relative_to(base).as_posix(): child
                     for child in base.rglob("*") if child.is_file()}
            for rel in sorted(files, key=os.fsencode):
                if path_filter(rel):
                    blob = files[rel].read_bytes()
                    self._blobs[rel, hashlib.sha256(blob).hexdigest()] = blob
            yield list(self._blobs)

    def read_files(self, pairs: Listing) -> list[tuple[str, bytes]]:
        return [(path, self._blobs[path, key]) for path, key in pairs]

    def close(self) -> None:
        self._blobs = {}
