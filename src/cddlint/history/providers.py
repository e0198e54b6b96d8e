"""Snapshot providers: git repositories and directory-of-snapshots trees.

Both providers serve a series through the same calls: `list_commits`, then
`changes`, then `read_files` for the pairs a caller has not read, and
`close`. `changes` yields a dict per selected commit from a raw path (bytes)
to a wanted file's (path, key) pair, or to None once the path is gone: the
first commit's whole tree, then what each later commit changed. The path is
text, decoded from the raw path with replacement characters where it is not
UTF-8; the key stands for the file's bytes. A snapshot holds no symbolic
link: git stores a link's target path as its blob, and a snapshot folder's
link would read the file it points to, so both providers skip links.

Git access goes through the `git` executable using object reads only; the
working tree is never touched. A series costs a fixed number of git
processes, whatever its length: one `log` for the commit list, one `ls-tree`
of the first selected commit, one first-parent raw-diff `log` over the rest
of the range, and one long-lived `cat-file --batch` that is asked for blobs
by id. A merge contributes its diff against its first parent, so each
snapshot is the tree of its commit. The key is the blob id, so a path that
is not UTF-8, or that holds a newline, is read like any other.

The directory provider reads plain `NNNN_<id>/` folders, so the pipeline
can be exercised without git. It reads every file of each snapshot, and its
key is the file's bytes, so `read_files` returns the pairs it is given.

`subprocess` is imported inside the calls that use it, and timestamps are
formatted with `time`, not `datetime`: `cddlint.cli` imports this module for
every command, and `check`, `reconcile` and `init` load neither.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Union

from ..records import Record

if TYPE_CHECKING:
    import subprocess

RangeSpec = Union[None, int, str]  # None=all, int=last N, "A..B"=id range
Pair = tuple[str, Union[str, bytes]]  # a file's (path, key)
Changes = dict[bytes, Optional[Pair]]  # raw path -> pair, or None when gone
PathFilter = Callable[[str], bool]

_NOT_FILES = (b"120000", b"160000")  # git modes of a symbolic link and a submodule


class RepoNotFound(Exception):
    pass


class RangeEmpty(Exception):
    pass


class VcsToolError(Exception):
    pass


class CommitMeta(Record):
    _fields = (
        "id",
        "timestamp",  # ISO-8601 UTC
        "message",
        "ordinal",  # position in the full first-parent walk, oldest = 0
    )


def _iso_utc(epoch: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch))


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
    """The commit whose id is `commit_id`, or else the one whose id starts
    with it: like git, refuse a prefix that several share."""
    found = ([i for i, c in enumerate(commits) if c.id == commit_id]
             or [i for i, c in enumerate(commits) if c.id.startswith(commit_id)])
    if len(found) > 1:
        raise RangeEmpty(f"commit prefix {commit_id!r} is ambiguous: "
                         f"{len(found)} commits in first-parent history start with it")
    if not found:
        raise RangeEmpty(f"commit {commit_id!r} not found in first-parent history")
    return found[0]


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
        import subprocess

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
        # -z: each field ends with a NUL, which no commit message can hold
        out = self._git(
            "log", "--first-parent", "--reverse", "-z", "--format=%H%x00%ct%x00%B"
        )
        fields = iter(out.decode("utf-8", "replace").split("\0")[:-1])
        commits: list[CommitMeta] = []
        for commit_id, epoch, message in zip(fields, fields, fields):
            commits.append(CommitMeta((commit_id, _iso_utc(int(epoch)),
                                       message.rstrip("\n"), len(commits))))
        if not commits:
            raise RangeEmpty("repository has no commits")
        return apply_range(commits, range_spec)

    def changes(
        self, commits: list[CommitMeta], path_filter: PathFilter
    ) -> Iterator[Changes]:
        """Yield the changes to the (path, blob id) pairs of the blobs whose
        path `path_filter` accepts at each of `commits` (consecutive in the
        first-parent walk, oldest first): `ls-tree`, then each diff."""

        def put(changed: Changes, raw: bytes, blob_id: bytes) -> None:
            path = raw.decode("utf-8", "replace")
            if path_filter(path):
                changed[raw] = (path, blob_id.decode("ascii"))

        tree: Changes = {}
        for record in self._git("ls-tree", "-r", "-z", commits[0].id).split(b"\0"):
            if record:
                meta, _, raw = record.partition(b"\t")
                mode, kind, blob_id = meta.split(b" ")
                if kind == b"blob" and mode not in _NOT_FILES:
                    put(tree, raw, blob_id)
        yield tree
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
        diffs: list[Changes] = []
        tokens = iter(out.split(b"\0"))
        for token in tokens:
            token = token.lstrip(b"\n")
            if token.startswith(b":"):
                _, new_mode, _, blob_id, status = token.split(b" ")
                raw = next(tokens)
                # deleted, or replaced by a link or a submodule
                if status == b"D" or new_mode in _NOT_FILES:
                    diffs[-1][raw] = None
                else:
                    put(diffs[-1], raw, blob_id)
            elif token:
                walked.append(token.decode("ascii"))
                diffs.append({})
        if walked != [c.id for c in commits[1:]]:
            raise VcsToolError("git log walked other commits than the range holds")
        yield from diffs

    def read_files(self, pairs: list[Pair]) -> list[tuple[str, bytes]]:
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
            import subprocess

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

    def list_commits(self, range_spec: RangeSpec = None) -> list[CommitMeta]:
        commits: list[CommitMeta] = []
        for ordinal, commit_id in enumerate(self._order):
            meta = self._meta.get(commit_id)
            if meta is None:
                raise VcsToolError(f"commits.jsonl has no entry for {commit_id}")
            ts = meta["timestamp"]
            timestamp = _iso_utc(ts) if isinstance(ts, int) else str(ts)
            commits.append(
                CommitMeta((commit_id, timestamp, str(meta["message"]), ordinal))
            )
        if not commits:
            raise RangeEmpty("snapshot directory has no snapshots")
        return apply_range(commits, range_spec)

    def changes(
        self, commits: list[CommitMeta], path_filter: PathFilter
    ) -> Iterator[Changes]:
        """Yield, per commit, the (path, bytes) pairs of the files whose
        path `path_filter` accepts that changed, and None for one gone; a
        symbolic link is skipped."""
        previous: dict[bytes, Pair] = {}
        for commit in commits:
            base = self._dirs.get(commit.id)
            if base is None:
                raise VcsToolError(f"no snapshot directory for {commit.id}")
            tree: dict[bytes, Pair] = {}
            for child in base.rglob("*"):
                raw = os.fsencode(child.relative_to(base).as_posix())
                path = raw.decode("utf-8", "replace")  # as git's paths are
                if child.is_file() and not child.is_symlink() and path_filter(path):
                    tree[raw] = (path, child.read_bytes())
            yield {raw: None for raw in previous if raw not in tree} | {
                raw: pair for raw, pair in tree.items() if previous.get(raw) != pair}
            previous = tree

    def read_files(self, pairs: list[Pair]) -> list[Pair]:
        return pairs

    def close(self) -> None:
        pass
