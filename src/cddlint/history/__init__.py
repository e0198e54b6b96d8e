"""Repository-history mining: per-commit snapshots and evolution series."""

from .providers import (
    CommitMeta,
    GitProvider,
    RangeEmpty,
    RepoNotFound,
    SnapshotDirProvider,
    VcsToolError,
)
from .series import (
    SeriesReport,
    SnapshotFile,
    SnapshotMetrics,
    SnapshotStats,
    analyze_snapshot,
    detect_cdd_commit,
    read_snapshot_files,
    render_csv,
    render_json_mapping,
    series,
)

__all__ = [
    "CommitMeta",
    "GitProvider",
    "RangeEmpty",
    "RepoNotFound",
    "SeriesReport",
    "SnapshotDirProvider",
    "SnapshotFile",
    "SnapshotMetrics",
    "SnapshotStats",
    "VcsToolError",
    "analyze_snapshot",
    "detect_cdd_commit",
    "read_snapshot_files",
    "render_csv",
    "render_json_mapping",
    "series",
]
