"""Real-file storage: segment files + fsync under one node directory.

Layout of a node's directory::

    seg-00000000.log    append-only record segments, rolled at
    seg-00000001.log    ``SEGMENT_BYTES``; names order them
    snap-<seq>.bin      snapshot blobs; the highest valid one wins

Writes follow the usual crash-safe discipline: records are appended and
fsynced in one batch per commit (or per group-commit window); snapshots
go through a temp file + ``os.replace`` + directory fsync, and only
after the snapshot is durable are the covered segments deleted.  Any
OS-level write failure (``ENOSPC`` included) surfaces as
:class:`~repro.consensus.base.StorageFull`, which the hosting node
treats as fail-stop.

Under the simulator this backend is still deterministic: file I/O never
touches virtual time and draws no randomness.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Optional

from repro.consensus.base import StorageFull
from repro.storage.base import SEGMENT_BYTES, LogStorage, StorageConfig
from repro.storage.record import scan_records

_SEG_PREFIX = "seg-"
_SEG_SUFFIX = ".log"
_SNAP_PREFIX = "snap-"
_SNAP_SUFFIX = ".bin"


class DiskStorage(LogStorage):
    """Segmented log + snapshots on real files; see module docstring."""

    def __init__(
        self, config: StorageConfig, path: str, capacity: Optional[int] = None
    ) -> None:
        super().__init__(config, capacity)
        self.path = path
        os.makedirs(path, exist_ok=True)
        self._fh = None
        self._seg_index = 0
        self._seg_size = 0
        self._current_snap: Optional[str] = None

    # ------------------------------------------------------------------
    # Segment file plumbing
    # ------------------------------------------------------------------

    def _segment_path(self, index: int) -> str:
        return os.path.join(self.path, f"{_SEG_PREFIX}{index:08d}{_SEG_SUFFIX}")

    def _open_segment(self, index: int) -> None:
        self._close_fh()
        self._fh = open(self._segment_path(index), "ab")
        self._seg_index = index
        self._seg_size = self._fh.tell()

    def _close_fh(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def _listed(self, prefix: str, suffix: str) -> list[str]:
        return sorted(
            name
            for name in os.listdir(self.path)
            if name.startswith(prefix) and name.endswith(suffix)
        )

    def _fsync_dir(self) -> None:
        fd = os.open(self.path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # Backend primitives
    # ------------------------------------------------------------------

    def _persist(self, frames: list[bytes]) -> float:
        started = perf_counter()
        try:
            if self._fh is None:
                existing = self._listed(_SEG_PREFIX, _SEG_SUFFIX)
                index = (
                    int(existing[-1][len(_SEG_PREFIX) : -len(_SEG_SUFFIX)])
                    if existing
                    else 0
                )
                self._open_segment(index)
            for frame in frames:
                self._fh.write(frame)
                self._seg_size += len(frame)
                if self._seg_size >= SEGMENT_BYTES:
                    self._fh.flush()
                    os.fsync(self._fh.fileno())
                    self._open_segment(self._seg_index + 1)
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            raise StorageFull(f"log write failed: {exc}") from exc
        return perf_counter() - started

    def _write_snapshot(self, framed: bytes) -> None:
        try:
            tmp = os.path.join(self.path, "snap.tmp")
            with open(tmp, "wb") as fh:
                fh.write(framed)
                fh.flush()
                os.fsync(fh.fileno())
            final = os.path.join(
                self.path, f"{_SNAP_PREFIX}{self._seq:016d}{_SNAP_SUFFIX}"
            )
            os.replace(tmp, final)
            self._fsync_dir()
            self._current_snap = final
        except OSError as exc:
            raise StorageFull(f"snapshot write failed: {exc}") from exc

    def _truncate_log(self) -> None:
        # Only reached after the covering snapshot is durable.
        self._close_fh()
        for name in self._listed(_SEG_PREFIX, _SEG_SUFFIX):
            os.unlink(os.path.join(self.path, name))
        for name in self._listed(_SNAP_PREFIX, _SNAP_SUFFIX):
            full = os.path.join(self.path, name)
            if full != self._current_snap:
                os.unlink(full)
        self._fsync_dir()
        self._open_segment(0)

    def _load(self):
        self._close_fh()
        snap_framed: Optional[bytes] = None
        for name in reversed(self._listed(_SNAP_PREFIX, _SNAP_SUFFIX)):
            full = os.path.join(self.path, name)
            with open(full, "rb") as fh:
                data = fh.read()
            from repro.storage.record import parse_snapshot

            if parse_snapshot(data) is not None:
                snap_framed = data
                self._current_snap = full
                break
        records: list[tuple[int, int, bytes]] = []
        log_bytes = 0
        segments = self._listed(_SEG_PREFIX, _SEG_SUFFIX)
        kept = segments
        for i, name in enumerate(segments):
            full = os.path.join(self.path, name)
            with open(full, "rb") as fh:
                data = fh.read()
            scanned, clean_end = scan_records(data)
            records.extend(scanned)
            log_bytes += clean_end
            if clean_end != len(data):
                # Torn write: truncate to the clean prefix and drop any
                # later segments (sequential appends mean they hold
                # nothing the torn one does not invalidate).
                with open(full, "r+b") as fh:
                    fh.truncate(clean_end)
                    fh.flush()
                    os.fsync(fh.fileno())
                for later in segments[i + 1 :]:
                    os.unlink(os.path.join(self.path, later))
                kept = segments[: i + 1]
                break
        if kept:
            self._open_segment(int(kept[-1][len(_SEG_PREFIX) : -len(_SEG_SUFFIX)]))
        else:
            self._open_segment(0)
        return snap_framed, records, log_bytes

    def _wipe_store(self) -> None:
        self._close_fh()
        for name in self._listed(_SEG_PREFIX, _SEG_SUFFIX):
            os.unlink(os.path.join(self.path, name))
        for name in self._listed(_SNAP_PREFIX, _SNAP_SUFFIX):
            os.unlink(os.path.join(self.path, name))
        self._current_snap = None

    def close(self) -> None:
        self._close_fh()
