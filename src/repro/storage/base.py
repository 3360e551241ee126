"""Storage configuration and the shared group-commit log engine.

:class:`LogStorage` implements everything substrate-independent about a
segmented append-only log -- record sequencing, capacity modelling,
fsync batching (group-commit), snapshot scheduling, and the recovery
scan -- over four primitives a backend provides: persist framed records,
write a snapshot blob, truncate the covered log, and load whatever is
there.  :class:`~repro.storage.mem.MemStorage` keeps bytearray segments
(deterministic, for the sim); :class:`~repro.storage.disk.DiskStorage`
keeps real files and fsyncs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.consensus.base import Env, Recovered, Storage, StorageFull, TimerHandle
from repro.storage.record import frame_record, frame_snapshot, parse_snapshot

SEGMENT_BYTES = 1 << 20  # a backend rolls its active segment past this size


@dataclass(frozen=True)
class StorageConfig:
    """Shape of a node's durable store.

    ``kind``: ``"none"`` (no durability, the default), ``"mem"``
    (deterministic in-memory segments with disk-like crash semantics),
    or ``"disk"`` (real files + fsync).
    ``dir``: root directory for ``"disk"``; each node gets a
    ``node-<id>/`` subdirectory.  ``None`` means the cluster builder
    must supply one (the chaos runner and CLI create a tmpdir).
    ``fsync_wait``: group-commit window in seconds, mirroring the
    proposer's ``batch_wait``.  ``0`` fsyncs synchronously per event;
    ``> 0`` defers each event's release (sends *and* deliveries) until
    one batched fsync covers it; a window's sends leave as one flush.
    ``snapshot_every``: take a state snapshot (and truncate the covered
    log) every N flushed records; ``0`` disables snapshots.  An M2Paxos
    record is one Accept, Decide or promise *message*, not one command:
    with proposer batching the same N snapshots less often per command
    than when each decision was its own record (a quarter as often at
    ``tcp-durable``'s batch: 0.83 records per command, from 3.43).
    ``capacity_bytes`` / ``capacity_nodes``: modelled log capacity --
    appends beyond it raise :class:`StorageFull` and fail-stop the node.
    ``capacity_nodes`` restricts the cap to those node ids (``None`` =
    all nodes), so a chaos scenario can fill one node's disk while the
    rest of the cluster keeps quorum.  Snapshot space is not budgeted;
    the cap models the log only.
    """

    kind: str = "none"
    dir: Optional[str] = None
    fsync_wait: float = 0.0
    snapshot_every: int = 0
    capacity_bytes: Optional[int] = None
    capacity_nodes: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "mem", "disk"):
            raise ValueError(
                f"storage kind must be 'none', 'mem', or 'disk', got {self.kind!r}"
            )
        if self.fsync_wait < 0:
            raise ValueError("fsync_wait must be >= 0")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        if self.capacity_bytes is not None and self.capacity_bytes < 1:
            raise ValueError("capacity_bytes must be >= 1")

    def build(self, node_id: int) -> Optional[Storage]:
        """A fresh :class:`Storage` for ``node_id`` (``None`` for
        ``kind="none"``: the hosting node keeps the shared
        :data:`~repro.consensus.base.NULL_STORAGE`)."""
        if self.kind == "none":
            return None
        capacity = self.capacity_bytes
        if capacity is not None and self.capacity_nodes is not None:
            if node_id not in self.capacity_nodes:
                capacity = None
        if self.kind == "mem":
            from repro.storage.mem import MemStorage

            return MemStorage(self, capacity=capacity)
        from repro.storage.disk import DiskStorage

        if self.dir is None:
            raise ValueError("kind='disk' requires a directory (StorageConfig.dir)")
        import os

        return DiskStorage(
            self, os.path.join(self.dir, f"node-{node_id}"), capacity=capacity
        )


class LogStorage(Storage):
    """Segmented append-only log with group-commit and snapshots.

    Backends implement :meth:`_persist`, :meth:`_write_snapshot`,
    :meth:`_truncate_log`, :meth:`_load`, and :meth:`_wipe_store`.
    """

    durable = True

    def __init__(self, config: StorageConfig, capacity: Optional[int] = None) -> None:
        self.config = config
        self.capacity = capacity
        self._env: Optional[Env] = None
        self._snapshot_source: Optional[Callable[[], Optional[bytes]]] = None
        self._pending: list[bytes] = []
        self._pending_bytes = 0
        self._releases: list[Callable[[], None]] = []
        self._timer: Optional[TimerHandle] = None
        self._seq = 0  # last assigned record sequence number
        self._log_bytes = 0  # persisted log bytes since last truncation
        self._records_since_snapshot = 0
        # Running totals for the obs layer / benches.
        self.fsyncs = 0
        self.records_flushed = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(
        self, env: Env, snapshot_source: Callable[[], Optional[bytes]]
    ) -> None:
        self._env = env
        self._snapshot_source = snapshot_source

    @property
    def defers(self) -> bool:
        return self.config.fsync_wait > 0

    @property
    def dirty(self) -> bool:
        return bool(self._pending)

    # ------------------------------------------------------------------
    # Append / commit
    # ------------------------------------------------------------------

    def append(self, rtype: int, payload: bytes) -> None:
        frame = frame_record(self._seq + 1, rtype, payload)
        if self.capacity is not None and (
            self._log_bytes + self._pending_bytes + len(frame) > self.capacity
        ):
            raise StorageFull(
                f"log full: {self._log_bytes + self._pending_bytes} of "
                f"{self.capacity} bytes used, record needs {len(frame)}"
            )
        self._seq += 1
        self._pending.append(frame)
        self._pending_bytes += len(frame)

    def commit(self, release: Callable[[], None]) -> None:
        if not self._pending and self._timer is None:
            # Nothing to persist and no earlier event queued behind a
            # group-commit window: release immediately, preserving the
            # exact NullStorage event ordering.
            release()
            return
        if not self.defers or self._env is None:
            # No scheduler wired (bare storage tests) degrades to a
            # synchronous commit.
            self._flush_pending()
            release()
            self._maybe_snapshot()
            return
        self._releases.append(release)
        if self._timer is None:
            self._timer = self._env.set_timer(self.config.fsync_wait, self._fire)

    def _fire(self) -> None:
        """Group-commit window closed: one flush+fsync covers every
        queued event, then their releases run in commit order and the
        env sends what they release as one flush."""
        self._timer = None
        releases, self._releases = self._releases, []
        self._flush_pending()
        self._env.run_releases(releases)
        self._maybe_snapshot()

    def _flush_pending(self) -> None:
        if not self._pending:
            return
        frames, self._pending = self._pending, []
        flushed_bytes, self._pending_bytes = self._pending_bytes, 0
        seconds = self._persist(frames)
        self._log_bytes += flushed_bytes
        self._records_since_snapshot += len(frames)
        self.fsyncs += 1
        self.records_flushed += len(frames)
        if self._env is not None:
            note = {
                "records": len(frames),
                "bytes": flushed_bytes,
                "wait": self.config.fsync_wait,
            }
            # Only a backend that really writes times it: a MemStorage
            # note carries no ``seconds``, so simulated runs replay exactly.
            if seconds is not None:
                note["seconds"] = seconds
            self._env.observe("fsync", **note)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def _maybe_snapshot(self) -> None:
        if (
            self.config.snapshot_every <= 0
            or self._snapshot_source is None
            or self._records_since_snapshot < self.config.snapshot_every
        ):
            return
        payload = self._snapshot_source()
        if payload is None:
            return
        self.snapshot(payload)

    def snapshot(self, payload: bytes) -> None:
        """Persist ``payload`` covering all flushed records, truncate
        the covered log.  Only called at commit boundaries (never mid-
        handler), so the payload is a consistent cut."""
        framed = frame_snapshot(self._seq, payload)
        self._write_snapshot(framed)
        self._truncate_log()
        self._log_bytes = 0
        self._records_since_snapshot = 0
        if self._env is not None:
            self._env.observe(
                "snapshot", bytes=len(framed), covers_seq=self._seq
            )

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------

    def discard_pending(self) -> None:
        # Un-fsynced records die with the process; their sequence
        # numbers are reused by the next incarnation.
        self._seq -= len(self._pending)
        self._pending.clear()
        self._pending_bytes = 0
        self._releases.clear()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def recover(self) -> Recovered:
        snap_framed, scanned, log_bytes = self._load()
        covers_seq = 0
        payload: Optional[bytes] = None
        if snap_framed is not None:
            parsed = parse_snapshot(snap_framed)
            if parsed is not None:
                covers_seq, payload = parsed
        # A crash between snapshot write and log truncation leaves
        # covered records in the log; ``seq`` filters them out.
        tail = [(rtype, rec) for seq, rtype, rec in scanned if seq > covers_seq]
        self._seq = max([covers_seq] + [seq for seq, _, _ in scanned])
        self._records_since_snapshot = len(tail)
        self._log_bytes = log_bytes
        return Recovered(payload, tail)

    def wipe(self) -> None:
        self.discard_pending()
        self._seq = 0
        self._log_bytes = 0
        self._records_since_snapshot = 0
        self._wipe_store()

    # ------------------------------------------------------------------
    # Backend primitives
    # ------------------------------------------------------------------

    def _persist(self, frames: list[bytes]) -> Optional[float]:
        """Durably write framed records in order (one fsync); return the
        wall seconds the write and fsync took, or ``None`` if nothing
        real was written."""
        raise NotImplementedError

    def _write_snapshot(self, framed: bytes) -> None:
        """Durably write one framed snapshot blob."""
        raise NotImplementedError

    def _truncate_log(self) -> None:
        """Drop every persisted log segment (snapshot covers them)."""
        raise NotImplementedError

    def _load(self) -> tuple[Optional[bytes], list[tuple[int, int, bytes]], int]:
        """``(newest snapshot blob or None, scanned records, clean log
        bytes)``; backends truncate torn tails here."""
        raise NotImplementedError

    def _wipe_store(self) -> None:
        """Erase all persisted state."""
        raise NotImplementedError
