"""Deterministic in-memory storage with disk-like crash semantics.

The "disk" is a list of bytearray segments plus one snapshot blob, all
living on the storage object -- which the hosting node keeps across
crash/restart, exactly like a real disk survives a process death.
Un-fsynced records are dropped by :meth:`LogStorage.discard_pending`
at crash time, so the recovery scan sees precisely what a
:class:`~repro.storage.disk.DiskStorage` would: the fsynced prefix.

Nothing here draws randomness or reads clocks, so binding a MemStorage
(with ``fsync_wait=0``) to a simulated node leaves decision logs
byte-identical to NullStorage runs -- the property the chaos harness's
double-run fingerprint check rides on.
"""

from __future__ import annotations

from typing import Optional

from repro.storage.base import SEGMENT_BYTES, LogStorage, StorageConfig
from repro.storage.record import scan_records


class MemStorage(LogStorage):
    """Segmented log in process memory; see module docstring."""

    def __init__(self, config: StorageConfig, capacity: Optional[int] = None) -> None:
        super().__init__(config, capacity)
        self._segments: list[bytearray] = [bytearray()]
        self._snap: Optional[bytes] = None

    def _persist(self, frames: list[bytes]) -> None:
        segment = self._segments[-1]
        for frame in frames:
            segment += frame
            if len(segment) >= SEGMENT_BYTES:
                segment = bytearray()
                self._segments.append(segment)

    def _write_snapshot(self, framed: bytes) -> None:
        self._snap = bytes(framed)

    def _truncate_log(self) -> None:
        self._segments = [bytearray()]

    def _load(self):
        records: list[tuple[int, int, bytes]] = []
        log_bytes = 0
        for index, segment in enumerate(self._segments):
            scanned, clean_end = scan_records(bytes(segment))
            records.extend(scanned)
            log_bytes += clean_end
            if clean_end != len(segment):
                # Torn tail (tests corrupt segments directly): truncate
                # it and drop any later segments, as disk recovery does.
                del segment[clean_end:]
                del self._segments[index + 1 :]
                break
        return self._snap, records, log_bytes

    def _wipe_store(self) -> None:
        self._segments = [bytearray()]
        self._snap = None
