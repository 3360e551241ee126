"""CRC-framed log records and snapshot blobs.

One record on disk (or in a :class:`~repro.storage.mem.MemStorage`
segment) is::

    0xD7 | seq uvarint | rtype uvarint | len uvarint | payload | crc32 (4B BE)

``seq`` increases monotonically across the whole log (never reset by
segment rolls), which is what lets recovery skip records a snapshot
already covers even when a crash lands between writing the snapshot and
truncating the log.  The CRC covers everything before it, so a torn or
bit-flipped record is detected and the scan stops there -- the clean
prefix is the log.

A snapshot blob uses the same shape with its own magic::

    0xD8 | covers_seq uvarint | len uvarint | payload | crc32 (4B BE)

Varints reuse the binary wire codec's encoding so durable bytes and
wire bytes share one vocabulary.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional

from repro.runtime.codec import _read_uvarint, _write_uvarint

RECORD_MAGIC = 0xD7
SNAPSHOT_MAGIC = 0xD8

_CRC = struct.Struct(">I")


def frame_record(seq: int, rtype: int, payload: bytes) -> bytes:
    """One framed log record, CRC over header + payload."""
    out = bytearray()
    out.append(RECORD_MAGIC)
    _write_uvarint(out, seq)
    _write_uvarint(out, rtype)
    _write_uvarint(out, len(payload))
    out += payload
    out += _CRC.pack(zlib.crc32(out))
    return bytes(out)


def scan_records(data: bytes) -> tuple[list[tuple[int, int, bytes]], int]:
    """Scan a segment's bytes into ``(records, clean_end)``.

    ``records`` is ``[(seq, rtype, payload), ...]`` for every record
    whose frame is intact; ``clean_end`` is the offset just past the
    last good record.  A bad magic byte, truncated frame, or CRC
    mismatch stops the scan -- that is the torn-write boundary recovery
    truncates to.
    """
    buf = memoryview(data)
    total = len(data)
    records: list[tuple[int, int, bytes]] = []
    pos = 0
    while pos < total:
        start = pos
        try:
            if buf[pos] != RECORD_MAGIC:
                break
            seq, p = _read_uvarint(buf, pos + 1)
            rtype, p = _read_uvarint(buf, p)
            size, p = _read_uvarint(buf, p)
            end = p + size + _CRC.size
            if end > total:
                break
            (crc,) = _CRC.unpack_from(buf, p + size)
            if crc != zlib.crc32(bytes(buf[start : p + size])):
                break
        except IndexError:
            # Varint ran off the end of the buffer: torn header.
            break
        records.append((seq, rtype, bytes(buf[p : p + size])))
        pos = end
    return records, pos


def frame_snapshot(covers_seq: int, payload: bytes) -> bytes:
    """One framed snapshot blob covering records up to ``covers_seq``."""
    out = bytearray()
    out.append(SNAPSHOT_MAGIC)
    _write_uvarint(out, covers_seq)
    _write_uvarint(out, len(payload))
    out += payload
    out += _CRC.pack(zlib.crc32(out))
    return bytes(out)


def parse_snapshot(data: bytes) -> Optional[tuple[int, bytes]]:
    """``(covers_seq, payload)`` if ``data`` is a valid snapshot blob,
    else ``None`` (recovery then falls back to an older snapshot or a
    full log scan)."""
    if not data or data[0] != SNAPSHOT_MAGIC:
        return None
    buf = memoryview(data)
    try:
        covers_seq, p = _read_uvarint(buf, 1)
        size, p = _read_uvarint(buf, p)
        end = p + size + _CRC.size
        if end > len(data):
            return None
        (crc,) = _CRC.unpack_from(buf, p + size)
        if crc != zlib.crc32(bytes(buf[:p + size])):
            return None
    except IndexError:
        return None
    return covers_seq, bytes(buf[p : p + size])
