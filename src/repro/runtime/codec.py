"""Wire codec: protocol messages <-> length-prefixed binary frames.

Messages are frozen dataclasses whose fields are built from a small
vocabulary (ints, strings, bools, Commands, tuples, frozensets, dicts
with tuple keys).  A frame payload is tag-byte framed, varint-packed
values with per-class encoders generated once from
``dataclasses.fields()`` and cached, plus interned :class:`Command`
bodies (a command is encoded once and the bytes reused across every
Accept/Decide/resend that carries it, and decoded bodies are memoised
the same way).

Every message class that crosses the wire must be a dataclass made
known through :func:`register_message`; encoding anything else is a
``TypeError`` naming the class.  Inbound payloads are outside input:
whatever is wrong with one, :func:`decode_message` raises
:class:`FrameError` (a ``ValueError``).
"""

from __future__ import annotations

import struct
from dataclasses import fields, is_dataclass
from typing import Any

from repro.consensus import epaxos, genpaxos, mencius, multipaxos, paxos
from repro.consensus.base import Message
from repro.consensus.commands import Command
from repro.core import messages as core_messages

_MESSAGE_CLASSES: dict[str, type] = {}

# Binary-codec caches, invalidated per class on (re-)registration.
_BIN_CLASS_INFO: dict[type, tuple[bytes, tuple[str, ...]]] = {}
_BIN_FIELDS_BY_NAME: dict[str, tuple[type, tuple[str, ...]]] = {}


def register_message(cls: type) -> None:
    """Make ``cls`` encodable and decodable; idempotent."""
    _MESSAGE_CLASSES[cls.__name__] = cls
    _BIN_CLASS_INFO.pop(cls, None)
    _BIN_FIELDS_BY_NAME.pop(cls.__name__, None)


for module in (core_messages, multipaxos, genpaxos, epaxos, paxos, mencius):
    for name in dir(module):
        obj = getattr(module, name)
        if isinstance(obj, type) and issubclass(obj, Message) and obj is not Message:
            register_message(obj)


# ----------------------------------------------------------------------
# Values
# ----------------------------------------------------------------------

_BIN_MAGIC = 0xB1
"""First payload byte of every frame."""

(
    _T_NONE,
    _T_TRUE,
    _T_FALSE,
    _T_INT,
    _T_FLOAT,
    _T_STR,
    _T_TUPLE,
    _T_SET,
    _T_MAP,
    _T_CMD,
    _T_OBJ,
) = range(11)

_F64 = struct.Struct(">d")


def _write_uvarint(out: bytearray, n: int) -> None:
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _write_svarint(out: bytearray, n: int) -> None:
    # ZigZag: small magnitudes of either sign stay one byte.
    _write_uvarint(out, n << 1 if n >= 0 else ((-n) << 1) - 1)


def _read_uvarint(buf: memoryview, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _unzigzag(u: int) -> int:
    return (u >> 1) if not (u & 1) else -((u + 1) >> 1)


def _class_info(cls: type) -> tuple[bytes, tuple[str, ...]]:
    """``(length-prefixed name bytes, field names)`` for a registered
    dataclass message; generated once per class and cached."""
    info = _BIN_CLASS_INFO.get(cls)
    if info is None:
        if _MESSAGE_CLASSES.get(cls.__name__) is not cls or not is_dataclass(cls):
            raise TypeError(
                f"cannot encode {cls.__name__}: not a dataclass registered "
                f"with repro.runtime.codec.register_message"
            )
        raw = cls.__name__.encode()
        prefixed = bytearray()
        _write_uvarint(prefixed, len(raw))
        prefixed += raw
        info = (bytes(prefixed), tuple(f.name for f in fields(cls)))
        _BIN_CLASS_INFO[cls] = info
    return info


def _encode_command_body(command: Command) -> bytes:
    body = command.__dict__.get("_bin_body")
    if body is None:
        out = bytearray()
        _write_svarint(out, command.cid[0])
        _write_svarint(out, command.cid[1])
        ls = sorted(command.ls)
        _write_uvarint(out, len(ls))
        for obj_id in ls:
            raw = obj_id.encode()
            _write_uvarint(out, len(raw))
            out += raw
        _write_uvarint(out, command.payload_bytes)
        _write_svarint(out, command.proposer)
        out.append(1 if command.noop else 0)
        if command.is_read or command.session is not None:
            # Trailing serving-tier extension: the body is length-framed,
            # so old decoders never see it and plain commands encode
            # byte-identically with or without this codec version.
            flags = (1 if command.is_read else 0) | (
                2 if command.session is not None else 0
            )
            out.append(flags)
            if command.session is not None:
                _write_svarint(out, command.session[0])
                _write_svarint(out, command.session[1])
        body = bytes(out)
        object.__setattr__(command, "_bin_body", body)
    return body


def _bin_encode(value: Any, out: bytearray) -> None:
    t = value.__class__
    if t is int:
        out.append(_T_INT)
        _write_svarint(out, value)
    elif t is str:
        raw = value.encode()
        out.append(_T_STR)
        _write_uvarint(out, len(raw))
        out += raw
    elif t is tuple:
        out.append(_T_TUPLE)
        _write_uvarint(out, len(value))
        for item in value:
            _bin_encode(item, out)
    elif t is dict:
        out.append(_T_MAP)
        _write_uvarint(out, len(value))
        for k, v in value.items():
            _bin_encode(k, out)
            _bin_encode(v, out)
    elif t is Command:
        body = _encode_command_body(value)
        out.append(_T_CMD)
        _write_uvarint(out, len(body))
        out += body
    elif t is bool:
        out.append(_T_TRUE if value else _T_FALSE)
    elif value is None:
        out.append(_T_NONE)
    elif t is frozenset or t is set:
        out.append(_T_SET)
        _write_uvarint(out, len(value))
        encoded = []
        for item in value:
            item_out = bytearray()
            _bin_encode(item, item_out)
            encoded.append(bytes(item_out))
        encoded.sort()  # deterministic frames independent of set iteration
        for chunk in encoded:
            out += chunk
    elif t is float:
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    else:
        name_bytes, field_names = _class_info(t)
        out.append(_T_OBJ)
        out += name_bytes
        for name in field_names:
            _bin_encode(getattr(value, name), out)


# Decoded Command bodies, memoised by their exact byte encoding: the
# same command crosses the wire many times (Accept broadcast, Decide,
# resends), and equal bytes decode to equal frozen values.
_CMD_DECODE_CACHE: dict[bytes, Command] = {}
_CMD_DECODE_CACHE_CAP = 1 << 15


def _decode_command_body(body: bytes) -> Command:
    command = _CMD_DECODE_CACHE.get(body)
    if command is not None:
        return command
    buf = memoryview(body)
    u, pos = _read_uvarint(buf, 0)
    cid_a = _unzigzag(u)
    u, pos = _read_uvarint(buf, pos)
    cid_b = _unzigzag(u)
    n, pos = _read_uvarint(buf, pos)
    ls = []
    for _ in range(n):
        size, pos = _read_uvarint(buf, pos)
        ls.append(bytes(buf[pos : pos + size]).decode())
        pos += size
    payload, pos = _read_uvarint(buf, pos)
    u, pos = _read_uvarint(buf, pos)
    proposer = _unzigzag(u)
    noop = bool(buf[pos])
    pos += 1
    is_read = False
    session = None
    if pos < len(body):
        flags = buf[pos]
        pos += 1
        is_read = bool(flags & 1)
        if flags & 2:
            u, pos = _read_uvarint(buf, pos)
            sess_client = _unzigzag(u)
            u, pos = _read_uvarint(buf, pos)
            sess_seq = _unzigzag(u)
            session = (sess_client, sess_seq)
    command = Command(
        cid=(cid_a, cid_b),
        ls=frozenset(ls),
        payload_bytes=payload,
        proposer=proposer,
        noop=noop,
        is_read=is_read,
        session=session,
    )
    if len(_CMD_DECODE_CACHE) >= _CMD_DECODE_CACHE_CAP:
        _CMD_DECODE_CACHE.clear()
    _CMD_DECODE_CACHE[body] = command
    return command


def _bin_decode(buf: memoryview, pos: int) -> tuple[Any, int]:
    tag = buf[pos]
    pos += 1
    if tag == _T_INT:
        u, pos = _read_uvarint(buf, pos)
        return _unzigzag(u), pos
    if tag == _T_STR:
        size, pos = _read_uvarint(buf, pos)
        return bytes(buf[pos : pos + size]).decode(), pos + size
    if tag == _T_TUPLE:
        n, pos = _read_uvarint(buf, pos)
        items = []
        for _ in range(n):
            item, pos = _bin_decode(buf, pos)
            items.append(item)
        return tuple(items), pos
    if tag == _T_MAP:
        n, pos = _read_uvarint(buf, pos)
        out = {}
        for _ in range(n):
            key, pos = _bin_decode(buf, pos)
            value, pos = _bin_decode(buf, pos)
            out[key] = value
        return out, pos
    if tag == _T_CMD:
        size, pos = _read_uvarint(buf, pos)
        body = bytes(buf[pos : pos + size])
        return _decode_command_body(body), pos + size
    if tag == _T_OBJ:
        size, pos = _read_uvarint(buf, pos)
        name = bytes(buf[pos : pos + size]).decode()
        pos += size
        cached = _BIN_FIELDS_BY_NAME.get(name)
        if cached is None:
            cls = _MESSAGE_CLASSES.get(name)
            if cls is None:
                raise ValueError(f"unknown message class {name!r}")
            cached = (cls, tuple(f.name for f in fields(cls)))
            _BIN_FIELDS_BY_NAME[name] = cached
        cls, field_names = cached
        args = []
        for _ in field_names:
            value, pos = _bin_decode(buf, pos)
            args.append(value)
        return cls(*args), pos
    if tag == _T_SET:
        n, pos = _read_uvarint(buf, pos)
        items = []
        for _ in range(n):
            item, pos = _bin_decode(buf, pos)
            items.append(item)
        return frozenset(items), pos
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FLOAT:
        return _F64.unpack_from(buf, pos)[0], pos + 8
    raise ValueError(f"bad binary tag {tag} at offset {pos - 1}")


# ----------------------------------------------------------------------
# Frame API
# ----------------------------------------------------------------------


def encode_message_into(out: bytearray, sender: int, message: Message) -> None:
    """Append one length-prefixed frame for ``message`` to ``out``.

    This is the zero-copy encode path: the encoder writes straight into
    the caller's (reused) buffer -- no per-message ``bytes`` object, no
    join -- and the 4-byte length prefix is back-patched once the
    payload size is known.  ``TypeError`` for a message (or a field
    value) of a class that is not a registered dataclass; ``out`` then
    ends in a partial frame and is not fit to send.
    """
    mark = len(out)
    out += _HEADER_PLACEHOLDER
    out.append(_BIN_MAGIC)
    _write_svarint(out, sender)
    _bin_encode(message, out)
    FRAME_HEADER.pack_into(out, mark, len(out) - mark - FRAME_HEADER.size)


def encode_message(sender: int, message: Message) -> bytes:
    """One length-prefixed frame: 4-byte big-endian size + payload."""
    out = bytearray()
    encode_message_into(out, sender, message)
    return bytes(out)


class FrameError(ValueError):
    """Inbound bytes that are not a frame any encoder produced."""


# What :func:`_bin_decode` can raise on such bytes: reads past the end,
# an unknown tag or class name, bytes that are not UTF-8, a hostile
# nesting depth, a dict key or constructor argument of the wrong shape.
_MALFORMED = (
    IndexError,
    KeyError,
    TypeError,
    ValueError,
    struct.error,
    RecursionError,
)


def decode_message(payload: "bytes | memoryview") -> tuple[int, Message]:
    """Inverse of :func:`encode_message` (without the length prefix);
    :class:`FrameError` if ``payload`` is not one message's payload.

    Accepts a ``memoryview`` so the inbound path can slice frames out of
    its receive buffer without copying each payload first; only the
    values that outlive the frame (strings, command bodies) are copied,
    inside :func:`_bin_decode`.
    """
    if not payload or payload[0] != _BIN_MAGIC:
        raise FrameError("frame payload does not start with the 0xB1 marker")
    buf = payload if type(payload) is memoryview else memoryview(payload)
    try:
        u, pos = _read_uvarint(buf, 1)
        message, end = _bin_decode(buf, pos)
    except _MALFORMED as exc:
        raise FrameError(f"malformed frame: {exc!r}") from exc
    if end != len(payload):
        raise FrameError(f"frame length is {len(payload)}, its value ends at {end}")
    if not isinstance(message, Message):
        raise FrameError(f"decoded object is not a Message: {message!r}")
    return _unzigzag(u), message


def wire_size(message: Message) -> int:
    """Exact frame size (header included) of ``message`` on the wire.

    Cached on the message object: frozen messages are broadcast to N
    receivers, so the encoding runs once.  The simulator's network model
    uses this when configured for real frame sizes.
    """
    cached = message.__dict__.get("_wire_size")
    if cached is None:
        cached = len(encode_message(0, message))
        object.__setattr__(message, "_wire_size", cached)
    return cached


FRAME_HEADER = struct.Struct(">I")
_HEADER_PLACEHOLDER = bytes(FRAME_HEADER.size)
MAX_FRAME = 16 * 1024 * 1024


# ----------------------------------------------------------------------
# Value API (storage payloads)
# ----------------------------------------------------------------------


def encode_value_binary(value: Any) -> bytes:
    """Encode one bare value (no frame, no sender) with the binary
    vocabulary.  The storage layer uses this for log-record and snapshot
    payloads so durable state shares the wire codec's format, caches,
    and determinism guarantees (sets and dicts encode identically
    however they were built)."""
    out = bytearray()
    _bin_encode(value, out)
    return bytes(out)


def decode_value_binary(data: bytes) -> Any:
    """Inverse of :func:`encode_value_binary`."""
    value, end = _bin_decode(memoryview(data), 0)
    if end != len(data):
        raise ValueError(f"trailing bytes in binary value: {len(data) - end}")
    return value
