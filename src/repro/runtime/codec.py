"""Wire codec: protocol messages <-> length-prefixed binary frames.

Messages are frozen dataclasses whose fields are built from a small
vocabulary (ints, strings, bools, Commands, tuples, frozensets, dicts
with tuple keys).  A frame payload is tag-byte framed, varint-packed
values; the format is self-describing and is whatever the recursive
walk :func:`_bin_encode` / :func:`_bin_decode` writes and reads.

*Generated:* for each registered class, on its first encode or decode,
one flat encoder and one flat decoder, written out as Python source from
the class's field annotations and ``exec``'d once (the way
``dataclasses`` makes ``__init__``; :func:`generated_source` returns the
text, and tracebacks and profilers show it as ``<repro.codec Name>``).
They inline ``int``, ``bool``, ``str``, ``Command``, ``Optional[X]``,
``tuple[X, Y]``, ``tuple[X, ...]`` and ``dict[K, V]`` to any depth, and
their bytes are the walk's: an encoder checks the runtime class at every
node and a decoder the tag on the wire, and whatever is not what the
annotation promised goes to the walk from that node down.  *Generic:*
the walk itself -- bare containers, ``Any``, sets, floats, a registered
class nested in another, a class whose hints do not resolve -- and all
of the value API the storage layer uses.  *Interned:* a
:class:`Command` body is encoded once and the bytes reused across every
Accept/Decide/resend that carries it, and decoded bodies are memoised
the same way; like :func:`wire_size`'s memo, that relies on a message
and everything it holds being immutable once sent.

Every message class that crosses the wire must be a dataclass made
known through :func:`register_message`; encoding anything else is a
``TypeError`` naming the class.  Inbound payloads are outside input:
whatever is wrong with one, :func:`decode_message` raises
:class:`FrameError` (a ``ValueError``).
"""

from __future__ import annotations

import linecache
import struct
import types
import typing
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Optional

from repro.consensus import epaxos, genpaxos, mencius, multipaxos, paxos
from repro.consensus.base import Message
from repro.consensus.commands import Command
from repro.core import messages as core_messages

_MESSAGE_CLASSES: dict[str, type] = {}

# The generated functions, made on a class's first encode or decode and
# dropped on (re-)registration: ``encode(value, out)`` by class and
# ``decode(buf, pos) -> (value, pos)`` by the name on the wire.
_ENCODERS: dict[type, Callable] = {}
_DECODERS: dict[str, Callable] = {}


def register_message(cls: type) -> None:
    """Make ``cls`` encodable and decodable; idempotent.  A class that
    was registered under the same name stops being encodable."""
    _ENCODERS.pop(_MESSAGE_CLASSES.get(cls.__name__), None)
    _DECODERS.pop(cls.__name__, None)
    _MESSAGE_CLASSES[cls.__name__] = cls


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


def _read_uvarint(buf: "bytes | memoryview", pos: int) -> tuple[int, int]:
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
        encode = _ENCODERS.get(t)
        if encode is None:
            encode = _compile(t)[0]
        encode(value, out)


# Decoded Command bodies, memoised by their exact byte encoding: the
# same command crosses the wire many times (Accept broadcast, Decide,
# resends), and equal bytes decode to equal frozen values.
_CMD_DECODE_CACHE: dict[bytes, Command] = {}
_CMD_DECODE_CACHE_CAP = 1 << 15


def _decode_command_body(body: bytes) -> Command:
    command = _CMD_DECODE_CACHE.get(body)
    if command is not None:
        return command
    u, pos = _read_uvarint(body, 0)
    cid_a = _unzigzag(u)
    u, pos = _read_uvarint(body, pos)
    cid_b = _unzigzag(u)
    n, pos = _read_uvarint(body, pos)
    ls = []
    for _ in range(n):
        size, pos = _read_uvarint(body, pos)
        ls.append(body[pos : pos + size].decode())
        pos += size
    payload, pos = _read_uvarint(body, pos)
    u, pos = _read_uvarint(body, pos)
    proposer = _unzigzag(u)
    noop = bool(body[pos])
    pos += 1
    is_read = False
    session = None
    if pos < len(body):
        flags = body[pos]
        pos += 1
        is_read = bool(flags & 1)
        if flags & 2:
            u, pos = _read_uvarint(body, pos)
            sess_client = _unzigzag(u)
            u, pos = _read_uvarint(body, pos)
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


def _bin_decode(buf: bytes, pos: int) -> tuple[Any, int]:
    tag = buf[pos]
    pos += 1
    if tag == _T_INT:
        u, pos = _read_uvarint(buf, pos)
        return _unzigzag(u), pos
    if tag == _T_STR:
        size, pos = _read_uvarint(buf, pos)
        return buf[pos : pos + size].decode(), pos + size
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
        return _decode_command_body(buf[pos : pos + size]), pos + size
    if tag == _T_OBJ:
        size, pos = _read_uvarint(buf, pos)
        name = buf[pos : pos + size].decode()
        decode = _DECODERS.get(name)
        if decode is None:
            cls = _MESSAGE_CLASSES.get(name)
            if cls is None:
                raise ValueError(f"unknown message class {name!r}")
            decode = _compile(cls)[1]
        return decode(buf, pos + size)
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
# Per-class generated functions
# ----------------------------------------------------------------------

_INT1 = tuple(bytes((_T_INT, n << 1)) for n in range(64))
"""``_T_INT`` + the one-byte zigzag varint of 0..63."""


def _put(src: list[str], depth: int, *lines: str) -> None:
    src.extend("    " * depth + line for line in lines)


_SIZE = ("n = buf[pos + 1]; pos += 2", "if n > 127: n, pos = _read_uvarint(buf, pos - 1)")
"""Generated: read the uvarint that follows the tag at ``pos`` into ``n``."""


def _head(tag: int, size: str) -> tuple[str, ...]:
    """Generated: write ``tag`` + uvarint ``size``, one byte below 128."""
    return (f"out.append({tag}); n = {size}",
            "if n < 128: out.append(n)", "else: _write_uvarint(out, n)")


def _shape(hint: Any) -> tuple[Any, tuple]:
    """``(kind, parameters)`` of an annotation the generator inlines
    (``...`` is ``tuple[X, ...]``), or ``(None, ())``: a bare container,
    ``Any``, a set, a float, a nested class."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in (int, bool, str, Command):
        return hint, ()
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and args[1] is type(None):
        return Optional, args[:1]
    if origin is tuple and len(args) == 2 and args[1] is ...:
        return ..., args[:1]
    if (origin is tuple and 0 < len(args) < 128) or (origin is dict and len(args) == 2):
        return origin, args
    return None, ()


def _emit(enc: list[str], dec: list[str], hint: Any, v: str, d: int) -> None:
    """Add to ``enc`` the statements that append variable ``v`` to
    ``out`` and to ``dec`` those that read it back from ``buf[pos]``:
    the inline form under a check of the runtime class (of the tag on
    the wire), else the walk."""
    kind, args = _shape(hint)
    if kind is Optional:
        _put(enc, d, f"if {v} is None: out.append({_T_NONE})", "else:")
        _put(dec, d, f"if buf[pos] == {_T_NONE}: {v} = None; pos += 1", "else:")
        return _emit(enc, dec, args[0], v, d + 1)
    if kind is None:
        _put(enc, d, f"_bin_encode({v}, out)")
        return _put(dec, d, f"{v}, pos = _bin_decode(buf, pos)")
    # A container's parts are done with before its sibling starts, so
    # names need only differ by depth (fields are ``f_<name>``).
    parts = [f"t{d}_{i}" for i in range(len(args))]
    if kind is bool:
        _put(enc, d, f"if {v}.__class__ is bool: out.append({_T_TRUE} if {v} else {_T_FALSE})")
        _put(dec, d, f"if {_T_TRUE} <= buf[pos] <= {_T_FALSE}: "
                     f"{v} = buf[pos] == {_T_TRUE}; pos += 1")
    elif kind is tuple:
        _put(enc, d, f"if {v}.__class__ is tuple and len({v}) == {len(args)}:",
             f"    out += {bytes((_T_TUPLE, len(args)))!r}; {', '.join(parts)}, = {v}")
        _put(dec, d, f"if buf[pos] == {_T_TUPLE} and buf[pos + 1] == {len(args)}:", "    pos += 2")
    else:
        tag = {int: _T_INT, str: _T_STR, Command: _T_CMD, ...: _T_TUPLE, dict: _T_MAP}[kind]
        _put(enc, d, f"if {v}.__class__ is {'tuple' if kind is ... else kind.__name__}:")
        _put(dec, d, f"if buf[pos] == {tag}:")
        _put(dec, d + 1, *_SIZE)
        if kind is int:
            _put(enc, d + 1, f"if 0 <= {v} < 64: out += _INT1[{v}]",
                 f"else: out.append({_T_INT}); _write_svarint(out, {v})")
            _put(dec, d + 1, f"{v} = n >> 1 if not n & 1 else -((n + 1) >> 1)")
        elif kind is str:
            _put(enc, d + 1, f"raw = {v}.encode()", *_head(tag, "len(raw)"), "out += raw")
            _put(dec, d + 1, f"{v} = buf[pos:pos + n].decode(); pos += n")
        elif kind is Command:
            _put(enc, d + 1, f"raw = {v}.__dict__.get('_bin_body') or _encode_command_body({v})",
                 *_head(tag, "len(raw)"), "out += raw")
            _put(dec, d + 1, "raw = buf[pos:pos + n]; pos += n",
                 f"{v} = _CMD_DECODE_CACHE.get(raw) or _decode_command_body(raw)")
        else:
            _put(enc, d + 1, *_head(tag, f"len({v})"),
                 f"for {', '.join(parts)} in {v}{'.items()' if kind is dict else ''}:")
            _put(dec, d + 1, f"{v} = {'{}' if kind is dict else '[]'}", "for _ in range(n):")
    for part, arg in zip(parts, args):
        _emit(enc, dec, arg, part, d + 1 if kind is tuple else d + 2)
    if kind is tuple:
        _put(dec, d + 1, f"{v} = ({', '.join(parts)},)")
    elif kind is dict:
        _put(dec, d + 2, f"{v}[{parts[0]}] = {parts[1]}")
    elif kind is ...:
        _put(dec, d + 2, f"{v}.append({parts[0]})")
        _put(dec, d + 1, f"{v} = tuple({v})")
    _put(enc, d, "else:", f"    _bin_encode({v}, out)")
    _put(dec, d, "else:", f"    {v}, pos = _bin_decode(buf, pos)")


def generated_source(cls: type) -> str:
    """The Python source of ``cls``'s encoder and decoder.  Built from
    the class's own name, field names and annotations -- never from
    anything received -- and the same text every time."""
    try:
        hints = typing.get_type_hints(cls)
    except (NameError, TypeError):  # e.g. a class local to a function
        hints = {}
    names = [f.name for f in fields(cls)]
    head = bytearray([_T_OBJ])
    _write_uvarint(head, len(cls.__name__.encode()))
    enc = ["def encode(value, out):", f"    out += {bytes(head) + cls.__name__.encode()!r}"]
    dec = ["def decode(buf, pos, cls=cls):"]
    for name in names:
        _put(enc, 1, f"f_{name} = value.{name}")
        _emit(enc, dec, hints.get(name), f"f_{name}", 1)
    _put(dec, 1, f"return cls({', '.join('f_' + name for name in names)}), pos")
    return "\n".join(enc + ["", ""] + dec) + "\n"


def _compile(cls: type) -> tuple[Callable, Callable]:
    """Generate, ``exec`` and remember ``(encode, decode)`` for ``cls``;
    ``TypeError`` unless it is a registered dataclass.  The source is
    put in ``linecache`` so tracebacks and profilers show its lines."""
    name = cls.__name__
    if _MESSAGE_CLASSES.get(name) is not cls or not is_dataclass(cls):
        raise TypeError(
            f"cannot encode {name}: not a dataclass registered "
            f"with repro.runtime.codec.register_message"
        )
    source, filename = generated_source(cls), f"<repro.codec {name}>"
    made = {"cls": cls}  # bound as ``decode``'s default; the module is their globals
    exec(compile(source, filename, "exec"), globals(), made)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    pair = _ENCODERS[cls], _DECODERS[name] = made["encode"], made["decode"]
    return pair


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


def message_payload(sender: int, message: Message) -> bytes:
    """What :func:`decode_message` accepts: a frame without its length
    prefix.  The durable log's ``Accept`` / ``Decide`` records; apart
    from :func:`encode_message_into`, so none counts as a wire frame."""
    out = bytearray((_BIN_MAGIC,))
    _write_svarint(out, sender)
    _bin_encode(message, out)
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
    its receive buffer; a view is copied to ``bytes`` here, once, because
    the decoders index and slice the payload a few hundred times and
    both cost about half as much on ``bytes`` (EXPERIMENTS.md, "PR 20").
    """
    if not payload or payload[0] != _BIN_MAGIC:
        raise FrameError("frame payload does not start with the 0xB1 marker")
    buf = payload if payload.__class__ is bytes else bytes(payload)
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
    vocabulary.  The storage layer uses this for promise records and
    snapshot payloads so durable state shares the wire codec's format,
    caches, and determinism: a set encodes identically however it was
    built (elements are sorted by their encoded bytes); a dict encodes
    in its insertion order, which therefore is part of the value."""
    out = bytearray()
    _bin_encode(value, out)
    return bytes(out)


def decode_value_binary(data: bytes) -> Any:
    """Inverse of :func:`encode_value_binary`."""
    value, end = _bin_decode(data if data.__class__ is bytes else bytes(data), 0)
    if end != len(data):
        raise ValueError(f"trailing bytes in binary value: {len(data) - end}")
    return value
