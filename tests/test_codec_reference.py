"""The wire codec against the recursive walk it replaced.

PR 20 compiles one encoder and one decoder per message class under the
rule that no byte on the wire and no failure moves.  The walk that was
``runtime/codec.py``'s only implementation up to commit 4ac5dee lives on
here, copied verbatim, as the oracle:

(i)   *encode* -- the live codec's frame ``==`` the walk's frame, for
      every ``Message`` class under ``repro``, fuzzed and
      hypothesis-built messages, and values that are not what their
      field's annotation says;
(ii)  *decode* -- for every truncation of a valid payload and a seeded
      byte substitution at every offset, both decoders raise
      ``FrameError`` or both return the same ``(sender, message)``;
(iii) *on the wire* -- in live TCP clusters (contended, and under
      duplicated and delayed frames) every frame ``encode_message_into``
      appends equals a fresh walk encode for that sender.  PR 20 also
      tried keeping the finished frame on the message; it showed nothing
      and was reverted, and this is the guard any such memo must pass.

``benchmarks/codec_micro.py`` imports the walk from here to time it
against the live codec.
"""

from __future__ import annotations

import asyncio
import enum
import random
import struct
import traceback
from dataclasses import dataclass, fields, is_dataclass, make_dataclass
from typing import Any, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import DelayWindow, DuplicateWindow, FaultPlan
from repro.consensus.base import Message
from repro.consensus.commands import Command
from repro.core.messages import Accept, AckAccept, AckPrepare, Decide, Forward, Prepare
from repro.core.protocol import M2Paxos, M2PaxosConfig
from repro.runtime import codec
from repro.runtime import node as runtime_node
from repro.runtime.cluster import LocalCluster
from repro.runtime.codec import (
    _MALFORMED,
    _MESSAGE_CLASSES,
    FRAME_HEADER,
    FrameError,
    _decode_command_body,
    _encode_command_body,
    _read_uvarint,
    _unzigzag,
    _write_svarint,
    _write_uvarint,
)
from repro.runtime.driver import PipelineDriver
from repro.workloads.synthetic import SyntheticConfig, SyntheticWorkload
from tests.test_codec_fuzz import _message_classes, _sample, random_message
from tests.test_codec_properties import commands, instances

# ----------------------------------------------------------------------
# The oracle: runtime/codec.py's walk as of 4ac5dee, verbatim.  Only the
# pieces the PR replaces are copied; the varint helpers and the Command
# body intern are the live ones, which it does not touch.
# ----------------------------------------------------------------------

_BIN_MAGIC = 0xB1

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

_BIN_CLASS_INFO: dict[type, tuple[bytes, tuple[str, ...]]] = {}
_BIN_FIELDS_BY_NAME: dict[str, tuple[type, tuple[str, ...]]] = {}


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


def ref_encode_message(sender: int, message: Message) -> bytes:
    """``codec.encode_message`` over the walk above."""
    out = bytearray(FRAME_HEADER.size)
    out.append(_BIN_MAGIC)
    _write_svarint(out, sender)
    _bin_encode(message, out)
    FRAME_HEADER.pack_into(out, 0, len(out) - FRAME_HEADER.size)
    return bytes(out)


def ref_decode_message(payload: "bytes | memoryview") -> tuple[int, Message]:
    """``codec.decode_message`` over the walk above."""
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


@pytest.fixture(autouse=True)
def _fresh_oracle_caches():
    """Tests define and re-register same-named classes; the oracle's
    by-name cache has no invalidation of its own."""
    _BIN_CLASS_INFO.clear()
    _BIN_FIELDS_BY_NAME.clear()


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Leaf:
    label: str
    weights: tuple = ()


@dataclass(frozen=True)
class _Parcel(Message):
    """Every kind of field the generator does *not* compile (a nested
    registered dataclass, a frozenset, a bare ``dict``, a float, ``Any``)
    beside ones it does."""

    leaf: _Leaf
    tags: frozenset[str]
    table: dict
    ratio: float
    anything: Any
    maybe: Optional[tuple[int, str]]
    count: int


codec.register_message(_Leaf)
codec.register_message(_Parcel)

_CMD = Command.make(1, 7, ["o1.3", "o2.9"])
_INS = ("o1.3", 4)


def _sampled() -> list[Message]:
    import typing

    out = []
    for cls in _message_classes():
        hints = typing.get_type_hints(cls)
        out.append(cls(**{f.name: _sample(hints[f.name]) for f in fields(cls)}))
    return out


def _edge_cases() -> list[Message]:
    ints = (0, 1, 63, 64, -1, -64, -65, 127, 128, 2**63 - 1, 2**63, -(2**63), 2**80, -(2**80))
    return [
        # Values that are not what the annotation says.
        AckPrepare(req=1, ok=True, decs={_INS: (3, _CMD), ("p", 2): (4, None)}),
        AckPrepare(req=1, ok=True, decs={_INS: (None, 3, (_INS, _INS))}),
        AckPrepare(req=1, ok=1, decs=None, max_rnd=True),
        Prepare(req=True, eps={_INS: False}, scoped=0),
        Prepare(req=None, eps={_INS: None, ("q", None): 2, (1, 2): 3, "k": 4, 5: 6}),
        Prepare(req=1.5, eps={("a", 1, 2): 1, (): 2, ("a",): 3}, scoped=None),
        Prepare(req="seven", eps=((_INS, 1),)),
        Prepare(req=1, eps={}),
        Decide(to_decide=None),
        Decide(to_decide={_INS: None, ("p", 1): 5, ("p", 2): "cmd", ("p", 3): (_CMD,)}),
        Forward(command=None, hops=None),
        Forward(command=_INS, hops=_CMD),
        Accept(req=1, to_decide={_INS: _CMD}, eps={_INS: 2}, cmd_ins={(1, 7): _INS}),
        Accept(req=1, to_decide={_INS: _CMD}, eps={_INS: 2}, cmd_ins={(1, 7): ((_INS, 1), "x", 3)}),
        Accept(req=1, to_decide={}, eps={}, cmd_ins={(1, 7): ()}, scoped=True),
        AckAccept(req=2, coordinator=1, ok=False, cids={_INS: (1, 7, 9)}, eps={_INS: (1, 2)}),
        AckAccept(req=2, coordinator=1, ok=False, cids={_INS: (True, "s")}, eps={}),
        # Single- and multi-byte ints in typed fields, dict values and tuples.
        *(Prepare(req=n, eps={("o", n): n}) for n in ints),
        *(AckAccept(req=1, coordinator=n, ok=True, cids={_INS: (n, -n)}, eps={}, max_rnd=n) for n in ints),
        # Multi-byte lengths: 200 entries, a 130-byte and a non-ASCII id.
        Prepare(req=1, eps={(f"o{i}", i): i for i in range(200)}),
        Accept(req=1, to_decide={("x" * 130, 1): _CMD}, eps={("é" * 70, 1): 1},
               cmd_ins={(1, 7): tuple(("éléphant", i) for i in range(130))}),
        Decide(to_decide={("w3.s17", 2**40): Command.make(2, 5, ["ü" * 100], is_read=True)}),
        Forward(command=Command(cid=(3, 4), ls=frozenset(["y" * 300]), noop=True), hops=200),
        # What stays on the generic walk, nested in what does not.
        _Parcel(leaf=_Leaf("deep", (1.5, -2.25, _Leaf("deeper"))), tags=frozenset(["b", "a"]),
                table={_INS: _Leaf("v"), ("k", 2): None}, ratio=0.25,
                anything={1: frozenset([(1, 2), (0, 3)])}, maybe=(3, "s"), count=64),
        _Parcel(leaf=None, tags=("a",), table={}, ratio=1, anything=_CMD, maybe=None, count=-1),
        _Parcel(leaf=_CMD, tags=frozenset(), table=None, ratio=None, anything=None,
                maybe=("s", 3), count=2**70),
    ]


def _corpus() -> list[Message]:
    rng = random.Random(20)
    return _sampled() + _edge_cases() + [random_message(rng) for _ in range(40)]


def _payload(frame: bytes) -> bytes:
    return frame[FRAME_HEADER.size:]


# ----------------------------------------------------------------------
# (i) encode: byte identity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("sender", [0, 6, 63, 64, -1, 2**40])
def test_frames_equal_the_walks_on_the_corpus(sender):
    for message in _corpus():
        want = ref_encode_message(sender, message)
        assert codec.encode_message(sender, message) == want, message
        # ... and again from whatever the first call left on the message.
        assert codec.encode_message(sender, message) == want, message
        out = bytearray(b"prefix")
        codec.encode_message_into(out, sender, message)
        assert bytes(out) == b"prefix" + want
        assert codec.wire_size(message) == len(ref_encode_message(0, message))


@pytest.mark.parametrize("seed", range(6))
def test_fuzzed_frames_equal_the_walks(seed):
    rng = random.Random(seed * 7919 + 5)
    for _ in range(60):
        message, sender = random_message(rng), rng.randrange(-2, 200)
        frame = codec.encode_message(sender, message)
        assert frame == ref_encode_message(sender, message)
        assert codec.decode_message(_payload(frame)) == (sender, message)
        assert ref_decode_message(_payload(frame)) == (sender, message)


_eps = st.dictionaries(instances, st.integers(-(2**70), 2**70), max_size=4)
_messages = st.one_of(
    st.builds(
        Accept,
        req=st.integers(0, 2**31),
        to_decide=st.dictionaries(instances, commands, max_size=4),
        eps=_eps,
        cmd_ins=st.dictionaries(
            st.tuples(st.integers(0, 10), st.integers(-100, 10_000)),
            st.lists(instances, max_size=3).map(tuple),
            max_size=3,
        ),
        scoped=st.booleans(),
    ),
    st.builds(
        AckAccept,
        req=st.integers(0, 2**31),
        coordinator=st.integers(0, 200),
        ok=st.booleans(),
        cids=st.dictionaries(
            instances, st.tuples(st.integers(0, 10), st.integers(-50, 50)), max_size=4
        ),
        eps=_eps,
        max_rnd=st.integers(0, 2**20),
    ),
    st.builds(Decide, to_decide=st.dictionaries(instances, commands, max_size=4)),
    st.builds(Prepare, req=st.integers(0, 2**31), eps=_eps, scoped=st.booleans()),
    st.builds(
        AckPrepare,
        req=st.integers(0, 2**31),
        ok=st.booleans(),
        decs=st.dictionaries(
            instances,
            st.tuples(
                st.one_of(st.none(), commands),
                st.integers(0, 2**20),
                st.lists(instances, max_size=3).map(tuple),
            ),
            max_size=4,
        ),
        max_rnd=st.integers(0, 2**20),
    ),
    st.builds(Forward, command=commands, hops=st.integers(0, 300)),
)


@settings(max_examples=200, deadline=None)
@given(message=_messages, sender=st.integers(-3, 300))
def test_hypothesis_frames_equal_the_walks(message, sender):
    frame = codec.encode_message(sender, message)
    assert frame == ref_encode_message(sender, message)
    assert codec.decode_message(_payload(frame)) == (sender, message)
    assert ref_decode_message(_payload(frame)) == (sender, message)


def test_the_same_type_error_names_the_class():
    class _Level(enum.IntEnum):
        HIGH = 3

    @dataclass(frozen=True)
    class _Stranger(Message):
        level: int

    for message in (
        _Stranger(level=3),
        Prepare(req=_Level.HIGH, eps={}),
        Prepare(req=1, eps={_INS: _Level.HIGH}),
        Prepare(req=1, eps={("o", _Level.HIGH): 1}),
        Decide(to_decide={_INS: _Stranger(level=1)}),
        Forward(command=_Stranger(level=1)),
        AckAccept(req=1, coordinator=1, ok=_Level.HIGH, cids={}, eps={}),
    ):
        with pytest.raises(TypeError) as want:
            ref_encode_message(1, message)
        for _ in range(2):  # a failed encode leaves nothing to reuse
            with pytest.raises(TypeError) as got:
                codec.encode_message(1, message)
            assert str(got.value) == str(want.value)
        assert "_Level" in str(got.value) or "_Stranger" in str(got.value)


def test_value_api_equals_the_walk():
    """Storage records go through ``encode_value_binary``: bare
    containers, with registered dataclasses inside."""
    for value in (
        {"appended": {"o": 3}, "log": (("o", 1, _CMD),)},
        (1, "rec", {_INS: _CMD}, Prepare(req=1, eps={_INS: 2})),
        frozenset([(1, "a"), (2, "b")]),
        _CMD,
        None,
    ):
        out = bytearray()
        _bin_encode(value, out)
        assert codec.encode_value_binary(value) == bytes(out)
        assert codec.decode_value_binary(bytes(out)) == value
        assert _bin_decode(memoryview(bytes(out)), 0) == (value, len(out))


# ----------------------------------------------------------------------
# (ii) decode: the same value or the same refusal
# ----------------------------------------------------------------------


def _outcome(decode, payload):
    """``repr`` of what ``decode`` returns (``repr`` tells ``True`` from
    ``1`` and equates NaNs, which ``==`` does not), or ``FrameError``."""
    try:
        return repr(decode(payload))
    except FrameError:
        return FrameError


def test_both_decoders_agree_on_every_truncation_and_substitution():
    rng = random.Random(2020)
    compared = refused = 0
    for message in _corpus():
        payload = _payload(ref_encode_message(5, message))
        assert codec.decode_message(payload) == (5, message)
        # Every offset; of the few multi-kilobyte payloads (their cost is
        # quadratic) the head and a seeded 400 of the rest.
        offsets = range(len(payload))
        if len(payload) > 600:
            offsets = [*range(200), *sorted(rng.sample(range(200, len(payload)), 400))]
        variants = [payload[:cut] for cut in offsets]
        for offset in offsets:
            for value in {rng.randrange(11), rng.randrange(256)} - {payload[offset]}:
                variants.append(payload[:offset] + bytes([value]) + payload[offset + 1:])
        for variant in variants:
            want = _outcome(ref_decode_message, variant)
            assert _outcome(codec.decode_message, variant) == want, (message, variant)
            compared += 1
            refused += want is FrameError
    # The substitutions must exercise both outcomes to mean anything.
    assert refused > compared // 10 and compared - refused > compared // 10


def test_bytes_bytearray_and_memoryview_inputs_decode_alike():
    for message in _corpus():
        frame = ref_encode_message(9, message)
        want = _outcome(ref_decode_message, _payload(frame))
        assert codec.decode_message(_payload(frame)) == (9, message)
        buffer = bytearray(b"\0\0\0" + frame)
        view = memoryview(buffer)[3 + FRAME_HEADER.size:]
        for payload in (_payload(frame), bytearray(_payload(frame)), view):
            assert _outcome(codec.decode_message, payload) == want
        view.release()


def test_hostile_shapes_inside_typed_fields_are_frame_errors():
    head = b"\xb1\x00\x0a\x06Accept"
    for payload in (
        head + b"\x06\x01" * 50_000,  # nesting where ``req`` belongs
        head + b"\x03\x02" + b"\x08\x01" + b"\x06\x02" * 50_000,  # ... in a key
        head + b"\x03\x02\x08\xff\xff\xff\xff\x0f",  # a map of 2**32 entries
        head + b"\x03\x02\x08\x01\x06\x02\x05\x7f",  # a string running off the end
        head + b"\x03\x02\x08\x01\x06\x02\x05\x02\xff\xfe",  # not UTF-8
        head + b"\x03\x02\x08\x01\x08\x00\x03\x00",  # a dict as a dict key
        head + b"\x03\x02\x08\x00\x08\x00\x08\x00",  # too few fields
        b"\xb1\x00\x0a\x06Accepx\x03\x02",  # unknown class
        b"\xb1\x00\x0a\x02\xff\xfe",  # class name not UTF-8
        b"\xb1\x00\x0b",  # unknown tag
    ):
        assert _outcome(ref_decode_message, payload) is FrameError
        assert _outcome(codec.decode_message, payload) is FrameError
        assert _outcome(codec.decode_message, memoryview(payload)) is FrameError


_WRITE = Command.make(2, 5, ["o"])
_WRITE_BODY = _encode_command_body(_WRITE)  # ends at its noop byte, 0


@pytest.mark.parametrize(
    "body",
    [
        _WRITE_BODY + b"\x02\x08\x12",  # a retired (client 4, seq 9) stamp
        _WRITE_BODY + b"\x00",  # a flags byte that sets nothing
        _WRITE_BODY + b"\x01\x00",  # a read, then one byte more
        _WRITE_BODY[:-1] + b"\x02",  # a noop byte that is neither 0 nor 1
    ],
    ids=["session-stamp", "zero-flags", "trailing-byte", "noop-byte"],
)
def test_a_command_body_no_encoder_writes_is_a_frame_error(body):
    """A body decodes only if it re-encodes to the same bytes: after
    the noop byte comes nothing (a write) or exactly 0x01 (a read)."""
    payload = _payload(codec.encode_message(1, Decide(to_decide={("o", 1): _WRITE})))
    framed = bytes([len(_WRITE_BODY)]) + _WRITE_BODY
    assert payload.count(framed) == 1
    hostile = payload.replace(framed, bytes([len(body)]) + body)
    assert _outcome(ref_decode_message, hostile) is FrameError
    assert _outcome(codec.decode_message, hostile) is FrameError


_ZERO = Command.make(0, 5, ["o"])  # cid[0] = 0: its body starts with 00


@pytest.mark.parametrize("where", ["command-body", "sender"])
def test_an_overlong_varint_is_a_frame_error(where):
    """``80 00`` spells 0 in two bytes.  No encoder writes a zero group
    after the first, so a frame that does is refused, not decoded to a
    second spelling of a value that has one."""
    body = _encode_command_body(_ZERO)
    assert body == bytes.fromhex("000a01016f100000")
    payload = _payload(codec.encode_message(0, Decide(to_decide={("o", 1): _ZERO})))
    framed = bytes([len(body)]) + body
    assert payload.count(framed) == 1 and payload[:2] == b"\xb1\x00"
    if where == "command-body":
        hostile = payload.replace(framed, bytes([len(body) + 1]) + b"\x80" + body)
    else:
        hostile = b"\xb1\x80" + payload[1:]
    for decode in (ref_decode_message, codec.decode_message):
        assert _outcome(decode, hostile) is FrameError
        assert _outcome(decode, memoryview(hostile)) is FrameError
        assert decode(payload) == (0, Decide(to_decide={("o", 1): _ZERO}))
    with pytest.raises(ValueError):
        _read_uvarint(b"\x80\x00", 0)
    assert _read_uvarint(b"\x80\x01", 0) == (128, 2)  # a zero first group is fine
    assert _read_uvarint(b"\x00", 0) == (0, 1)


# ----------------------------------------------------------------------
# (iii) what reaches the wire in a live cluster
# ----------------------------------------------------------------------


class _WireGuard:
    """Stands where ``encode_message_into`` is looked up and checks every
    frame it appends against a fresh walk encode for that sender."""

    def __init__(self, monkeypatch) -> None:
        self.real = codec.encode_message_into
        self.frames = 0
        self.senders: set[int] = set()
        self.resent = 0
        self.wrong: list[tuple[int, Message]] = []
        self._seen: set[int] = set()
        self._keep: list[Message] = []
        monkeypatch.setattr(codec, "encode_message_into", self)
        monkeypatch.setattr(runtime_node, "encode_message_into", self)

    def __call__(self, out: bytearray, sender: int, message: Message) -> None:
        mark = len(out)
        self.real(out, sender, message)
        self.frames += 1
        self.senders.add(sender)
        if id(message) in self._seen:
            self.resent += 1
        else:
            self._seen.add(id(message))
            self._keep.append(message)  # ids stay unique while we hold it
        if bytes(out[mark:]) != ref_encode_message(sender, message):
            self.wrong.append((sender, message))


def _mixed_proposals(count: int, seed: int) -> list[tuple[int, Command]]:
    generator = SyntheticWorkload(
        SyntheticConfig(local_set_size=6, locality=0.5, complex_fraction=0.4),
        3,
        random.Random(seed),
    )
    return [(i % 3, generator.next_command(i % 3)) for i in range(count)]


_BATCHING = M2PaxosConfig(max_batch=8, batch_wait=1e-3, batch_adaptive=True)
"""Contended runs need the recovery timers ``quiet_config`` turns off."""


def _run_guarded(monkeypatch, proposals, plan=None) -> _WireGuard:
    guard = _WireGuard(monkeypatch)

    async def scenario():
        cluster = LocalCluster(3, lambda node_id, n: M2Paxos(_BATCHING))
        await cluster.start()
        try:
            if plan is not None:
                cluster.attach_faults(plan, seed=7)
            await PipelineDriver(cluster, depth=6).run(proposals, timeout=30.0)
        finally:
            await cluster.stop()

    asyncio.run(asyncio.wait_for(scenario(), timeout=90))
    return guard


def test_every_frame_of_a_contended_tcp_run_equals_a_fresh_walk_encode(monkeypatch):
    proposals = _mixed_proposals(150, seed=3)
    assert any(len(command.ls) > 1 for _, command in proposals)
    guard = _run_guarded(monkeypatch, proposals)
    assert guard.frames > len(proposals) and guard.senders == {0, 1, 2}
    assert guard.resent > 0  # broadcasts: one message object, several frames
    assert guard.wrong == []


def test_every_frame_under_duplicates_and_delays_equals_a_fresh_walk_encode(monkeypatch):
    plan = FaultPlan(
        duplicates=(DuplicateWindow(start=0.0, end=60.0, probability=0.5),),
        delays=(DelayWindow(start=0.0, end=60.0, extra=0.001, jitter=0.004),),
    )
    guard = _run_guarded(monkeypatch, _mixed_proposals(60, seed=4), plan)
    assert guard.frames > 60 and guard.resent > 0
    assert guard.wrong == []


def test_one_message_sent_by_two_nodes_carries_each_sender():
    """A frame starts with who sent it, so nothing a first encode
    leaves on the message may answer for another sender."""
    message = Decide(to_decide={_INS: _CMD})
    for sender in (1, 2, 1, 70, 2):
        out = bytearray()
        codec.encode_message_into(out, sender, message)
        assert bytes(out) == ref_encode_message(sender, message)
        assert codec.decode_message(_payload(bytes(out)))[0] == sender


# ----------------------------------------------------------------------
# The generated functions themselves
# ----------------------------------------------------------------------


def test_re_registration_replaces_the_generated_pair():
    """A same-named class with another field list: both directions use
    the new list, and the class it displaced is no longer encodable
    (its frames would decode as the new one)."""

    def evolving(*names):
        return make_dataclass(
            "_Evolving", [(name, int) for name in names], bases=(Message,), frozen=True
        )

    old, new = evolving("a"), evolving("a", "b")
    codec.register_message(old)
    frame = codec.encode_message(2, old(a=1))
    assert frame == ref_encode_message(2, old(a=1))
    assert codec.decode_message(_payload(frame)) == (2, old(a=1))
    codec.register_message(new)
    frame = codec.encode_message(2, new(a=1, b=70))
    assert frame == ref_encode_message(2, new(a=1, b=70))
    sender, message = codec.decode_message(_payload(frame))
    assert (sender, message) == (2, new(a=1, b=70)) and type(message) is new
    with pytest.raises(TypeError, match="_Evolving"):
        codec.encode_message(2, old(a=1))
    codec.register_message(old)
    assert codec.decode_message(_payload(codec.encode_message(2, old(a=5)))) == (2, old(a=5))


def test_generated_source_is_what_a_traceback_shows():
    class _Level(enum.IntEnum):
        HIGH = 3

    source = codec.generated_source(Prepare)
    assert "def encode(value, out):" in source and "def decode(buf, pos, cls=cls):" in source
    assert "        _bin_encode(f_req, out)" in source.splitlines()
    with pytest.raises(TypeError, match="_Level") as caught:
        codec.encode_message(1, Prepare(req=_Level.HIGH, eps={}))
    text = "".join(traceback.format_exception(caught.value))
    assert 'File "<repro.codec Prepare>"' in text
    assert "\n    _bin_encode(f_req, out)\n" in text  # as traceback indents it


def test_nothing_is_generated_before_a_class_is_used():
    @dataclass(frozen=True)
    class _Lazy(Message):
        n: int  # also the name of a local of the generated functions

    codec.register_message(_Lazy)
    assert _Lazy not in codec._ENCODERS and "_Lazy" not in codec._DECODERS
    frame = codec.encode_message(1, _Lazy(n=200))
    assert frame == ref_encode_message(1, _Lazy(n=200))
    assert codec.decode_message(_payload(frame)) == (1, _Lazy(n=200))
    assert _Lazy in codec._ENCODERS and "_Lazy" in codec._DECODERS
