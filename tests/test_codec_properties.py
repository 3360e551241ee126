"""Property-based round-trip tests for the runtime codec, and what its
command memos may and may not change."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.commands import Command
from repro.core.messages import Accept, AckAccept, AckPrepare, Decide, Prepare
from repro.runtime import codec
from repro.runtime.codec import FrameError, decode_message, encode_message, FRAME_HEADER


def roundtrip(message, sender=0):
    frame = encode_message(sender, message)
    got_sender, got = decode_message(frame[FRAME_HEADER.size:])
    assert got_sender == sender
    return got


objects = st.sampled_from(["a", "b", "c", "dd", "w3.s17"])
commands = st.builds(
    lambda p, s, objs, payload, noop: Command(
        cid=(p, s),
        ls=frozenset(objs),
        payload_bytes=payload,
        proposer=p,
        noop=noop,
    ),
    st.integers(0, 10),
    st.integers(-100, 10_000),
    st.sets(objects, min_size=1, max_size=3),
    st.integers(0, 256),
    st.booleans(),
)
instances = st.tuples(objects, st.integers(1, 1000))


@settings(max_examples=50, deadline=None)
@given(
    req=st.integers(0, 2**31),
    to_decide=st.dictionaries(instances, commands, min_size=1, max_size=4),
    scoped=st.booleans(),
)
def test_accept_roundtrip(req, to_decide, scoped):
    eps = {inst: 3 for inst in to_decide}
    cmd_ins = {
        cmd.cid: tuple(sorted(to_decide)) for cmd in to_decide.values()
    }
    msg = Accept(req=req, to_decide=to_decide, eps=eps, cmd_ins=cmd_ins, scoped=scoped)
    assert roundtrip(msg) == msg


@settings(max_examples=50, deadline=None)
@given(
    req=st.integers(0, 2**31),
    eps=st.dictionaries(instances, st.integers(0, 2**20), min_size=1, max_size=4),
    scoped=st.booleans(),
)
def test_prepare_roundtrip(req, eps, scoped):
    msg = Prepare(req=req, eps=eps, scoped=scoped)
    assert roundtrip(msg) == msg


@settings(max_examples=50, deadline=None)
@given(
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
)
def test_ack_prepare_roundtrip(ok, decs):
    msg = AckPrepare(req=1, ok=ok, decs=decs)
    assert roundtrip(msg) == msg


@settings(max_examples=50, deadline=None)
@given(
    cids=st.dictionaries(
        instances, st.tuples(st.integers(0, 10), st.integers(-50, 50)), max_size=4
    ),
    max_rnd=st.integers(0, 2**20),
)
def test_ack_accept_roundtrip(cids, max_rnd):
    eps = {inst: 1 for inst in cids}
    msg = AckAccept(
        req=2, coordinator=1, ok=bool(max_rnd % 2), cids=cids, eps=eps, max_rnd=max_rnd
    )
    assert roundtrip(msg) == msg


# ----------------------------------------------------------------------
# Command memos: one decoded copy of each access set, invisible to values
# ----------------------------------------------------------------------


def test_decoded_commands_share_one_access_set_per_object(monkeypatch):
    """3,000 commands over 100 objects decode to 100 ``ls`` objects, not
    one each, and every decoded value equals its source."""
    # An empty memo, so one filled by earlier tests cannot reach its cap here.
    monkeypatch.setattr(codec, "_LS_DECODE_CACHE", {}, raising=False)
    sources = [
        Decide(to_decide={(f"shared.{i % 100}", i): Command.make(2, 50_000 + i, [f"shared.{i % 100}"])})
        for i in range(3_000)
    ]
    decoded = [roundtrip(message, sender=2) for message in sources]
    assert decoded == sources
    commands = [command for message in decoded for command in message.to_decide.values()]
    assert len({id(command.ls) for command in commands}) == 100
    assert not hasattr(commands[0], "__dict__")


def test_encoded_command_is_equal_hashed_and_shown_like_a_fresh_one():
    encoded = Command.make(1, 7, ["x", "y"], is_read=True)
    encode_message(1, Decide(to_decide={("x", 1): encoded}))
    assert encoded._bin_body is not None
    fresh = Command.make(1, 7, ["x", "y"], is_read=True)
    assert fresh._bin_body is None
    assert encoded == fresh and hash(encoded) == hash(fresh)
    assert repr(encoded) == repr(fresh)
    assert encoded in {fresh} and fresh in {encoded}


def test_replace_of_an_encoded_command_encodes_its_own_body():
    original = Command.make(1, 7, ["x"])
    encode_message(1, Decide(to_decide={("x", 1): original}))
    moved = dataclasses.replace(original, cid=(1, 8), ls=frozenset({"z"}))
    assert moved._bin_body is None
    message = Decide(to_decide={("z", 1): moved})
    assert roundtrip(message) == message
    assert moved._bin_body != original._bin_body


def _patched_decide(name: str, old: bytes, new: bytes) -> bytes:
    """The payload of a one-command Decide over ``name`` with the first
    ``old`` in it replaced by ``new`` (same length, so every frame and
    body size still holds)."""
    command = Command.make(4, 900_001, [name])
    payload = encode_message(4, Decide(to_decide={(name, 1): command}))[FRAME_HEADER.size:]
    body = codec._encode_command_body(command)
    start = payload.index(body)
    patched = body.replace(old, new, 1)
    assert len(patched) == len(body) and patched != body
    return payload[:start] + patched + payload[start + len(body):]


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("\u00e9t\u00e9", "\u00e9".encode(), b"\xff\xfe"),  # not UTF-8
        ("abc", b"\x03abc", b"\x7fabc"),  # name size runs past the body
    ],
    ids=["invalid-utf8", "name-past-body"],
)
def test_malformed_access_set_is_a_frame_error_and_memoises_nothing(name, old, new):
    payload = _patched_decide(name, old, new)
    sets_before = dict(codec._LS_DECODE_CACHE)
    commands_before = dict(codec._CMD_DECODE_CACHE)
    with pytest.raises(FrameError):
        decode_message(payload)
    assert codec._LS_DECODE_CACHE == sets_before
    assert codec._CMD_DECODE_CACHE == commands_before


def test_access_set_memo_is_cleared_when_full(monkeypatch):
    monkeypatch.setattr(codec, "_CMD_DECODE_CACHE_CAP", 4)
    monkeypatch.setattr(codec, "_LS_DECODE_CACHE", {})
    monkeypatch.setattr(codec, "_CMD_DECODE_CACHE", {})

    def decode_over(obj: str, seq: int):
        message = Decide(to_decide={(obj, 1): Command.make(5, seq, [obj])})
        assert roundtrip(message) == message

    for seq in range(4):
        decode_over(f"cap.{seq}", seq)
    assert len(codec._LS_DECODE_CACHE) == 4
    decode_over("cap.0", 10)  # a known set adds nothing
    assert len(codec._LS_DECODE_CACHE) == 4
    decode_over("cap.4", 11)
    assert len(codec._LS_DECODE_CACHE) == 1
