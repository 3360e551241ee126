"""Seeded fuzz over the full codec value vocabulary.

``test_codec_properties`` covers the real message shapes with
hypothesis; this file stress-tests the *value* layer with adversarial
nesting (tuple-keyed dicts, sets of tuples, nested dataclasses, huge
and negative ints, unicode), and pins what happens at the vocabulary's
edge: a class the codec was never told about is a ``TypeError`` that
names it.
"""

from __future__ import annotations

import importlib
import pkgutil
import random
import typing
from dataclasses import dataclass, field, fields, is_dataclass

import pytest

from repro.consensus.base import Message
from repro.consensus.commands import Command
from repro.core.messages import Accept, AckAccept, AckPrepare, Decide, Prepare
from repro.runtime import codec


def _payload(sender: int, message: Message) -> bytes:
    return codec.encode_message(sender, message)[codec.FRAME_HEADER.size:]


def _random_object(rng: random.Random) -> str:
    return rng.choice(["a", "w1.s3", "obj-42", "éléphant", "x" * 40])


def _random_command(rng: random.Random) -> Command:
    return Command(
        cid=(rng.randrange(16), rng.randrange(-5, 1 << 40)),
        ls=frozenset(
            _random_object(rng) for _ in range(rng.randint(1, 4))
        ),
        payload_bytes=rng.randrange(1 << 16),
        proposer=rng.randrange(16),
        noop=rng.random() < 0.1,
    )


def random_message(rng: random.Random) -> Message:
    command = _random_command(rng)
    instances = {
        (_random_object(rng), rng.randrange(1 << 20)): command
        for _ in range(rng.randint(1, 5))
    }
    eps = {ins: rng.randrange(-3, 1 << 30) for ins in instances}
    kind = rng.randrange(5)
    if kind == 0:
        return Accept(
            req=rng.randrange(1 << 31),
            to_decide=instances,
            eps=eps,
            cmd_ins={command.cid: tuple(sorted(instances))},
            scoped=rng.random() < 0.5,
        )
    if kind == 1:
        return AckAccept(
            req=rng.randrange(1 << 31),
            coordinator=rng.randrange(16),
            ok=rng.random() < 0.5,
            cids={ins: command.cid for ins in instances},
            eps=eps,
            max_rnd=rng.randrange(1 << 20),
        )
    if kind == 2:
        return Decide(to_decide=instances)
    if kind == 3:
        return Prepare(req=rng.randrange(1 << 31), eps=eps)
    return AckPrepare(
        req=rng.randrange(1 << 31),
        ok=rng.random() < 0.5,
        decs={
            ins: (rng.randrange(1 << 10), command if rng.random() < 0.5 else None)
            for ins in instances
        },
        max_rnd=rng.randrange(1 << 20),
    )


@pytest.mark.parametrize("seed", range(8))
def test_fuzzed_messages_roundtrip(seed):
    rng = random.Random(seed * 6151 + 17)
    for i in range(50):
        message = random_message(rng)
        sender = rng.randrange(64)
        payload = _payload(sender, message)
        assert payload[0] == 0xB1
        assert codec.decode_message(payload) == (sender, message), f"iteration {i}"


def test_binary_frames_are_deterministic():
    """Equal messages (even with differently-built sets/dicts) encode to
    identical bytes -- required for the sim's reproducible frame sizes."""
    a = Command(cid=(1, 2), ls=frozenset(["x", "y", "z"]))
    b = Command(cid=(1, 2), ls=frozenset(["z", "y", "x"]))
    assert _payload(0, Decide(to_decide={("x", 1): a})) == (
        _payload(0, Decide(to_decide={("x", 1): b}))
    )


def test_extreme_ints_roundtrip():
    for n in (0, -1, 1, 2**63 - 1, -(2**63), 2**80, -(2**80)):
        msg = Prepare(req=1, eps={("o", 1): n})
        assert codec.decode_message(_payload(0, msg))[1] == msg


def test_floats_and_none_roundtrip():
    msg = AckPrepare(
        req=1, ok=True, decs={("o", 1): (3, None)}, max_rnd=0
    )
    assert codec.decode_message(_payload(0, msg))[1] == msg


@dataclass(frozen=True)
class _Inner:
    label: str
    weights: tuple = ()


@dataclass(frozen=True)
class _FuzzEnvelope(Message):
    """Unregistered-by-default nested dataclass exercising _T_OBJ."""

    inner: _Inner
    table: dict = field(default_factory=dict)


def test_nested_dataclass_binary_roundtrip():
    codec.register_message(_Inner)
    codec.register_message(_FuzzEnvelope)
    msg = _FuzzEnvelope(
        inner=_Inner(label="deep", weights=(1.5, -2.25, 0.0)),
        table={("k", 1): _Inner(label="v"), ("k", 2): None},
    )
    payload = _payload(3, msg)
    assert codec.decode_message(payload) == (3, msg)


def test_value_outside_the_vocabulary_is_a_type_error():
    """The walk dispatches on exact classes; an int *subclass*
    (IntEnum-style) is outside its vocabulary, and so is a ``Message``
    nobody registered.  Both fail at the sender, naming the class."""
    import enum

    class _Level(enum.IntEnum):
        HIGH = 3

    @dataclass(frozen=True)
    class _Graded(Message):
        level: int

    with pytest.raises(TypeError, match="_Graded"):
        codec.encode_message(9, _Graded(level=3))
    codec.register_message(_Graded)
    frame = codec.encode_message(9, _Graded(level=3))
    assert codec.decode_message(frame[codec.FRAME_HEADER.size:]) == (
        9,
        _Graded(level=3),
    )
    with pytest.raises(TypeError, match="_Level"):
        codec.encode_message_into(bytearray(), 9, _Graded(level=_Level.HIGH))


def _sample(hint):
    """One value of the type a message field is annotated with."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]
        return _sample(args[0])
    if origin is tuple:
        if args[-1] is Ellipsis:
            return (_sample(args[0]), _sample(args[0]))
        return tuple(_sample(arg) for arg in args)
    if origin is dict:
        return {_sample(args[0]): _sample(args[1])}
    if origin is frozenset:
        return frozenset({_sample(args[0])})
    if hint is Message:
        return Prepare(req=7, eps={("o", 1): 2})
    if hint is Command:
        return Command.make(2, 5, ["o", "p"], is_read=True)
    return {int: 3, bool: True, str: "s", float: 0.25}[hint]


def _message_classes():
    """Every ``Message`` subclass defined anywhere under ``repro``."""
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, stack = [], [Message]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("repro.") and cls not in found:
                found.append(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)


@pytest.mark.parametrize("cls", _message_classes(), ids=lambda cls: cls.__name__)
def test_every_message_class_is_registered_and_roundtrips(cls):
    """Whatever a protocol under ``repro`` can hand to ``env.send`` must
    cross the TCP runtime: a class missing from the registry decodes
    nowhere."""
    assert is_dataclass(cls)
    assert codec._MESSAGE_CLASSES.get(cls.__name__) is cls
    hints = typing.get_type_hints(cls)
    message = cls(**{f.name: _sample(hints[f.name]) for f in fields(cls)})
    frame = codec.encode_message(6, message)
    sender, decoded = codec.decode_message(frame[codec.FRAME_HEADER.size:])
    assert (sender, decoded) == (6, message)
    assert codec.encode_message(6, decoded) == frame
