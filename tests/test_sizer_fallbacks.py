"""The generated sizers on values their annotations do not promise.

``Message.size_bytes`` runs one flat function per message class,
generated from the field annotations; a value of any class the
annotation did not promise is handed to the recursive walk from that
node down.  These properties fill annotated fields with such values and
hold the result to the replaced estimate, the oracle in
``tests/test_substrate_reference.py``.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.consensus.base import Message, sizer_source
from repro.consensus.commands import Command
from tests.test_substrate_reference import _Point, _TaggedCommand, reference_size

Instance = tuple[str, int]


class _Table(dict):
    """A ``dict`` subclass: not what ``dict[K, V]`` promised."""


class _Name(str):
    """A ``str`` subclass, sized by its length like a ``str``."""


@dataclass(frozen=True)
class _Annotated(Message):
    n: int
    flag: bool
    name: str
    key: Instance
    command: Command
    maybe: Optional[Command]
    many: tuple[Instance, ...]
    table: dict[Instance, int]
    nested: dict[tuple[int, int], tuple[Optional[Command], int, tuple[Instance, ...]]]


_commands = st.builds(
    lambda p, s, objs: Command.make(p, s, objs), st.integers(0, 9), st.integers(0, 99),
    st.sets(st.sampled_from(["a", "b", "w1.s3"]), min_size=1),
)
_tagged = st.builds(
    lambda p, s, tag: _TaggedCommand(cid=(p, s), ls=frozenset({"o"}), tag=tag),
    st.integers(0, 9), st.integers(0, 99), st.text(max_size=5),
)
_ints = st.one_of(
    st.integers(-(2**70), 2**70),
    st.booleans(),  # a bool in an int field
    st.none(),  # None in a non-Optional field
    st.floats(allow_nan=False),
)
_strs = st.one_of(st.text(max_size=8), st.text(max_size=8).map(_Name), st.none(), st.integers())
_instances = st.one_of(
    st.tuples(_strs, _ints),
    st.builds(_Point, st.integers(), st.text(max_size=4)),  # a named tuple
    st.tuples(st.text(max_size=3), st.integers(), st.integers()),  # wrong length
    st.none(),
    st.frozensets(st.integers(), max_size=3),
)
_hashable_instances = st.one_of(
    st.tuples(st.text(max_size=4), st.integers()),
    st.builds(_Point, st.integers(), st.text(max_size=4)),
    st.text(max_size=4),
)
_maybe_commands = st.one_of(_commands, _tagged, st.none(), st.integers())
_sequences = st.one_of(
    st.lists(_instances, max_size=4).map(tuple),
    st.frozensets(_hashable_instances, max_size=4),  # a frozenset in tuple[X, ...]
    st.lists(_instances, max_size=4),
    st.none(),
)


def _tables(keys, values):
    plain = st.dictionaries(keys, values, max_size=4)
    return st.one_of(plain, plain.map(_Table), st.none(), st.lists(values, max_size=3))


_decs = st.tuples(_maybe_commands, _ints, _sequences)
_annotated = st.builds(
    _Annotated,
    n=_ints,
    flag=st.one_of(st.booleans(), st.integers(), st.none()),
    name=_strs,
    key=_instances,
    command=_maybe_commands,
    maybe=_maybe_commands,
    many=_sequences,
    table=_tables(_hashable_instances, _ints),
    nested=_tables(
        st.one_of(st.tuples(st.integers(), st.integers()), st.integers()),
        st.one_of(_decs, st.tuples(_maybe_commands, _ints), st.none()),
    ),
)


@settings(max_examples=300, deadline=None)
@given(message=_annotated)
def test_size_matches_the_reference_on_values_the_annotations_do_not_promise(message):
    assert message.size_bytes() == Message.TAG_BYTES + reference_size(message)


def test_the_annotated_class_is_sized_inline():
    """The property above exercises the generated function, not the
    walk: every annotation of ``_Annotated`` resolves and is inlined."""
    hints = typing.get_type_hints(_Annotated)
    assert set(hints) >= {"n", "nested"}
    source = sizer_source(_Annotated)
    assert "f_nested.__class__ is dict" in source
    assert "__class__ is Command" in source
    walked = [line for line in source.splitlines() if line.strip().startswith("total += _estimate")]
    assert walked == []
