"""Unit tests for quorum arithmetic (the Paxos kernel's sizes), message
sizing, and the Env contract."""

import pytest

from repro.consensus.base import Message, ProtocolCosts
from repro.consensus.commands import Command
from repro.core.quorum import classic_quorum, epaxos_fast_quorum, fast_quorum
from dataclasses import dataclass


class TestQuorums:
    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (7, 4), (11, 6), (49, 25)]
    )
    def test_classic_quorum(self, n, expected):
        assert classic_quorum(n) == expected

    @pytest.mark.parametrize(
        "n,expected", [(3, 3), (5, 4), (7, 5), (11, 8), (49, 33)]
    )
    def test_fast_quorum(self, n, expected):
        assert fast_quorum(n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 2), (5, 3), (7, 5), (9, 6), (11, 8), (49, 36)],
    )
    def test_epaxos_fast_quorum(self, n, expected):
        # F + floor((F+1)/2), N = 2F+1
        assert epaxos_fast_quorum(n) == expected

    def test_epaxos_fast_quorum_equals_majority_up_to_five(self):
        for n in (3, 5):
            assert epaxos_fast_quorum(n) == classic_quorum(n)
        assert epaxos_fast_quorum(7) > classic_quorum(7)

    def test_two_classic_quorums_intersect(self):
        for n in range(1, 60):
            assert 2 * classic_quorum(n) > n

    def test_invalid_n_rejected(self):
        for fn in (classic_quorum, fast_quorum, epaxos_fast_quorum):
            with pytest.raises(ValueError):
                fn(0)


@dataclass(frozen=True)
class _Simple(Message):
    x: int
    name: str


@dataclass(frozen=True)
class _WithCollections(Message):
    deps: frozenset
    table: dict
    command: Command


class TestMessageSizing:
    def test_simple_fields(self):
        msg = _Simple(x=1, name="abcd")
        assert msg.size_bytes() == Message.TAG_BYTES + 8 + 4

    def test_collections_counted(self):
        command = Command.make(0, 0, ["x"], payload_bytes=16)
        small = _WithCollections(deps=frozenset(), table={}, command=command)
        big = _WithCollections(
            deps=frozenset({(0, 1), (1, 2), (2, 3)}),
            table={("x", 1): 5},
            command=command,
        )
        assert big.size_bytes() > small.size_bytes()

    def test_size_is_cached_and_stable(self):
        msg = _Simple(x=1, name="abcd")
        assert msg.size_bytes() == msg.size_bytes()

    def test_dependency_sets_make_messages_bigger(self):
        # The effect the paper measures: EPaxos-style dependency metadata
        # inflates wire size linearly.
        command = Command.make(0, 0, ["x"])
        sizes = [
            _WithCollections(
                deps=frozenset((i, i) for i in range(n)), table={}, command=command
            ).size_bytes()
            for n in (0, 10, 20)
        ]
        assert sizes[1] - sizes[0] == sizes[2] - sizes[1] > 0


class TestProtocolCosts:
    def test_defaults_sane(self):
        costs = ProtocolCosts()
        assert costs.base_cost > 0
        assert 0 <= costs.serial_fraction <= 1
