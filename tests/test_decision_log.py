"""The decision log's layout: a dense array per object plus one
node-wide index from command id to its lowest position on each object.

(a) The delivery engine over that layout delivers what the engine over
per-object dicts and an appended-id set delivered, decision for
decision; (b) a snapshot stores and restores it exactly, holes
included; (c) it stays small per command.
"""

from __future__ import annotations

import random
import sys
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.commands import Command, make_noop
from repro.core.delivery import DeliveryEngine
from repro.core.protocol import M2Paxos
from repro.core.state import M2PaxosState
from repro.storage.base import StorageConfig
from tests.conftest import assert_same_kept_state, kept_state, make_cluster

OBJECTS = ["a", "b", "c"]


class DictLogEngine:
    """The engine as it was over ``{position: command}`` logs: a
    command at a frontier was appended already when its id is in the
    appended set."""

    def __init__(self) -> None:
        self.logs: dict[str, dict[int, Command]] = {}
        self.frontier: dict[str, int] = {}
        self.appended: set[tuple[int, int]] = set()
        self.delivered: list[Command] = []

    def record(self, l: str, position: int, command: Command) -> None:
        self.logs.setdefault(l, {}).setdefault(position, command)
        self.frontier.setdefault(l, 0)

    def front(self, l: str):
        return self.logs[l].get(self.frontier[l] + 1)

    def pump(self, dirty) -> None:
        work = deque(dirty)
        while work:
            l = work.popleft()
            if l not in self.logs:
                continue
            while (command := self.front(l)) is not None:
                if command.noop or command.cid in self.appended:
                    self.frontier[l] += 1
                    continue
                if not all(
                    o in self.logs and getattr(self.front(o), "cid", None) == command.cid
                    for o in command.ls
                ):
                    break
                for o in command.ls:
                    self.frontier[o] += 1
                self.appended.add(command.cid)
                self.delivered.append(command)
                work.extend(o for o in command.ls if o != l)


@st.composite
def decision_orders(draw):
    """Decisions on 1-3 objects in an arrival order: commands take the
    next position of each of their objects (multi-object ones aligned,
    as one round places them), some positions are holes nothing fills,
    some commands are no-ops, and one command is also decided at a
    second, higher position of one of its objects, recorded before its
    first."""
    objects = OBJECTS[: draw(st.integers(1, 3))]
    top = {l: 0 for l in objects}
    decisions = []  # (object, position, command)
    for seq in range(draw(st.integers(1, 12))):
        ls = draw(st.sets(st.sampled_from(objects), min_size=1, max_size=2))
        if len(ls) == 1 and draw(st.integers(0, 4)) == 0:
            command = make_noop(next(iter(ls)), 0, seq)
        else:
            command = Command.make(0, seq, ls)
        for l in sorted(ls):
            top[l] += 1 + (draw(st.integers(0, 5)) == 0)  # a hole now and then
            decisions.append((l, top[l], command))
    real = [d for d in decisions if not d[2].noop]
    twice = None
    if real:
        l, _position, command = real[draw(st.integers(0, len(real) - 1))]
        top[l] += 1
        twice = (l, top[l], command)
    order = draw(st.permutations(decisions))
    if twice is not None:
        first = next(i for i, d in enumerate(order) if d[2] is twice[2] and d[0] == twice[0])
        order.insert(draw(st.integers(0, first)), twice)
    return order


@settings(max_examples=200, deadline=None)
@given(order=decision_orders(), pumps=st.randoms(use_true_random=False))
def test_the_engine_delivers_what_the_dict_log_engine_delivered(order, pumps):
    state = M2PaxosState()
    delivered: list[Command] = []
    engine = DeliveryEngine(state, delivered.append)
    reference = DictLogEngine()
    for l, position, command in order:
        engine.record_decision(l, position, command)
        reference.record(l, position, command)
        if pumps.random() < 0.7:
            engine.pump(dirty=[l])
            reference.pump([l])
    engine.pump()
    reference.pump(list(reference.logs))
    assert delivered == reference.delivered
    assert len({c.cid for c in delivered}) == len(delivered)
    for l, position, command in order:
        assert state.decided_at((l, position)).cid == command.cid
        lowest = min(p for o, p, c in order if o == l and c.cid == command.cid)
        assert state.lowest(l, command) == lowest
    for l, dict_log in reference.logs.items():
        assert state.objects[l].appended == reference.frontier[l]
        assert state.objects[l].max_decided == max(dict_log)


def test_a_position_below_one_is_refused():
    state = M2PaxosState()
    with pytest.raises(ValueError, match="position 0"):
        state.record("x", 0, Command.make(0, 0, ["x"]))
    assert state.objects["x"].decided == [] and state.decided_index == {}


def test_a_snapshot_restores_a_log_with_holes_its_index_and_the_delivery():
    """Node 0 learns decisions out of order, with holes, a command
    decided twice on one object (the higher position first) and one
    decided on only one of its objects; a store recovery from its
    snapshot alone rebuilds the same log, index and delivered sequence,
    and writes the same snapshot bytes again."""
    cluster = make_cluster(
        lambda i, n: M2Paxos(), n_nodes=3, seed=5, storage=StorageConfig(kind="mem")
    )
    cluster.propose(0, Command.make(0, 0, ["x"]))
    cluster.run_for(1.0)
    node = cluster.nodes[0]
    protocol = node.protocol
    a, c, d = (Command.make(1, seq, ["h"]) for seq in range(3))
    b = Command.make(1, 3, ["h", "x"])
    for l, position, command in [
        ("h", 6, a), ("h", 1, a), ("h", 2, make_noop("h", 1, 0)),
        ("h", 4, c), ("h", 5, b), ("x", 2, b), ("g", 3, d),
    ]:
        assert protocol.delivery.record_decision(l, position, command)
        protocol.delivery.pump(dirty=[l])
    state = protocol.state
    assert [p for p, command in enumerate(state.objects["h"].decided, 1) if command] == [
        1, 2, 4, 5, 6,
    ]
    assert state.decided_index[a.cid] == 1 and state.decided_index[b.cid] == {"h": 5, "x": 2}
    payload = protocol.snapshot_payload()
    before = [command.cid for command in node.delivered], kept_state(state)
    assert a.cid in before[0] and c.cid not in before[0]
    node.env.storage.snapshot(payload)
    cluster.crash(0)
    cluster.restart(0, "durable")
    assert node.protocol is not protocol
    assert [command.cid for command in node.delivered] == before[0]
    assert_same_kept_state(before[1], kept_state(node.protocol.state))
    assert node.protocol.snapshot_payload() == payload


LOG_AND_INDEX_BYTES = 48
"""Per (node, command) at the run below: a log slot is 8 bytes and an
index entry one int-valued dict entry, plus each structure's growth
headroom and each object's empty list (56 bytes over ~33 commands).
It measures 41 bytes; the layout this one replaced (per object a dict
for the log and one for the positions, and the appended-id set)
measured 105 on the same run."""


def log_and_index_bytes(state: M2PaxosState) -> int:
    index = state.decided_index
    return (
        sum(sys.getsizeof(obj.decided) for obj in state.objects.values())
        + sys.getsizeof(index)
        + sum(sys.getsizeof(at) for at in index.values() if type(at) is dict)
    )


def test_the_log_and_its_index_stay_small_per_command():
    cluster = make_cluster(lambda i, n: M2Paxos(), n_nodes=3, seed=3)
    rng = random.Random(3)
    proposed = 0
    for round_nr in range(100):
        for node in range(3):
            cluster.propose(node, Command.make(node, round_nr, [f"o{node}.{rng.randrange(3)}"]))
            proposed += 1
        cluster.run_for(0.002)
    cluster.run_for(2.0)
    for node in cluster.nodes:
        state = node.protocol.state
        assert len(state.cstruct) == proposed
        assert log_and_index_bytes(state) / proposed <= LOG_AND_INDEX_BYTES
