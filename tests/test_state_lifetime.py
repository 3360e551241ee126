"""The lifetime rule of per-instance consensus state (DESIGN.md, "State
lifetime"): it exists only above each object's append frontier, its
size follows the in-flight window and never the history, and a message
naming a retired instance is answered from the decided value without
re-creating anything.  Deterministic counts throughout, no timing.
"""

import asyncio
import random
from dataclasses import MISSING, fields, replace

import pytest

from repro.chaos.plan import Crash, DelayWindow, DuplicateWindow, FaultPlan
from repro.chaos.runner import _CHAOS_M2, CHAOS_CLUSTER, Scenario, _run_scenario
from repro.consensus.commands import Command
from repro.core.m2.config import _DECIDED_EPOCH, _LEARN, _ROUND, _SUPERVISE
from repro.core.messages import Accept, AckAccept, AckPrepare, Decide, Prepare
from repro.core.protocol import M2Paxos, M2PaxosConfig
from repro.core.state import (
    KINDS,
    VOLATILE,
    InstanceState,
    NodeState,
    ObjectState,
    declared,
)
from repro.runtime.cluster import LocalCluster
from repro.sim.cluster import Cluster
from repro.spec import ClusterSpec
from repro.storage.base import StorageConfig

from tests.conftest import make_cluster


def per_instance_state(protocol) -> tuple[int, int, int, int, int]:
    """Sizes of the five structures the lifetime rule bounds."""
    state = protocol.state
    return (
        len(state.instances),
        sum(len(positions) for positions in state.active_positions.values()),
        len(state.acks),
        len(state.pending_accepts),
        len(state.pending_prepares),
    )


def supervised(protocol) -> list:
    """The supervision entries on the node's deadline heap, as
    ``(when, cid, command)``."""
    return [
        (when, cid, command)
        for when, kind, cid, command in protocol.state.deadlines
        if kind == _SUPERVISE
    ]


# ----------------------------------------------------------------------
# (i) size follows the in-flight window, not the history
# ----------------------------------------------------------------------

OBJECTS = ["h0", "h1", "h2", "h3", "h4"]
LEARN = M2PaxosConfig(learn_resend_timeout=0.05, learn_resend_attempts=4)
WINDOW = 30
"""Commands in flight (proposed, not yet delivered everywhere)."""
PER_COMMAND = 2
"""Entries a structure may hold per in-flight command: at most two
objects each (retries and no-op fills reuse or replace positions)."""


def drive(rounds: int, config: M2PaxosConfig = LEARN) -> tuple[Cluster, int]:
    """``rounds`` x 3 commands over five objects every node fights for,
    closed loop at WINDOW in flight; returns the drained cluster and
    the largest any structure grew on any node."""
    cluster = make_cluster(lambda node_id, n: M2Paxos(config), n_nodes=3, seed=7)
    rng = random.Random(7)
    proposed = peak = 0
    for seq in range(rounds):
        while proposed - min(len(cluster.delivered(n)) for n in range(3)) >= WINDOW:
            cluster.run_for(0.0005)
        for node in range(3):
            objs = rng.sample(OBJECTS, 2 if rng.random() < 0.2 else 1)
            cluster.propose(node, Command.make(node, seq, objs))
            proposed += 1
        cluster.run_for(0.0005)
        for node in cluster.nodes:
            peak = max(peak, *per_instance_state(node.protocol))
    cluster.run_for(10.0)  # drain, learn-resend and the lapsed-round sweep
    cluster.check_consistency()
    assert all(len(cluster.delivered(n)) == proposed for n in range(3))
    return cluster, peak


@pytest.mark.parametrize("rounds", [60, 120])
def test_state_follows_the_window_and_drains_to_nothing(rounds):
    cluster, peak = drive(rounds)
    assert WINDOW // 2 < peak <= PER_COMMAND * (WINDOW + 3)
    assert sum(n.protocol.stats["accept_nacks"] for n in cluster.nodes) > 0
    for node in cluster.nodes:
        assert per_instance_state(node.protocol) == (0, 0, 0, 0, 0)
        # What laggards and amnesiacs learn from is all still there.
        decided = sum(
            command is not None
            for o in node.protocol.state.objects.values()
            for command in o.decided
        )
        assert decided >= rounds * 3
        assert len(node.protocol.state.cstruct) == rounds * 3


@pytest.mark.parametrize(
    "round_timeout", [60.0, 0.0], ids=["deadline-after-the-drain", "no-deadline"]
)
def test_a_finished_prepare_round_is_retired_without_its_deadline(round_timeout):
    """A round leaves ``pending_prepares`` at its quorum or NACK, not at
    its deadline: here the deadline falls after the drain, or never."""
    cluster, peak = drive(60, replace(LEARN, round_timeout=round_timeout))
    assert peak <= PER_COMMAND * (WINDOW + 3)
    assert sum(n.protocol.stats["acquisitions"] for n in cluster.nodes) > WINDOW
    for node in cluster.nodes:
        assert node.protocol.state.pending_prepares == {}


# ----------------------------------------------------------------------
# (ii) messages naming a retired instance
# ----------------------------------------------------------------------


class Retired:
    """Node 0 owns x and y; ``a`` sits at (x, 1), the two-object ``m``
    at (x, 2) + (y, 1); everything is delivered everywhere, so every
    instance is retired.  ``sent`` captures what node 1 transmits."""

    def __init__(self):
        self.cluster = make_cluster(lambda node_id, n: M2Paxos(), n_nodes=3, seed=3)
        self.a = Command.make(0, 0, ["x"])
        self.m = Command.make(0, 1, ["x", "y"])
        self.cluster.propose(0, self.a)
        self.cluster.run_for(1.0)
        self.cluster.propose(0, self.m)
        self.cluster.run_for(5.0)
        self.acceptor = self.cluster.nodes[1].protocol
        assert self.acceptor.state.decided_at(("x", 1)) == self.a
        assert self.acceptor.state.decided_at(("x", 2)) == self.m
        assert self.acceptor.state.decided_at(("y", 1)) == self.m
        assert per_instance_state(self.acceptor) == (0, 0, 0, 0, 0)
        self.sent = []
        self.acceptor.env._transmit = lambda dst, msg: self.sent.append((dst, msg))
        self.epoch = self.acceptor.state.obj("x").promised

    def deliver(self, sender, message):
        self.sent.clear()
        self.acceptor.on_message(sender, message)
        assert per_instance_state(self.acceptor)[:3] == (0, 0, 0)
        return list(self.sent)


def test_duplicate_accept_of_the_decided_command_is_acked():
    r = Retired()
    eps = {("x", 2): r.epoch, ("y", 1): r.acceptor.state.obj("y").promised}
    accept = Accept(req=7, to_decide={inst: r.m for inst in eps}, eps=eps)
    assert r.deliver(0, accept) == [
        (0, AckAccept(req=7, coordinator=0, ok=True,
                      cids={inst: r.m.cid for inst in eps}, eps=eps))
    ]


def test_accept_of_another_command_is_refused():
    r = Retired()
    other = Command.make(2, 0, ["x"])
    eps = {("x", 1): r.epoch}
    accept = Accept(req=8, to_decide={("x", 1): other}, eps=eps, scoped=True)
    assert r.deliver(2, accept) == [
        (2, AckAccept(req=8, coordinator=2, ok=False, cids={}, eps=eps,
                      max_rnd=r.epoch))
    ]
    assert r.acceptor.state.decided_at(("x", 1)) == r.a


def test_scoped_prepare_reports_the_decision_and_its_full_instance_set():
    r = Retired()
    prepare = Prepare(req=9, eps={("x", 2): 1000}, scoped=True)
    assert r.deliver(2, prepare) == [
        (2, AckPrepare(req=9, ok=True, decs={
            ("x", 2): (r.m, _DECIDED_EPOCH, (("x", 2), ("y", 1))),
        }))
    ]
    assert r.acceptor.state.obj("x").promised == r.epoch  # scoped: untouched


def test_unscoped_prepare_reports_the_decided_tail_and_promises_the_object():
    r = Retired()
    epoch = 1000 * 3 + 2  # a striped epoch of node 2
    prepare = Prepare(req=10, eps={("x", 1): epoch})
    assert r.deliver(2, prepare) == [
        (2, AckPrepare(req=10, ok=True, decs={
            ("x", 1): (r.a, _DECIDED_EPOCH, (("x", 1),)),
            ("x", 2): (r.m, _DECIDED_EPOCH, (("x", 2), ("y", 1))),
        }))
    ]
    assert r.acceptor.state.obj("x").promised == epoch


def test_duplicate_decide_is_silent():
    r = Retired()
    before = list(r.cluster.delivered(1))
    assert r.deliver(0, Decide(to_decide={("x", 2): r.m, ("y", 1): r.m})) == []
    assert r.cluster.delivered(1) == before


def test_late_ack_for_a_finished_round_counts_nothing():
    r = Retired()
    coordinator = r.cluster.nodes[0].protocol
    assert per_instance_state(coordinator) == (0, 0, 0, 0, 0)
    sent = []
    coordinator.env._transmit = lambda dst, msg: sent.append((dst, msg))
    late = AckAccept(req=coordinator.state.req, coordinator=0, ok=True,
                     cids={("x", 2): r.m.cid, ("y", 1): r.m.cid},
                     eps={("x", 2): r.epoch, ("y", 1): r.epoch})
    coordinator.on_message(2, late)
    assert sent == []
    assert per_instance_state(coordinator) == (0, 0, 0, 0, 0)


def test_vote_on_a_retired_instance_is_not_recorded():
    r = Retired()
    assert r.acceptor.state.record_ack(("x", 1), r.epoch, r.a.cid, voter=2) is None
    assert r.acceptor.state.inst(("x", 1)) is None
    assert r.acceptor.state.inst(("x", 3)) is not None  # above the frontier


# ----------------------------------------------------------------------
# Restore goes through the log's one write path
# ----------------------------------------------------------------------


def test_reproposing_a_restored_decided_command_sends_no_accept():
    spec = ClusterSpec(
        protocol="m2paxos", n_nodes=3, seed=5, m2=M2PaxosConfig(),
        storage=StorageConfig(kind="mem", snapshot_every=4),
    )
    cluster = Cluster(spec)
    cluster.start()
    commands = [Command.make(0, seq, ["r"]) for seq in range(10)]
    for command in commands:
        cluster.propose(0, command)
        cluster.run_for(0.2)
    cluster.crash(0)
    assert cluster.nodes[0].env.storage.recover().snapshot is not None
    cluster.restart(0, mode="durable")
    protocol = cluster.nodes[0].protocol
    assert [c.cid for c in cluster.delivered(0)] == [c.cid for c in commands]
    # Snapshot-restored and tail-replayed decisions are both indexed.
    assert all(protocol.state.is_decided_for("r", c) for c in commands)
    sent = cluster.network.messages_sent
    for command in commands:
        cluster.propose(0, command)
    cluster.run_for(3.0)  # past supervise_timeout
    assert cluster.network.messages_sent == sent
    assert protocol.stats["fast_path"] == protocol.stats["acquisitions"] == 0
    cluster.close_storage()


# ----------------------------------------------------------------------
# (iv) the rule holds under faults
# ----------------------------------------------------------------------


def test_chaos_with_restarts_leaves_no_per_instance_state():
    scenario = Scenario(
        name="lifetime",
        plan=FaultPlan(
            crashes=(
                Crash(at=0.2, node=1, restart_at=0.45, mode="durable"),
                Crash(at=0.5, node=3, restart_at=0.75, mode="amnesia"),
            ),
            duplicates=(DuplicateWindow(start=0.1, end=0.8, probability=0.4),),
            delays=(DelayWindow(start=0.15, end=0.7, extra=0.03, jitter=0.03),),
        ),
        cluster=replace(
            CHAOS_CLUSTER, seed=21, m2=replace(_CHAOS_M2, learn_resend_attempts=12)
        ),
        settle=30.0,
    )
    cluster = Cluster(scenario.cluster)
    try:
        result = _run_scenario(scenario, cluster)
    finally:
        cluster.close_storage()
    assert result.ok, result.report.violations
    assert result.duplicated > 0
    for node in cluster.nodes:
        assert per_instance_state(node.protocol) == (0, 0, 0, 0, 0), node.node_id


# ----------------------------------------------------------------------
# (v) one deadline heap and one env timer per node
# ----------------------------------------------------------------------

DEEP = M2PaxosConfig(
    max_batch=32, batch_wait=5e-3, batch_adaptive=True,
    supervise_timeout=1.0, learn_resend_timeout=0.0,
)
"""perfbench's TCP batching.  Learn-resend is off: it arms one timer per
announced round, which is not the timer counted here."""
BURST = 1200


class SimRig:
    def __init__(self, config):
        self.cluster = make_cluster(lambda i, n: M2Paxos(config), n_nodes=3, seed=11)

    async def start(self):
        pass

    def now(self):
        return self.cluster.loop.now

    async def wait(self, seconds):
        self.cluster.run_for(seconds)

    async def stop(self):
        pass


class TcpRig(SimRig):
    def __init__(self, config):
        self.cluster = LocalCluster(3, lambda i, n: M2Paxos(config))

    async def start(self):
        await self.cluster.start()

    def now(self):
        return asyncio.get_running_loop().time()

    async def wait(self, seconds):
        await asyncio.sleep(seconds)

    async def stop(self):
        await self.cluster.stop()


@pytest.mark.parametrize("rig_type", [SimRig, TcpRig], ids=["sim", "tcp"])
def test_a_deep_pipeline_is_supervised_by_one_timer_and_drains(rig_type):
    async def main():
        rig = rig_type(DEEP)
        await rig.start()
        try:
            node = rig.cluster.nodes[0]
            protocol = node.protocol
            start = rig.now()
            for seq in range(BURST):
                node.propose(Command.make(0, seq, [f"d{seq % 2}"]))
            # Live env timers while all BURST proposals are younger than
            # the supervise timeout, i.e. inside the supervision window.
            crowded = []
            while len(node.delivered) < BURST:
                await rig.wait(0.005)
                if rig.now() - start < DEEP.supervise_timeout:
                    crowded.append(len(node._timers))
            assert crowded and max(crowded) <= 8, crowded
            assert len(supervised(protocol)) == BURST
            last = max(entry[0] for entry in protocol.state.deadlines)
            await rig.wait(last - rig.now() + 0.05)
            assert protocol.state.deadlines == []
            assert protocol.state.deadline_timer is None
        finally:
            await rig.stop()

    asyncio.run(asyncio.wait_for(main(), timeout=60))


def test_a_lost_accept_is_recoordinated_at_its_drawn_deadline():
    # A long gap timeout: gap recovery would otherwise rescue the
    # stranded round before supervision does.
    config = M2PaxosConfig(gap_timeout=10.0)
    cluster = make_cluster(lambda i, n: M2Paxos(config), n_nodes=3, seed=4)
    protocol = cluster.nodes[0].protocol
    cluster.propose(0, Command.make(0, 0, ["s"]))
    cluster.run_for(0.5)  # node 0 acquires s and decides its first command
    coordinated = []
    coordinate = protocol._coordinate

    def recording(command, hops):
        coordinated.append((cluster.loop.now, command.cid))
        coordinate(command, hops)

    send = cluster.network.send

    def lossy(src, dst, message, size):
        # The first round's Accepts never reach the other two nodes.
        if len(coordinated) < 2 and dst != src and isinstance(message, Accept):
            return
        send(src, dst, message, size)

    protocol._coordinate = recording
    cluster.network.send = lossy
    lost = Command.make(0, 1, ["s"])
    cluster.propose(0, lost)
    cluster.run_for(0.01)
    [(deadline, _cid, _command)] = [
        entry for entry in supervised(protocol) if entry[1] == lost.cid
    ]
    cluster.run_until(deadline - 0.001)
    assert len(coordinated) == 1 and lost not in cluster.delivered(0)
    cluster.run_until(deadline)
    assert coordinated[1] == (deadline, lost.cid)  # exactly, not nearly
    cluster.run_for(0.5)
    assert all(lost in cluster.delivered(n) for n in range(3))


def test_an_unanswered_prepare_round_expires_at_its_drawn_deadline():
    # A long gap timeout: gap recovery would start rounds of its own.
    config = M2PaxosConfig(gap_timeout=10.0)
    cluster = make_cluster(lambda i, n: M2Paxos(config), n_nodes=3, seed=4)
    protocol = cluster.nodes[0].protocol
    coordinated = []
    coordinate = protocol._coordinate

    def recording(command, hops):
        coordinated.append((cluster.loop.now, command.cid))
        coordinate(command, hops)

    send = cluster.network.send
    lossy = True

    def drop_acks(src, dst, message, size):
        # Node 0 hears no reply to its Prepares while ``lossy``.
        if lossy and dst == 0 and isinstance(message, AckPrepare):
            return
        send(src, dst, message, size)

    protocol._coordinate = recording
    cluster.network.send = drop_acks
    first, queued = Command.make(0, 0, ["s"]), Command.make(0, 1, ["s"])
    cluster.propose(0, first)
    cluster.propose(0, queued)  # waits behind the acquisition of s
    cluster.run_for(0.01)
    [(deadline, _kind, req, _none)] = [
        entry for entry in protocol.state.deadlines if entry[1] == _ROUND
    ]
    assert list(protocol.state.pending_prepares) == [req]
    cluster.run_until(deadline - 0.001)
    assert req in protocol.state.pending_prepares
    assert protocol.state.acquiring == {"s"} and protocol.state.deferred == [queued]
    cluster.run_until(deadline)
    assert req not in protocol.state.pending_prepares
    # ``acquiring`` was released at the deadline, exactly: the queued
    # command was coordinated then and not deferred again.
    assert coordinated[-1] == (deadline, queued.cid)
    assert protocol.state.deferred == []
    lossy = False
    cluster.run_for(3.0)
    assert all({first, queued} <= set(cluster.delivered(n)) for n in range(3))
    assert protocol.state.pending_prepares == {}


@pytest.mark.parametrize("rounds", [20, 80])
def test_announced_rounds_wait_on_the_heap_not_on_env_timers(rounds):
    """Each node coordinates ``rounds`` fast-path commands on an object
    it homes.  Every announced round's learn-resend deadline lies past
    the drain, yet a node ends holding the same two env timers (its
    deadline timer and its gap checker) whatever ``rounds`` is."""
    config = M2PaxosConfig(learn_resend_timeout=60.0, home_hint=lambda l: int(l[-1]))
    cluster = make_cluster(lambda i, n: M2Paxos(config), n_nodes=3, seed=7)
    for seq in range(rounds):
        for node in range(3):
            cluster.propose(node, Command.make(node, seq, [f"own{node}"]))
        cluster.run_for(0.001)
    cluster.run_for(5.0)  # the drain; past every supervision deadline
    for node in cluster.nodes:
        state = node.protocol.state
        assert len(node.delivered) == 3 * rounds
        assert node.protocol.stats["fast_path"] == rounds
        assert len(node._timers) == 2
        assert [kind for _when, kind, _req, _attempt in state.deadlines] == [_LEARN] * rounds
        assert state.pending_accepts == {}  # the last acks retired them


def test_an_unheard_node_is_chased_at_the_drawn_deadline():
    # A long gap timeout: gap recovery must not be what heals node 2.
    config = M2PaxosConfig(gap_timeout=10.0, home_hint=lambda l: 0)
    cluster = make_cluster(lambda i, n: M2Paxos(config), n_nodes=3, seed=4)
    protocol = cluster.nodes[0].protocol
    sent = []
    send = cluster.network.send
    lossy = True

    def drop_acks(src, dst, message, size):
        # Node 0 hears no AckAccept from node 2 while ``lossy``.
        if lossy and src == 2 and isinstance(message, AckAccept):
            return
        if src == 0 and dst != 0:
            sent.append((cluster.loop.now, dst, type(message)))
        send(src, dst, message, size)

    cluster.network.send = drop_acks
    command = Command.make(0, 0, ["s"])
    cluster.propose(0, command)
    cluster.run_for(0.01)
    assert all(command in cluster.delivered(n) for n in range(3))
    [(deadline, _kind, req, attempt)] = [
        entry for entry in protocol.state.deadlines if entry[1] == _LEARN
    ]
    assert attempt == 1 and protocol.state.pending_accepts[req].acked == {0, 1}
    sent.clear()
    cluster.run_until(deadline - 0.001)
    assert sent == [] and req in protocol.state.pending_accepts
    cluster.run_until(deadline)
    # Exactly at the deadline, to the unheard node only, and re-armed.
    assert sent == [(deadline, 2, Accept), (deadline, 2, Decide)]
    [(later, _kind, again, attempt)] = [
        entry for entry in protocol.state.deadlines if entry[1] == _LEARN
    ]
    assert (again, attempt) == (req, 2) and later > deadline
    lossy = False
    sent.clear()
    cluster.run_until((deadline + later) / 2)
    assert req not in protocol.state.pending_accepts  # node 2's ack landed
    cluster.run_until(later + 0.001)
    assert sent == []  # the attempt-2 deadline found the round retired
    assert [entry for entry in protocol.state.deadlines if entry[1] == _LEARN] == []


def test_a_store_recovered_node_supervises_nothing_from_the_old_life():
    cluster = make_cluster(
        lambda i, n: M2Paxos(), n_nodes=3, seed=6, storage=StorageConfig(kind="mem")
    )
    node = cluster.nodes[1]
    old = node.protocol
    cluster.propose(1, Command.make(1, 0, ["u"]))
    cluster.run_for(0.2)
    assert len(supervised(old)) == 1 and old.state.deadline_timer is not None
    cluster.crash(1)
    cluster.restart(1, mode="durable")
    protocol = node.protocol
    assert protocol is not old and [c.cid for c in node.delivered] == [(1, 0)]
    assert protocol.state.deadlines == [] and protocol.state.deadline_timer is None
    # The new life supervises its own proposals from a clean heap.
    cluster.propose(1, Command.make(1, 1, ["u"]))
    cluster.run_for(0.2)
    assert [cid for _when, cid, _c in supervised(protocol)] == [(1, 1)]
    assert protocol.state.deadline_timer is not None
    cluster.run_for(2.5)
    assert protocol.state.deadlines == [] and protocol.state.deadline_timer is None


# ----------------------------------------------------------------------
# (vi) every field a node holds is declared durable, volatile or derived
# ----------------------------------------------------------------------

WIRING = {"env", "config", "policy", "quorums", "state", "delivery", "stats"}
"""What an M2Paxos object holds besides its state: what it was built
and bound with, and the diagnostic counters."""
BUSY = replace(_CHAOS_M2, lease_duration=0.05, max_batch=4, batch_wait=0.002)
"""Leases, batching and chaos-style timeouts."""


def field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def test_every_state_field_declares_its_kind():
    for cls in (NodeState, ObjectState, InstanceState):
        undeclared = {f.name for f in fields(cls) if f.metadata.get("kind") not in KINDS}
        # Configuration the node was built with, like ``config``.
        assert undeclared <= {"home_hint"}, (cls.__name__, undeclared)


def test_every_node_attribute_is_declared_state_or_wiring():
    """A busy run -- a durable store with snapshots and a crash, leases
    with served reads, batching, contended objects -- leaves
    no attribute on a node outside the declarations.  The per-object
    and per-instance records are slotted, so they cannot hold one."""
    storage = StorageConfig(kind="mem", snapshot_every=30)
    cluster = make_cluster(lambda node_id, n: M2Paxos(BUSY), n_nodes=3, seed=9, storage=storage)
    for seq in range(40):
        for node in range(3):
            objs = ["shared"] if seq % 3 == 0 else [f"own{node}", "shared"][: 1 + seq % 2]
            cluster.propose(
                node,
                Command.make(node, seq, objs, is_read=seq % 6 == 4),
            )
        cluster.run_for(0.01)
    cluster.crash(2)
    assert cluster.nodes[2].env.storage.recover().snapshot is not None
    cluster.run_for(0.1)
    cluster.restart(2, "durable")
    cluster.run_for(2.0)
    cluster.check_consistency()
    assert cluster.nodes[2].incarnation == 1
    assert sum(node.protocol.stats["read_local"] for node in cluster.nodes) > 0
    for node in cluster.nodes:
        protocol = node.protocol
        assert set(vars(protocol)) == WIRING
        assert set(vars(protocol.state)) == field_names(NodeState)
        assert protocol.state.objects
        for records, cls in (
            (protocol.state.objects, ObjectState),
            (protocol.state.instances, InstanceState),
        ):
            for record in records.values():
                assert type(record) is cls and not hasattr(record, "__dict__")
    for cls in (ObjectState, InstanceState):
        assert set(cls.__slots__) == field_names(cls)
        with pytest.raises(AttributeError):
            cls().undeclared = 0


def initial(f):
    """The value a fresh record holds in field ``f``."""
    return f.default if f.default_factory is MISSING else f.default_factory()


ON_START = {"gap_candidates", "serve_floor", "lease_blackout_until"}
"""Volatile node fields every incarnation's ``on_start`` sets: the
frontiers to re-check and, with leases on, the serve floors and the
lease blackout."""


def test_a_store_recovered_node_holds_no_volatile_value_from_its_old_life():
    """A durable restart boots a fresh protocol and replays the store
    into it.  Every field declared volatile in the old life -- of the
    node, of each object and of each instance -- is marked at the
    crash; the new life holds none of the marks, and each of its
    volatile fields is at its initial value but those named above."""
    cluster = make_cluster(
        lambda node_id, n: M2Paxos(BUSY), n_nodes=3, seed=9, storage=StorageConfig(kind="mem")
    )
    cluster.run_for(0.1)  # past the startup lease blackout
    for seq in range(20):
        for node in range(3):
            objs = ["shared", f"own{node}"][: 1 + seq % 2]
            cluster.propose(node, Command.make(node, seq, objs))
        cluster.run_for(0.002)
    cluster.crash(1)
    old = cluster.nodes[1].protocol.state
    assert old.instances, "the crash should land mid-round"
    marker = object()
    for record in [old, *old.objects.values(), *old.instances.values()]:
        for f in declared(type(record), VOLATILE):
            setattr(record, f.name, marker)
    cluster.restart(1, "durable")
    state = cluster.nodes[1].protocol.state
    assert state is not old and state.objects and state.instances
    for record in [state, *state.objects.values(), *state.instances.values()]:
        for f in declared(type(record), VOLATILE):
            value, where = getattr(record, f.name), (type(record).__name__, f.name)
            assert value is not marker, where
            if f.name not in ON_START:
                assert value == initial(f), where
    assert state.gap_candidates == set(state.objects)
    assert state.lease_blackout_until > cluster.loop.now
    cluster.run_for(3.0)
    cluster.check_consistency()
    # The crash may lose node 1's own unaccepted proposals, nothing else.
    others = {(node, seq) for node in (0, 2) for seq in range(20)}
    assert others <= {c.cid for c in cluster.delivered(1)}
