"""The lifetime rule of per-instance consensus state (DESIGN.md, "State
lifetime"): it exists only above each object's append frontier, its
size follows the in-flight window and never the history, and a message
naming a retired instance is answered from the decided value without
re-creating anything.  Deterministic counts throughout, no timing.
"""

import random
from dataclasses import replace

import pytest

from repro.chaos.plan import Crash, DelayWindow, DuplicateWindow, FaultPlan
from repro.chaos.runner import _CHAOS_M2, Scenario, _run_scenario
from repro.consensus.commands import Command
from repro.core.m2.config import _DECIDED_EPOCH
from repro.core.messages import Accept, AckAccept, AckPrepare, Decide, Prepare
from repro.core.protocol import M2Paxos, M2PaxosConfig
from repro.sim.cluster import Cluster
from repro.spec import ClusterSpec
from repro.storage.base import StorageConfig

from tests.conftest import make_cluster


def per_instance_state(protocol) -> tuple[int, int, int, int]:
    """Sizes of the four structures the lifetime rule bounds."""
    state = protocol.state
    return (
        len(state.instances),
        sum(len(positions) for positions in state.active_positions.values()),
        len(state.acks),
        len(protocol._pending_accepts),
    )


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


def drive(rounds: int) -> tuple[Cluster, int]:
    """``rounds`` x 3 commands over five objects every node fights for,
    closed loop at WINDOW in flight; returns the drained cluster and
    the largest any structure grew on any node."""
    cluster = make_cluster(lambda node_id, n: M2Paxos(LEARN), n_nodes=3, seed=7)
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
        assert per_instance_state(node.protocol) == (0, 0, 0, 0)
        # What laggards and amnesiacs learn from is all still there.
        decided = sum(len(o.decided) for o in node.protocol.state.objects.values())
        assert decided >= rounds * 3
        assert len(node.protocol.delivery.cstruct) == rounds * 3


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
        assert per_instance_state(self.acceptor) == (0, 0, 0, 0)
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
    assert per_instance_state(coordinator) == (0, 0, 0, 0)
    sent = []
    coordinator.env._transmit = lambda dst, msg: sent.append((dst, msg))
    late = AckAccept(req=coordinator._req_counter, coordinator=0, ok=True,
                     cids={("x", 2): r.m.cid, ("y", 1): r.m.cid},
                     eps={("x", 2): r.epoch, ("y", 1): r.epoch})
    coordinator.on_message(2, late)
    assert sent == []
    assert per_instance_state(coordinator) == (0, 0, 0, 0)


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
        seed=21,
        settle=30.0,
        storage=StorageConfig(kind="mem"),
    )
    spec = ClusterSpec(
        protocol="m2paxos", n_nodes=scenario.n_nodes, seed=scenario.seed,
        m2=replace(_CHAOS_M2, learn_resend_attempts=12),
        storage=scenario.storage,
    )
    cluster = Cluster(spec)
    try:
        result = _run_scenario(scenario, cluster)
    finally:
        cluster.close_storage()
    assert result.ok, result.report.violations
    assert result.duplicated > 0
    for node in cluster.nodes:
        assert per_instance_state(node.protocol) == (0, 0, 0, 0), node.node_id
