"""The hosting contract, once, over both substrates.

``repro.consensus.host.Host`` is what ``SimNode`` and ``RuntimeNode``
share: the application log, the event scope with its ``StorageFull``
fail-stop, the crash prologue and the two kinds of restart.  Every
scenario here is written once and run against a 3-node simulated
cluster and a 3-node TCP ``LocalCluster``; what it asserts is the same
on both, because it is the same code on both.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import pytest

from repro.consensus.base import EnvObserver, StorageFull
from repro.consensus.commands import Command
from repro.consensus.host import Host
from repro.consensus.multipaxos import MultiPaxos
from repro.core.protocol import M2Paxos
from repro.core.switcher import AdaptiveSwitcher
from repro.runtime.cluster import LocalCluster
from repro.sim.cluster import Cluster
from repro.spec import ClusterSpec
from repro.storage.base import StorageConfig

N = 3
VICTIM = 1
MEM = StorageConfig(kind="mem")


def factory(node_id: int, n: int) -> M2Paxos:
    return M2Paxos()


class Notes(EnvObserver):
    """Fault/recovery notes and accepted proposals, per node."""

    note_kinds = frozenset({"fault", "recovery"})
    wants_handler_timing = False

    def __init__(self) -> None:
        self.notes: list[tuple[int, str, dict]] = []
        self.proposals: list[tuple[int, tuple[int, int]]] = []

    def on_note(self, node_id: int, kind: str, fields: dict) -> None:
        self.notes.append((node_id, kind, dict(fields)))

    def on_propose(self, node_id: int, command: Command) -> None:
        self.proposals.append((node_id, command.cid))

    def faults(self, node_id: int) -> list[dict]:
        return [f for n, kind, f in self.notes if n == node_id and kind == "fault"]


class SimRig:
    """A simulated cluster behind the awaitable surface of a live one."""

    def __init__(self, storage) -> None:
        self.cluster = Cluster(ClusterSpec(n_nodes=N, seed=3, storage=storage), factory)

    async def start(self) -> None:
        self.cluster.start()

    async def wait(self, seconds: float) -> None:
        self.cluster.run_for(seconds)

    async def crash(self, node_id: int) -> None:
        self.cluster.crash(node_id)

    async def restart(self, node_id: int, mode: str) -> None:
        self.cluster.restart(node_id, mode)

    async def restart_node(self, node_id: int, protocol, mode: str) -> None:
        self.cluster.nodes[node_id].restart(protocol, mode)

    async def stop(self) -> None:
        self.cluster.close_storage()


class TcpRig:
    def __init__(self, storage) -> None:
        self.cluster = LocalCluster(N, factory, storage=storage)

    async def start(self) -> None:
        await self.cluster.start()

    async def wait(self, seconds: float) -> None:
        await asyncio.sleep(seconds)

    async def crash(self, node_id: int) -> None:
        await self.cluster.crash(node_id)

    async def restart(self, node_id: int, mode: str) -> None:
        await self.cluster.restart(node_id, mode)

    async def restart_node(self, node_id: int, protocol, mode: str) -> None:
        await self.cluster.nodes[node_id].restart(protocol, mode)

    async def stop(self) -> None:
        await self.cluster.stop()


RIGS = {"sim": SimRig, "tcp": TcpRig}


@pytest.fixture(params=sorted(RIGS))
def substrate(request):
    return RIGS[request.param]


def run(rig_type, scenario, storage=None):
    """Run ``scenario(rig, nodes, notes)`` on a started cluster."""

    async def main():
        rig = rig_type(storage)
        notes = Notes()
        for node in rig.cluster.nodes:
            assert isinstance(node, Host)
            node.env.add_observer(notes)
        await rig.start()
        try:
            return await scenario(rig, rig.cluster.nodes, notes)
        finally:
            await rig.stop()

    return asyncio.run(asyncio.wait_for(main(), timeout=60))


async def decide(rig, nodes, seqs, at=(0, 1, 2)) -> None:
    """Propose ``seqs`` at node 0 and wait for delivery at nodes ``at``."""
    before = {i: len(nodes[i].delivered) for i in at}
    for seq in seqs:
        nodes[0].propose(Command.make(0, seq, ["k"]))
    for _ in range(400):
        if all(len(nodes[i].delivered) == before[i] + len(seqs) for i in at):
            return
        await rig.wait(0.01)
    raise AssertionError(f"{seqs} not delivered at {at}")


# ----------------------------------------------------------------------
# Crash: a dead host does nothing
# ----------------------------------------------------------------------


def test_a_crashed_host_runs_nothing_and_says_so_once(substrate):
    async def scenario(rig, nodes, notes):
        node = nodes[VICTIM]
        await decide(rig, nodes, [0])
        fired, ran, heard = [], [], []
        node.env.set_timer(0.05, lambda: fired.append("armed before the crash"))
        node.deliver_listeners.append(lambda *args: heard.append(args))
        node.read_listeners.append(lambda *args: heard.append(args))
        assert node._timers  # that one, and M2Paxos's own periodic timers

        await rig.crash(VICTIM)
        await rig.crash(VICTIM)  # idempotent: still one note
        assert node.crashed and not node._timers
        assert notes.faults(VICTIM) == [{"event": "crash", "incarnation": 0}]

        node.env.set_timer(0.01, lambda: fired.append("armed while down"))
        inert = node.env.set_timer_at(node.env.now(), lambda: fired.append("at, while down"))
        inert.cancel()  # a no-op, like the handle itself
        assert not node._timers
        node.run_event(ran.append, "event")
        node.propose(Command.make(VICTIM, 0, ["k"]))
        node.on_deliver(Command.make(0, 99, ["k"]))
        node.on_read(Command.make(0, 98, ["k"]), {})
        # The survivors still decide; nothing of it reaches the dead node.
        await decide(rig, nodes, [1, 2], at=(0, 2))
        await rig.wait(0.1)
        assert fired == [] and ran == [] and heard == []
        assert [cid for n, cid in notes.proposals if n == VICTIM] == []
        assert [c.cid for c in node.delivered] == [(0, 0)] and node.read_log == []
        assert len(notes.faults(VICTIM)) == 1

    run(substrate, scenario)


# ----------------------------------------------------------------------
# Timers: ``set_timer_at`` is each substrate's one primitive
# ----------------------------------------------------------------------


def test_a_sim_timer_fires_at_exactly_its_deadline():
    cluster = Cluster(ClusterSpec(n_nodes=N, seed=3), factory)
    env = cluster.nodes[0].env
    when = 0.1 + 0.7 * 0.123456789
    fired = []
    env.set_timer_at(when, lambda: fired.append(env.now()))
    cluster.run_until(0.5)
    env.set_timer(0.3, lambda: fired.append(env.now()))
    cluster.run_until(1.0)
    assert fired == [when, 0.5 + 0.3]  # ``==``: the float itself


def test_a_runtime_timer_is_one_call_at_and_frees_its_callback_when_it_fires():
    async def main():
        node = LocalCluster(1, factory).nodes[0]
        loop = asyncio.get_running_loop()
        when = loop.time() + 0.01
        fired = []

        def callback():
            fired.append(loop.time())

        ref = weakref.ref(callback)
        timer = node.env.set_timer_at(when, callback)
        del callback
        assert isinstance(timer._handle, asyncio.TimerHandle)
        assert timer._handle.when() == when and node._timers == {timer}
        while not fired:
            await asyncio.sleep(0.005)
        # Nothing but the cyclic GC could free a timer -> handle -> fire
        # -> timer cycle; with it off, the callback must already be gone.
        assert fired[0] >= when and not node._timers
        assert ref() is None

    gc.disable()
    try:
        asyncio.run(asyncio.wait_for(main(), timeout=10))
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Restart: two kinds, one outcome per kind on both substrates
# ----------------------------------------------------------------------

RESTARTS = {
    # name: (cluster-level mode, deliveries rebuilt, recovery notes)
    "amnesia": ("amnesia", 0, 0),
    "recover-from-store": ("durable", 3, 1),
}


@pytest.mark.parametrize("kind", sorted(RESTARTS))
def test_restart_kinds_leave_the_same_host_state(substrate, kind):
    mode, rebuilt, replays = RESTARTS[kind]

    async def scenario(rig, nodes, notes):
        node = nodes[VICTIM]
        await decide(rig, nodes, [0, 1, 2])
        before = list(node.delivered)
        records = len(node.env.storage.recover().records)
        await rig.crash(VICTIM)
        await rig.restart(VICTIM, mode)
        assert not node.crashed
        assert (node.incarnation, node.delivery_history) == (1, [before])
        assert notes.faults(VICTIM)[1:] == [
            {"event": "restart", "mode": mode, "incarnation": 1}
        ]
        # Right after the restart the log is what survived: everything
        # (the recovery scan's byte-identical replay) or nothing
        # (amnesia, whose store is wiped).
        assert node.delivered == before[:rebuilt]
        assert len(node.env.storage.recover().records) == (records if rebuilt else 0)
        recovered = [f for n, k, f in notes.notes if n == VICTIM and k == "recovery"]
        assert [f["delivered"] for f in recovered] == [3] * replays
        # The new incarnation is live: it takes part in the next decision.
        await decide(rig, nodes, [3], at=(0, 2))
        for _ in range(400):
            if (0, 3) in [c.cid for c in node.delivered]:
                break
            await rig.wait(0.01)
        else:
            raise AssertionError("restarted node never delivered again")

    run(substrate, scenario, storage=MEM)


def test_restart_refuses_a_live_node_and_recovery_without_a_store(substrate):
    async def scenario(rig, nodes, notes):
        node = nodes[VICTIM]
        with pytest.raises(RuntimeError, match="not crashed"):
            await rig.restart_node(VICTIM, factory(VICTIM, N), "amnesia")
        await rig.crash(VICTIM)
        with pytest.raises(RuntimeError, match="no durable storage"):
            await rig.restart_node(VICTIM, factory(VICTIM, N), "durable")
        with pytest.raises(ValueError, match="unknown restart mode"):
            await rig.restart_node(VICTIM, factory(VICTIM, N), "warm")
        # A refused restart changes nothing.
        assert node.crashed and node.incarnation == 0 and len(notes.faults(VICTIM)) == 1

    async def live_store(rig, nodes, notes):
        node = nodes[VICTIM]
        await decide(rig, nodes, [0, 1, 2])
        records = len(node.env.storage.recover().records)
        assert records
        for mode in ("durable", "amnesia"):
            with pytest.raises(RuntimeError, match="not crashed"):
                await rig.restart(VICTIM, mode)
        # Refused, so the store is untouched: a later crash and durable
        # restart still finds every record.
        assert len(node.env.storage.recover().records) == records
        assert node.incarnation == 0 and notes.faults(VICTIM) == []

    run(substrate, scenario)
    run(substrate, live_store, storage=MEM)


@pytest.mark.parametrize(
    "protocol_factory",
    [lambda i, n: MultiPaxos(), lambda i, n: AdaptiveSwitcher()],
    ids=["multipaxos", "switcher"],
)
def test_a_durable_restart_of_a_protocol_that_cannot_recover_is_refused(protocol_factory):
    """Only M2Paxos replays a store.  For any other protocol an empty
    replay would quietly turn a durable restart into amnesia."""
    cluster = Cluster(ClusterSpec(n_nodes=N, seed=3, storage=MEM), protocol_factory)
    node = cluster.nodes[VICTIM]
    cluster.start()
    cluster.propose(0, Command.make(0, 0, ["k"]))
    cluster.run_for(0.5)
    cluster.crash(VICTIM)
    records = len(node.env.storage.recover().records)
    with pytest.raises(NotImplementedError, match="does not support storage recovery"):
        cluster.restart(VICTIM, "durable")
    assert node.crashed and node.incarnation == 0 and node.delivery_history == []
    assert len(node.env.storage.recover().records) == records
    cluster.restart(VICTIM, "amnesia")  # the restart these protocols have
    assert not node.crashed and node.incarnation == 1


# ----------------------------------------------------------------------
# StorageFull: fail-stop, and no unpersisted ack escapes
# ----------------------------------------------------------------------


def _full_in_the_handler(storage) -> None:
    storage.capacity = 0  # the modelled cap: the next append raises


def _full_at_the_commit(storage) -> None:
    def persist(frames):
        raise StorageFull("log write failed: no space left on device")

    storage._persist = persist


@pytest.mark.parametrize(
    "fill", [_full_in_the_handler, _full_at_the_commit], ids=["handler", "commit"]
)
def test_storage_full_discards_the_outbox_and_crashes_the_node(substrate, fill):
    async def scenario(rig, nodes, notes):
        node = nodes[VICTIM]
        await decide(rig, nodes, [0])
        flushes = []
        node.env.add_flush_hook(lambda node_id, queued, batches: flushes.append(queued))
        fill(node.env.storage)
        # Node 0's next Accept reaches the victim, whose handler votes
        # (an append) and queues its AckAccept; the event cannot be made
        # durable, so the ack must never leave.  The other two are a
        # quorum and decide without it.
        await decide(rig, nodes, [1], at=(0, 2))
        for _ in range(400):
            if node.crashed:
                break
            await rig.wait(0.01)
        assert node.crashed
        assert flushes == [] and not node.env._outbox
        assert not node.env.storage.dirty
        assert notes.faults(VICTIM) == [{"event": "crash", "incarnation": 0}]
        assert [c.cid for c in node.delivered] == [(0, 0)]

    run(substrate, scenario, storage=MEM)
