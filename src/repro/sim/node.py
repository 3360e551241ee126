"""Simulated node: hosts a protocol, charges CPU time, keeps timers.

The node is the glue between the sans-I/O protocol object and the
simulation substrate.  Every inbound event (message, propose, timer)
passes through the node's :class:`repro.sim.cpu.CpuModel`, so protocol
handlers *complete* only after their simulated CPU cost has been paid --
this is what creates the saturation behaviour the paper's throughput
figures measure.

Crash--restart is real here, not a message filter: :meth:`SimNode.crash`
cancels every live timer, quarantines the node (no sends, receives,
proposals, timer firings, or deliveries), and bumps an incarnation
counter so in-flight events charged to the old life can never execute
in the new one.  :meth:`SimNode.restart` rejoins the cluster either
*durably* (the protocol object -- acceptor promises, accepted values,
decided log -- survives as if reloaded from disk, with volatile round
state cleared via :meth:`Protocol.on_restart`) or with *amnesia* (a
fresh protocol instance; the previous delivery log is archived to
``delivery_history`` because the application state machine restarts
from scratch too).
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.consensus.base import (
    Env,
    Message,
    Protocol,
    Storage,
    StorageFull,
    TimerHandle,
)
from repro.consensus.commands import Command
from repro.sim.cpu import CpuConfig, CpuModel
from repro.sim.event_loop import Event, EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.storage.recovery import recover_protocol


class _SimTimer(TimerHandle):
    __slots__ = ("_event", "_registry")

    def __init__(self, event: Event, registry: set[Event]) -> None:
        self._event = event
        self._registry = registry

    def cancel(self) -> None:
        self._event.cancel()
        self._registry.discard(self._event)


class _DeadTimer(TimerHandle):
    """Returned for timers set while crashed: never fires, cancel no-ops."""

    __slots__ = ()

    def cancel(self) -> None:
        pass


class SimEnv(Env):
    """The :class:`Env` implementation backed by the simulator."""

    def __init__(self, node: "SimNode") -> None:
        self._node = node
        self.node_id = node.node_id
        self.n_nodes = node.network.n_nodes

    def _transmit(self, dst: int, message: Message) -> None:
        # Out-of-event send (tests poking a protocol directly): one
        # message, one syscall's worth of CPU.
        node = self._node
        if node.crashed:
            return
        self._charge_send(n_messages=1, n_batches=1)
        size = node.network.size_of(message)
        node.network.send(self.node_id, dst, message, size)
        self.observe("wire_bytes", bytes=size)

    def _flush(
        self,
        queued: list[tuple[int, Message]],
        batches: dict[int, list[Message]],
    ) -> None:
        # Sending costs CPU (serialisation + syscall); with batching on,
        # one event's sends to the same destination share a single
        # syscall, so the cost is charged once per *batch*.  The cost
        # occupies the sender's cores but does not delay the messages
        # (the NIC drains asynchronously).
        node = self._node
        if node.crashed:
            return
        self._charge_send(n_messages=len(queued), n_batches=len(batches))
        # Transmit in issue order, not batch order: per-send latency
        # draws and event-heap insertion stay identical to unbatched
        # runs, keeping decision logs reproducible.
        network = node.network
        total = 0
        for dst, message in queued:
            size = network.size_of(message)
            network.send(self.node_id, dst, message, size)
            total += size
        # The sizes were just priced for the network model anyway; hand
        # them to telemetry for free rather than re-estimating there.
        self.observe("wire_bytes", bytes=total)

    def _charge_send(self, n_messages: int, n_batches: int) -> None:
        node = self._node
        costs = node.protocol.costs
        if node.network.config.batching:
            cost = costs.batched_send_cost * n_batches
        else:
            cost = costs.send_cost * n_messages
        if cost > 0:
            node.cpu.submit(node.loop.now, cost, 0.0)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        node = self._node
        if node.crashed:
            # A crashed machine arms nothing; the handle is inert.
            return _DeadTimer()
        incarnation = node.incarnation

        def fire() -> None:
            node._timers.discard(event)
            if not node.crashed and node.incarnation == incarnation:
                node.run_event(callback)

        event = node.loop.schedule(delay, fire)
        node._timers.add(event)
        return _SimTimer(event, node._timers)

    def now(self) -> float:
        return self._node.loop.now

    def _deliver(self, command: Command) -> None:
        self._node.on_deliver(command)

    def _deliver_read(self, command: Command, result: object) -> None:
        self._node.on_read(command, result)

    @property
    def rng(self) -> random.Random:
        return self._node.rng


class SimNode:
    """One simulated machine running one protocol instance."""

    def __init__(
        self,
        node_id: int,
        loop: EventLoop,
        network: Network,
        protocol: Protocol,
        rng: RngRegistry,
        cpu_config: Optional[CpuConfig] = None,
        storage: Optional[Storage] = None,
    ) -> None:
        self.node_id = node_id
        self.loop = loop
        self.network = network
        self.protocol = protocol
        self.rng = rng.stream(f"node-{node_id}")
        self.cpu = CpuModel(cpu_config or CpuConfig())
        self.crashed = False
        self.incarnation = 0
        self.delivered: list[Command] = []
        # One entry per finished amnesia incarnation: the delivery log
        # the application had built before that crash wiped it.
        self.delivery_history: list[list[Command]] = []
        self.deliver_listeners: list[Callable[[int, Command, float], None]] = []
        # Serving tier: locally-answered reads / cached session replies.
        # Kept apart from ``delivered`` on purpose -- served reads happen
        # at the owner alone and must never enter the replicated
        # decision log the consistency checker byte-compares.
        self.read_log: list[tuple[Command, object]] = []
        self.read_listeners: list[
            Callable[[int, Command, object, float], None]
        ] = []
        self._timers: set[Event] = set()

        self.env = SimEnv(self)
        if storage is not None:
            # The storage object *is* the node's disk: it stays on the
            # env across crash/restart, and its group-commit timer runs
            # on the node's virtual clock (cancelled by a crash, exactly
            # like an in-flight fsync dies with the process).
            self.env.storage = storage
            storage.attach(self.env, lambda: self.protocol.snapshot_payload())
        protocol.bind(self.env)
        network.register(node_id, self._on_network_message)

    def start(self) -> None:
        """Run the protocol's startup hook (leader election etc.)."""
        self.run_event(self.protocol.on_start)

    # ------------------------------------------------------------------
    # Inbound events -- all charged to the CPU model.
    # ------------------------------------------------------------------

    def run_event(self, fn: Callable[..., None], *args) -> None:
        """Run one protocol event, ``fn(*args)``, inside the env's
        outbox scope, so its sends flush as batches when the event
        completes.  Exceptions (e.g. SafetyViolation) still propagate;
        the depth counter is restored either way.

        :class:`StorageFull` -- from a modelled capacity cap during the
        handler, or from a real write failure during the end-of-event
        commit -- is fail-stop: the event's outbox is discarded (a node
        that could not persist must not acknowledge) and the node
        crashes."""
        self.env.begin_event()
        storage_failed = False
        try:
            try:
                fn(*args)
            except StorageFull:
                storage_failed = True
        finally:
            try:
                self.env.end_event(discard=storage_failed)
            except StorageFull:
                storage_failed = True
                self.env.storage.discard_pending()
        if storage_failed:
            self.crash()

    def _charge_and_run(
        self, message: Optional[Message], fn: Callable[..., None], *args
    ) -> None:
        """Charge one event's CPU cost and run ``fn(*args)`` as a
        protocol event when the CPU model says it completes."""
        cost, serial = self.protocol.processing_cost(message)
        now = self.loop.now
        done = self.cpu.submit(now, cost, serial)
        if done <= now:
            self._run_charged(self.incarnation, fn, args)
        else:
            self.loop.post_at(done, self._run_charged, self.incarnation, fn, args)

    def _run_charged(self, incarnation: int, fn: Callable[..., None], args: tuple) -> None:
        # The CPU-completion callback may be reached after a crash (and
        # even after a restart): work charged to a dead incarnation
        # must never execute.
        if not self.crashed and self.incarnation == incarnation:
            self.run_event(fn, *args)

    def _on_network_message(self, sender: int, message: object, size: int) -> None:
        if self.crashed:
            return
        assert isinstance(message, Message)
        occupancy, occupancy_serial = self.protocol.occupancy_cost(message)
        if occupancy > 0:
            self.cpu.submit(self.loop.now, occupancy, occupancy_serial)
        self._charge_and_run(message, self._handle_message, sender, message)

    def _handle_message(self, sender: int, message: Message) -> None:
        if not self.crashed:
            self.protocol.on_message(sender, message)

    def propose(self, command: Command) -> None:
        """Client-side C-PROPOSE entry point.

        The per-command client-handling cost is charged as occupancy
        (it loads the cores, creating the throughput ceiling, without
        sitting on the latency-critical path); the protocol handler
        itself is charged like a message.
        """
        if self.crashed:
            return
        self.env.observe_propose(command)
        costs = self.protocol.costs
        if costs.propose_cost > 0:
            self.cpu.submit(
                self.loop.now, costs.propose_cost, costs.propose_serial_fraction
            )
        self._charge_and_run(None, self._handle_propose, command)

    def _handle_propose(self, command: Command) -> None:
        if not self.crashed:
            self.protocol.propose(command)

    # ------------------------------------------------------------------
    # Delivery and failure injection
    # ------------------------------------------------------------------

    def on_deliver(self, command: Command) -> None:
        if self.crashed:
            return
        self.delivered.append(command)
        now = self.loop.now
        for listener in self.deliver_listeners:
            listener(self.node_id, command, now)

    def on_read(self, command: Command, result: object) -> None:
        if self.crashed:
            return
        self.read_log.append((command, result))
        now = self.loop.now
        for listener in self.read_listeners:
            listener(self.node_id, command, result, now)

    def crash(self) -> None:
        """Crash this node for real: cancel every live timer, stop all
        sends/receives/proposals/deliveries, and notify observers.  The
        process is dead until :meth:`restart`; nothing it scheduled
        before the crash may run."""
        if self.crashed:
            return
        self.env.observe("fault", event="crash", incarnation=self.incarnation)
        self.crashed = True
        for event in self._timers:
            event.cancel()
        self._timers.clear()
        # Un-fsynced records and queued group-commit releases die with
        # the process; only what the storage flushed survives.
        self.env.storage.discard_pending()
        self.network.crash(self.node_id)
        self.protocol.crash()

    def restart(self, protocol: Optional[Protocol] = None) -> None:
        """Boot a new incarnation of this machine.

        ``protocol=None`` is a *durable-log* restart: the existing
        protocol object's state survives (it is the durable log) and
        :meth:`Protocol.on_restart` clears its volatile round state.
        Passing a fresh ``protocol`` is an *amnesia* restart: all
        acceptor state is lost, the application log is archived, and
        the node rejoins as a blank participant.
        """
        if not self.crashed:
            raise RuntimeError(f"node {self.node_id} is not crashed")
        self.incarnation += 1
        mode = "durable" if protocol is None else "amnesia"
        if protocol is None:
            self.protocol.on_restart()
        else:
            self.delivery_history.append(self.delivered)
            self.delivered = []
            protocol.bind(self.env)
            self.protocol = protocol
        self.crashed = False
        self.network.recover(self.node_id)
        self.env.observe(
            "fault", event="restart", mode=mode, incarnation=self.incarnation
        )
        self.run_event(self.protocol.on_start)

    def restart_from_storage(self, protocol: Protocol) -> None:
        """Boot a new incarnation from the durable store.

        A factory-fresh ``protocol`` is bound and rebuilt by replaying
        the storage's snapshot + log tail through
        :func:`repro.storage.recovery.recover_protocol` -- the same scan
        the asyncio runtime uses.  The pre-crash delivery log is
        archived; replay must rebuild it as a byte-identical prefix of
        the new incarnation's log (the chaos checker asserts this), so
        the node is *not* amnesiac.
        """
        if not self.crashed:
            raise RuntimeError(f"node {self.node_id} is not crashed")
        storage = self.env.storage
        if not storage.durable:
            raise RuntimeError(f"node {self.node_id} has no durable storage")
        self.incarnation += 1
        self.delivery_history.append(self.delivered)
        self.delivered = []
        protocol.bind(self.env)
        self.protocol = protocol
        self.crashed = False
        self.network.recover(self.node_id)
        self.env.observe(
            "fault",
            event="restart",
            mode="durable",
            incarnation=self.incarnation,
            recovered=True,
        )

        def replay() -> None:
            stats = recover_protocol(self.protocol, storage)
            self.env.observe(
                "recovery", delivered=len(self.delivered), **stats
            )

        self.run_event(replay)
        self.run_event(self.protocol.on_start)
