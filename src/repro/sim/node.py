"""Simulated node: hosts a protocol, charges CPU time, keeps timers.

The node is the glue between the sans-I/O protocol object and the
simulation substrate.  Every inbound event (message, propose, timer)
passes through the node's :class:`repro.sim.cpu.CpuModel`, so protocol
handlers *complete* only after their simulated CPU cost has been paid --
this is what creates the saturation behaviour the paper's throughput
figures measure.

What a node *is* -- application log, listeners, event scope, crash and
restart -- lives in :class:`repro.consensus.host.Host`.  This module adds
what only the simulator has: the CPU model (with an incarnation guard,
so work charged to a dead life never executes in the next one) and the
simulated network.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.consensus.base import Env, Message, Protocol, Storage, TimerHandle
from repro.consensus.commands import Command
from repro.consensus.host import Host
from repro.sim.cpu import CpuConfig, CpuModel
from repro.sim.event_loop import Event, EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngRegistry


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

    def set_timer_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        node = self._node
        if node.crashed:
            # A crashed machine arms nothing; the handle is inert.
            return _DeadTimer()
        incarnation = node.incarnation

        def fire() -> None:
            node._timers.discard(event)
            if node.incarnation == incarnation:
                node.run_event(callback)

        event = node.loop.schedule_at(when, fire)
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


class SimNode(Host):
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
        self.loop = loop
        self.network = network
        self.rng = rng.stream(f"node-{node_id}")
        self.cpu = CpuModel(cpu_config or CpuConfig())
        super().__init__(node_id, protocol, SimEnv, storage)
        network.register(node_id, self._on_network_message)

    def start(self) -> None:
        """Run the protocol's startup hook (leader election etc.)."""
        self.run_event(self.protocol.on_start)

    # ------------------------------------------------------------------
    # Inbound events -- all charged to the CPU model.
    # ------------------------------------------------------------------

    def _charge_and_run(
        self, message: Optional[Message], fn: Callable[..., None], *args
    ) -> None:
        """Charge one event's CPU cost and run ``fn(*args)`` as a
        protocol event when the CPU model says it completes."""
        cost, serial = self.protocol.processing_cost(message)
        now = self.loop.now
        done = self.cpu.submit(now, cost, serial)
        if done <= now:
            # Completes in the incarnation that charged it.
            self.run_event(fn, *args)
        else:
            self.loop.post_at(done, self._run_charged, self.incarnation, fn, args)

    def _run_charged(self, incarnation: int, fn: Callable[..., None], args: tuple) -> None:
        # The CPU-completion callback may be reached after a crash (and
        # even after a restart): work charged to a dead incarnation
        # must never execute.  (``run_event`` itself refuses while down.)
        if self.incarnation == incarnation:
            self.run_event(fn, *args)

    def _on_network_message(self, sender: int, message: object, size: int) -> None:
        if self.crashed:
            return
        protocol = self.protocol
        if protocol.occupancy_cost is not None:
            occupancy, occupancy_serial = protocol.occupancy_cost(message)
            if occupancy > 0:
                self.cpu.submit(self.loop.now, occupancy, occupancy_serial)
        self._charge_and_run(message, protocol.on_message, sender, message)

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
        self._charge_and_run(None, self.protocol.propose, command)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Crash this node for real: the host goes down (timers
        cancelled, no sends/receives/proposals/deliveries) and the
        network stops carrying its traffic.  The process is dead until
        :meth:`restart`; nothing it scheduled before the crash may run."""
        if self._crash_prologue():
            self.network.crash(self.node_id)

    def _fail_stop(self) -> None:
        self.crash()

    def restart(self, protocol: Protocol, mode: str) -> None:
        """Boot a new incarnation of this machine on the fresh
        ``protocol``: ``mode`` is ``"durable"`` or ``"amnesia"`` (see
        :meth:`Host._reboot`)."""
        self._reboot(protocol, mode)
        self.run_event(self.protocol.on_start)

    def _rejoin(self) -> None:
        self.network.recover(self.node_id)
