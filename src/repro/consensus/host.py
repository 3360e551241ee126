"""One host: what a node *is*, written once for both substrates.

A :class:`Host` owns everything about hosting a sans-I/O protocol that
does not depend on how time passes or bytes move: identity and the
protocol/env/storage wiring, the application log and its listeners, the
live-timer registry, the per-event outbox scope with its
:class:`~repro.consensus.base.StorageFull` fail-stop, the crash
prologue, and the two kinds of restart.  ``repro.sim.node.SimNode``
adds the CPU and network models; ``repro.runtime.node.RuntimeNode`` adds
sockets, their two asyncio protocols and framing.

Crash--restart is real, not a message filter.  A crash cancels every
live timer and quarantines the node: no event, proposal, timer firing or
delivery has any effect until a restart boots the next incarnation on a
fresh protocol, with the old delivery log archived to
``delivery_history``.  There are two kinds: *durable* rebuilds the
protocol by replaying the durable store's snapshot + log tail (the
replay must rebuild the archived log as a byte-identical prefix, which
the chaos checker asserts), and *amnesia* wipes the store first, so the
node and its application restart from scratch.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Optional

from repro.consensus.base import Env, Protocol, Storage, StorageFull
from repro.consensus.commands import Command
from repro.storage.recovery import recover_protocol


class Host(ABC):
    """One machine running one protocol instance."""

    def __init__(
        self,
        node_id: int,
        protocol: Protocol,
        env_type: Callable[["Host"], Env],
        storage: Optional[Storage] = None,
    ) -> None:
        self.node_id = node_id
        self.protocol = protocol
        self.crashed = False
        self.incarnation = 0
        self.delivered: list[Command] = []
        # One entry per finished incarnation whose application restarted
        # from scratch: the delivery log it had built before the crash.
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
        # Live timers (anything with ``cancel()``), so a crash can
        # cancel the stragglers; fired/cancelled timers deregister
        # themselves.
        self._timers: set = set()
        self.env = env_type(self)
        if storage is not None:
            # The storage object *is* the node's disk: it stays on the
            # env across crash/restart (for DiskStorage it is real
            # files), and its group-commit timer runs on the node's
            # clock -- cancelled by a crash, exactly like an in-flight
            # fsync dies with the process.
            self.env.storage = storage
            storage.attach(self.env, lambda: self.protocol.snapshot_payload())
        protocol.bind(self.env)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def run_event(self, fn: Callable[..., None], *args) -> None:
        """Run one protocol event, ``fn(*args)``, inside the env's
        outbox scope, so its sends flush as batches when the event
        completes.  A crashed host runs nothing.  Exceptions (e.g.
        SafetyViolation) still propagate; the depth counter is restored
        either way.

        :class:`StorageFull` -- from a modelled capacity cap during the
        handler, or from a real write failure during the end-of-event
        commit -- is fail-stop: the event's outbox is discarded (a node
        that could not persist must not acknowledge) and the node
        crashes."""
        if self.crashed:
            return
        env = self.env
        env.begin_event()
        storage_failed = False
        try:
            try:
                fn(*args)
            except StorageFull:
                storage_failed = True
        finally:
            try:
                env.end_event(discard=storage_failed)
            except StorageFull:
                storage_failed = True
                env.storage.discard_pending()
        if storage_failed:
            self._fail_stop()

    @abstractmethod
    def _fail_stop(self) -> None:
        """Crash this host from inside one of its own events."""

    def on_deliver(self, command: Command) -> None:
        if self.crashed:
            return
        self.delivered.append(command)
        now = self.env.now()
        for listener in self.deliver_listeners:
            listener(self.node_id, command, now)

    def on_read(self, command: Command, result: object) -> None:
        """Record one locally-served read/session-replay result."""
        if self.crashed:
            return
        self.read_log.append((command, result))
        now = self.env.now()
        for listener in self.read_listeners:
            listener(self.node_id, command, result, now)

    # ------------------------------------------------------------------
    # Crash and restart
    # ------------------------------------------------------------------

    def _crash_prologue(self) -> bool:
        """The substrate-independent half of a crash: notify observers,
        quarantine the host, cancel every live timer, drop what the
        store had not flushed.  Returns False (and does nothing) when
        the host is already down."""
        if self.crashed:
            return False
        self.env.observe("fault", event="crash", incarnation=self.incarnation)
        self.crashed = True
        for timer in list(self._timers):
            timer.cancel()
        self._timers.clear()
        # Un-fsynced records and queued group-commit releases die with
        # the process; only what the storage flushed survives.
        self.env.storage.discard_pending()
        return True

    def _reboot(self, protocol: Protocol, mode: str) -> None:
        """Boot the next incarnation on the fresh ``protocol``, up to
        (not including) its startup hook, which the substrate runs once
        it is reachable again.

        ``"durable"`` rebuilds ``protocol`` by replaying the durable
        store's snapshot and log tail, through the same scan on both
        substrates.  ``"amnesia"`` wipes the store first: every acceptor
        promise is lost, exactly the failure the paper's crash-recovery
        sketch has to survive.  Either way the old application log is
        archived.  Every check runs before anything changes, so a
        refused restart leaves the node and its store as they were."""
        if not self.crashed:
            raise RuntimeError(f"node {self.node_id} is not crashed")
        storage = self.env.storage
        if mode == "durable":
            if not storage.durable:
                raise RuntimeError(f"node {self.node_id} has no durable storage")
            if type(protocol).apply_log_record is Protocol.apply_log_record:
                # An empty replay would silently make this an amnesia restart.
                raise NotImplementedError(
                    f"{type(protocol).__name__} does not support storage recovery"
                )
        elif mode == "amnesia":
            storage.wipe()
        else:
            raise ValueError(f"unknown restart mode: {mode!r}")
        self.incarnation += 1
        self.delivery_history.append(self.delivered)
        self.delivered = []
        protocol.bind(self.env)
        self.protocol = protocol
        self.crashed = False
        self._rejoin()
        self.env.observe(
            "fault", event="restart", mode=mode, incarnation=self.incarnation
        )
        if mode == "durable":
            self.run_event(self._replay)

    def _rejoin(self) -> None:
        """Substrate hook: become reachable before recovery replays."""

    def _replay(self) -> None:
        stats = recover_protocol(self.protocol, self.env.storage)
        self.env.observe("recovery", delivered=len(self.delivered), **stats)
