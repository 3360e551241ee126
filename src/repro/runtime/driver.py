"""Pipelined client driver for the asyncio runtime.

The simulator's open-loop clients keep scores of proposals in flight
per node; until this driver existed the runtime's benches and examples
either serialised (propose, wait, propose) or dumped an unbounded burst
up front.  :class:`PipelineDriver` is the middle ground the paper's
fast path is built for: a configurable window of in-flight proposals
per node, refilled the moment a decision lands back at its proposer --
round N+1 is on the wire while round N is still collecting acks.

Completion of a proposal is *delivery at its proposing node* (the
client that submitted it got its response), observed through the host's
``deliver_listeners`` and ``read_listeners``.  The driver emits an
``inflight`` note on each proposer's env so an attached
:class:`~repro.obs.collect.ObsCollector` gauges pipeline depth on the
runtime path exactly as it does queue depths.

Everything runs on the event loop -- no locks, no threads; the window
check/await pair is atomic with respect to delivery callbacks because
both run on the same loop.
"""

from __future__ import annotations

import asyncio
from typing import Iterable, Sequence

from repro.consensus.commands import Command


class PipelineDriver:
    """Drive proposals into a cluster with a bounded in-flight window.

    ``depth`` is the per-node window: each node may have at most that
    many of its own proposals undecided at once.  ``depth=1`` is the
    fully serial client (ship, wait for the decision, ship the next);
    large depths approximate the open-loop saturation the simulator
    measures.  Multiple nodes pump concurrently -- one stalled window
    never blocks another node's pipeline.
    """

    def __init__(self, cluster, depth: int = 1) -> None:
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.cluster = cluster
        self.depth = depth
        self.proposed = 0
        self.completed = 0
        self.max_inflight = 0  # peak total in-flight across all nodes
        self._inflight: dict[int, int] = {}
        self._inflight_total = 0
        self._pending: set[tuple[int, int]] = set()
        self._wake = asyncio.Event()
        # Last per-node depth reported via the ``inflight`` note.  At a
        # saturated window the depth is pinned to ``self.depth``, so
        # emitting only on change turns a per-command note into a
        # handful per run; every transition (ramp-up, drain) still
        # reaches the telemetry gauge.
        self._inflight_noted: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Delivery tracking
    # ------------------------------------------------------------------

    def _on_deliver(self, node_id: int, command: Command, now: float) -> None:
        # Only the echo at the proposer completes the client's request;
        # deliveries at other replicas are the protocol's business.
        if node_id != command.proposer:
            return
        if command.cid not in self._pending:
            return
        self._pending.discard(command.cid)
        self._inflight[node_id] -= 1
        self._inflight_total -= 1
        self.completed += 1
        self._wake.set()

    def _on_read(self, node_id: int, command: Command, result, now: float) -> None:
        # Serving tier: a leased local read (or session replay) answers
        # on the read channel, never through the decision log -- it
        # frees its window slot exactly like a delivery.
        self._on_deliver(node_id, command, now)

    async def _await_wake(self, timeout: float) -> None:
        self._wake.clear()
        await asyncio.wait_for(self._wake.wait(), timeout)

    # ------------------------------------------------------------------
    # Pumps
    # ------------------------------------------------------------------

    async def _pump(
        self, node_id: int, commands: Sequence[Command], timeout: float
    ) -> None:
        node = self.cluster.nodes[node_id]
        inflight = self._inflight
        for command in commands:
            while inflight[node_id] >= self.depth:
                await self._await_wake(timeout)
            inflight[node_id] += 1
            self._inflight_total += 1
            if self._inflight_total > self.max_inflight:
                self.max_inflight = self._inflight_total
            self._pending.add(command.cid)
            self.proposed += 1
            depth = inflight[node_id]
            if depth != self._inflight_noted.get(node_id):
                self._inflight_noted[node_id] = depth
                node.env.observe("inflight", depth=depth)
            node.propose(command)
        while inflight[node_id] > 0:
            await self._await_wake(timeout)

    async def run(
        self,
        proposals: Iterable[tuple[int, Command]],
        timeout: float = 60.0,
    ) -> None:
        """Propose ``(node_id, command)`` pairs, windowed, until every
        one is delivered back at its proposer.

        Per-node submission order follows the iterable's order; nodes
        pump concurrently.  ``timeout`` bounds each individual wait for
        the window to open (a stuck cluster fails fast instead of
        hanging the bench).
        """
        by_node: dict[int, list[Command]] = {}
        for node_id, command in proposals:
            by_node.setdefault(node_id, []).append(command)
        listener = self._on_deliver
        read_listener = self._on_read
        for node_id in by_node:
            self._inflight.setdefault(node_id, 0)
            node = self.cluster.nodes[node_id]
            node.deliver_listeners.append(listener)
            node.read_listeners.append(read_listener)
        try:
            await asyncio.gather(
                *(
                    self._pump(node_id, commands, timeout)
                    for node_id, commands in by_node.items()
                )
            )
        finally:
            for node_id in by_node:
                node = self.cluster.nodes[node_id]
                if listener in node.deliver_listeners:
                    node.deliver_listeners.remove(listener)
                if read_listener in node.read_listeners:
                    node.read_listeners.remove(read_listener)
