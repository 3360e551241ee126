"""Open-loop client model (Section VI).

"To properly load the system, we injected commands into an open-loop
using up to 64 client threads at each node.  After issuing each
command, a client thread goes to sleep for a configurable amount of
time, i.e., think time.  To prevent overloading the system, we limit
the number of commands still in-flight ... when it is reached, a node
will skip issuing new commands."

Each simulated client thread issues a command, sleeps ``think_time``,
and repeats; a per-node in-flight cap makes the loop skip (not queue)
when the consensus layer falls behind, exactly as described.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol as TypingProtocol

from repro.consensus.commands import Command
from repro.sim.cluster import Cluster


class Workload(TypingProtocol):
    """Anything with a ``next_command(node) -> Command`` method."""

    def next_command(self, node: int) -> Command: ...


@dataclass(frozen=True)
class ClientConfig:
    clients_per_node: int = 8
    think_time: float = 0.001
    max_inflight_per_node: int = 64

    def __post_init__(self) -> None:
        if self.clients_per_node < 1:
            raise ValueError("clients_per_node must be >= 1")
        if self.think_time < 0:
            raise ValueError("think_time must be >= 0")
        if self.max_inflight_per_node < 1:
            raise ValueError("max_inflight_per_node must be >= 1")


class OpenLoopClients:
    """Drives a cluster with per-node open-loop client threads."""

    def __init__(
        self,
        cluster: Cluster,
        workload: Workload,
        config: ClientConfig,
    ) -> None:
        self.cluster = cluster
        self.workload = workload
        self.config = config
        self.nodes = list(range(cluster.config.n_nodes))
        self._inflight: dict[int, int] = {node: 0 for node in self.nodes}
        self._running = False
        self._rng = cluster.rng.stream("clients")
        for node in cluster.nodes:
            node.deliver_listeners.append(self._on_deliver)
            # Leased reads complete at the proposer without ever
            # reaching the delivery stream; without this hook their
            # in-flight slots would leak and the open loop would stall
            # at max_inflight.
            node.read_listeners.append(self._on_read)
        self._outstanding: dict[tuple[int, int], int] = {}
        self._interval = max(config.think_time, 1e-6)

    def start(self) -> None:
        """Kick off every client timer with a small random phase."""
        self._running = True
        loop = self.cluster.loop
        for node in self.nodes:
            for _client in range(self.config.clients_per_node):
                delay = self._rng.random() * self._interval
                loop.post_at(loop.now + delay, self._tick, node)

    def stop(self) -> None:
        self._running = False

    def _tick(self, node: int) -> None:
        if not self._running:
            return
        if self._inflight[node] < self.config.max_inflight_per_node:
            command = self.workload.next_command(node)
            self._inflight[node] += 1
            self._outstanding[command.cid] = node
            self.cluster.propose(node, command)
        # Open loop: sleep and go again whether or not we issued.
        loop = self.cluster.loop
        loop.post_at(loop.now + self._interval, self._tick, node)

    def _on_deliver(self, node_id: int, command: Command, now: float) -> None:
        origin = self._outstanding.get(command.cid)
        if origin is not None and origin == node_id:
            del self._outstanding[command.cid]
            self._inflight[origin] -= 1

    def _on_read(
        self, node_id: int, command: Command, result: object, now: float
    ) -> None:
        origin = self._outstanding.pop(command.cid, None)
        if origin is not None:
            self._inflight[origin] -= 1

