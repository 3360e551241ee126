"""Convenience wrapper: an in-process cluster of RuntimeNodes on
localhost ports -- what the examples use to demo the real runtime.

Fault injection mirrors the simulator's: :meth:`LocalCluster.crash` and
:meth:`LocalCluster.restart` give true crash--restart over TCP (durable
or amnesia), and :meth:`LocalCluster.attach_faults` installs a per-node
:class:`~repro.chaos.injector.WireFaults` shim driven by a declarative
:class:`~repro.chaos.plan.FaultPlan` (times relative to the attach
moment, since the runtime runs on the wall clock)."""

from __future__ import annotations

import asyncio
import socket
from typing import Callable, Optional

from repro.consensus.base import Protocol
from repro.consensus.commands import Command
from repro.runtime.node import RuntimeNode
from repro.storage.base import StorageConfig

ProtocolFactory = Callable[[int, int], Protocol]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class LocalCluster:
    """N runtime nodes on 127.0.0.1, each with its own port."""

    def __init__(
        self,
        n_nodes: int,
        protocol_factory: ProtocolFactory,
        storage: Optional[StorageConfig] = None,
    ) -> None:
        self.n_nodes = n_nodes
        self.protocol_factory = protocol_factory
        ports = [_free_port() for _ in range(n_nodes)]
        self.peers = {i: ("127.0.0.1", port) for i, port in enumerate(ports)}
        self.nodes = [
            RuntimeNode(
                i,
                self.peers,
                protocol_factory(i, n_nodes),
                storage=storage.build(i) if storage is not None else None,
            )
            for i in range(n_nodes)
        ]
        self.telemetry = None

    @classmethod
    def from_spec(cls, spec) -> "LocalCluster":
        """Build from a :class:`repro.spec.ClusterSpec` -- the preferred
        constructor (same spec object drives the simulator)."""
        return cls(spec.n_nodes, spec.protocol_factory(), storage=spec.storage)

    async def start(self) -> None:
        for node in self.nodes:
            await node.start()

    async def stop(self) -> None:
        self.stop_telemetry()
        for node in self.nodes:
            await node.stop()
        self.close_storage()

    # ------------------------------------------------------------------
    # Live telemetry
    # ------------------------------------------------------------------

    def start_telemetry(self, interval: float = 0.25):
        """Attach live telemetry: collector, wall-clock sampler and
        health detector.  Call from the running loop.  Returns the
        ``Telemetry`` handle."""
        from repro.obs.telemetry import Telemetry

        if self.telemetry is not None:
            raise RuntimeError("telemetry already started")
        self.telemetry = Telemetry(self, interval=interval)
        self.telemetry.start()
        return self.telemetry

    def stop_telemetry(self) -> None:
        if self.telemetry is None:
            return
        self.telemetry.stop()
        self.telemetry.detach()
        self.telemetry = None

    def close_storage(self) -> None:
        """Release every node's storage resources (file handles)."""
        for node in self.nodes:
            node.env.storage.close()

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    async def crash(self, node_id: int) -> None:
        """Crash one node: server, inbound connections, timers all die."""
        await self.nodes[node_id].stop()

    async def restart(self, node_id: int, mode: str = "durable") -> None:
        """Boot a new incarnation of a crashed node on a fresh protocol:
        ``mode="durable"`` replays its durable store, ``"amnesia"`` wipes
        it first -- see :meth:`Host._reboot`."""
        protocol = self.protocol_factory(node_id, self.n_nodes)
        await self.nodes[node_id].restart(protocol, mode)

    def attach_faults(self, plan, seed: int = 0) -> None:
        """Install ``plan``'s wire faults on every node's send path.

        Must be called with the event loop running; window times in the
        plan are measured from this call.  (Crash entries in the plan
        are not scheduled here -- drive those with :meth:`crash` /
        :meth:`restart`, which the caller usually wants to await.)
        """
        from repro.chaos.injector import WireFaults

        offset = asyncio.get_running_loop().time()
        for node in self.nodes:
            node.wire_faults = WireFaults(
                plan, (seed << 8) | node.node_id, offset=offset
            )

    # ------------------------------------------------------------------
    # Driving and inspection
    # ------------------------------------------------------------------

    def propose(self, node_id: int, command: Command) -> None:
        self.nodes[node_id].propose(command)

    def delivered(self, node_id: int) -> list[Command]:
        return list(self.nodes[node_id].delivered)

    async def wait_delivered(
        self,
        count: int,
        node_id: Optional[int] = None,
        timeout: float = 10.0,
        nodes: Optional[list[int]] = None,
    ) -> None:
        """Wait until node(s) delivered at least ``count`` commands.

        ``nodes`` restricts the wait to a subset (e.g. the nodes still
        alive in a chaos test); ``node_id`` is the single-node shorthand.
        """
        if nodes is not None:
            targets = list(nodes)
        elif node_id is not None:
            targets = [node_id]
        else:
            targets = list(range(len(self.nodes)))

        async def poll() -> None:
            while any(len(self.nodes[i].delivered) < count for i in targets):
                await asyncio.sleep(0.005)

        await asyncio.wait_for(poll(), timeout)
