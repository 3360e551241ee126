"""Cluster builder: N simulated nodes + network + one event loop.

This is the top-level convenience object: tests, examples, and the
benchmark harness all create a :class:`Cluster` from a
:class:`repro.spec.ClusterSpec`, feed proposals in, run virtual time
forward, and then inspect delivered sequences and metrics.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Optional

from repro.consensus.base import Protocol
from repro.consensus.commands import Command
from repro.sim.event_loop import EventLoop
from repro.sim.latency import TopologyLatency
from repro.sim.network import Network
from repro.sim.node import SimNode
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:
    # Not at run time: ``repro.spec`` imports ``repro.sim.cpu``, which
    # runs this package's ``__init__`` and so this module.
    from repro.spec import ClusterSpec

ProtocolFactory = Callable[[int, int], Protocol]
"""Maps ``(node_id, n_nodes)`` to a fresh protocol instance."""


class ConsistencyViolation(AssertionError):
    """Raised when two nodes deliver conflicting commands in different
    orders -- a violation of Generalized Consensus *Consistency*."""


class Cluster:
    """N nodes running the same protocol under one virtual clock."""

    def __init__(
        self,
        config: ClusterSpec,
        protocol_factory: Optional[ProtocolFactory] = None,
    ) -> None:
        """Build ``config.n_nodes`` nodes, each running
        ``protocol_factory(node_id, n_nodes)`` -- by default the spec's
        own :meth:`~repro.spec.ClusterSpec.protocol_factory`."""
        if protocol_factory is None:
            protocol_factory = config.protocol_factory()
        network = config.network
        if config.zone_latency is not None:
            zl = config.zone_latency
            network = replace(
                network,
                latency=TopologyLatency.from_zones(
                    config.zones, zl.intra, zl.inter, jitter=zl.jitter
                ),
            )
        self.config = config
        self.protocol_factory = protocol_factory
        self.loop = EventLoop()
        self.rng = RngRegistry(config.seed)
        self.network = Network(
            self.loop, config.n_nodes, network, self.rng, zones=config.zones
        )
        self.nodes: list[SimNode] = []
        for node_id in range(config.n_nodes):
            protocol = protocol_factory(node_id, config.n_nodes)
            storage = (
                config.storage.build(node_id)
                if config.storage is not None
                else None
            )
            node = SimNode(
                node_id,
                self.loop,
                self.network,
                protocol,
                self.rng,
                cpu_config=config.cpu,
                storage=storage,
            )
            self.nodes.append(node)

    def close_storage(self) -> None:
        """Release every node's storage resources (file handles)."""
        for node in self.nodes:
            node.env.storage.close()

    def start(self) -> None:
        """Fire every node's startup hook (e.g. initial leader election)."""
        for node in self.nodes:
            node.start()

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def propose(self, node_id: int, command: Command) -> None:
        self.nodes[node_id].propose(command)

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until quiescence (or ``max_events``)."""
        self.loop.run(max_events=max_events)

    def run_for(self, duration: float) -> None:
        """Advance virtual time by ``duration`` seconds."""
        self.loop.run_until(self.loop.now + duration)

    def run_until(self, deadline: float, max_events: Optional[int] = None) -> None:
        self.loop.run_until(deadline, max_events)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def crash(self, node_id: int) -> None:
        self.nodes[node_id].crash()

    def restart(self, node_id: int, mode: str = "durable") -> None:
        """Boot a new incarnation of a crashed node on a fresh protocol:
        ``mode="durable"`` replays its durable store, ``"amnesia"`` wipes
        it first -- see :meth:`Host._reboot`."""
        protocol = self.protocol_factory(node_id, self.config.n_nodes)
        self.nodes[node_id].restart(protocol, mode)

    def partition(self, group_a: set[int], group_b: set[int]) -> None:
        self.network.partition(group_a, group_b)

    def heal_partitions(self) -> None:
        self.network.heal_partitions()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def delivered(self, node_id: int) -> list[Command]:
        """The sequence node ``node_id`` has delivered so far."""
        return list(self.nodes[node_id].delivered)

    def all_delivered_cids(self) -> set[tuple[int, int]]:
        """Commands delivered by at least one node."""
        return {c.cid for node in self.nodes for c in node.delivered}

    def check_consistency(self) -> None:
        """Assert the Generalized Consensus safety properties.

        For every pair of delivery logs -- the current log of every
        (possibly crashed) node plus the archived log of every past
        amnesia incarnation -- the restrictions to each object must be
        prefixes of one another, and no log may contain the same
        command twice.  An amnesia restart legitimately *re*-delivers
        from scratch, but each incarnation must replay the same
        per-object order.

        Implementation note: instead of the quadratic pairwise
        `CStruct.is_prefix_compatible`, each log's per-object sequence
        is extracted once and every sequence is compared against the
        longest -- same property, one pass over each delivery log.
        """
        labelled_logs: list[tuple[str, list]] = []
        for node in self.nodes:
            for life, log in enumerate(node.delivery_history):
                labelled_logs.append((f"node {node.node_id} (life {life})", log))
            labelled_logs.append((f"node {node.node_id}", node.delivered))
        per_log: list[dict[str, list[tuple[int, int]]]] = []
        for label, log in labelled_logs:
            seqs: dict[str, list[tuple[int, int]]] = {}
            seen: set[tuple[int, int]] = set()
            for command in log:
                if command.cid in seen:
                    raise ConsistencyViolation(
                        f"{label} delivered {command} twice"
                    )
                seen.add(command.cid)
                for obj in command.ls:
                    seqs.setdefault(obj, []).append(command.cid)
            per_log.append(seqs)
        all_objects = set()
        for seqs in per_log:
            all_objects.update(seqs)
        for obj in all_objects:
            sequences = [seqs.get(obj, []) for seqs in per_log]
            longest = max(sequences, key=len)
            for (label, _log), seq in zip(labelled_logs, sequences):
                if seq != longest[: len(seq)]:
                    raise ConsistencyViolation(
                        f"object {obj!r}: {label} delivered conflicting "
                        f"commands in a different order"
                    )
