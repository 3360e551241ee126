"""Per-run metrics collection.

The collector hooks every node's delivery stream.  A command's latency
is measured at its *proposer*: the time from the client's C-PROPOSE to
the moment the proposer's own replica delivers the command (the point
at which a replicated state machine could answer the client).
Throughput counts each command once, at first delivery anywhere, inside
the measurement window (after warm-up).

The same collector serves both substrates: a simulated ``Cluster``
(virtual clock, network counters) and the asyncio ``LocalCluster``
(wall clock, wire counters from the flush point).  Each collector
embeds an :class:`~repro.obs.collect.ObsCollector` (exposed as
``.obs``), so every run also gets the per-command decision-path
breakdown -- fast / forward / slow / acquisition counts and latency
summaries -- reconstructed from the protocols' structured notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.consensus.commands import Command
from repro.metrics.stats import Summary, summarize
from repro.obs.collect import ObsCollector
from repro.obs.span import PathStats
from repro.obs.span import fast_ratio as _fast_ratio


@dataclass
class RunResult:
    """What one run (simulated or live) produced."""

    duration: float
    delivered: int
    throughput: float
    latency: Optional[Summary]
    messages_sent: int
    bytes_sent: int
    proposed: int = 0
    extra: dict = field(default_factory=dict)
    # Flush-point observability: every protocol event's sends pass
    # through one Env flush, where the collector counts them by message
    # type; ``wire_bytes`` is what the substrate says it put on the
    # wire (sim: the sizes priced for the network model; TCP runtime:
    # encoded frame bytes written to sockets, loopback excluded).
    message_types: dict = field(default_factory=dict)
    flush_batches: int = 0
    wire_messages: int = 0
    wire_bytes: int = 0
    # Decision-path breakdown from the span layer: path name ->
    # PathStats (count + latency summary), window-scoped like the
    # throughput and latency numbers above.
    paths: dict[str, PathStats] = field(default_factory=dict)
    # Commands proposed but never delivered anywhere by the end of the
    # run (lost, or still in flight when the window closed).
    inflight: int = 0
    # Reads answered locally by a leased owner (plus exactly-once
    # session replays): completed client operations that never enter the
    # decision log, counted into ``throughput`` alongside ``delivered``.
    reads_served: int = 0

    @property
    def avg_batch_size(self) -> float:
        """Messages per flush batch (1.0 means no batching win)."""
        if self.flush_batches == 0:
            return 0.0
        return self.wire_messages / self.flush_batches

    @property
    def fast_ratio(self) -> float:
        """Fraction of windowed commands that stayed on the fast path."""
        return _fast_ratio(self.paths)


class MetricsCollector:
    """Attach to a cluster before driving load through it.

    Accepts either a sim ``Cluster`` or a runtime ``LocalCluster``;
    the embedded :class:`ObsCollector` picks the matching clock.
    """

    def __init__(self, cluster, warmup: float = 0.0, record_spans: bool = False) -> None:
        self.cluster = cluster
        self.warmup = warmup
        self.obs = ObsCollector.for_cluster(cluster, record_spans=record_spans)
        self._clock = self.obs.clock
        self._propose_times: dict[tuple[int, int], float] = {}
        self._first_delivery: set[tuple[int, int]] = set()
        self._latencies: list[float] = []
        self._window_delivered = 0
        self._window_reads = 0
        self._window_start: Optional[float] = None
        self._window_end: Optional[float] = None
        self.proposed = 0
        for node in cluster.nodes:
            node.deliver_listeners.append(self._on_deliver)
            listeners = getattr(node, "read_listeners", None)
            if listeners is not None:
                listeners.append(self._on_read)

    # ------------------------------------------------------------------

    def on_propose(self, command: Command) -> None:
        """Call right before handing the command to the cluster."""
        self.proposed += 1
        self._propose_times[command.cid] = self._clock.now()

    def begin_window(self) -> None:
        """Start the measurement window (end of warm-up)."""
        self._window_start = self._clock.now()

    def end_window(self) -> None:
        self._window_end = self._clock.now()

    def _in_window(self, now: float) -> bool:
        if self._window_start is None or now < self._window_start:
            return False
        return self._window_end is None or now <= self._window_end

    def _on_deliver(self, node_id: int, command: Command, now: float) -> None:
        if command.cid not in self._first_delivery:
            self._first_delivery.add(command.cid)
            if self._in_window(now):
                self._window_delivered += 1
        if command.proposer == node_id:
            start = self._propose_times.pop(command.cid, None)
            if start is not None and self._in_window(now):
                self._latencies.append(now - start)

    def _on_read(
        self, node_id: int, command: Command, result: object, now: float
    ) -> None:
        """A leased read (or session replay) completed at its proposer
        without entering the decision log: count it as a finished client
        operation and measure its latency like any other command."""
        if self._in_window(now):
            self._window_reads += 1
        start = self._propose_times.pop(command.cid, None)
        if start is not None and self._in_window(now):
            self._latencies.append(now - start)

    # ------------------------------------------------------------------

    @property
    def inflight_of(self) -> dict[tuple[int, int], float]:
        return self._propose_times

    def detach(self) -> None:
        """Unhook from the cluster (deliver listeners + observers)."""
        for node in self.cluster.nodes:
            try:
                node.deliver_listeners.remove(self._on_deliver)
            except ValueError:
                pass
            listeners = getattr(node, "read_listeners", None)
            if listeners is not None:
                try:
                    listeners.remove(self._on_read)
                except ValueError:
                    pass
        self.obs.detach()

    def result(self) -> RunResult:
        if self._window_start is None:
            raise RuntimeError("begin_window() was never called")
        end = self._window_end if self._window_end is not None else self._clock.now()
        duration = max(end - self._window_start, 1e-12)
        latency = summarize(self._latencies) if self._latencies else None
        # The sim network counts every transmitted message; the runtime
        # has no such tap, so the flush-point message count and the
        # frame bytes its nodes report writing stand in.
        network = getattr(self.cluster, "network", None)
        messages_sent = (
            network.messages_sent if network is not None else self.obs.wire_messages
        )
        bytes_sent = (
            network.bytes_sent if network is not None else self.obs.wire_bytes
        )
        return RunResult(
            duration=duration,
            delivered=self._window_delivered,
            throughput=(self._window_delivered + self._window_reads) / duration,
            latency=latency,
            messages_sent=messages_sent,
            bytes_sent=bytes_sent,
            proposed=self.proposed,
            message_types=dict(self.obs.message_types),
            flush_batches=self.obs.flush_batches,
            wire_messages=self.obs.wire_messages,
            wire_bytes=self.obs.wire_bytes,
            paths=self.obs.path_stats(self._window_start, end),
            inflight=len(self._propose_times),
            reads_served=self._window_reads,
        )
