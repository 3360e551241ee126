"""The substrate-independent observability collector.

An :class:`ObsCollector` registers as an :class:`~repro.consensus.base.EnvObserver`
on every node's :class:`Env` and assembles, from the generic hook
stream (propose, handler entry/exit, flush, deliver) plus the
protocols' structured notes (``path`` / ``quorum`` / ``decide`` /
``epoch_bump`` / ``owner_handoff`` / ``outbox_depth``):

- one :class:`~repro.obs.span.CommandTrace` per command;
- with ``record_spans=True`` only, per-message-type handler counts and
  CPU attribution (measured with ``perf_counter``, so it is real Python
  CPU on both substrates); without spans the collector declines the
  handler bracket (:attr:`wants_handler_timing`), so a figure or
  benchmark run pays no clock read per message and ``handler_stats``
  stays empty; likewise the ``quorum`` / ``decide`` milestones
  (``CommandTrace.quorum_at`` / ``decided_at``) are subscribed to only
  with spans, and stay ``None`` without;
- ownership-churn gauges (epoch bumps and owner handoffs per object)
  and per-destination outbox depth;
- a timeline of fault events (``fault`` notes emitted by the substrate
  on crash/restart), so chaos runs can place failures on the same
  clock as command traces -- and, in span mode, audit that a crashed
  node performed *zero* transitions while down (no handler or wire
  span may fall inside a crash window);
- the run's ledger: a measurement window (``begin_window`` /
  ``end_window``) and :meth:`ObsCollector.result`, which computes the
  :class:`RunResult` of the run from the command traces when asked --
  every timestamp a throughput or latency number needs is already on
  them, so nothing books a command a second time;
- optionally (``record_spans=True``) a full span log for the Chrome
  trace exporter.  Span retention is opt-in *and* bounded: at most
  ``max_spans`` spans are kept (default
  :attr:`ObsCollector.DEFAULT_MAX_SPANS`); further spans are counted in
  ``dropped_spans`` instead of retained, so long runs cannot exhaust
  memory.  For unbounded-run live metrics use
  :mod:`repro.obs.telemetry`, which never stores per-event state.

The same collector attaches to a simulated cluster (virtual clock) or
a runtime cluster (wall clock); only the :class:`~repro.obs.clock.Clock`
differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.consensus.base import EnvObserver, Message
from repro.metrics.stats import Summary, summarize
from repro.obs.clock import Clock, clock_for
from repro.obs.span import (
    Cid,
    CommandTrace,
    PathStats,
    Span,
    fast_ratio,
    path_breakdown,
)

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
    # Commands proposed and not (yet) delivered at their proposer by the
    # end of the run: lost, or still in flight when it was read.
    inflight: int = 0
    # Reads answered locally by a leased owner: completed client
    # operations that never enter the decision log, counted into
    # ``throughput`` alongside ``delivered``.
    reads_served: int = 0

    @property
    def fast_ratio(self) -> float:
        """Fraction of windowed commands that stayed on the fast path."""
        return fast_ratio(self.paths)


@dataclass
class HandlerStats:
    """Aggregate cost of one message type's handler."""

    count: int = 0
    cpu_seconds: float = 0.0


@dataclass
class FaultEvent:
    """One crash or restart, as observed on the collector's clock."""

    node: int
    event: str  # "crash" | "restart"
    at: float
    mode: Optional[str] = None  # restart only: "durable" | "amnesia"
    incarnation: int = 0


@dataclass
class StorageStats:
    """Aggregate durable-storage activity across the cluster (from the
    ``fsync`` / ``snapshot`` / ``recovery`` notes the storage layer
    emits)."""

    fsyncs: int = 0
    records_flushed: int = 0
    bytes_flushed: int = 0
    snapshots: int = 0
    snapshot_bytes: int = 0
    recoveries: int = 0
    records_replayed: int = 0


@dataclass
class OwnershipChurn:
    """Per-object ownership movement (the WPaxos migration metric)."""

    epoch_bumps: dict[str, int] = field(default_factory=dict)
    owner_handoffs: dict[str, int] = field(default_factory=dict)

    @property
    def total_epoch_bumps(self) -> int:
        return sum(self.epoch_bumps.values())

    @property
    def total_handoffs(self) -> int:
        return sum(self.owner_handoffs.values())


_NOTE_KINDS = frozenset({
    "wire_bytes", "read_local", "path", "epoch_bump", "owner_handoff",
    "outbox_depth", "inflight", "fsync", "snapshot", "recovery", "fault",
})
"""The note kinds every collector reads."""

_SPAN_NOTE_KINDS = _NOTE_KINDS | {"decide", "quorum"}
"""With spans, also the milestones that fill ``CommandTrace.decided_at``
and ``quorum_at``: the JSONL export and the delay counts read them, no
:class:`RunResult` does, and a saturated run emits several per command."""


class ObsCollector(EnvObserver):
    """Attach to every node's Env; query after (or during) the run."""

    #: Default ceiling on retained spans when ``record_spans=True``.  A
    #: saturated run emits several spans per command; 200k entries is
    #: minutes of heavy traffic while bounding memory to tens of MB.
    #: Spans past the cap are counted in ``dropped_spans``, not stored.
    DEFAULT_MAX_SPANS = 200_000

    def __init__(
        self,
        clock: Clock,
        record_spans: bool = False,
        max_spans: Optional[int] = None,
    ) -> None:
        self.clock = clock
        self.record_spans = record_spans
        # Handler CPU is attributed only where spans are recorded (the
        # trace command, chaos): elsewhere nothing reads it, and the
        # bracket would cost every message two clock reads.
        self.wants_handler_timing = record_spans
        self.note_kinds = _SPAN_NOTE_KINDS if record_spans else _NOTE_KINDS
        self.max_spans = self.DEFAULT_MAX_SPANS if max_spans is None else max_spans
        self.dropped_spans = 0
        self.traces: dict[Cid, CommandTrace] = {}
        self.spans: list[Span] = []
        self.handler_stats: dict[str, HandlerStats] = {}
        self.faults: list[FaultEvent] = []
        self.storage = StorageStats()
        self.churn = OwnershipChurn()
        self.outbox_depth: dict[int, int] = {}  # dst -> max depth seen
        self.client_inflight: dict[int, int] = {}  # node -> max pipeline depth
        self._sent_by_class: dict[type, int] = {}
        self.flush_batches = 0
        self.wire_messages = 0
        self.wire_bytes = 0
        self._attached: list = []  # envs we observe, for detach()
        self._network = None  # the sim network's counters, where there is one
        self._window_start: Optional[float] = None
        self._window_end: Optional[float] = None
        # Handler spans nest (a handler may deliver, whose listener
        # proposes); per-node stacks pair entries with exits.
        self._handler_starts: dict[int, list[float]] = {}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    @classmethod
    def for_cluster(
        cls,
        cluster,
        record_spans: bool = False,
        max_spans: Optional[int] = None,
    ) -> "ObsCollector":
        """Build and attach to a sim ``Cluster`` or runtime ``LocalCluster``:
        the virtual clock when the cluster has an event loop, wall time
        otherwise."""
        collector = cls(
            clock_for(cluster), record_spans=record_spans, max_spans=max_spans
        )
        collector.attach(cluster)
        return collector

    def _add_span(self, span: Span) -> None:
        """Retain ``span`` unless the cap is hit (then count the drop)."""
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return
        self.spans.append(span)

    def attach(self, cluster) -> None:
        self._network = getattr(cluster, "network", None)
        for node in cluster.nodes:
            node.env.add_observer(self)
            self._attached.append(node.env)

    def detach(self) -> None:
        """Remove this collector from every env it observes."""
        for env in self._attached:
            env.remove_observer(self)
        self._attached.clear()

    # ------------------------------------------------------------------
    # EnvObserver hooks
    # ------------------------------------------------------------------

    def on_propose(self, node_id: int, command) -> None:
        if command.cid not in self.traces:  # re-proposals keep the origin
            self.traces[command.cid] = CommandTrace(
                cid=command.cid, proposer=node_id, proposed_at=self.clock.now()
            )

    def on_handler_enter(self, node_id: int, sender: int, message: Message) -> None:
        self._handler_starts.setdefault(node_id, []).append(self.clock.now())

    def on_handler_exit(
        self, node_id: int, sender: int, message: Message, cpu_seconds: float
    ) -> None:
        name = type(message).__name__
        stats = self.handler_stats.get(name)
        if stats is None:
            stats = self.handler_stats[name] = HandlerStats()
        stats.count += 1
        stats.cpu_seconds += cpu_seconds
        starts = self._handler_starts.get(node_id)
        start = starts.pop() if starts else self.clock.now()
        if self.record_spans:
            self._add_span(
                Span(
                    name=f"handle {name}",
                    category="handler",
                    node=node_id,
                    start=start,
                    duration=self.clock.now() - start,
                    args={"from": sender, "cpu_us": cpu_seconds * 1e6},
                )
            )

    def on_flush(self, node_id: int, queued, batches) -> None:
        self.flush_batches += len(batches)
        self.wire_messages += len(queued)
        sent = self._sent_by_class
        for _dst, message in queued:
            cls = message.__class__
            sent[cls] = sent.get(cls, 0) + 1
        for dst, messages in batches.items():
            if len(messages) > self.outbox_depth.get(dst, 0):
                self.outbox_depth[dst] = len(messages)
        if self.record_spans and queued:
            # Instant span per flush: together with handler spans this
            # covers every way a node makes progress (any transition
            # either handles an event or sends), which is what the
            # crash-quiescence audit keys off.
            self._add_span(
                Span(
                    name=f"flush x{len(queued)}",
                    category="wire",
                    node=node_id,
                    start=self.clock.now(),
                    duration=0.0,
                    args={"messages": len(queued), "batches": len(batches)},
                )
            )

    def on_deliver(self, node_id: int, command) -> None:
        trace = self.traces.get(command.cid)
        if trace is None:
            return
        now = self.clock.now()
        if trace.first_delivered_at is None:
            trace.first_delivered_at = now
        if node_id == trace.proposer and trace.delivered_at is None:
            trace.delivered_at = now
            if self.record_spans:
                self._add_span(
                    Span(
                        name=f"cmd {command.cid[0]}.{command.cid[1]}",
                        category="command",
                        node=trace.proposer,
                        start=trace.proposed_at,
                        duration=now - trace.proposed_at,
                        args={
                            "path": trace.resolved_path,
                            "hops": trace.forward_hops,
                            "epoch_bumps": trace.epoch_bumps,
                            "objects": sorted(command.ls),
                        },
                    )
                )

    def on_note(self, node_id: int, kind: str, fields: dict) -> None:
        if kind == "wire_bytes":
            # What the substrate put on the wire at this flush: the
            # sizes the simulator just priced for its network model, the
            # encoded frame bytes on the TCP runtime.
            self.wire_bytes += fields["bytes"]
            return
        if kind == "read_local":
            # A leased owner-local read completes at its proposer
            # without ever being decided or delivered: close its trace
            # here so the per-path breakdown shows the consensus-free
            # path explicitly instead of leaking the command as
            # "inflight".
            trace = self.traces.get(fields.get("cid"))
            if trace is not None and trace.first_delivered_at is None:
                now = self.clock.now()
                trace.observe_path(kind)
                trace.first_delivered_at = now
                if node_id == trace.proposer:
                    trace.delivered_at = now
            return
        if kind == "path":
            trace = self.traces.get(fields["cid"])
            if trace is not None:
                trace.observe_path(fields["path"], fields.get("hops", 0))
        elif kind == "decide":
            trace = self.traces.get(fields["cid"])
            if trace is not None and trace.decided_at is None:
                trace.decided_at = self.clock.now()
        elif kind == "quorum":
            trace = self.traces.get(fields["cid"])
            if trace is not None and trace.quorum_at is None:
                trace.quorum_at = self.clock.now()
        elif kind == "epoch_bump":
            obj = fields["obj"]
            bumps = self.churn.epoch_bumps
            bumps[obj] = bumps.get(obj, 0) + 1
            trace = self.traces.get(fields.get("cid"))
            if trace is not None:
                trace.epoch_bumps += 1
        elif kind == "owner_handoff":
            obj = fields["obj"]
            handoffs = self.churn.owner_handoffs
            handoffs[obj] = handoffs.get(obj, 0) + 1
        elif kind == "outbox_depth":
            dst = fields["dst"]
            if fields["depth"] > self.outbox_depth.get(dst, 0):
                self.outbox_depth[dst] = fields["depth"]
        elif kind == "inflight":
            # Client pipeline depth gauge, emitted by the runtime's
            # PipelineDriver before each propose.
            if fields["depth"] > self.client_inflight.get(node_id, 0):
                self.client_inflight[node_id] = fields["depth"]
        elif kind in ("fsync", "snapshot", "recovery"):
            stats = self.storage
            if kind == "fsync":
                stats.fsyncs += 1
                stats.records_flushed += fields.get("records", 0)
                stats.bytes_flushed += fields.get("bytes", 0)
            elif kind == "snapshot":
                stats.snapshots += 1
                stats.snapshot_bytes += fields.get("bytes", 0)
            else:
                stats.recoveries += 1
                stats.records_replayed += fields.get("records", 0)
            if self.record_spans:
                # Category "storage", deliberately outside the
                # handler/wire set the crash-quiescence audit scans: a
                # group-commit fsync firing is I/O completing, not the
                # node taking a protocol transition.
                self._add_span(
                    Span(
                        name=kind,
                        category="storage",
                        node=node_id,
                        start=self.clock.now(),
                        duration=0.0,
                        args=dict(fields),
                    )
                )
        elif kind == "fault":
            now = self.clock.now()
            event = fields["event"]
            mode = fields.get("mode")
            self.faults.append(
                FaultEvent(
                    node=node_id,
                    event=event,
                    at=now,
                    mode=mode,
                    incarnation=fields.get("incarnation", 0),
                )
            )
            if self.record_spans:
                name = event if mode is None else f"{event} ({mode})"
                self._add_span(
                    Span(
                        name=name,
                        category="fault",
                        node=node_id,
                        start=now,
                        duration=0.0,
                        args=dict(fields),
                    )
                )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def message_types(self) -> dict[str, int]:
        """Messages flushed so far, by message class name."""
        types: dict[str, int] = {}
        for cls, count in self._sent_by_class.items():
            types[cls.__name__] = types.get(cls.__name__, 0) + count
        return types

    def path_counts(self) -> dict[str, int]:
        """Decision-path counts over every *delivered* trace."""
        counts: dict[str, int] = {}
        for trace in self.traces.values():
            if trace.first_delivered_at is None:
                continue
            path = trace.resolved_path
            counts[path] = counts.get(path, 0) + 1
        return counts

    def path_stats(
        self,
        window_start: Optional[float] = None,
        window_end: Optional[float] = None,
    ) -> dict[str, PathStats]:
        return path_breakdown(self.traces.values(), window_start, window_end)

    def fast_ratio(
        self,
        window_start: Optional[float] = None,
        window_end: Optional[float] = None,
    ) -> float:
        return fast_ratio(self.path_stats(window_start, window_end))

    def never_delivered(self) -> int:
        """Commands proposed but not delivered *anywhere* when the
        collector was read -- lost, or not yet decided.  (Stricter than
        in flight: see :attr:`inflight_of`.)"""
        return sum(
            1 for t in self.traces.values() if t.first_delivered_at is None
        )

    # ------------------------------------------------------------------
    # The run ledger
    # ------------------------------------------------------------------

    def begin_window(self) -> None:
        """Start the measurement window (end of warm-up)."""
        self._window_start = self.clock.now()

    def end_window(self) -> None:
        self._window_end = self.clock.now()

    @property
    def proposed(self) -> int:
        """Commands a live node accepted from a client so far."""
        return len(self.traces)

    @property
    def inflight_of(self) -> dict[Cid, float]:
        """Commands in flight -- proposed and not yet delivered (or
        answered on the read channel) at their proposer, the moment a
        client is acknowledged: cid -> propose time."""
        return {
            cid: trace.proposed_at
            for cid, trace in self.traces.items()
            if trace.delivered_at is None
        }

    def result(self) -> RunResult:
        """The run so far, measured over the window.

        A command counts once, at its first delivery anywhere inside the
        window (``delivered``), or as a served read when it was answered
        on the read channel instead (``reads_served``); its latency is
        measured at its *proposer*, from C-PROPOSE to the moment the
        proposer's own replica delivers it -- the point at which a
        replicated state machine could answer the client."""
        start = self._window_start
        if start is None:
            raise RuntimeError("begin_window() was never called")
        end = self._window_end if self._window_end is not None else self.clock.now()
        paths = self.path_stats(start, end)
        reads = paths["read_local"].count if "read_local" in paths else 0
        delivered = sum(stats.count for stats in paths.values()) - reads
        inflight = 0
        latencies: list[float] = []
        for trace in self.traces.values():
            done = trace.delivered_at
            if done is None:
                inflight += 1
            elif start <= done <= end:
                latencies.append(done - trace.proposed_at)
        duration = max(end - start, 1e-12)
        # The sim network counts every transmitted message; the runtime
        # has no such tap, so the flush-point message count and the
        # frame bytes its nodes report writing stand in.
        network = self._network
        return RunResult(
            duration=duration,
            delivered=delivered,
            throughput=(delivered + reads) / duration,
            latency=summarize(latencies) if latencies else None,
            messages_sent=(
                network.messages_sent if network is not None else self.wire_messages
            ),
            bytes_sent=network.bytes_sent if network is not None else self.wire_bytes,
            proposed=self.proposed,
            message_types=self.message_types,
            flush_batches=self.flush_batches,
            wire_messages=self.wire_messages,
            wire_bytes=self.wire_bytes,
            paths=paths,
            inflight=inflight,
            reads_served=reads,
        )

    def activity_spans(
        self, node: int, start: float, end: float
    ) -> list[Span]:
        """Handler and wire spans of ``node`` starting inside
        ``(start, end)`` -- the spans that prove a state transition.
        A crashed node must produce none between its crash and restart
        (requires ``record_spans=True``)."""
        return [
            s
            for s in self.spans
            if s.node == node
            and s.category in ("handler", "wire")
            and start < s.start < end
        ]
