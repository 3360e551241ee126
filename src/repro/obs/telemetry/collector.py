"""Bounded-memory live metrics collector.

``TelemetryCollector`` is the second :class:`~repro.consensus.base.EnvObserver`
implementation in the tree, built for *live* consumption where
:class:`~repro.obs.collect.ObsCollector` is built for post-hoc analysis.
The difference is memory: ObsCollector keeps one ``CommandTrace`` per
command forever; this collector folds every event into fixed-size
instruments (counters, gauges, log-bucket histograms) the moment it
arrives.  The only per-command state is a pending map from cid to
``(proposed_at, path)`` that is popped at proposer delivery and capped at
``max_pending`` entries (overflow counted, never stored), so a
week-long run holds the same few hundred kilobytes as a one-second run.

Metric names follow Prometheus conventions (``repro_*_total`` counters,
``_seconds`` histograms); label values keep cardinality bounded: ``node``
is the cluster size, ``path`` is the four decision paths, and
``object_shard`` is the workload's object universe.

The collector is *push where it must, pull where it can*: per-event
hooks carry only what exists per event (completion latency, decision
paths, wire counters), while state that is readable at sampling cadence
-- per-node delivery totals -- is pulled in :meth:`TelemetryCollector.refresh`.
Together with the subscription attributes on
:class:`~repro.consensus.base.EnvObserver` this keeps the live stack's
saturation-throughput tax to a few percent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.consensus.base import EnvObserver, Message
from repro.obs.clock import Clock
from repro.obs.span import PATH_SEVERITY

from .registry import MetricsRegistry

# The four consensus decision paths plus the serving tier's
# consensus-free one (leased owner-local reads) -- the sampler's
# per-path iteration covers all five so served reads appear in frame
# throughput and latency breakdowns like any other completion.
PATHS = tuple(PATH_SEVERITY) + ("read_local",)


class TelemetryCollector(EnvObserver):
    """Fold the env event stream into a :class:`MetricsRegistry`."""

    # Counters have no use for per-handler CPU brackets; opting out
    # lets the dispatcher skip two observer calls and two clock reads
    # per message when only telemetry is attached.
    wants_handler_timing = False
    # Per-event delivery hooks only for client-visible completions (the
    # latency/decide accounting); per-node delivery *totals* are pulled
    # from the substrate's own delivery log in :meth:`refresh`, so the
    # replicated copies' fan-out can be skipped.
    deliver_scope = "proposer"

    def __init__(
        self,
        clock: Clock,
        registry: Optional[MetricsRegistry] = None,
        max_pending: int = 65536,
        zones: Optional[Sequence[int]] = None,
    ) -> None:
        self.clock = clock
        # Geo runs: ``zones[node_id]`` labels the decide/latency stream
        # per region.  None (the default) registers no zone families at
        # all, so single-zone runs pay nothing.
        self.zones: Optional[Tuple[int, ...]] = (
            tuple(zones) if zones is not None else None
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self.max_pending = max_pending
        r = self.registry
        self.proposes = r.counter(
            "repro_proposes_total", "commands submitted via C-PROPOSE", ("node",)
        )
        self.decides = r.counter(
            "repro_decides_total",
            "commands delivered at their proposer, by decision path",
            ("node", "path"),
        )
        self.deliveries = r.counter(
            "repro_deliveries_total", "per-node application deliveries", ("node",)
        )
        self.latency = r.histogram(
            "repro_command_latency_seconds",
            "propose-to-proposer-delivery latency by decision path",
            ("path",),
        )
        self.wire_messages = r.counter(
            "repro_wire_messages_total", "messages flushed to the wire", ("node",)
        )
        self.wire_bytes = r.counter(
            "repro_wire_bytes_total", "payload bytes flushed to the wire", ("node",)
        )
        self.outbox_depth = r.gauge(
            "repro_outbox_depth",
            "flush batches held back behind a connecting or paused link (worst destination)",
            ("node",),
        )
        self.client_window = r.gauge(
            "repro_client_inflight",
            "client pipeline depth (PipelineDriver inflight notes)",
            ("node",),
        )
        self.inflight = r.gauge(
            "repro_inflight_commands",
            "commands proposed but not yet delivered at their proposer",
        )
        self.fsyncs = r.counter(
            "repro_fsyncs_total", "group-commit storage flushes", ("node",)
        )
        self.fsync_seconds = r.histogram(
            "repro_fsync_seconds",
            "wall time of one storage flush (persist call)",
            ("node",),
            low=1e-7,
            high=1e2,
        )
        self.epoch_bumps = r.counter(
            "repro_ownership_epoch_bumps_total",
            "ownership epoch bumps (acquisition attempts)",
            ("object_shard",),
        )
        self.handoffs = r.counter(
            "repro_ownership_handoffs_total",
            "completed ownership handoffs",
            ("object_shard",),
        )
        self.faults = r.counter(
            "repro_faults_total", "injected crash/restart events", ("node", "event")
        )
        self.migrations = r.counter(
            "repro_ownership_migrations_total",
            "policy-chosen acquisitions away from a live remote owner",
            ("node",),
        )
        self.reads_local = r.counter(
            "repro_reads_local_total",
            "reads served locally under an ownership lease (no consensus)",
            ("node",),
        )
        self.zone_decides = None
        self.zone_latency = None
        if self.zones is not None:
            self.zone_decides = r.counter(
                "repro_zone_decides_total",
                "proposer-side completions by proposer zone and path",
                ("zone", "path"),
            )
            self.zone_latency = r.histogram(
                "repro_zone_command_latency_seconds",
                "propose-to-proposer-delivery latency by proposer zone",
                ("zone",),
            )
        self.dropped = r.counter(
            "repro_telemetry_dropped_commands_total",
            "commands not latency-tracked because max_pending was hit",
        )
        # cid -> (proposed_at, worst path seen so far).  Popped at
        # proposer delivery; bounded by max_pending.
        self._pending: Dict[Tuple[int, int], Tuple[float, str]] = {}
        # Resolved-child caches for the per-event hooks: one dict probe
        # instead of a ``child()`` varargs call (tuple pack, arity
        # check, family dict get) on every event.  Bounded by the same
        # label cardinality as the families themselves.
        self._inflight_gauge = self.inflight.child()
        self._proposes_c: Dict[int, object] = {}
        self._deliveries_c: Dict[int, object] = {}
        self._wire_messages_c: Dict[int, object] = {}
        self._wire_bytes_c: Dict[int, object] = {}
        self._outbox_held: Dict[int, Dict[int, int]] = {}
        self._decides_c: Dict[Tuple[int, str], object] = {}
        self._latency_c: Dict[str, object] = {}
        self._zone_decides_c: Dict[Tuple[str, str], object] = {}
        self._zone_latency_c: Dict[str, object] = {}
        self._migrations_c: Dict[int, object] = {}
        self._reads_local_c: Dict[int, object] = {}
        # Note dispatch by kind: one dict probe per note, and kinds this
        # collector does not track (``decide``, ``quorum``, ...) -- the
        # majority of note traffic under load -- fall out immediately
        # instead of walking a comparison chain.
        self._note_handlers = {
            "path": self._note_path,
            "wire_bytes": self._note_wire_bytes,
            "outbox_depth": self._note_outbox_depth,
            "inflight": self._note_inflight,
            "fsync": self._note_fsync,
            "epoch_bump": self._note_epoch_bump,
            "owner_handoff": self._note_owner_handoff,
            "migration": self._note_migration,
            "fault": self._note_fault,
            "read_local": self._note_read_local,
        }
        # Subscribe to exactly the kinds handled above: the env then
        # never calls us for the trace-layer kinds (``decide``,
        # ``quorum``) that dominate note traffic under load.
        self.note_kinds = frozenset(self._note_handlers)
        # Shadow ``on_note`` with a per-instance closure: one of the
        # busiest hooks under saturation skips the descriptor bind and
        # both attribute loads on every call.
        note_get = self._note_handlers.get

        def _dispatch_note(node_id: int, kind: str, fields: dict) -> None:
            handler = note_get(kind)
            if handler is not None:
                handler(node_id, fields)

        self.on_note = _dispatch_note  # type: ignore[method-assign]
        self._now = clock.now
        # Fault events since the last sampler drain, stamped into frames.
        self.interval_faults: List[Tuple[int, str]] = []
        self._attached: list = []
        self._nodes: list = []

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach(self, cluster) -> None:
        for node in cluster.nodes:
            node.env.add_observer(self)
            self._attached.append(node.env)
            self._nodes.append(node)

    def detach(self) -> None:
        self.refresh()  # final pull so totals survive the detach
        for env in self._attached:
            env.remove_observer(self)
        self._attached.clear()
        self._nodes.clear()

    def refresh(self) -> None:
        """Pull state that is readable at sampling cadence instead of
        being pushed per event: per-node delivery totals come from the
        substrate's own application log (``node.delivered``, plus the
        archived logs of finished amnesia incarnations), which both
        substrates maintain regardless of telemetry.  The sampler calls
        this before cutting each frame, so a Prometheus scrape sees
        delivery counts at most one sampling interval stale."""
        for node in self._nodes:
            total = len(node.delivered)
            for log in node.delivery_history:
                total += len(log)
            counter = self._deliveries_c.get(node.node_id)
            if counter is None:
                counter = self._deliveries_c[node.node_id] = (
                    self.deliveries.child(node.node_id)
                )
            counter.value = float(total)

    # ------------------------------------------------------------------
    # EnvObserver hooks
    # ------------------------------------------------------------------

    # The per-event bodies below mutate ``instrument.value`` directly
    # instead of calling ``inc``/``set``: every amount here is
    # structurally non-negative, so the method call would only re-check
    # that, and these hooks fire a dozen times per command at
    # saturation.

    def on_propose(self, node_id: int, command) -> None:
        counter = self._proposes_c.get(node_id)
        if counter is None:
            counter = self._proposes_c[node_id] = self.proposes.child(node_id)
        counter.value += 1.0
        cid = command.cid
        pending = self._pending
        if cid in pending:
            return  # re-proposal keeps the origin timestamp
        if len(pending) >= self.max_pending:
            self.dropped.inc()
            return
        pending[cid] = (self._now(), "fast")
        self._inflight_gauge.value = len(pending)

    def on_flush(self, node_id: int, queued, batches) -> None:
        # Byte counts arrive as ``wire_bytes`` notes from the substrate,
        # which knows the real frame sizes for free (the runtime just
        # encoded them; the sim just priced them for the network model).
        # Re-deriving them here via ``Message.size_bytes`` would walk
        # every message's fields on the hot path.
        counter = self._wire_messages_c.get(node_id)
        if counter is None:
            counter = self._wire_messages_c[node_id] = self.wire_messages.child(
                node_id
            )
        counter.value += len(queued)

    def on_deliver(self, node_id: int, command) -> None:
        # The env only routes proposer-side deliveries here
        # (``deliver_scope``); the guard keeps direct callers honest.
        if command.proposer != node_id:
            return  # completion is delivery at the proposer
        entry = self._pending.pop(command.cid, None)
        if entry is None:
            return
        proposed_at, path = entry
        self._inflight_gauge.value = len(self._pending)
        decided = self._decides_c.get((node_id, path))
        if decided is None:
            decided = self._decides_c[(node_id, path)] = self.decides.child(
                node_id, path
            )
        decided.value += 1.0
        histogram = self._latency_c.get(path)
        if histogram is None:
            histogram = self._latency_c[path] = self.latency.child(path)
        latency = self._now() - proposed_at
        histogram.observe(latency)
        if self.zones is not None:
            zone = str(self.zones[node_id])
            decided = self._zone_decides_c.get((zone, path))
            if decided is None:
                decided = self._zone_decides_c[(zone, path)] = (
                    self.zone_decides.child(zone, path)
                )
            decided.value += 1.0
            histogram = self._zone_latency_c.get(zone)
            if histogram is None:
                histogram = self._zone_latency_c[zone] = (
                    self.zone_latency.child(zone)
                )
            histogram.observe(latency)

    def on_note(self, node_id: int, kind: str, fields: dict) -> None:
        handler = self._note_handlers.get(kind)
        if handler is not None:
            handler(node_id, fields)

    def _note_path(self, node_id: int, fields: dict) -> None:
        entry = self._pending.get(fields["cid"])
        if entry is not None:
            path = fields["path"]
            # Escalate only: fast < forward < slow < acquisition.
            if PATH_SEVERITY.get(path, 0) > PATH_SEVERITY.get(entry[1], 0):
                self._pending[fields["cid"]] = (entry[0], path)

    def _note_wire_bytes(self, node_id: int, fields: dict) -> None:
        counter = self._wire_bytes_c.get(node_id)
        if counter is None:
            counter = self._wire_bytes_c[node_id] = self.wire_bytes.child(
                node_id
            )
        counter.value += fields["bytes"]

    def _note_outbox_depth(self, node_id: int, fields: dict) -> None:
        # dst -> batches held back for it right now
        held = self._outbox_held.setdefault(node_id, {})
        held[fields["dst"]] = fields["depth"]
        self.outbox_depth.child(node_id).value = max(held.values())

    def _note_inflight(self, node_id: int, fields: dict) -> None:
        self.client_window.child(node_id).set(fields["depth"])

    def _note_fsync(self, node_id: int, fields: dict) -> None:
        self.fsyncs.child(node_id).inc()
        seconds = fields.get("seconds")
        if seconds is not None:
            self.fsync_seconds.child(node_id).observe(seconds)

    def _note_epoch_bump(self, node_id: int, fields: dict) -> None:
        self.epoch_bumps.child(str(fields["obj"])).inc()

    def _note_owner_handoff(self, node_id: int, fields: dict) -> None:
        self.handoffs.child(str(fields["obj"])).inc()

    def _note_migration(self, node_id: int, fields: dict) -> None:
        counter = self._migrations_c.get(node_id)
        if counter is None:
            counter = self._migrations_c[node_id] = self.migrations.child(
                node_id
            )
        counter.value += 1.0

    def _note_fault(self, node_id: int, fields: dict) -> None:
        event = fields["event"]
        self.faults.child(node_id, event).inc()
        self.interval_faults.append((node_id, event))

    def _note_read_local(self, node_id: int, fields: dict) -> None:
        """A read finished at its proposer without a decide: count it
        and close its latency window under the ``read_local`` path."""
        counter = self._reads_local_c.get(node_id)
        if counter is None:
            counter = self._reads_local_c[node_id] = self.reads_local.child(
                node_id
            )
        counter.value += 1.0
        entry = self._pending.pop(fields.get("cid"), None)
        if entry is None:
            return
        proposed_at, _ = entry
        self._inflight_gauge.value = len(self._pending)
        path = "read_local"
        decided = self._decides_c.get((node_id, path))
        if decided is None:
            decided = self._decides_c[(node_id, path)] = self.decides.child(
                node_id, path
            )
        decided.value += 1.0
        histogram = self._latency_c.get(path)
        if histogram is None:
            histogram = self._latency_c[path] = self.latency.child(path)
        histogram.observe(self._now() - proposed_at)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def pending(self) -> int:
        """Commands proposed but not yet delivered at their proposer."""
        return len(self._pending)

    def drain_faults(self) -> List[Tuple[int, str]]:
        faults, self.interval_faults = self.interval_faults, []
        return faults
