"""Bounded-memory live metrics collector.

``TelemetryCollector`` is the second :class:`~repro.consensus.base.EnvObserver`
implementation in the tree, built for *live* consumption where
:class:`~repro.obs.collect.ObsCollector` is built for post-hoc analysis.
The difference is memory: ObsCollector keeps one ``CommandTrace`` per
command forever; this collector folds every event into plain data the
moment it arrives -- cluster-wide counters, one ``LogSketch`` per
decision path, zone and the fsync stream, and per-node outbox and
client-window gauges.  The only per-command state is a pending map from
cid to ``(proposed_at, path)`` that is popped at proposer delivery and
capped at :data:`MAX_PENDING` entries (overflow counted, never stored), so a
week-long run holds the same few hundred kilobytes as a one-second run.

The collector is *push where it must, pull where it can*: per-event
hooks carry only what exists per event (completion latency, decision
paths, wire counters), while state that is readable at sampling cadence
-- delivery totals -- is pulled in :meth:`TelemetryCollector.refresh`.
Together with the subscription attributes on
:class:`~repro.consensus.base.EnvObserver` this keeps the live stack's
saturation-throughput tax to a few percent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.consensus.base import EnvObserver
from repro.obs.clock import Clock
from repro.obs.span import PATH_SEVERITY

from .sketch import LogSketch

# The four consensus decision paths plus the serving tier's
# consensus-free one (leased owner-local reads) -- the sampler's
# per-path iteration covers all five so served reads appear in frame
# throughput and latency breakdowns like any other completion.
PATHS = tuple(PATH_SEVERITY) + ("read_local",)

# Bound on the pending map: commands proposed and not yet delivered
# that are latency-tracked at once.
MAX_PENDING = 65536


class TelemetryCollector(EnvObserver):
    """Fold the env event stream into plain counters, gauges and sketches."""

    # Counters have no use for per-handler CPU brackets; opting out
    # lets the dispatcher skip two observer calls and two clock reads
    # per message when only telemetry is attached.
    wants_handler_timing = False
    # Per-event delivery hooks only for client-visible completions (the
    # latency/decide accounting); delivery *totals* are pulled from the
    # substrate's own delivery log in :meth:`refresh`, so the replicated
    # copies' fan-out can be skipped.
    deliver_scope = "proposer"

    def __init__(self, clock: Clock, zones: Optional[Sequence[int]] = None) -> None:
        # Cumulative cluster-wide counters; the sampler differences them.
        self.proposes = 0
        self.deliveries = 0  # pulled in refresh()
        self.decides: Dict[str, int] = dict.fromkeys(PATHS, 0)
        self.wire_messages = 0
        self.wire_bytes = 0
        self.fsyncs = 0
        self.epoch_bumps = 0
        self.handoffs = 0
        self.migrations = 0
        self.reads_local = 0
        # Commands not latency-tracked because MAX_PENDING was hit.
        self.dropped = 0
        # Propose-to-proposer-delivery latency by path, and the wall
        # time of one storage flush.
        self.latency: Dict[str, LogSketch] = {path: LogSketch() for path in PATHS}
        self.fsync_seconds = LogSketch(low=1e-7, high=1e2)
        # Geo runs: ``zones[node_id]`` keys the decide/latency stream
        # per region; None (the default) keeps the zone maps empty.
        self._zone_of: Optional[Tuple[str, ...]] = (
            tuple(str(zone) for zone in zones) if zones is not None else None
        )
        self.zone_decides: Dict[str, int] = {}
        self.zone_fast: Dict[str, int] = {}
        self.zone_latency: Dict[str, LogSketch] = {}
        # Per-node gauges: flush batches held back behind a connecting
        # or paused link (worst destination), and the client pipeline
        # depth (PipelineDriver inflight notes).
        self.outbox_depth: Dict[int, int] = {}
        self.client_window: Dict[int, int] = {}
        self._outbox_held: Dict[int, Dict[int, int]] = {}
        # cid -> (proposed_at, worst path seen so far).  Popped at
        # proposer delivery; bounded by MAX_PENDING.
        self._pending: Dict[Tuple[int, int], Tuple[float, str]] = {}
        # Note dispatch by kind: one dict probe per note.
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
        being pushed per event: delivery totals come from the
        substrate's own application log (``node.delivered``, plus the
        archived logs of finished amnesia incarnations), which both
        substrates maintain regardless of telemetry.  The sampler calls
        this before cutting each frame."""
        if not self._nodes:
            return
        total = 0
        for node in self._nodes:
            total += len(node.delivered)
            for log in node.delivery_history:
                total += len(log)
        self.deliveries = total

    # ------------------------------------------------------------------
    # EnvObserver hooks
    # ------------------------------------------------------------------

    def on_propose(self, node_id: int, command) -> None:
        self.proposes += 1
        cid = command.cid
        pending = self._pending
        if cid in pending:
            return  # re-proposal keeps the origin timestamp
        if len(pending) >= MAX_PENDING:
            self.dropped += 1
            return
        pending[cid] = (self._now(), "fast")

    def on_flush(self, node_id: int, queued, batches) -> None:
        # Byte counts arrive as ``wire_bytes`` notes from the substrate,
        # which knows the real frame sizes for free (the runtime just
        # encoded them; the sim just priced them for the network model).
        # Re-deriving them here via ``Message.size_bytes`` would walk
        # every message's fields on the hot path.
        self.wire_messages += len(queued)

    def on_deliver(self, node_id: int, command) -> None:
        # The env only routes proposer-side deliveries here
        # (``deliver_scope``); the guard keeps direct callers honest.
        if command.proposer != node_id:
            return  # completion is delivery at the proposer
        entry = self._pending.pop(command.cid, None)
        if entry is None:
            return
        proposed_at, path = entry
        latency = self._complete(proposed_at, path)
        if self._zone_of is not None:
            zone = self._zone_of[node_id]
            self.zone_decides[zone] = self.zone_decides.get(zone, 0) + 1
            if path == "fast":
                self.zone_fast[zone] = self.zone_fast.get(zone, 0) + 1
            sketch = self.zone_latency.get(zone)
            if sketch is None:
                sketch = self.zone_latency[zone] = LogSketch()
            sketch.observe(latency)

    def _complete(self, proposed_at: float, path: str) -> float:
        """Count one completion under ``path``; returns its latency."""
        latency = self._now() - proposed_at
        self.decides[path] += 1
        self.latency[path].observe(latency)
        return latency

    def _note_path(self, node_id: int, fields: dict) -> None:
        entry = self._pending.get(fields["cid"])
        if entry is not None:
            path = fields["path"]
            # Escalate only: fast < forward < slow < acquisition.
            if PATH_SEVERITY.get(path, 0) > PATH_SEVERITY.get(entry[1], 0):
                self._pending[fields["cid"]] = (entry[0], path)

    def _note_wire_bytes(self, node_id: int, fields: dict) -> None:
        self.wire_bytes += fields["bytes"]

    def _note_outbox_depth(self, node_id: int, fields: dict) -> None:
        # dst -> batches held back for it right now
        held = self._outbox_held.setdefault(node_id, {})
        held[fields["dst"]] = fields["depth"]
        self.outbox_depth[node_id] = max(held.values())

    def _note_inflight(self, node_id: int, fields: dict) -> None:
        self.client_window[node_id] = fields["depth"]

    def _note_fsync(self, node_id: int, fields: dict) -> None:
        self.fsyncs += 1
        seconds = fields.get("seconds")
        if seconds is not None:
            self.fsync_seconds.observe(seconds)

    def _note_epoch_bump(self, node_id: int, fields: dict) -> None:
        self.epoch_bumps += 1

    def _note_owner_handoff(self, node_id: int, fields: dict) -> None:
        self.handoffs += 1

    def _note_migration(self, node_id: int, fields: dict) -> None:
        self.migrations += 1

    def _note_fault(self, node_id: int, fields: dict) -> None:
        self.interval_faults.append((node_id, fields["event"]))

    def _note_read_local(self, node_id: int, fields: dict) -> None:
        """A read finished at its proposer without a decide: count it
        and close its latency window under the ``read_local`` path."""
        self.reads_local += 1
        entry = self._pending.pop(fields.get("cid"), None)
        if entry is not None:
            self._complete(entry[0], "read_local")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def pending(self) -> int:
        """Commands proposed but not yet delivered at their proposer."""
        return len(self._pending)

    def drain_faults(self) -> List[Tuple[int, str]]:
        faults, self.interval_faults = self.interval_faults, []
        return faults
