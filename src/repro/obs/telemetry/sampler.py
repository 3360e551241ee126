"""Interval sampling: registry snapshots into a ring of frames.

The :class:`IntervalSampler` differences the live registry on a cadence
and appends one :class:`Frame` per interval to a bounded ring buffer.
Cadence semantics follow the substrate's clock:

- **Simulator**: a repeating event-loop timer fires ``sample()`` every
  ``interval`` *virtual* seconds.  The callback only reads, so decision
  logs stay byte-identical with the sampler attached (sampler events
  shift event sequence numbers but never the relative order of protocol
  events).  Note that a repeating timer keeps the loop's heap non-empty:
  drive sampled sim runs with ``run_for``/``run_until`` (not
  run-to-quiescence) or ``stop()`` the sampler first.
- **Runtime**: an asyncio task sleeps ``interval`` *wall* seconds
  between samples.

Frames are plain data (``to_dict`` → JSONL exportable) and are fanned to
listeners as they are cut — the :class:`~repro.obs.telemetry.health.HealthDetector`
is one such listener, `repro top` is another.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.clock import Clock

from .collector import PATHS, TelemetryCollector

FrameListener = Callable[["Frame"], None]


@dataclass(frozen=True)
class Frame:
    """Aggregates for one sampling interval (deltas unless noted)."""

    index: int
    start: float
    end: float
    proposes: int
    decides: int
    deliveries: int
    throughput: float  # decides per second over the interval
    path_counts: Dict[str, int]
    path_p50: Dict[str, float]  # seconds; NaN when the path saw nothing
    path_p99: Dict[str, float]
    p50: float  # across all paths
    p99: float
    fast_share: float  # NaN when no decides
    inflight: int  # gauge at sample time (pending at proposers)
    client_window: int  # max PipelineDriver depth across nodes
    outbox_depth: int  # batches held back at sample time (worst node)
    wire_messages: int
    wire_bytes: int
    fsyncs: int
    fsync_p99: float  # seconds; NaN when no fsyncs this interval
    epoch_bumps: int
    handoffs: int
    dropped_commands: int  # cumulative, not a delta
    faults: Tuple[Tuple[int, str], ...] = field(default_factory=tuple)
    # Geo fields (empty/zero on single-zone runs): ownership migrations
    # this interval, and per-zone decide/latency breakdowns keyed by
    # zone label.
    migrations: int = 0
    # Serving tier (zero on lease-less runs): reads answered locally
    # under a lease, retries answered from the session cache, and
    # session entries evicted by the cap -- all interval deltas.  Served
    # completions also appear in ``path_counts`` under "read_local" /
    # "session_hit" (and hence in ``decides``/``throughput``).
    reads_local: int = 0
    session_hits: int = 0
    session_evictions: int = 0
    zone_decides: Dict[str, int] = field(default_factory=dict)
    zone_fast_share: Dict[str, float] = field(default_factory=dict)
    zone_p50: Dict[str, float] = field(default_factory=dict)
    zone_p99: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def path_ratio(self, path: str) -> float:
        """Share of this interval's decides that took ``path``."""
        if not self.decides:
            return float("nan")
        return self.path_counts.get(path, 0) / self.decides

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["faults"] = [list(f) for f in self.faults]
        return payload


class _CounterState:
    """Previous totals for delta computation, keyed by family/label."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.by_path: Dict[str, float] = {}
        self.sketches: Dict[str, object] = {}  # name -> LogSketch.state()


class IntervalSampler:
    """Cut per-interval frames from a :class:`TelemetryCollector`."""

    def __init__(
        self,
        collector: TelemetryCollector,
        clock: Clock,
        interval: float = 0.25,
        ring: int = 240,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.collector = collector
        self.clock = clock
        self.interval = interval
        self.frames: Deque[Frame] = deque(maxlen=ring)
        self.listeners: List[FrameListener] = []
        self._prev = _CounterState()
        self._window_start = clock.now()
        self._index = 0
        self._sim_timer = None
        self._wall_task: Optional[asyncio.Task] = None

    def add_listener(self, listener: FrameListener) -> None:
        self.listeners.append(listener)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def _delta(self, family) -> float:
        current = family.total()
        previous = self._prev.totals.get(family.name, 0.0)
        self._prev.totals[family.name] = current
        return current - previous

    def _path_deltas(self) -> Dict[str, int]:
        grouped = self.collector.decides.totals_by("path")
        deltas: Dict[str, int] = {}
        for path in PATHS:
            current = grouped.get(path, 0.0)
            previous = self._prev.by_path.get(path, 0.0)
            self._prev.by_path[path] = current
            delta = int(current - previous)
            if delta:
                deltas[path] = delta
        return deltas

    def _interval_sketch(self, name: str, sketch):
        previous = self._prev.sketches.get(name)
        self._prev.sketches[name] = sketch.state()
        return sketch.since(previous)

    def sample(self) -> Frame:
        """Cut one frame covering [previous sample, now)."""
        collector = self.collector
        # Pull-updated instruments (per-node delivery totals) refresh at
        # sampling cadence, right before the deltas are taken.
        collector.refresh()
        now = self.clock.now()
        duration = now - self._window_start
        proposes = self._delta(collector.proposes)
        decides_by_path = self._path_deltas()
        decides = sum(decides_by_path.values())
        deliveries = self._delta(collector.deliveries)

        path_p50: Dict[str, float] = {}
        path_p99: Dict[str, float] = {}
        overall = None
        for path in PATHS:
            child = collector.latency.children.get((path,))
            if child is None:
                continue
            interval_sketch = self._interval_sketch(f"latency:{path}", child.sketch)
            if overall is None:
                overall = interval_sketch
            else:
                overall.merge(interval_sketch)
            if interval_sketch.count:
                path_p50[path] = interval_sketch.quantile(50)
                path_p99[path] = interval_sketch.quantile(99)
        nan = float("nan")
        p50 = overall.quantile(50) if overall is not None else nan
        p99 = overall.quantile(99) if overall is not None else nan

        fsync_p99 = nan
        fsyncs = int(self._delta(collector.fsyncs))
        fsync_overall = None
        for key, child in collector.fsync_seconds.children.items():
            interval_sketch = self._interval_sketch(
                f"fsync:{key[0]}", child.sketch
            )
            if fsync_overall is None:
                fsync_overall = interval_sketch
            else:
                fsync_overall.merge(interval_sketch)
        if fsync_overall is not None and fsync_overall.count:
            fsync_p99 = fsync_overall.quantile(99)

        zone_decides: Dict[str, int] = {}
        zone_fast: Dict[str, int] = {}
        zone_p50: Dict[str, float] = {}
        zone_p99: Dict[str, float] = {}
        if collector.zone_decides is not None:
            for (zone, path), child in collector.zone_decides.children.items():
                key = f"zone_decides:{zone}:{path}"
                previous = self._prev.totals.get(key, 0.0)
                self._prev.totals[key] = child.value
                delta = int(child.value - previous)
                if delta:
                    zone_decides[zone] = zone_decides.get(zone, 0) + delta
                    if path == "fast":
                        zone_fast[zone] = zone_fast.get(zone, 0) + delta
            for (zone,), child in collector.zone_latency.children.items():
                interval_sketch = self._interval_sketch(
                    f"zone_latency:{zone}", child.sketch
                )
                if interval_sketch.count:
                    zone_p50[zone] = interval_sketch.quantile(50)
                    zone_p99[zone] = interval_sketch.quantile(99)
        zone_fast_share = {
            zone: zone_fast.get(zone, 0) / count
            for zone, count in zone_decides.items()
        }

        outbox = collector.outbox_depth.children.values()
        window = collector.client_window.children.values()
        frame = Frame(
            index=self._index,
            start=self._window_start,
            end=now,
            proposes=int(proposes),
            decides=decides,
            deliveries=int(deliveries),
            throughput=decides / duration if duration > 0 else 0.0,
            path_counts=decides_by_path,
            path_p50=path_p50,
            path_p99=path_p99,
            p50=p50,
            p99=p99,
            fast_share=(
                decides_by_path.get("fast", 0) / decides if decides else nan
            ),
            inflight=collector.pending(),
            client_window=int(max((g.value for g in window), default=0)),
            outbox_depth=int(max((g.value for g in outbox), default=0)),
            wire_messages=int(self._delta(collector.wire_messages)),
            wire_bytes=int(self._delta(collector.wire_bytes)),
            fsyncs=fsyncs,
            fsync_p99=fsync_p99,
            epoch_bumps=int(self._delta(collector.epoch_bumps)),
            handoffs=int(self._delta(collector.handoffs)),
            dropped_commands=int(collector.dropped.value),
            faults=tuple(collector.drain_faults()),
            migrations=int(self._delta(collector.migrations)),
            reads_local=int(self._delta(collector.reads_local)),
            session_hits=int(self._delta(collector.session_hits)),
            session_evictions=int(self._delta(collector.session_evictions)),
            zone_decides=zone_decides,
            zone_fast_share=zone_fast_share,
            zone_p50=zone_p50,
            zone_p99=zone_p99,
        )
        self._window_start = now
        self._index += 1
        self.frames.append(frame)
        for listener in self.listeners:
            listener(frame)
        return frame

    # ------------------------------------------------------------------
    # Scheduling — virtual clock (sim) or wall clock (runtime)
    # ------------------------------------------------------------------

    def start_sim(self, loop) -> None:
        """Repeat ``sample()`` every ``interval`` virtual seconds."""
        if self._sim_timer is not None:
            raise RuntimeError("sampler already started")
        self._window_start = self.clock.now()
        self._sim_timer = loop.schedule_repeating(self.interval, self.sample)

    def start_runtime(self) -> None:
        """Repeat ``sample()`` every ``interval`` wall seconds (asyncio)."""
        if self._wall_task is not None:
            raise RuntimeError("sampler already started")
        self._window_start = self.clock.now()

        async def _run() -> None:
            while True:
                await asyncio.sleep(self.interval)
                self.sample()

        self._wall_task = asyncio.get_running_loop().create_task(_run())

    def stop(self) -> None:
        if self._sim_timer is not None:
            self._sim_timer.cancel()
            self._sim_timer = None
        if self._wall_task is not None:
            self._wall_task.cancel()
            self._wall_task = None

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def write_jsonl(self, path: str) -> int:
        """Write every buffered frame as one JSON object per line."""
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            for frame in self.frames:
                fh.write(json.dumps(_jsonable(frame.to_dict())) + "\n")
                count += 1
        return count


def _jsonable(obj):
    """JSON has no NaN; export them as null."""
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj
