"""Interval sampling: collector snapshots into a ring of frames.

The :class:`IntervalSampler` differences the live collector on a cadence
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

Frames are plain data and are fanned to listeners as they are cut — the
:class:`~repro.obs.telemetry.health.HealthDetector` is one such listener.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.clock import Clock

from .collector import PATHS, TelemetryCollector
from .sketch import LogSketch

RING = 240  # frames kept: a minute of history at the default 0.25 s cadence

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
    fsync_p99: float  # seconds; NaN when no timed (DiskStorage) flush this interval
    epoch_bumps: int
    handoffs: int
    dropped_commands: int  # cumulative, not a delta
    faults: Tuple[Tuple[int, str], ...] = field(default_factory=tuple)
    # Geo fields (empty/zero on single-zone runs): ownership migrations
    # this interval, and per-zone decide/latency breakdowns keyed by
    # zone label.
    migrations: int = 0
    # Serving tier (zero on lease-less runs): reads answered locally
    # under a lease, an interval delta.  Served completions also appear
    # in ``path_counts`` under "read_local" (and hence in
    # ``decides``/``throughput``).
    reads_local: int = 0
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


class IntervalSampler:
    """Cut per-interval frames from a :class:`TelemetryCollector`."""

    def __init__(
        self,
        collector: TelemetryCollector,
        clock: Clock,
        interval: float = 0.25,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.collector = collector
        self.clock = clock
        self.interval = interval
        self.frames: Deque[Frame] = deque(maxlen=RING)
        self.listeners: List[FrameListener] = []
        # Previous cumulative totals and sketch states, for differencing.
        self._prev_totals: Dict[object, int] = {}
        self._prev_sketches: Dict[object, tuple] = {}
        self._window_start = clock.now()
        self._index = 0
        self._sim_timer = None
        self._wall_task: Optional[asyncio.Task] = None

    def add_listener(self, listener: FrameListener) -> None:
        self.listeners.append(listener)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def _delta(self, key, current: int) -> int:
        previous = self._prev_totals.get(key, 0)
        self._prev_totals[key] = current
        return current - previous

    def _interval_sketch(self, key, sketch: LogSketch) -> LogSketch:
        """Observations since the last sample.  ``since`` carries no
        min/max, so interval quantiles are pure bucket estimates."""
        previous = self._prev_sketches.get(key)
        self._prev_sketches[key] = sketch.state()
        return sketch.since(previous)

    def sample(self) -> Frame:
        """Cut one frame covering [previous sample, now)."""
        collector = self.collector
        # Pull-updated totals (deliveries) refresh at sampling cadence,
        # right before the deltas are taken.
        collector.refresh()
        now = self.clock.now()
        duration = now - self._window_start
        delta = self._delta

        path_counts: Dict[str, int] = {}
        path_p50: Dict[str, float] = {}
        path_p99: Dict[str, float] = {}
        overall = LogSketch()
        for path in PATHS:
            count = delta(("decides", path), collector.decides[path])
            if count:
                path_counts[path] = count
            interval_sketch = self._interval_sketch(path, collector.latency[path])
            overall.merge(interval_sketch)
            if interval_sketch.count:
                path_p50[path] = interval_sketch.quantile(50)
                path_p99[path] = interval_sketch.quantile(99)
        decides = sum(path_counts.values())
        fsync = self._interval_sketch("fsync", collector.fsync_seconds)

        zone_decides: Dict[str, int] = {}
        zone_fast_share: Dict[str, float] = {}
        zone_p50: Dict[str, float] = {}
        zone_p99: Dict[str, float] = {}
        for zone, total in collector.zone_decides.items():
            count = delta(("zone", zone), total)
            fast = delta(("zone_fast", zone), collector.zone_fast.get(zone, 0))
            if count:
                zone_decides[zone] = count
                zone_fast_share[zone] = fast / count
        for zone, sketch in collector.zone_latency.items():
            interval_sketch = self._interval_sketch(("zone", zone), sketch)
            if interval_sketch.count:
                zone_p50[zone] = interval_sketch.quantile(50)
                zone_p99[zone] = interval_sketch.quantile(99)

        nan = float("nan")
        frame = Frame(
            index=self._index,
            start=self._window_start,
            end=now,
            proposes=delta("proposes", collector.proposes),
            decides=decides,
            deliveries=delta("deliveries", collector.deliveries),
            throughput=decides / duration if duration > 0 else 0.0,
            path_counts=path_counts,
            path_p50=path_p50,
            path_p99=path_p99,
            p50=overall.quantile(50),
            p99=overall.quantile(99),
            fast_share=path_counts.get("fast", 0) / decides if decides else nan,
            inflight=collector.pending(),
            client_window=max(collector.client_window.values(), default=0),
            outbox_depth=max(collector.outbox_depth.values(), default=0),
            wire_messages=delta("wire_messages", collector.wire_messages),
            wire_bytes=delta("wire_bytes", collector.wire_bytes),
            fsyncs=delta("fsyncs", collector.fsyncs),
            fsync_p99=fsync.quantile(99),
            epoch_bumps=delta("epoch_bumps", collector.epoch_bumps),
            handoffs=delta("handoffs", collector.handoffs),
            dropped_commands=collector.dropped,
            faults=tuple(collector.drain_faults()),
            migrations=delta("migrations", collector.migrations),
            reads_local=delta("reads_local", collector.reads_local),
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
