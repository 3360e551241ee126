"""One-call telemetry facade for either substrate.

``Telemetry(cluster)`` wires collector → sampler → detector for a sim
``Cluster`` (virtual clock, event-loop timer cadence) or a runtime
``LocalCluster`` (wall clock, asyncio task cadence), on the clock
``repro.obs.clock.clock_for`` picks for it.
"""

from __future__ import annotations

from repro.obs.clock import SimClock, clock_for

from .collector import TelemetryCollector
from .health import HealthDetector
from .sampler import IntervalSampler


class Telemetry:
    """Live telemetry for one cluster: collector, sampler, detector."""

    def __init__(self, cluster, interval: float = 0.25) -> None:
        self.clock = clock_for(cluster)
        # Geo runs: pick the zone map off the sim cluster's config so
        # per-zone breakdowns appear without any explicit wiring.
        # (``LocalCluster`` has no ``config``: per-zone frames are a
        # simulator feature.)
        zones = getattr(getattr(cluster, "config", None), "zones", None)
        self.collector = TelemetryCollector(self.clock, zones=zones)
        self.collector.attach(cluster)
        self.sampler = IntervalSampler(self.collector, self.clock, interval=interval)
        self.detector = HealthDetector()
        self.sampler.add_listener(self.detector.observe_frame)

    def start(self) -> None:
        """Start sampling: on the sim's virtual clock, or on the wall
        clock from the running asyncio loop for a runtime cluster."""
        if isinstance(self.clock, SimClock):
            self.sampler.start_sim(self.clock.loop)
        else:
            self.sampler.start_runtime()

    def stop(self) -> None:
        self.sampler.stop()

    def detach(self) -> None:
        self.collector.detach()

    @property
    def frames(self):
        return self.sampler.frames

    @property
    def events(self):
        return self.detector.events

    def final_sample(self):
        """Cut one last (possibly partial) frame; safe after stop()."""
        return self.sampler.sample()
