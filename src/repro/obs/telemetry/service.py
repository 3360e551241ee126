"""One-call telemetry facade for either substrate.

``Telemetry(cluster)`` wires collector → sampler → detector for a sim
``Cluster`` (virtual clock, event-loop timer cadence) or a runtime
``LocalCluster`` (wall clock, asyncio task cadence), on the clock
``repro.obs.clock.clock_for`` picks for it.  Optional per-node
Prometheus endpoints share the one registry (samples carry ``node``
labels, so any endpoint exposes the full cluster view).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

from repro.obs.clock import SimClock, clock_for

from .collector import TelemetryCollector
from .health import HealthConfig, HealthDetector
from .prometheus import MetricsServer
from .registry import MetricsRegistry
from .sampler import IntervalSampler


class Telemetry:
    """Live telemetry for one cluster: collector, sampler, detector."""

    def __init__(
        self,
        cluster,
        interval: float = 0.25,
        ring: int = 240,
        registry: Optional[MetricsRegistry] = None,
        health: Optional[HealthConfig] = None,
        max_pending: int = 65536,
        const_labels: Optional[dict] = None,
    ) -> None:
        self.cluster = cluster
        self.clock = clock_for(cluster)
        self._sim_loop = (
            self.clock.loop if isinstance(self.clock, SimClock) else None
        )
        self.registry = (
            registry
            if registry is not None
            else MetricsRegistry(const_labels=const_labels)
        )
        # Geo runs: pick the zone map off the sim cluster's config so
        # per-zone instruments appear without any explicit wiring.
        # (``LocalCluster`` has no ``config``: per-zone labels are a
        # simulator feature.)
        zones = getattr(getattr(cluster, "config", None), "zones", None)
        self.collector = TelemetryCollector(
            self.clock,
            registry=self.registry,
            max_pending=max_pending,
            zones=zones,
        )
        self.collector.attach(cluster)
        self.sampler = IntervalSampler(
            self.collector, self.clock, interval=interval, ring=ring
        )
        self.detector = HealthDetector(health)
        self.sampler.add_listener(self.detector.observe_frame)
        self.servers: List[MetricsServer] = []
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the sampling cadence on the sim's virtual clock."""
        if self._sim_loop is None:
            raise RuntimeError(
                "no event loop on this cluster; use start_runtime() instead"
            )
        self.sampler.start_sim(self._sim_loop)
        self._started = True

    async def start_runtime(
        self, serve: bool = False, host: str = "127.0.0.1"
    ) -> None:
        """Start the wall-clock cadence; optionally one HTTP endpoint
        per runtime node (all serving the shared registry)."""
        if self._sim_loop is not None:
            raise RuntimeError("sim cluster detected; use start() instead")
        self.sampler.start_runtime()
        self._started = True
        if serve:
            for node in self.cluster.nodes:
                server = MetricsServer(self.registry, host=host)
                address = await server.start()
                self.servers.append(server)
                # Stamp the scrape address on the node for discoverability.
                node.metrics_address = address

    async def stop_runtime(self) -> None:
        self.sampler.stop()
        for server in self.servers:
            await server.stop()
        self.servers.clear()
        self._started = False

    def stop(self) -> None:
        """Stop sampling (sim, or runtime without servers)."""
        self.sampler.stop()
        self._started = False

    def detach(self) -> None:
        self.collector.detach()

    def subscribe_protocols(self) -> int:
        """Wire every protocol exposing ``on_health_event`` (e.g. the
        :class:`~repro.core.switcher.AdaptiveSwitcher`) to the detector.
        Handlers run inside the node's event scope, so any sends they
        issue flush as normal batches (and a crashed host runs nothing).
        Returns the number of nodes subscribed."""
        wired = 0
        for node in self.cluster.nodes:
            handler = getattr(node.protocol, "on_health_event", None)
            if handler is None:
                continue
            self.detector.subscribe(partial(node.run_event, handler))
            wired += 1
        return wired

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def frames(self):
        return self.sampler.frames

    @property
    def events(self):
        return self.detector.events

    @property
    def endpoints(self) -> List[Tuple[str, int]]:
        return [s.address for s in self.servers if s.address is not None]

    def final_sample(self):
        """Cut one last (possibly partial) frame; safe after stop()."""
        return self.sampler.sample()
