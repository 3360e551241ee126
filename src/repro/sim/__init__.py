"""Deterministic discrete-event simulation substrate.

Everything in this package is driven by a single virtual clock
(:class:`repro.sim.event_loop.EventLoop`).  Determinism is guaranteed by
(a) a totally ordered event heap with sequence-number tie-breaking and
(b) explicit seeded RNG streams (:mod:`repro.sim.rng`) -- no global
random state, no wall-clock reads.
"""

from repro.sim.event_loop import Event, EventLoop
from repro.sim.latency import (
    FixedLatency,
    GaussianLatency,
    LatencyModel,
    TopologyLatency,
    UniformLatency,
)
from repro.sim.network import Network, NetworkConfig
from repro.sim.cpu import CpuModel, CpuConfig
from repro.sim.node import SimEnv, SimNode
from repro.sim.cluster import Cluster
from repro.sim.trace import Tracer, TraceEvent

__all__ = [
    "Event",
    "EventLoop",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "GaussianLatency",
    "TopologyLatency",
    "Network",
    "NetworkConfig",
    "CpuModel",
    "CpuConfig",
    "SimEnv",
    "SimNode",
    "Cluster",
    "Tracer",
    "TraceEvent",
]
