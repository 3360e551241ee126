"""Live, bounded-memory telemetry shared by both substrates.

Layers (each usable alone):

- :mod:`~repro.obs.telemetry.sketch` — ``LogSketch`` streaming quantile
  sketch: fixed log-scale buckets, O(buckets) quantiles, documented
  relative-error bound.
- :mod:`~repro.obs.telemetry.collector` — ``TelemetryCollector``, an
  ``EnvObserver`` folding the event stream into plain counters, gauges
  and sketches with O(1) per-command state.
- :mod:`~repro.obs.telemetry.sampler` — ``IntervalSampler`` cutting
  per-interval ``Frame``s into a ring buffer (virtual-clock timers in
  the sim, an asyncio task in the runtime).
- :mod:`~repro.obs.telemetry.health` — ``HealthDetector`` emitting
  ``contention`` / ``overload`` / ``stall`` events from frames.
- :mod:`~repro.obs.telemetry.service` — the ``Telemetry`` facade wiring
  all of the above to a cluster of either substrate.
"""

from .collector import PATHS, TelemetryCollector
from .health import HealthDetector, HealthEvent
from .sampler import Frame, IntervalSampler
from .service import Telemetry
from .sketch import LogSketch

__all__ = [
    "PATHS",
    "Frame",
    "HealthDetector",
    "HealthEvent",
    "IntervalSampler",
    "LogSketch",
    "Telemetry",
    "TelemetryCollector",
]
