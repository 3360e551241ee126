"""Clock abstraction: one collector, two notions of time.

The simulator runs on a virtual clock (the event loop's ``now``); the
asyncio runtime runs on the wall clock.  Observability code takes a
:class:`Clock` so the same collector, span model, and exporters work
unchanged on both substrates -- timestamps are just "seconds on this
substrate's clock".
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod


class Clock(ABC):
    """Source of timestamps for observability data."""

    @abstractmethod
    def now(self) -> float:
        """Current time in seconds (monotonic within one run)."""


class SimClock(Clock):
    """Virtual time of a simulator event loop."""

    def __init__(self, loop) -> None:
        self.loop = loop

    def now(self) -> float:
        return self.loop.now


class WallClock(Clock):
    """Monotonic wall time -- the same timebase asyncio loops use."""

    def now(self) -> float:
        return time.monotonic()


def clock_for(cluster) -> Clock:
    """The clock of ``cluster``'s substrate: virtual time when it runs
    on a simulator event loop (a sim ``Cluster``), wall time otherwise
    (a runtime ``LocalCluster``)."""
    loop = getattr(cluster, "loop", None)
    return SimClock(loop) if loop is not None else WallClock()
