"""Network latency models.

A :class:`LatencyModel` maps ``(src, dst, rng)`` to a one-way propagation
delay in seconds.  Transmission (size / bandwidth) is added separately by
:class:`repro.sim.network.Network`, so these models only describe
propagation + switching delay.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod


class LatencyModel(ABC):
    """One-way propagation delay between two nodes."""

    @abstractmethod
    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        """Delay in seconds for a message from ``src`` to ``dst``."""

    def loopback(self) -> float:
        """Delay for a node's message to itself (in-process hand-off)."""
        return 0.0


class FixedLatency(LatencyModel):
    """Constant delay between any pair of distinct nodes."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError("latency must be >= 0")
        self.delay = delay

    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        if src == dst:
            return self.loopback()
        return self.delay


class UniformLatency(LatencyModel):
    """Uniformly distributed delay in ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise ValueError("need 0 <= low <= high")
        self.low = low
        self.high = high

    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        if src == dst:
            return self.loopback()
        return rng.uniform(self.low, self.high)


GAUSSIAN_FLOOR = 1e-6  # seconds: the least delay a Gaussian sample gives


class GaussianLatency(LatencyModel):
    """Normally distributed delay, truncated at :data:`GAUSSIAN_FLOOR`.

    Models a LAN: a tight mean with occasional stragglers.
    """

    def __init__(self, mean: float, stddev: float) -> None:
        if mean <= 0 or stddev < 0:
            raise ValueError("mean must be > 0 and stddev >= 0")
        self.mean = mean
        self.stddev = stddev

    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        if src == dst:
            return self.loopback()
        return max(GAUSSIAN_FLOOR, rng.gauss(self.mean, self.stddev))


class TopologyLatency(LatencyModel):
    """Explicit per-pair base delays (e.g. a WAN matrix) plus jitter.

    ``matrix[i][j]`` is the base one-way delay from node ``i`` to node
    ``j``.  ``jitter`` is the half-width of a uniform perturbation:
    samples are ``base + uniform(-jitter, +jitter)``, floored at 0 so a
    jitter wider than the base delay cannot go negative.  ``jitter=0``
    draws nothing from the RNG, keeping the default matrix path
    byte-identical to jitter-free runs.
    """

    def __init__(self, matrix: list[list[float]], jitter: float = 0.0) -> None:
        n = len(matrix)
        for row in matrix:
            if len(row) != n:
                raise ValueError("latency matrix must be square")
        if jitter < 0:
            raise ValueError("jitter must be >= 0")
        self.matrix = matrix
        self.jitter = jitter

    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        if src == dst:
            return self.loopback()
        base = self.matrix[src][dst]
        if self.jitter:
            base = max(0.0, base + rng.uniform(-self.jitter, self.jitter))
        return base

    @classmethod
    def from_zones(
        cls,
        zones: "tuple[int, ...] | list[int]",
        intra: float,
        inter: float,
        jitter: float = 0.0,
    ) -> "TopologyLatency":
        """Compile a zone assignment into a full WAN matrix.

        ``zones[i]`` is the zone of node ``i``; same-zone pairs get the
        ``intra`` one-way delay, cross-zone pairs ``inter``.  This is
        the :class:`repro.spec.ClusterSpec` zone-latency shorthand's
        target representation -- anything finer (per-zone-pair delays)
        should construct the matrix directly.
        """
        if intra < 0 or inter < 0:
            raise ValueError("zone latencies must be >= 0")
        matrix = [
            [
                0.0 if i == j else (intra if zi == zj else inter)
                for j, zj in enumerate(zones)
            ]
            for i, zi in enumerate(zones)
        ]
        return cls(matrix, jitter=jitter)
