"""Streaming quantile sketch: fixed-bucket log-scale histogram.

``LogSketch`` records observations into geometrically spaced buckets so a
quantile query costs O(buckets), never O(samples), and memory is fixed at
construction time regardless of run length.  With growth factor ``g`` the
bucket edges are ``low * g**i``; a quantile is answered with the geometric
midpoint of the bucket holding the target rank, so the per-bucket relative
error is bounded by ``sqrt(g) - 1`` for any in-range sample.  The default
``g = 2**(1/8)`` (8 buckets per doubling) gives a documented bound of
about 4.5% — see ``LogSketch.relative_error``.

Out-of-range observations are clamped into the first/last bucket (the
error bound applies to samples inside ``[low, high)``); exact ``min``,
``max``, ``sum`` and ``count`` are tracked on the side so means and tails
stay honest.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

DEFAULT_GROWTH = 2.0 ** 0.125

# Latency range for consensus commands: 1us .. 10,000s covers everything
# from a sim fast path under zero-cost networks to a stalled recovery.
LATENCY_LOW = 1e-6
LATENCY_HIGH = 1e4


class LogSketch:
    """Fixed-memory log-bucket histogram with rank-based quantiles."""

    __slots__ = (
        "low",
        "high",
        "growth",
        "counts",
        "count",
        "total",
        "minimum",
        "maximum",
        "_edges",
        "_inv_log_growth",
        "_sqrt_growth",
    )

    def __init__(
        self,
        low: float = LATENCY_LOW,
        high: float = LATENCY_HIGH,
        growth: float = DEFAULT_GROWTH,
    ) -> None:
        if not (0.0 < low < high):
            raise ValueError(f"need 0 < low < high, got low={low} high={high}")
        if growth <= 1.0:
            raise ValueError(f"growth factor must exceed 1, got {growth}")
        self.low = low
        self.high = high
        self.growth = growth
        self._inv_log_growth = 1.0 / math.log(growth)
        self._sqrt_growth = math.sqrt(growth)
        n_buckets = max(1, math.ceil(math.log(high / low) * self._inv_log_growth))
        # edges[i] .. edges[i+1] bound bucket i; len(edges) == n_buckets + 1.
        self._edges = [low * growth**i for i in range(n_buckets + 1)]
        self.counts: List[int] = [0] * n_buckets
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    @property
    def n_buckets(self) -> int:
        return len(self.counts)

    @property
    def relative_error(self) -> float:
        """Documented worst-case relative error for in-range samples."""
        return self._sqrt_growth - 1.0

    def observe(self, value: float) -> None:
        if value != value:  # NaN guard: never poison the sketch
            return
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        self.counts[self._index(value)] += 1

    def _index(self, value: float) -> int:
        if value < self.low:
            return 0
        if value >= self._edges[-1]:
            return len(self.counts) - 1
        i = int(math.log(value / self.low) * self._inv_log_growth)
        # Float rounding at an edge can land one bucket off; nudge so the
        # invariant edges[i] <= value < edges[i+1] holds exactly.
        if i >= len(self.counts):
            i = len(self.counts) - 1
        if value >= self._edges[i + 1]:
            i += 1
        elif value < self._edges[i]:
            i -= 1
        return min(max(i, 0), len(self.counts) - 1)

    def _estimate(self, index: int) -> float:
        # Geometric midpoint of the bucket: at most sqrt(growth) away
        # from any sample that hashed into it.
        return self._edges[index] * self._sqrt_growth

    def quantile(self, q: float) -> float:
        """Estimate the q-th percentile (0 <= q <= 100) of observations.

        Returns NaN when empty.  The estimate lies within a factor of
        ``sqrt(growth)`` of the exact order statistic at the same rank,
        for samples inside ``[low, high)``.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"quantile must be in [0, 100], got {q}")
        if self.count == 0:
            return float("nan")
        # 1-based rank of the upper bracketing order statistic for the
        # interpolated percentile definition used by metrics/stats.py.
        rank = math.ceil((self.count - 1) * q / 100.0) + 1
        cumulative = 0
        estimate = self._estimate(len(self.counts) - 1)
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                estimate = self._estimate(i)
                break
        if self.minimum is not None and self.maximum is not None:
            # Exact extrema can only tighten the estimate.
            estimate = min(max(estimate, self.minimum), self.maximum)
        return estimate

    def state(self) -> Tuple[int, float, List[int]]:
        """Cheap copy of the counters for later interval differencing."""
        return (self.count, self.total, list(self.counts))

    def since(self, state: Optional[Tuple[int, float, List[int]]]) -> "LogSketch":
        """New sketch holding only observations made after ``state``.

        Interval sketches do not track exact min/max (those are
        cumulative), so their quantiles are pure bucket estimates.
        """
        delta = LogSketch(self.low, self.high, self.growth)
        if state is None:
            delta.count = self.count
            delta.total = self.total
            delta.counts = list(self.counts)
        else:
            prev_count, prev_total, prev_counts = state
            delta.count = self.count - prev_count
            delta.total = self.total - prev_total
            delta.counts = [a - b for a, b in zip(self.counts, prev_counts)]
        return delta

    def merge(self, other: "LogSketch") -> None:
        if (other.low, other.high, other.growth) != (self.low, self.high, self.growth):
            raise ValueError("cannot merge sketches with different bucket layouts")
        self.count += other.count
        self.total += other.total
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        for value in (other.minimum, other.maximum):
            if value is None:
                continue
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LogSketch(count={self.count}, p50={self.quantile(50):.6g}, "
            f"p99={self.quantile(99):.6g})"
        )
