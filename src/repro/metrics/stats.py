"""Small statistics helpers (no external dependencies).

The paper reports medians and averages of at least five runs; we keep
the same vocabulary: :func:`percentile` uses linear interpolation (the
same definition as ``numpy.percentile``'s default).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if not values:
        raise ValueError("no values")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    interpolated = ordered[lower] * (1 - fraction) + ordered[upper] * fraction
    # Clamp: interpolation can overshoot the bracketing values by an ulp.
    return min(max(interpolated, ordered[lower]), ordered[upper])


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no values")
    # Exactly rounded, so a summary does not depend on the order its
    # samples were collected in.
    return fsum(values) / len(values)


@dataclass(frozen=True)
class Summary:
    """Latency distribution summary, in seconds."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    def scaled(self, factor: float) -> "Summary":
        """Unit conversion helper (e.g. seconds -> milliseconds)."""
        return Summary(
            count=self.count,
            mean=self.mean * factor,
            p50=self.p50 * factor,
            p95=self.p95 * factor,
            p99=self.p99 * factor,
            minimum=self.minimum * factor,
            maximum=self.maximum * factor,
        )


def summarize(values: Sequence[float]) -> Summary:
    if not values:
        raise ValueError("no values to summarise")
    return Summary(
        count=len(values),
        mean=mean(values),
        p50=percentile(values, 50),
        p95=percentile(values, 95),
        p99=percentile(values, 99),
        minimum=min(values),
        maximum=max(values),
    )
