"""Measurement: latency recording, throughput windows, percentiles."""

from repro.metrics.stats import Summary, percentile, summarize

__all__ = ["Summary", "percentile", "summarize"]
