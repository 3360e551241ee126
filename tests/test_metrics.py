"""Unit tests for statistics helpers and the metrics collector."""

import pytest

from repro.consensus.commands import Command
from repro.core.protocol import M2Paxos
from repro.obs.collect import ObsCollector
from repro.metrics.stats import mean, percentile, summarize
from repro.sim.cluster import Cluster, ClusterConfig


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_extremes(self):
        values = [5, 1, 9, 3]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_single_value(self):
        assert percentile([7.5], 99) == 7.5

    def test_matches_numpy_definition(self):
        numpy = pytest.importorskip("numpy")
        values = [0.3, 1.7, 2.2, 9.1, 4.4, 0.01]
        for q in (25, 50, 90, 99):
            assert percentile(values, q) == pytest.approx(
                float(numpy.percentile(values, q))
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestSummarize:
    def test_fields(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == 2.5
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.p50 == 2.5

    def test_scaled(self):
        s = summarize([1.0, 2.0]).scaled(1000)
        assert s.mean == 1500.0
        assert s.count == 2

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])


class TestMetricsCollector:
    def run_cluster(self):
        cluster = Cluster(ClusterConfig(n_nodes=3, seed=0), lambda i, n: M2Paxos())
        collector = ObsCollector.for_cluster(cluster)
        cluster.start()
        return cluster, collector

    def test_latency_measured_at_proposer(self):
        cluster, collector = self.run_cluster()
        collector.begin_window()
        command = Command.make(0, 0, ["x"])
        cluster.propose(0, command)
        cluster.run_for(1.0)
        collector.end_window()
        result = collector.result()
        assert result.delivered == 1
        assert result.latency is not None
        assert result.latency.count == 1
        assert 0 < result.latency.p50 < 0.1

    def test_throughput_counts_each_command_once(self):
        cluster, collector = self.run_cluster()
        collector.begin_window()
        for seq in range(5):
            command = Command.make(0, seq, ["x"])
            cluster.propose(0, command)
        cluster.run_for(2.0)
        collector.end_window()
        result = collector.result()
        assert result.delivered == 5  # not 5 * n_nodes

    def test_warmup_excluded_from_window(self):
        cluster, collector = self.run_cluster()
        # Deliver one command before the window opens.
        early = Command.make(0, 0, ["x"])
        cluster.propose(0, early)
        cluster.run_for(1.0)
        collector.begin_window()
        late = Command.make(0, 1, ["x"])
        cluster.propose(0, late)
        cluster.run_for(1.0)
        collector.end_window()
        result = collector.result()
        assert result.delivered == 1

    def test_result_requires_window(self):
        _cluster, collector = self.run_cluster()
        with pytest.raises(RuntimeError):
            collector.result()

    def test_message_counters_forwarded(self):
        cluster, collector = self.run_cluster()
        collector.begin_window()
        command = Command.make(0, 0, ["x"])
        cluster.propose(0, command)
        cluster.run_for(1.0)
        collector.end_window()
        result = collector.result()
        assert result.messages_sent > 0
        assert result.bytes_sent > 0
