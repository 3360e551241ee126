"""Unit tests for the benchmark harness and reporting helpers."""

import pytest

from repro.bench.harness import (
    PROTOCOLS,
    PointSpec,
    build_workload,
    protocol_factory,
    run_point,
    saturated_spec,
)
from repro.bench.report import format_table, series_by
from repro.sim.rng import RngRegistry
from repro.workloads.client import ClientConfig
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.tpcc import TpccWorkload


class TestProtocolFactory:
    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_every_protocol_constructs(self, name):
        factory = protocol_factory(name)
        protocol = factory(0, 5)
        assert protocol is not None

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            protocol_factory("zab")

    def test_home_hint_threaded_to_m2paxos(self):
        hint = lambda name: 1
        protocol = protocol_factory("m2paxos", home_hint=hint)(0, 3)
        assert protocol.config.home_hint is hint

    def test_m2_knobs_are_config_fields_on_the_bench_base(self):
        protocol = protocol_factory("m2paxos", max_batch=8, lease_duration=0.2)(0, 3)
        assert (protocol.config.max_batch, protocol.config.lease_duration) == (8, 0.2)
        assert protocol.config.supervise_timeout == 30.0  # bench-tuned base kept
        with pytest.raises(TypeError, match="max_btach"):
            protocol_factory("m2paxos", max_btach=8)


class TestWorkloadBuilder:
    def test_synthetic(self):
        spec = PointSpec(protocol="m2paxos", n_nodes=3)
        workload = build_workload(spec, RngRegistry(1))
        assert isinstance(workload, SyntheticWorkload)

    def test_tpcc(self):
        spec = PointSpec(protocol="m2paxos", n_nodes=3, workload="tpcc")
        workload = build_workload(spec, RngRegistry(1))
        assert isinstance(workload, TpccWorkload)

    def test_unknown_workload_rejected(self):
        spec = PointSpec(protocol="m2paxos", n_nodes=3, workload="ycsb")
        with pytest.raises(ValueError):
            build_workload(spec, RngRegistry(1))


class TestRunPoint:
    def test_small_point_produces_metrics(self):
        spec = PointSpec(
            protocol="m2paxos",
            n_nodes=3,
            client=ClientConfig(
                clients_per_node=4, think_time=0.01, max_inflight_per_node=8
            ),
            warmup=0.05,
            duration=0.1,
        )
        result = run_point(spec)
        assert result.throughput > 0
        assert result.latency is not None
        assert result.messages_sent > 0
        assert "protocol_stats" in result.extra

    def test_saturated_spec_stretches_warmup(self):
        spec = PointSpec(protocol="m2paxos", n_nodes=3, warmup=0.1)
        stretched = saturated_spec(spec)
        assert stretched.warmup >= 0.5
        assert stretched.client.clients_per_node == 64

    def test_deterministic_given_seed(self):
        spec = PointSpec(
            protocol="multipaxos",
            n_nodes=3,
            client=ClientConfig(
                clients_per_node=4, think_time=0.01, max_inflight_per_node=96
            ),
            warmup=0.05,
            duration=0.1,
            seed=7,
        )
        a = run_point(spec)
        b = run_point(spec)
        assert a.throughput == b.throughput
        assert a.messages_sent == b.messages_sent


class TestReport:
    def test_format_table_aligns_columns(self):
        rows = [
            {"proto": "m2paxos", "tp": 1234.5},
            {"proto": "mp", "tp": 9.25},
        ]
        out = format_table(rows, ["proto", "tp"])
        lines = out.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "1,234.5" in out
        assert "9.250" in out

    def test_series_by_groups_and_sorts(self):
        rows = [
            {"p": "a", "x": 2, "y": 20},
            {"p": "a", "x": 1, "y": 10},
            {"p": "b", "x": 1, "y": 5},
        ]
        series = series_by(rows, "p", "x", "y")
        assert series["a"] == [(1, 10), (2, 20)]
        assert series["b"] == [(1, 5)]
