"""Live telemetry: sketch, registry, sampler, exposition, health.

Covers the whole ``repro.obs.telemetry`` stack on both substrates: unit
tests for the quantile sketch and the registry, a sim end-to-end run
(frames, JSONL export, determinism with the sampler attached), and the
Prometheus text endpoint served mid-run by a real runtime cluster.
"""

from __future__ import annotations

import asyncio
import json
import math
import urllib.request

import pytest

from repro.consensus.commands import Command
from repro.core.protocol import M2Paxos
from repro.obs.telemetry import (
    HealthConfig,
    HealthDetector,
    LogSketch,
    MetricsRegistry,
    Telemetry,
    render_frames,
    render_prometheus,
)
from repro.obs.telemetry.sampler import Frame

from tests.conftest import make_cluster


# ----------------------------------------------------------------------
# LogSketch
# ----------------------------------------------------------------------


class TestLogSketch:
    def test_exact_side_stats(self):
        sketch = LogSketch()
        for value in (0.002, 0.010, 0.004):
            sketch.observe(value)
        assert sketch.count == 3
        assert sketch.total == pytest.approx(0.016)
        assert sketch.minimum == 0.002
        assert sketch.maximum == 0.010

    def test_empty_quantile_is_nan(self):
        assert math.isnan(LogSketch().quantile(50))

    def test_quantile_within_documented_error(self):
        sketch = LogSketch()
        values = [1e-3 * (1 + i / 100.0) for i in range(500)]
        sketch.extend(values)
        exact = sorted(values)
        for q in (50, 95, 99):
            estimate = sketch.quantile(q)
            rank = math.ceil((len(exact) - 1) * q / 100.0)
            reference = exact[rank]
            assert abs(estimate - reference) / reference <= sketch.relative_error

    def test_out_of_range_clamps_but_counts(self):
        sketch = LogSketch(low=1e-3, high=1.0)
        sketch.observe(1e-9)
        sketch.observe(100.0)
        assert sketch.count == 2
        assert sum(sketch.counts) == 2
        assert sketch.counts[0] == 1
        assert sketch.counts[-1] == 1

    def test_nan_observation_ignored(self):
        sketch = LogSketch()
        sketch.observe(float("nan"))
        assert sketch.count == 0

    def test_since_differences_an_interval(self):
        sketch = LogSketch()
        sketch.extend([1e-3] * 10)
        state = sketch.state()
        sketch.extend([1e-2] * 5)
        delta = sketch.since(state)
        assert delta.count == 5
        assert delta.total == pytest.approx(5e-2)
        # Interval sketches carry no exact extrema; quantiles still work.
        assert delta.minimum is None
        assert delta.quantile(50) == pytest.approx(1e-2, rel=0.05)

    def test_merge_rejects_mismatched_layout(self):
        with pytest.raises(ValueError, match="layout"):
            LogSketch().merge(LogSketch(low=1e-2))

    def test_nonzero_buckets_are_cumulative(self):
        sketch = LogSketch()
        sketch.extend([1e-3] * 4 + [1e-1] * 6)
        buckets = list(sketch.nonzero_buckets())
        assert len(buckets) == 2
        assert [c for _, c in buckets] == [4, 10]
        assert buckets[0][0] < buckets[1][0]

    def test_default_growth_bound_is_about_4_5_percent(self):
        assert LogSketch().relative_error == pytest.approx(0.0443, abs=5e-4)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_counter_only_goes_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4

    def test_labels_validated(self):
        registry = MetricsRegistry()
        family = registry.counter("reqs_total", labels=("node", "path"))
        family.labels(node=1, path="fast").inc()
        assert family.child(1, "fast").value == 1
        with pytest.raises(ValueError, match="missing"):
            family.labels(node=1)
        with pytest.raises(ValueError, match="unknown"):
            family.labels(node=1, path="fast", extra="x")

    def test_duplicate_registration_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("dup_total", labels=("node",))
        assert registry.counter("dup_total", labels=("node",)) is first
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("dup_total", labels=("node",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("9bad")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("ok_total", labels=("bad-label",))

    def test_totals_by_label(self):
        registry = MetricsRegistry()
        family = registry.counter("t_total", labels=("node", "path"))
        family.child(0, "fast").inc(3)
        family.child(1, "fast").inc(2)
        family.child(1, "slow").inc(1)
        assert family.total() == 6
        assert family.totals_by("path") == {"fast": 5.0, "slow": 1.0}


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------


class TestPrometheusRender:
    def test_counter_and_gauge_samples(self):
        registry = MetricsRegistry(const_labels={"protocol": "m2paxos"})
        registry.counter("reqs_total", "requests", ("node",)).child(0).inc(7)
        registry.gauge("depth").set(3)
        text = render_prometheus(registry)
        assert "# HELP reqs_total requests" in text
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{protocol="m2paxos",node="0"} 7' in text
        assert 'depth{protocol="m2paxos"} 3' in text

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds")
        for value in (1e-3, 1e-3, 1e-1):
            histogram.observe(value)
        text = render_prometheus(registry)
        lines = text.splitlines()
        buckets = [l for l in lines if l.startswith("lat_seconds_bucket")]
        # Sparse: two occupied buckets plus +Inf.
        assert len(buckets) == 3
        counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
        assert counts == sorted(counts)
        assert buckets[-1].startswith('lat_seconds_bucket{le="+Inf"} ')
        assert counts[-1] == 3
        assert "lat_seconds_count 3" in text
        (sum_line,) = [l for l in lines if l.startswith("lat_seconds_sum")]
        assert float(sum_line.split(" ")[1]) == pytest.approx(0.102)

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("e_total", labels=("obj",)).child('a"b\n').inc()
        text = render_prometheus(registry)
        assert 'obj="a\\"b\\n"' in text


# ----------------------------------------------------------------------
# Sim end to end: collector + sampler + frames
# ----------------------------------------------------------------------


def _drive_sim(cluster, rounds=20, n_nodes=3, spacing=0.05):
    for round_nr in range(rounds):
        for node in range(n_nodes):
            cluster.propose(node, Command.make(node, round_nr, [f"o{node}"]))
        cluster.run_for(spacing)
    cluster.run_for(2.0)


class TestSimTelemetry:
    def _run(self, interval=0.1):
        cluster = make_cluster(lambda i, n: M2Paxos(), n_nodes=3, seed=3)
        telemetry = Telemetry(cluster, interval=interval)
        telemetry.start()
        _drive_sim(cluster)
        telemetry.stop()
        telemetry.final_sample()
        return cluster, telemetry

    def test_frames_account_for_every_decide(self):
        cluster, telemetry = self._run()
        frames = list(telemetry.frames)
        assert len(frames) >= 10
        assert sum(f.decides for f in frames) == 60
        assert sum(f.proposes for f in frames) == 60
        # Full-locality workload: after the first-touch acquisitions in
        # the opening frame, every decide takes the fast path.
        busy = [f for f in frames if f.decides]
        assert all(
            f.path_counts.get("fast", 0) == f.decides for f in busy[1:]
        )
        assert all(f.fast_share == 1.0 for f in busy[1:])
        assert sum(f.path_counts.get("fast", 0) for f in busy) >= 54
        assert all(f.throughput > 0 for f in busy)

    def test_latency_quantiles_populated(self):
        _, telemetry = self._run()
        busy = [f for f in telemetry.frames if f.decides]
        assert busy
        for frame in busy:
            assert 0 < frame.p50 <= frame.p99 < 1.0
        # Pure fast-path frames: the overall quantile IS the fast one.
        for frame in busy[1:]:
            assert frame.path_p50["fast"] == frame.p50

    def test_inflight_drains_by_the_end(self):
        _, telemetry = self._run()
        assert list(telemetry.frames)[-1].inflight == 0
        assert telemetry.collector.pending() == 0

    def test_sampler_does_not_perturb_decision_logs(self):
        cluster, _ = self._run()
        bare = make_cluster(lambda i, n: M2Paxos(), n_nodes=3, seed=3)
        _drive_sim(bare)
        for node in range(3):
            assert [c.cid for c in cluster.delivered(node)] == [
                c.cid for c in bare.delivered(node)
            ]

    def test_jsonl_export_renders_nan_as_null(self, tmp_path):
        _, telemetry = self._run()
        path = tmp_path / "frames.jsonl"
        count = telemetry.sampler.write_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert count == len(lines) == len(telemetry.frames)
        payloads = [json.loads(line) for line in lines]
        idle = [p for p in payloads if p["decides"] == 0]
        assert idle and all(p["fast_share"] is None for p in idle)
        busy = [p for p in payloads if p["decides"]]
        assert busy and all(p["p50"] > 0 for p in busy)

    def test_render_frames_table(self):
        _, telemetry = self._run()
        text = render_frames(telemetry.frames, telemetry.events, history=5)
        assert "cps" in text and "fast%" in text
        # Idle frames have NaN percentiles; the table renders them as -.
        assert " - " in text or text.count("-") > 0

    def test_prometheus_from_live_registry(self):
        _, telemetry = self._run()
        text = render_prometheus(telemetry.registry)
        assert 'repro_decides_total{node="0",path="fast"}' in text
        assert "repro_command_latency_seconds_bucket" in text


class TestCollectorBounds:
    def test_pending_map_is_bounded(self):
        from repro.obs.clock import WallClock
        from repro.obs.telemetry import TelemetryCollector

        collector = TelemetryCollector(WallClock(), max_pending=4)
        for i in range(10):
            collector.on_propose(0, Command.make(0, i, ["x"]))
        assert collector.pending() == 4
        assert collector.dropped.value == 6

    def test_reproposal_keeps_origin_timestamp(self):
        from repro.obs.clock import WallClock
        from repro.obs.telemetry import TelemetryCollector

        collector = TelemetryCollector(WallClock())
        command = Command.make(0, 1, ["x"])
        collector.on_propose(0, command)
        first = collector._pending[command.cid]
        collector.on_propose(1, command)
        assert collector._pending[command.cid] == first
        assert collector.pending() == 1

    def test_outbox_gauge_is_the_worst_destination_now_and_returns_to_zero(self):
        from repro.obs.clock import WallClock
        from repro.obs.telemetry import TelemetryCollector

        collector = TelemetryCollector(WallClock())
        gauge = collector.outbox_depth.child(0)
        for dst, depth, worst in ((1, 1, 1), (1, 2, 2), (2, 1, 2), (1, 0, 1), (2, 0, 0)):
            collector.on_note(0, "outbox_depth", {"dst": dst, "depth": depth})
            assert gauge.value == worst


# ----------------------------------------------------------------------
# HealthDetector
# ----------------------------------------------------------------------


def _frame(index, **overrides) -> Frame:
    defaults = dict(
        index=index,
        start=index * 1.0,
        end=(index + 1) * 1.0,
        proposes=20,
        decides=20,
        deliveries=60,
        throughput=20.0,
        path_counts={"fast": 20},
        path_p50={},
        path_p99={},
        p50=1e-3,
        p99=2e-3,
        fast_share=1.0,
        inflight=10,
        client_window=0,
        outbox_depth=0,
        wire_messages=0,
        wire_bytes=0,
        fsyncs=0,
        fsync_p99=float("nan"),
        epoch_bumps=0,
        handoffs=0,
        dropped_commands=0,
    )
    defaults.update(overrides)
    return Frame(**defaults)


class TestHealthDetector:
    def test_contention_event_once_per_episode(self):
        detector = HealthDetector(HealthConfig(min_decides=8))
        contended = dict(path_counts={"fast": 10, "acquisition": 10})
        detector.observe_frame(_frame(0, **contended))
        detector.observe_frame(_frame(1, **contended))
        assert [e.kind for e in detector.events] == ["contention"]
        assert detector.events[0].details["acquisition_ratio"] == 0.5
        # Episode clears, then a new breach emits a second event.
        detector.observe_frame(_frame(2))
        detector.observe_frame(_frame(3, **contended))
        assert [e.kind for e in detector.events] == ["contention", "contention"]

    def test_sparse_frames_skip_ratio_rules(self):
        detector = HealthDetector(HealthConfig(min_decides=8))
        detector.observe_frame(
            _frame(0, decides=2, path_counts={"acquisition": 2})
        )
        assert detector.events == []

    def test_overload_on_inflight_depth(self):
        detector = HealthDetector(HealthConfig(overload_inflight=100))
        detector.observe_frame(_frame(0, inflight=150))
        assert [e.kind for e in detector.events] == ["overload"]
        assert detector.events[0].details["inflight"] == 150

    def test_overload_on_monotonic_latency_slope(self):
        detector = HealthDetector(
            HealthConfig(overload_slope_frames=3, overload_slope_factor=1.5)
        )
        for i, p50 in enumerate((1e-3, 1.4e-3, 2.1e-3)):
            detector.observe_frame(_frame(i, p50=p50))
        assert [e.kind for e in detector.events] == ["overload"]
        assert detector.events[0].details["slope"] >= 1.5

    def test_non_monotonic_rise_is_not_overload(self):
        detector = HealthDetector(
            HealthConfig(overload_slope_frames=3, overload_slope_factor=1.5)
        )
        for i, p50 in enumerate((1e-3, 0.9e-3, 2.1e-3)):
            detector.observe_frame(_frame(i, p50=p50))
        assert detector.events == []

    def test_stall_needs_consecutive_frames(self):
        detector = HealthDetector(HealthConfig(stall_frames=2))
        stalled = dict(decides=0, path_counts={}, p50=float("nan"))
        detector.observe_frame(_frame(0, **stalled))
        assert detector.events == []
        detector.observe_frame(_frame(1, **stalled))
        assert [e.kind for e in detector.events] == ["stall"]

    def test_listeners_receive_events(self):
        detector = HealthDetector(HealthConfig(overload_inflight=1))
        seen = []
        detector.subscribe(seen.append)
        detector.observe_frame(_frame(0, inflight=5))
        assert [e.kind for e in seen] == ["overload"]


# ----------------------------------------------------------------------
# Runtime: wall-clock sampling + Prometheus endpoint mid-run
# ----------------------------------------------------------------------


class TestRuntimeTelemetry:
    def _drive(self, coro):
        return asyncio.run(asyncio.wait_for(coro, timeout=60))

    def test_prometheus_served_mid_run_under_pipelined_load(self):
        from repro.bench.harness import protocol_factory
        from repro.bench.perf import SATURATION_M2
        from repro.runtime.cluster import LocalCluster
        from repro.runtime.driver import PipelineDriver

        async def main():
            cluster = LocalCluster(
                3, protocol_factory("m2paxos", **SATURATION_M2)
            )
            await cluster.start()
            try:
                telemetry = await cluster.start_telemetry(
                    interval=0.05, serve=True
                )
                assert len(telemetry.endpoints) == 3
                assert all(
                    node.metrics_address is not None for node in cluster.nodes
                )
                proposals = [
                    (i % 3, Command.make(i % 3, i + 1, [f"o{i % 3}"]))
                    for i in range(240)
                ]
                driver = PipelineDriver(cluster, depth=16)
                task = asyncio.ensure_future(
                    driver.run(proposals, timeout=30.0)
                )
                # Scrape node 0's endpoint while the run is in flight.
                host, port = cluster.nodes[0].metrics_address
                url = f"http://{host}:{port}/metrics"
                await asyncio.sleep(0.1)
                body = await asyncio.get_running_loop().run_in_executor(
                    None, lambda: urllib.request.urlopen(url).read().decode()
                )
                await task
                return body, telemetry
            finally:
                await cluster.stop()

        body, telemetry = self._drive(main())
        assert "# TYPE repro_proposes_total counter" in body
        assert "# TYPE repro_command_latency_seconds histogram" in body
        assert "repro_proposes_total{" in body
        assert "repro_command_latency_seconds_bucket{" in body
        # The wall-clock sampler cut frames while the cluster ran.
        assert len(telemetry.frames) >= 1
        assert sum(f.decides for f in telemetry.frames) > 0

    def test_unknown_path_is_404(self):
        from repro.obs.telemetry import MetricsServer

        async def main():
            server = MetricsServer(MetricsRegistry())
            host, port = await server.start()
            url = f"http://{host}:{port}/nope"
            try:
                try:
                    await asyncio.get_running_loop().run_in_executor(
                        None, lambda: urllib.request.urlopen(url)
                    )
                except urllib.error.HTTPError as exc:
                    return exc.code
                return 200
            finally:
                await server.stop()

        assert self._drive(main()) == 404

    def test_start_telemetry_twice_rejected(self):
        from repro.runtime.cluster import LocalCluster

        async def main():
            cluster = LocalCluster(3, lambda i, n: M2Paxos())
            await cluster.start()
            try:
                await cluster.start_telemetry(interval=0.05)
                with pytest.raises(RuntimeError, match="already"):
                    await cluster.start_telemetry(interval=0.05)
            finally:
                await cluster.stop()

        self._drive(main())


# ----------------------------------------------------------------------
# Chaos integration: contention storm + fault stamps
# ----------------------------------------------------------------------


class TestChaosTelemetry:
    def test_contention_storm_emits_contention_event(self):
        from repro.chaos.runner import run_scenario
        from repro.chaos.scenarios import by_name

        scenario = by_name("contention-storm")
        result = run_scenario(scenario, telemetry_interval=0.1)
        assert result.ok, result.report.violations
        assert result.telemetry is not None
        assert any(e.kind == "contention" for e in result.telemetry.events)

    def test_fingerprint_unchanged_by_telemetry(self):
        from repro.chaos.runner import run_scenario
        from repro.chaos.scenarios import by_name

        scenario = by_name("contention-storm")
        sampled = run_scenario(scenario, telemetry_interval=0.1)
        bare = run_scenario(scenario)
        assert sampled.fingerprint == bare.fingerprint
        assert bare.telemetry is None

    def test_fault_events_stamped_into_frames(self):
        from repro.chaos.runner import run_scenario
        from repro.chaos.scenarios import by_name

        scenario = by_name("crash-restart-durable")
        result = run_scenario(scenario, telemetry_interval=0.1)
        assert result.ok, result.report.violations
        stamped = [f for f in result.telemetry.frames if f.faults]
        events = [event for f in stamped for _, event in f.faults]
        assert "crash" in events and "restart" in events


# ----------------------------------------------------------------------
# Satellites: span cap, nan rendering, sketch summaries
# ----------------------------------------------------------------------


class TestObsSpanCap:
    def test_spans_capped_and_drops_counted(self):
        from repro.obs.collect import ObsCollector

        cluster = make_cluster(lambda i, n: M2Paxos(), n_nodes=3, seed=1)
        obs = ObsCollector.for_cluster(cluster, record_spans=True, max_spans=50)
        _drive_sim(cluster, rounds=10)
        assert len(obs.spans) == 50
        assert obs.dropped_spans > 0

    def test_default_cap_untouched_in_short_runs(self):
        from repro.obs.collect import ObsCollector

        cluster = make_cluster(lambda i, n: M2Paxos(), n_nodes=3, seed=1)
        obs = ObsCollector.for_cluster(cluster, record_spans=True)
        _drive_sim(cluster, rounds=5)
        assert obs.dropped_spans == 0
        assert len(obs.spans) > 0


class TestReportNan:
    def test_format_table_renders_nan_as_dash(self):
        from repro.bench.report import format_table

        text = format_table(
            [{"a": float("nan"), "b": 1.5}], ("a", "b")
        )
        row = text.splitlines()[-1]
        assert "-" in row.split()[0]
        assert "nan" not in text


class TestSummarizeSketch:
    def test_matches_exact_summary_within_bound(self):
        from repro.metrics.stats import summarize, summarize_sketch

        values = [1e-3 * (1 + (i * 7) % 97) for i in range(300)]
        sketch = LogSketch()
        sketch.extend(values)
        exact = summarize(values)
        estimated = summarize_sketch(sketch)
        assert estimated.count == exact.count
        assert estimated.mean == pytest.approx(exact.mean)
        assert estimated.minimum == exact.minimum
        assert estimated.maximum == exact.maximum
        for q in ("p50", "p95", "p99"):
            assert getattr(estimated, q) == pytest.approx(
                getattr(exact, q), rel=3 * sketch.relative_error
            )

    def test_empty_sketch_raises(self):
        from repro.metrics.stats import summarize_sketch

        with pytest.raises(ValueError, match="no values"):
            summarize_sketch(LogSketch())
