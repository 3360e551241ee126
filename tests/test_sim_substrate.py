"""Unit tests for RNG streams, latency models, CPU model, and network."""

import random

import pytest

from repro.sim.cpu import CpuConfig, CpuModel
from repro.sim.event_loop import EventLoop
from repro.sim.latency import (
    GAUSSIAN_FLOOR,
    FixedLatency,
    GaussianLatency,
    TopologyLatency,
    UniformLatency,
)
from repro.sim.network import (
    BANDWIDTH,
    BATCH_FACTOR,
    HEADER_BYTES,
    Network,
    NetworkConfig,
)
from repro.sim.rng import RngRegistry


class TestRng:
    def test_streams_are_deterministic(self):
        a = RngRegistry(42).stream("x").random()
        b = RngRegistry(42).stream("x").random()
        assert a == b

    def test_streams_are_independent_by_name(self):
        reg = RngRegistry(42)
        assert reg.stream("x").random() != reg.stream("y").random()

    def test_same_name_returns_same_stream(self):
        reg = RngRegistry(42)
        assert reg.stream("x") is reg.stream("x")

    def test_fork_decorrelates(self):
        reg = RngRegistry(42)
        forked = reg.fork(1)
        assert reg.stream("x").random() != forked.stream("x").random()

    def test_adding_stream_does_not_perturb_existing(self):
        reg1 = RngRegistry(7)
        s = reg1.stream("work")
        first = [s.random() for _ in range(3)]

        reg2 = RngRegistry(7)
        reg2.stream("other")  # extra stream created first
        s2 = reg2.stream("work")
        assert [s2.random() for _ in range(3)] == first


class TestLatencyModels:
    def test_fixed(self):
        model = FixedLatency(0.01)
        assert model.sample(0, 1, random.Random(0)) == 0.01
        assert model.sample(0, 0, random.Random(0)) == 0.0  # loopback

    def test_fixed_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatency(-1.0)

    def test_uniform_within_bounds(self):
        model = UniformLatency(0.001, 0.002)
        rng = random.Random(1)
        for _ in range(100):
            assert 0.001 <= model.sample(0, 1, rng) <= 0.002

    def test_gaussian_respects_floor(self):
        model = GaussianLatency(mean=1e-4, stddev=1e-3)
        rng = random.Random(2)
        # A wide spread puts about half the draws below the floor.
        assert min(model.sample(0, 1, rng) for _ in range(200)) == GAUSSIAN_FLOOR

    def test_topology_matrix(self):
        matrix = [[0.0, 0.05], [0.08, 0.0]]
        model = TopologyLatency(matrix)
        rng = random.Random(3)
        assert model.sample(0, 1, rng) == 0.05
        assert model.sample(1, 0, rng) == 0.08

    def test_topology_jitter_is_symmetric_half_width(self):
        # The docstring promises a half-width perturbation: samples land
        # in [base - jitter, base + jitter], not [base, base + jitter].
        model = TopologyLatency([[0.0, 0.01], [0.01, 0.0]], jitter=0.005)
        rng = random.Random(4)
        samples = [model.sample(0, 1, rng) for _ in range(400)]
        assert all(0.005 <= s <= 0.015 for s in samples)
        assert min(samples) < 0.01 < max(samples)  # both sides exercised
        mean = sum(samples) / len(samples)
        assert abs(mean - 0.01) < 0.001  # unbiased, not +jitter/2

    def test_topology_jitter_floors_at_zero(self):
        model = TopologyLatency([[0.0, 0.001], [0.001, 0.0]], jitter=0.01)
        rng = random.Random(7)
        assert all(model.sample(0, 1, rng) >= 0.0 for _ in range(200))

    def test_topology_zero_jitter_draws_no_rng(self):
        # Byte-identity guard: the jitter=0 path must not consume RNG.
        model = TopologyLatency([[0.0, 0.01], [0.01, 0.0]], jitter=0.0)
        rng = random.Random(11)
        before = rng.getstate()
        assert model.sample(0, 1, rng) == 0.01
        assert rng.getstate() == before

    def test_from_zones_builds_intra_inter_matrix(self):
        model = TopologyLatency.from_zones(
            (0, 0, 1, 1, 2), intra=0.001, inter=0.04
        )
        rng = random.Random(0)
        assert model.sample(0, 1, rng) == 0.001  # same zone
        assert model.sample(0, 2, rng) == 0.04  # cross zone
        assert model.sample(4, 0, rng) == 0.04
        assert model.sample(3, 3, rng) == 0.0  # loopback

    def test_topology_rejects_non_square(self):
        with pytest.raises(ValueError):
            TopologyLatency([[0.0, 0.1]])


class TestCpuModel:
    def test_sequential_jobs_queue_on_one_core(self):
        cpu = CpuModel(CpuConfig(cores=1))
        first = cpu.submit(0.0, 1.0, 0.0)
        second = cpu.submit(0.0, 1.0, 0.0)
        assert first == 1.0
        assert second == 2.0

    def test_parallel_jobs_spread_across_cores(self):
        cpu = CpuModel(CpuConfig(cores=4))
        ends = [cpu.submit(0.0, 1.0, 0.0) for _ in range(4)]
        assert ends == [1.0, 1.0, 1.0, 1.0]

    def test_serial_fraction_caps_throughput(self):
        # With serial fraction 0.5, 10 jobs of 1s need >= 5s of lock time
        # no matter how many cores exist.
        cpu = CpuModel(CpuConfig(cores=64))
        last = max(cpu.submit(0.0, 1.0, 0.5) for _ in range(10))
        assert last >= 5.0

    def test_zero_serial_scales_linearly(self):
        cpu = CpuModel(CpuConfig(cores=8))
        last = max(cpu.submit(0.0, 1.0, 0.0) for _ in range(8))
        assert last == 1.0

    def test_late_arrival_starts_at_arrival(self):
        cpu = CpuModel(CpuConfig(cores=1))
        assert cpu.submit(10.0, 1.0, 0.0) == 11.0

    def test_utilisation(self):
        cpu = CpuModel(CpuConfig(cores=2))
        cpu.submit(0.0, 1.0, 0.0)
        assert cpu.utilisation(1.0) == pytest.approx(0.5)

    def test_invalid_args_rejected(self):
        cpu = CpuModel(CpuConfig(cores=1))
        with pytest.raises(ValueError):
            cpu.submit(0.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            cpu.submit(0.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            CpuConfig(cores=0)


def make_network(n=3, **overrides):
    loop = EventLoop()
    defaults = dict(latency=FixedLatency(0.001), batching=False)
    defaults.update(overrides)
    config = NetworkConfig(**defaults)
    network = Network(loop, n, config, RngRegistry(0))
    return loop, network


class TestNetwork:
    def test_delivers_with_latency(self):
        loop, network = make_network()
        got = []
        network.register(1, lambda src, msg, size: got.append((loop.now, src, msg)))
        network.send(0, 1, "hello", 100)
        loop.run()
        assert len(got) == 1
        t, src, msg = got[0]
        assert src == 0 and msg == "hello"
        assert t > 0.001  # latency + transmission

    def test_transmission_delay_scales_with_size(self):
        _, network = make_network()
        assert network.transmission_delay(500) == (500 + HEADER_BYTES) / BANDWIDTH

    def test_batching_amortises_header(self):
        _, full = make_network(batching=False)
        _, batched = make_network(batching=True)
        assert full.transmission_delay(0) == HEADER_BYTES / BANDWIDTH
        assert batched.transmission_delay(0) == HEADER_BYTES / BATCH_FACTOR / BANDWIDTH

    def test_fifo_per_link(self):
        loop, network = make_network(latency=UniformLatency(0.001, 0.010))
        got = []
        network.register(1, lambda src, msg, size: got.append(msg))
        for i in range(50):
            network.send(0, 1, i, 10)
        loop.run()
        assert got == list(range(50))

    def test_crashed_node_receives_nothing(self):
        loop, network = make_network()
        got = []
        network.register(1, lambda src, msg, size: got.append(msg))
        network.crash(1)
        network.send(0, 1, "x", 10)
        loop.run()
        assert got == []
        assert network.messages_dropped == 1

    def test_crash_during_flight_drops_message(self):
        loop, network = make_network()
        got = []
        network.register(1, lambda src, msg, size: got.append(msg))
        network.send(0, 1, "x", 10)
        loop.schedule(0.0001, lambda: network.crash(1))
        loop.run()
        assert got == []

    def test_recover_restores_delivery(self):
        loop, network = make_network()
        got = []
        network.register(1, lambda src, msg, size: got.append(msg))
        network.crash(1)
        network.recover(1)
        network.send(0, 1, "x", 10)
        loop.run()
        assert got == ["x"]

    def test_partition_blocks_both_directions(self):
        loop, network = make_network()
        got = []
        network.register(0, lambda src, msg, size: got.append(("to0", msg)))
        network.register(2, lambda src, msg, size: got.append(("to2", msg)))
        network.partition({0}, {2})
        network.send(0, 2, "a", 10)
        network.send(2, 0, "b", 10)
        loop.run()
        assert got == []
        network.heal_partitions()
        network.send(0, 2, "c", 10)
        loop.run()
        assert got == [("to2", "c")]

    def test_drop_probability(self):
        loop, network = make_network(drop_probability=0.5)
        got = []
        network.register(1, lambda src, msg, size: got.append(msg))
        for i in range(200):
            network.send(0, 1, i, 10)
        loop.run()
        assert 40 < len(got) < 160  # roughly half, seeded

    def test_duplicate_registration_rejected(self):
        _, network = make_network()
        network.register(0, lambda *a: None)
        with pytest.raises(ValueError):
            network.register(0, lambda *a: None)

    def test_counters(self):
        loop, network = make_network()
        network.register(1, lambda *a: None)
        network.send(0, 1, "x", 10)
        loop.run()
        assert network.messages_sent == 1
        assert network.messages_delivered == 1
        assert network.bytes_sent == 10
