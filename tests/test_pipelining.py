"""The pipelined runtime hot path: driver window semantics, adaptive
batch_wait, zero-copy codec equivalence, and
sim-vs-runtime parity with a deep client window.

The contract under test: pipelining is a *client-side* change.  The
protocol decides the same commands on the same per-object orders
whether proposals arrive one at a time or sixty-four deep, the chaos
suite stays safe with a pipelined window riding through faults, and
with every new knob at its default the decision logs are byte-identical
to the serial build.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import replace

import pytest

from repro.chaos.runner import run_scenario
from repro.chaos.scenarios import SMOKE, by_name
from repro.consensus.commands import Command
from repro.core.protocol import M2Paxos, M2PaxosConfig
from repro.obs.collect import ObsCollector
from repro.runtime.cluster import LocalCluster
from repro.runtime.codec import (
    FRAME_HEADER,
    decode_message,
    encode_message,
    encode_message_into,
)
from repro.runtime.driver import PipelineDriver
from tests.conftest import assert_all_delivered, make_cluster, run_workload
from tests.test_codec_fuzz import random_message
from tests.test_obs import quiet_config


def pipelined_config(**overrides) -> M2PaxosConfig:
    defaults = dict(max_batch=8, batch_wait=1e-3, batch_adaptive=True)
    defaults.update(overrides)
    return quiet_config(**defaults)


def pipelined_factory(node_id: int, n: int) -> M2Paxos:
    return M2Paxos(pipelined_config())


def own_object_proposals(n_nodes: int, per_node: int):
    return [
        (node, Command.make(node, i, [f"mine{node}"]))
        for node in range(n_nodes)
        for i in range(per_node)
    ]


class TestPipelineDriver:
    def run_async(self, coro):
        return asyncio.run(asyncio.wait_for(coro, timeout=60))

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError, match="depth"):
            PipelineDriver(cluster=None, depth=0)

    def test_all_proposals_complete_and_deliver(self):
        async def scenario():
            cluster = LocalCluster(3, pipelined_factory)
            await cluster.start()
            try:
                proposals = own_object_proposals(3, 12)
                driver = PipelineDriver(cluster, depth=4)
                await driver.run(proposals)
                assert driver.proposed == len(proposals)
                assert driver.completed == len(proposals)
                for node in range(3):
                    mine = [c for _, c in proposals if c.proposer == node]
                    delivered = {c.cid for c in cluster.delivered(node)}
                    assert all(c.cid in delivered for c in mine)
            finally:
                await cluster.stop()

        self.run_async(scenario())

    def test_depth_one_is_serial(self):
        async def scenario():
            cluster = LocalCluster(3, pipelined_factory)
            await cluster.start()
            try:
                driver = PipelineDriver(cluster, depth=1)
                await driver.run([(0, c) for _, c in own_object_proposals(1, 6)])
                assert driver.max_inflight == 1
            finally:
                await cluster.stop()

        self.run_async(scenario())

    def test_window_fills_to_depth_but_never_past_it(self):
        async def scenario():
            cluster = LocalCluster(3, pipelined_factory)
            collector = ObsCollector.for_cluster(cluster)
            await cluster.start()
            try:
                proposals = [(0, c) for _, c in own_object_proposals(1, 12)]
                driver = PipelineDriver(cluster, depth=4)
                await driver.run(proposals)
                # The pump fills the window synchronously before the
                # loop can deliver anything, so the peak is exactly 4.
                assert driver.max_inflight == 4
                # ... and the obs layer saw the same gauge.
                assert collector.client_inflight[0] == 4
            finally:
                await cluster.stop()

        self.run_async(scenario())

    def test_nodes_pump_concurrently(self):
        async def scenario():
            cluster = LocalCluster(3, pipelined_factory)
            await cluster.start()
            try:
                driver = PipelineDriver(cluster, depth=4)
                await driver.run(own_object_proposals(3, 8))
                # Per-node windows are independent: the total in-flight
                # peak exceeds any single node's depth.
                assert driver.max_inflight > 4
            finally:
                await cluster.stop()

        self.run_async(scenario())

    def test_listeners_removed_after_run(self):
        async def scenario():
            cluster = LocalCluster(3, pipelined_factory)
            await cluster.start()
            try:
                await PipelineDriver(cluster, depth=2).run(
                    own_object_proposals(3, 4)
                )
                for node in cluster.nodes:
                    assert node.deliver_listeners == []
            finally:
                await cluster.stop()

        self.run_async(scenario())


class TestAdaptiveBatchWait:
    """``batch_adaptive``: self-tuning flush latency.

    A serial client (depth 1) must see immediate flushes -- no
    ``batch_wait`` latency tax -- while the decided per-object orders
    stay identical to the fixed-wait build under any interleaving.
    """

    def test_serial_client_is_not_taxed_by_batch_wait(self):
        # An absurd batch_wait that would stall a fixed-wait cluster for
        # seconds per command: the adaptive proposer must ignore it when
        # nothing else is in flight.
        config = M2PaxosConfig(
            max_batch=64, batch_wait=10.0, batch_adaptive=True
        )
        cluster = make_cluster(
            lambda node_id, n: M2Paxos(config), n_nodes=3, seed=0
        )
        command = Command.make(0, 1, ["solo"])
        cluster.propose(0, command)
        cluster.run_for(1.0)
        assert command.cid in {c.cid for c in cluster.delivered(0)}

    def test_deep_pipeline_still_coalesces(self):
        """With a burst in flight the adaptive proposer batches: fewer
        messages than the serial protocol for the same workload."""

        def burst(adaptive: bool):
            config = M2PaxosConfig(
                max_batch=8 if adaptive else 1,
                batch_wait=1e-3 if adaptive else 0.0,
                batch_adaptive=adaptive,
            )
            cluster = make_cluster(
                lambda node_id, n: M2Paxos(config), n_nodes=5, seed=3
            )
            proposed = []
            for node in range(5):
                for i in range(16):
                    command = Command.make(node, i, [f"mine{node}"])
                    proposed.append(command)
                    cluster.propose(node, command)
            cluster.run_for(10.0)
            assert_all_delivered(cluster, proposed)
            return cluster

        adaptive = burst(adaptive=True)
        serial = burst(adaptive=False)
        assert adaptive.network.messages_sent < serial.network.messages_sent

    @pytest.mark.parametrize("seed", [1, 7])
    def test_per_object_orders_match_fixed_wait(self, seed):
        def orders(batch_adaptive: bool):
            config = M2PaxosConfig(
                max_batch=8, batch_wait=1e-3, batch_adaptive=batch_adaptive
            )
            cluster = make_cluster(
                lambda node_id, n: M2Paxos(config), n_nodes=5, seed=seed
            )
            pool = [f"obj{i}" for i in range(10)]

            def picker(rng: random.Random, node: int, round_nr: int):
                if rng.random() < 0.7:
                    return [pool[node % len(pool)]]
                return [rng.choice(pool)]

            proposed = run_workload(
                cluster, commands_per_node=30, object_picker=picker,
                seed=seed, spacing=0.004,
            )
            assert_all_delivered(cluster, proposed)
            result = {}
            for node in range(5):
                by_object: dict[str, list] = {}
                for command in cluster.delivered(node):
                    for obj in command.ls:
                        by_object.setdefault(obj, []).append(command.cid)
                result[node] = by_object
            return result

        assert orders(batch_adaptive=True) == orders(batch_adaptive=False)

    def test_adaptive_run_is_deterministic(self):
        def fingerprint():
            config = M2PaxosConfig(
                max_batch=8, batch_wait=1e-3, batch_adaptive=True
            )
            cluster = make_cluster(
                lambda node_id, n: M2Paxos(config), n_nodes=5, seed=9
            )
            proposed = []
            for node in range(5):
                for i in range(12):
                    command = Command.make(node, i, [f"mine{node}"])
                    proposed.append(command)
                    cluster.propose(node, command)
            cluster.run_for(10.0)
            assert_all_delivered(cluster, proposed)
            return [c.cid for c in cluster.delivered(0)]

        assert fingerprint() == fingerprint()


@pytest.mark.parametrize("name", SMOKE)
def test_chaos_smoke_passes_with_pipelined_batching(name):
    """Crash/partition/wire-fault scenarios stay safe and deterministic
    with the adaptive batcher coalescing a pipelined window."""
    scenario = by_name(name)
    cluster = scenario.cluster
    m2 = replace(cluster.m2, max_batch=8, batch_wait=1e-3, batch_adaptive=True)
    scenario = replace(scenario, cluster=replace(cluster, m2=m2))
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert first.ok, first.report.violations
    assert second.ok, second.report.violations
    assert first.fingerprint == second.fingerprint


class TestSimRuntimeParityPipelined:
    """Same pipelined workload on both substrates: identical decision
    counts and an identical per-path classification table.

    Each of 3 nodes drives 12 commands at its own object.  Whatever the
    interleaving, exactly the first touch per node runs an acquisition
    and everything else rides the fast path -- on the simulator's
    open-loop burst and on the runtime behind a depth-4 window alike.
    """

    N_NODES = 3
    PER_NODE = 12
    EXPECTED_PATHS = {"acquisition": 3, "fast": 33}

    @staticmethod
    def factory(node_id: int, n: int) -> M2Paxos:
        return M2Paxos(pipelined_config())

    def sim_paths(self):
        cluster = make_cluster(self.factory, n_nodes=self.N_NODES)
        collector = ObsCollector.for_cluster(cluster)
        collector.begin_window()
        proposals = own_object_proposals(self.N_NODES, self.PER_NODE)
        for node, command in proposals:
            cluster.propose(node, command)
        cluster.run_for(10.0)
        collector.end_window()
        assert_all_delivered(cluster, [c for _, c in proposals])
        return collector.result(), collector.path_counts()

    def runtime_paths(self):
        async def scenario():
            cluster = LocalCluster(self.N_NODES, self.factory)
            collector = ObsCollector.for_cluster(cluster)
            await cluster.start()
            try:
                collector.begin_window()
                proposals = own_object_proposals(self.N_NODES, self.PER_NODE)
                driver = PipelineDriver(cluster, depth=4)
                await driver.run(proposals)
                await cluster.wait_delivered(len(proposals))
                collector.end_window()
                return collector.result(), collector.path_counts()
            finally:
                await cluster.stop()

        return asyncio.run(asyncio.wait_for(scenario(), timeout=60))

    def test_same_decisions_same_paths(self):
        sim_result, sim_paths = self.sim_paths()
        rt_result, rt_paths = self.runtime_paths()
        total = self.N_NODES * self.PER_NODE
        assert sim_result.delivered == total
        assert rt_result.delivered == total
        assert sim_paths == self.EXPECTED_PATHS
        assert rt_paths == self.EXPECTED_PATHS


class TestZeroCopyCodec:
    def _corpus(self):
        rng = random.Random(7)
        return [random_message(rng) for _ in range(60)]

    def test_encode_into_matches_encode_message(self):
        for message in self._corpus():
            expected = encode_message(4, message)
            out = bytearray()
            encode_message_into(out, 4, message)
            assert bytes(out) == expected

    def test_encode_into_appends_frames_back_to_back(self):
        corpus = self._corpus()[:10]
        out = bytearray()
        for message in corpus:
            encode_message_into(out, 2, message)
        # Walk the concatenated frames back out.
        view = memoryview(out)
        pos = 0
        decoded = []
        while pos < len(out):
            (size,) = FRAME_HEADER.unpack_from(view, pos)
            start = pos + FRAME_HEADER.size
            sender, message = decode_message(view[start : start + size])
            assert sender == 2
            decoded.append(message)
            pos = start + size
        view.release()
        assert decoded == corpus

    def test_decode_from_memoryview_matches_bytes(self):
        for message in self._corpus():
            frame = encode_message(1, message)
            payload = frame[FRAME_HEADER.size :]
            assert decode_message(payload) == decode_message(
                memoryview(payload)
            )
