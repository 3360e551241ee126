"""Unit tests for the synthetic and TPC-C workload generators and the
open-loop client model."""

import random

import pytest

from repro.core.protocol import M2Paxos
from repro.sim.cluster import Cluster
from repro.spec import ClusterSpec
from repro.workloads.client import ClientConfig, OpenLoopClients
from repro.workloads.synthetic import SyntheticConfig, SyntheticWorkload
from repro.workloads.tpcc import MIX, TpccConfig, TpccWorkload


class TestSyntheticWorkload:
    def make(self, n_nodes=5, **kwargs):
        return SyntheticWorkload(
            SyntheticConfig(**kwargs), n_nodes, random.Random(42)
        )

    def test_full_locality_stays_in_local_set(self):
        wl = self.make(locality=1.0, local_set_size=10)
        for _ in range(200):
            command = wl.next_command(2)
            (obj,) = command.ls
            assert obj.startswith("o2.")

    def test_zero_locality_spreads_uniformly(self):
        wl = self.make(locality=0.0, local_set_size=10)
        owners = set()
        for _ in range(500):
            (obj,) = wl.next_command(2).ls
            owners.add(obj.split(".")[0])
        assert len(owners) == 5  # commands hit every node's objects

    def test_intermediate_locality_fraction(self):
        wl = self.make(locality=0.7, local_set_size=100)
        local = sum(
            1
            for _ in range(2000)
            if next(iter(wl.next_command(1).ls)).startswith("o1.")
        )
        # 70% explicit locality + ~1/5 of the uniform remainder.
        expected = 0.7 + 0.3 / 5
        assert abs(local / 2000 - expected) < 0.05

    def test_complex_commands_access_two_objects(self):
        wl = self.make(complex_fraction=1.0, local_set_size=1000)
        sizes = {len(wl.next_command(0).ls) for _ in range(100)}
        assert sizes <= {1, 2}  # 1 only when both picks collide
        assert 2 in sizes

    def test_sequence_numbers_unique_per_node(self):
        wl = self.make()
        cids = {wl.next_command(1).cid for _ in range(100)}
        assert len(cids) == 100

    def test_payload_bytes_honoured(self):
        wl = self.make()
        assert wl.next_command(0).payload_bytes == 16

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(locality=1.5)
        with pytest.raises(ValueError):
            SyntheticConfig(local_set_size=0)
        with pytest.raises(ValueError):
            SyntheticConfig(complex_fraction=-0.1)


class TestTpccWorkload:
    def make(self, n_nodes=3, **kwargs):
        return TpccWorkload(TpccConfig(**kwargs), n_nodes, random.Random(7))

    def test_warehouse_count_is_ten_per_node(self):
        wl = self.make(n_nodes=9)
        assert wl.n_warehouses == 90

    def test_home_node_round_robin(self):
        wl = self.make(n_nodes=3)
        assert [wl.home_node(w) for w in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_local_commands_touch_local_warehouses(self):
        wl = self.make(remote_warehouse_prob=0.0)
        for _ in range(100):
            command = wl.next_command(1)
            warehouses = {
                int(obj[1:].split(".")[0])
                for obj in command.ls
                if obj.startswith("w")
            }
            # The *home* warehouse is local; Payment may add a remote
            # customer and New-Order a remote stock row (per spec).
            assert any(wl.home_node(w) == 1 for w in warehouses)

    def test_transaction_mix_roughly_matches_spec(self):
        wl = self.make()
        # Classify by object-set shape: Delivery touches exactly one
        # warehouse and all ten of its districts (and nothing else).
        deliveries = 0
        total = 4000
        for _ in range(total):
            command = wl.next_command(0)
            districts = sum(1 for obj in command.ls if ".d" in obj)
            others = sum(
                1 for obj in command.ls if ".s" in obj or ".c" in obj
            )
            if districts == 10 and others == 0:
                deliveries += 1
        assert abs(deliveries / total - 0.04) < 0.02

    def test_new_order_touches_stock_rows(self):
        wl = self.make()
        found = False
        for _ in range(200):
            command = wl.next_command(0)
            if any(".s" in obj for obj in command.ls):
                found = True
                stock_lines = sum(1 for obj in command.ls if ".s" in obj)
                assert 1 <= stock_lines <= 15
        assert found

    def test_commands_have_bigger_payloads_than_synthetic(self):
        wl = self.make()
        assert all(wl.next_command(0).payload_bytes > 16 for _ in range(50))

    def test_mix_weights_sum_to_one(self):
        assert abs(sum(w for _name, w in MIX) - 1.0) < 1e-9


class TestOpenLoopClients:
    def test_inflight_cap_respected(self):
        # A cluster that never decides (majority crashed) accumulates
        # in-flight commands only up to the cap.
        cluster = Cluster(
            ClusterSpec(n_nodes=3, seed=0), lambda i, n: M2Paxos()
        )
        cluster.crash(1)
        cluster.crash(2)
        wl = SyntheticWorkload(SyntheticConfig(), 3, random.Random(0))
        clients = OpenLoopClients(
            cluster,
            wl,
            ClientConfig(clients_per_node=8, think_time=0.001, max_inflight_per_node=5),
        )
        cluster.start()
        clients.start()
        cluster.run_for(1.0)
        assert clients._inflight[0] == 5

    def test_think_time_paces_submission(self):
        cluster = Cluster(
            ClusterSpec(n_nodes=3, seed=0), lambda i, n: M2Paxos()
        )
        wl = SyntheticWorkload(SyntheticConfig(), 3, random.Random(0))
        proposed = []
        orig = wl.next_command

        def counting(node):
            command = orig(node)
            proposed.append(command)
            return command

        wl.next_command = counting
        clients = OpenLoopClients(
            cluster,
            wl,
            ClientConfig(
                clients_per_node=1, think_time=0.1, max_inflight_per_node=100
            ),
        )
        cluster.start()
        clients.start()
        cluster.run_for(1.05)
        # 1 client/node, 100 ms think time, ~1 s: about 10 per node.
        per_node = sum(1 for c in proposed if c.proposer == 0)
        assert 8 <= per_node <= 12

    def test_stop_halts_submission(self):
        cluster = Cluster(
            ClusterSpec(n_nodes=3, seed=0), lambda i, n: M2Paxos()
        )
        wl = SyntheticWorkload(SyntheticConfig(), 3, random.Random(0))
        clients = OpenLoopClients(
            cluster, wl, ClientConfig(clients_per_node=1, think_time=0.01)
        )
        cluster.start()
        clients.start()
        cluster.run_for(0.1)
        clients.stop()
        before = len(cluster.nodes[0].delivered)
        cluster.run_for(1.0)
        after_settle = len(cluster.nodes[0].delivered)
        cluster.run_for(1.0)
        assert len(cluster.nodes[0].delivered) == after_settle
        assert after_settle >= before
