"""Integration tests: full M2Paxos clusters under the simulator."""


from repro.consensus.commands import Command
from repro.core.protocol import M2Paxos, M2PaxosConfig
from repro.sim.latency import UniformLatency
from repro.sim.network import NetworkConfig

from tests.conftest import assert_all_delivered, make_cluster, run_workload


def m2(config=None):
    return lambda node_id, n: M2Paxos(config)


class TestFastPath:
    def test_partitioned_workload_all_delivered(self):
        cluster = make_cluster(m2(), n_nodes=5, seed=1)
        proposed = run_workload(
            cluster, 10, lambda rng, node, r: [f"obj-{node}"], settle=5.0
        )
        assert_all_delivered(cluster, proposed)

    def test_fast_path_used_once_ownership_warm(self):
        cluster = make_cluster(m2(), n_nodes=5, seed=1)
        for seq in range(20):
            cluster.propose(0, Command.make(0, seq, ["x"]))
            cluster.run_for(0.05)
        cluster.run_for(1.0)
        stats = cluster.nodes[0].protocol.stats
        assert stats["acquisitions"] == 1  # only the first command
        assert stats["fast_path"] == 19

    def test_two_delay_decision_latency(self):
        # With fixed one-way latency L and negligible CPU cost, a warm
        # fast-path decision at the proposer takes ~2L.
        latency = 0.01
        cluster = make_cluster(
            m2(),
            n_nodes=5,
            seed=1,
            network=NetworkConfig(latency=UniformLatency(latency, latency)),
        )
        times = {}
        for node in cluster.nodes:
            node.deliver_listeners.append(
                lambda nid, c, t: times.setdefault((nid, c.cid), t)
            )
        cluster.propose(0, Command.make(0, 0, ["x"]))
        cluster.run_for(1.0)  # warm up ownership
        t0 = cluster.loop.now
        cluster.propose(0, Command.make(0, 1, ["x"]))
        cluster.run_for(1.0)
        elapsed = times[(0, (0, 1))] - t0
        assert 2 * latency <= elapsed < 3 * latency

    def test_pipelined_proposals_on_same_object(self):
        cluster = make_cluster(m2(), n_nodes=5, seed=2)
        commands = [Command.make(0, s, ["x"]) for s in range(30)]
        for c in commands:
            cluster.propose(0, c)  # no spacing: all in flight together
        cluster.run_for(5.0)
        assert_all_delivered(cluster, commands)
        # Delivered in proposal order (single owner pipelines slots).
        order = [c.cid for c in cluster.delivered(0) if c.cid[1] >= 0]
        assert order == [c.cid for c in commands]


class TestForwardPath:
    def test_remote_single_owner_forwards(self):
        cluster = make_cluster(m2(), n_nodes=5, seed=3)
        cluster.propose(0, Command.make(0, 0, ["x"]))
        cluster.run_for(1.0)
        cluster.propose(1, Command.make(1, 0, ["x"]))
        cluster.run_for(1.0)
        cluster.check_consistency()
        assert cluster.nodes[1].protocol.stats["forwarded"] == 1
        assert cluster.nodes[1].protocol.stats["acquisitions"] == 0
        assert len(cluster.delivered(1)) == 2

    def test_three_delay_forward_latency(self):
        latency = 0.01
        cluster = make_cluster(
            m2(),
            n_nodes=5,
            seed=3,
            network=NetworkConfig(latency=UniformLatency(latency, latency)),
        )
        times = {}
        for node in cluster.nodes:
            node.deliver_listeners.append(
                lambda nid, c, t: times.setdefault((nid, c.cid), t)
            )
        cluster.propose(0, Command.make(0, 0, ["x"]))
        cluster.run_for(1.0)
        t0 = cluster.loop.now
        cluster.propose(1, Command.make(1, 0, ["x"]))
        cluster.run_for(1.0)
        # Forward (1) + accept (2) + ack (3); node 1 learns via DECIDE at 4.
        elapsed = times[(1, (1, 0))] - t0
        assert 3 * latency <= elapsed < 5 * latency

    def test_forward_timeout_takes_over(self):
        config = M2PaxosConfig(forward_timeout=0.05)
        cluster = make_cluster(m2(config), n_nodes=5, seed=4)
        cluster.propose(0, Command.make(0, 0, ["x"]))
        cluster.run_for(1.0)
        cluster.crash(0)
        cluster.propose(1, Command.make(1, 0, ["x"]))
        cluster.run_for(3.0)
        cluster.check_consistency()
        assert any(c.cid == (1, 0) for c in cluster.delivered(1))


class TestAcquisitionPath:
    def test_cold_start_acquires(self):
        cluster = make_cluster(m2(), n_nodes=3, seed=5)
        cluster.propose(0, Command.make(0, 0, ["x"]))
        cluster.run_for(1.0)
        assert cluster.nodes[0].protocol.stats["acquisitions"] == 1
        assert len(cluster.delivered(2)) == 1

    def test_ownership_steal_reorders_cleanly(self):
        cluster = make_cluster(m2(), n_nodes=5, seed=6)
        cluster.propose(0, Command.make(0, 0, ["x"]))
        cluster.run_for(1.0)
        # Node 1 wants x for a multi-object command; no single owner of
        # both -> acquisition steals x from node 0.
        cluster.propose(1, Command.make(1, 0, ["x", "y"]))
        cluster.run_for(2.0)
        cluster.check_consistency()
        assert len(cluster.delivered(0)) == 2
        # Node 1 now owns both objects.
        assert cluster.nodes[1].protocol.state.obj("x").owner == 1

    def test_contended_acquisition_converges(self):
        cluster = make_cluster(m2(), n_nodes=5, seed=7)
        proposed = run_workload(
            cluster,
            10,
            lambda rng, node, r: ["hot"],
            spacing=0.002,
            settle=10.0,
        )
        assert_all_delivered(cluster, proposed)

    def test_multi_object_contention(self):
        cluster = make_cluster(m2(), n_nodes=5, seed=8)
        proposed = run_workload(
            cluster,
            8,
            lambda rng, node, r: rng.sample(["a", "b", "c", "d"], k=2),
            spacing=0.005,
            settle=15.0,
        )
        assert_all_delivered(cluster, proposed)


class TestFaultTolerance:
    def test_owner_crash_commands_recovered(self):
        cluster = make_cluster(m2(), n_nodes=5, seed=9)
        for seq in range(5):
            cluster.propose(0, Command.make(0, seq, ["x"]))
            cluster.run_for(0.05)
        cluster.propose(0, Command.make(0, 99, ["x"]))
        cluster.run_for(0.0005)  # accept broadcast sent, decide not yet
        cluster.crash(0)
        cluster.propose(1, Command.make(1, 0, ["x"]))
        cluster.run_for(5.0)
        cluster.check_consistency()
        survivors = [cluster.delivered(i) for i in range(1, 5)]
        for seq_list in survivors:
            cids = [c.cid for c in seq_list]
            assert (1, 0) in cids
            # The crashed owner's in-flight command was recovered too.
            assert (0, 99) in cids

    def test_minority_crash_keeps_liveness(self):
        cluster = make_cluster(m2(), n_nodes=5, seed=10)
        cluster.crash(3)
        cluster.crash(4)
        proposed = run_workload(
            cluster, 5, lambda rng, node, r: [f"obj-{node % 3}"], settle=8.0
        )
        cluster.check_consistency()
        delivered = {c.cid for c in cluster.delivered(0)}
        live_proposals = [c for c in proposed if c.proposer < 3]
        assert {c.cid for c in live_proposals} <= delivered

    def test_majority_crash_blocks_but_stays_safe(self):
        cluster = make_cluster(m2(), n_nodes=5, seed=11)
        for node in (2, 3, 4):
            cluster.crash(node)
        cluster.propose(0, Command.make(0, 0, ["x"]))
        cluster.run_for(3.0)
        cluster.check_consistency()
        assert len(cluster.delivered(0)) == 0  # no quorum, no decision

    def test_message_loss_retries_recover(self):
        cluster = make_cluster(
            m2(M2PaxosConfig(gap_timeout=0.2, gap_check_period=0.1)),
            n_nodes=5,
            seed=12,
            network=NetworkConfig(drop_probability=0.05, batching=True),
        )
        proposed = run_workload(
            cluster, 5, lambda rng, node, r: [f"obj-{node}"], settle=20.0
        )
        cluster.check_consistency()
        # With retries and gap recovery every command eventually lands
        # on every correct node (drops are transient).
        delivered = cluster.all_delivered_cids()
        missing = [c for c in proposed if c.cid not in delivered]
        assert not missing


class TestConfigKnobs:
    def test_ack_to_all_learns_without_decide(self):
        config = M2PaxosConfig(ack_to_all=True)
        cluster = make_cluster(m2(config), n_nodes=5, seed=13)
        proposed = run_workload(
            cluster, 5, lambda rng, node, r: [f"obj-{node}"], settle=5.0
        )
        assert_all_delivered(cluster, proposed)

    def test_invalid_command_propose_is_safe(self):
        cluster = make_cluster(m2(), n_nodes=3, seed=15)
        c = Command.make(0, 0, ["x"])
        cluster.propose(0, c)
        cluster.run_for(1.0)
        cluster.propose(0, c)  # duplicate propose of a decided command
        cluster.run_for(1.0)
        cluster.check_consistency()
        assert len(cluster.delivered(0)) == 1
        # A retry at other nodes re-runs consensus there, and the cid
        # dedup still applies the command exactly once on every node.
        cluster.propose(1, c)
        cluster.propose(2, c)
        cluster.run_for(1.0)
        cluster.check_consistency()
        for node in range(3):
            assert [d.cid for d in cluster.delivered(node)] == [c.cid]
