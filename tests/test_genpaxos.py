"""Integration tests for the Generalized Paxos baseline."""

from repro.consensus.commands import Command
from repro.consensus.genpaxos import GenPaxos, GenPaxosConfig
from repro.core.quorum import classic_quorum, fast_quorum, fast_recovery_quorum

from tests.conftest import assert_all_delivered, make_cluster, run_workload


def gp(config=None):
    return lambda node_id, n: GenPaxos(config)


class TestFastRounds:
    def test_partitioned_workload_learns_fast(self):
        cluster = make_cluster(gp(), n_nodes=5, seed=1)
        proposed = run_workload(
            cluster, 10, lambda rng, node, r: [f"o{node}"], settle=5.0
        )
        assert_all_delivered(cluster, proposed)
        leader = cluster.nodes[0].protocol
        assert leader.stats["fast_learned"] == len(proposed)
        assert leader.stats["classic_rounds"] == 0

    def test_commuting_concurrent_proposals_no_collision(self):
        cluster = make_cluster(gp(), n_nodes=5, seed=2)
        a = Command.make(0, 0, ["x"])
        b = Command.make(1, 0, ["y"])
        cluster.propose(0, a)
        cluster.propose(1, b)  # same instant, different objects
        cluster.run_for(2.0)
        cluster.check_consistency()
        assert cluster.nodes[0].protocol.stats["collisions"] == 0
        assert len(cluster.delivered(4)) == 2

    def test_fast_quorum_size_used(self):
        cluster = make_cluster(gp(), n_nodes=7, seed=3)
        protocol = cluster.nodes[0].protocol
        assert protocol.fast_quorum == fast_quorum(7) == 5  # floor(14/3)+1

    def test_recovery_quorum_exceeds_majority_for_n7(self):
        cluster = make_cluster(gp(), n_nodes=7, seed=3)
        protocol = cluster.nodes[0].protocol
        assert protocol.recovery_quorum == fast_recovery_quorum(7) == 5
        assert protocol.quorum == classic_quorum(7) == 4


class TestCollisions:
    def test_conflicting_proposals_resolved_by_leader(self):
        cluster = make_cluster(gp(), n_nodes=5, seed=4)
        proposed = run_workload(
            cluster, 10, lambda rng, node, r: ["hot"], spacing=0.002, settle=10.0
        )
        assert_all_delivered(cluster, proposed)
        leader = cluster.nodes[0].protocol
        assert leader.stats["classic_rounds"] > 0

    def test_multi_object_commands_serialised_via_leader(self):
        cluster = make_cluster(gp(), n_nodes=5, seed=5)
        proposed = run_workload(
            cluster,
            10,
            lambda rng, node, r: rng.sample(["a", "b", "c", "d"], k=2),
            settle=10.0,
        )
        assert_all_delivered(cluster, proposed)

    def test_mixed_single_and_multi_object(self):
        cluster = make_cluster(gp(), n_nodes=5, seed=6)
        proposed = run_workload(
            cluster,
            15,
            lambda rng, node, r: (
                [rng.choice("abcd")] if rng.random() < 0.5 else rng.sample("abcd", 2)
            ),
            settle=15.0,
        )
        assert_all_delivered(cluster, proposed)

    def test_mixed_workload_larger_cluster(self):
        cluster = make_cluster(gp(), n_nodes=9, seed=7)
        proposed = run_workload(
            cluster,
            8,
            lambda rng, node, r: (
                [rng.choice("abcde")] if rng.random() < 0.5 else rng.sample("abcde", 2)
            ),
            settle=15.0,
        )
        assert_all_delivered(cluster, proposed)

    def test_retry_does_not_duplicate_delivery(self):
        config = GenPaxosConfig(retry_timeout=0.05)
        cluster = make_cluster(gp(config), n_nodes=5, seed=8)
        proposed = run_workload(
            cluster, 10, lambda rng, node, r: ["hot"], spacing=0.001, settle=10.0
        )
        assert_all_delivered(cluster, proposed)
        # assert_all_delivered already checks exact set equality per node,
        # which rules out duplicates.
