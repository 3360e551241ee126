"""Tests for the adaptive M2Paxos/Multi-Paxos switcher."""

from repro.core.switcher import AdaptiveSwitcher, SwitcherConfig, MODE_M2, MODE_MP

from tests.conftest import assert_all_delivered, make_cluster, run_workload


def switcher(config=None):
    return lambda node_id, n: AdaptiveSwitcher(config)


class TestAdaptiveSwitcher:
    def test_partitionable_workload_stays_in_m2(self):
        cluster = make_cluster(switcher(), n_nodes=3, seed=6)
        proposed = run_workload(
            cluster, 10, lambda rng, node, r: [f"o{node}"], spacing=0.01, settle=5.0
        )
        assert_all_delivered(cluster, proposed)
        assert all(
            cluster.nodes[i].protocol.mode == MODE_M2 for i in range(3)
        )
        assert cluster.nodes[0].protocol.stats["switches"] == 0

    def test_adverse_workload_switches_to_multipaxos(self):
        config = SwitcherConfig(window=10, to_fallback=0.3, check_period=0.1)
        cluster = make_cluster(switcher(config), n_nodes=3, seed=7)
        # Ring-overlapping pairs: node i always touches its own object
        # and its neighbour's, so no ownership assignment is ever stable
        # and most proposals need the acquisition path.
        proposed = run_workload(
            cluster,
            15,
            lambda rng, node, r: [f"o{node}", f"o{(node + 1) % 3}"],
            spacing=0.004,
            settle=20.0,
        )
        assert_all_delivered(cluster, proposed)
        assert any(
            cluster.nodes[i].protocol.stats["switches"] > 0 for i in range(3)
        )
        assert all(
            cluster.nodes[i].protocol.mode == MODE_MP for i in range(3)
        )

    def test_all_nodes_switch_at_same_delivery_point(self):
        config = SwitcherConfig(window=10, to_fallback=0.3, check_period=0.1)
        cluster = make_cluster(switcher(config), n_nodes=3, seed=8)
        proposed = run_workload(
            cluster,
            12,
            lambda rng, node, r: rng.sample(["h1", "h2", "h3"], k=2),
            spacing=0.004,
            settle=20.0,
        )
        assert_all_delivered(cluster, proposed)
        modes = {cluster.nodes[i].protocol.mode for i in range(3)}
        assert len(modes) == 1  # nobody is stranded in the old mode

    def test_no_duplicate_deliveries_across_modes(self):
        config = SwitcherConfig(window=8, to_fallback=0.25, check_period=0.1)
        cluster = make_cluster(switcher(config), n_nodes=3, seed=9)
        proposed = run_workload(
            cluster,
            12,
            lambda rng, node, r: rng.sample(["h1", "h2"], k=2),
            spacing=0.004,
            settle=20.0,
        )
        # assert_all_delivered checks per-node exact-set equality, which
        # rules out duplicates even for commands re-proposed in the new
        # mode.
        assert_all_delivered(cluster, proposed)
