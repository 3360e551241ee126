"""Adaptive protocol switching (the paper's Section IV-C extension).

Run:  python examples/adaptive_switching.py

The hybrid starts in M2Paxos mode.  While the workload is partitioned
it stays there; when the workload turns adversarial (every command
spans two nodes' objects, so no ownership assignment is ever stable),
nodes observe their acquisition rate, the coordinator announces a mode
change through consensus itself, and every replica switches to
Multi-Paxos at the same point in the delivery order.
"""

from repro import Cluster, ClusterSpec, Command
from repro.core.switcher import AdaptiveSwitcher, SwitcherConfig

N_NODES = 3


def main() -> None:
    config = SwitcherConfig(window=10, to_fallback=0.3, check_period=0.1)
    cluster = Cluster(
        ClusterSpec(n_nodes=N_NODES, seed=11),
        lambda node_id, n: AdaptiveSwitcher(config),
    )
    cluster.start()

    print("phase 1: partitioned workload (each node on its own object)")
    for seq in range(15):
        for node in range(N_NODES):
            cluster.propose(node, Command.make(node, seq, [f"own-{node}"]))
        cluster.run_for(0.01)
    cluster.run_for(1.0)
    print("  modes:", [cluster.nodes[i].protocol.mode for i in range(N_NODES)])

    print("phase 2: adversarial workload (ring-overlapping object pairs)")
    for seq in range(100, 130):
        for node in range(N_NODES):
            objs = [f"hot-{node}", f"hot-{(node + 1) % N_NODES}"]
            cluster.propose(node, Command.make(node, seq, objs))
        cluster.run_for(0.004)
    cluster.run_for(20.0)
    cluster.check_consistency()

    for i in range(N_NODES):
        protocol = cluster.nodes[i].protocol
        print(
            f"  node {i}: mode={protocol.mode} switches={protocol.stats['switches']} "
            f"delivered={len(cluster.delivered(i))}"
        )
    assert all(
        cluster.nodes[i].protocol.mode == "multipaxos" for i in range(N_NODES)
    ), "expected a coordinated switch to Multi-Paxos"
    print("all replicas switched to Multi-Paxos at the same delivery point")


if __name__ == "__main__":
    main()
