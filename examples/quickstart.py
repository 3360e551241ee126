"""Quickstart: a 5-node M2Paxos cluster under the deterministic simulator.

Run:  python examples/quickstart.py

Each node proposes commands on its own objects (a *partitionable*
workload, M2Paxos's sweet spot): after a single ownership acquisition
per object, every command is decided on the fast path -- two
communication delays with a classic majority quorum.
"""

from repro import Cluster, ClusterSpec, Command, M2Paxos

N_NODES = 5
COMMANDS_PER_NODE = 20


def main() -> None:
    cluster = Cluster(
        ClusterSpec(n_nodes=N_NODES, seed=42),
        lambda node_id, n: M2Paxos(),
    )
    cluster.start()

    # Every node proposes on its own object -- no cross-node conflicts.
    for seq in range(COMMANDS_PER_NODE):
        for node in range(N_NODES):
            command = Command.make(node, seq, [f"account-{node}"])
            cluster.propose(node, command)
        cluster.run_for(0.01)  # 10 ms of virtual time between waves

    cluster.run_for(1.0)  # let everything settle
    cluster.check_consistency()

    print(f"cluster of {N_NODES} nodes, {COMMANDS_PER_NODE} commands each")
    for node in range(N_NODES):
        delivered = cluster.delivered(node)
        print(f"  node {node}: delivered {len(delivered)} commands")

    stats = cluster.nodes[0].protocol.stats
    print(
        f"node 0 decision paths: fast={stats['fast_path']} "
        f"forwarded={stats['forwarded']} acquisitions={stats['acquisitions']}"
    )
    print("(one acquisition to claim ownership, fast path ever after)")


if __name__ == "__main__":
    main()
