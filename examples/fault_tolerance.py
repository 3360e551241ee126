"""Fault-tolerance demo: owner crash, takeover, and recovery.

Run:  python examples/fault_tolerance.py

Node 0 owns an object and orders commands on the fast path.  It then
crashes with a command still in flight.  Node 1 takes over: its
ownership acquisition discovers the crashed owner's accepted-but-
undecided command via the prepare phase and *forces* it to completion
before its own command -- the recovery the paper describes as
"embedded into the process of changing the ownership".
"""

from repro import Cluster, ClusterSpec, Command, M2Paxos

N_NODES = 5


def main() -> None:
    cluster = Cluster(
        ClusterSpec(n_nodes=N_NODES, seed=3),
        lambda node_id, n: M2Paxos(),
    )
    cluster.start()

    print("phase 1: node 0 owns 'ledger' and orders 5 commands fast")
    for seq in range(5):
        cluster.propose(0, Command.make(0, seq, ["ledger"]))
        cluster.run_for(0.05)
    print("  delivered everywhere:",
          [len(cluster.delivered(i)) for i in range(N_NODES)])

    print("phase 2: node 0 proposes one more, then crashes mid-round")
    cluster.propose(0, Command.make(0, 99, ["ledger"]))
    cluster.run_for(0.0005)  # the ACCEPT is on the wire, no decision yet
    cluster.crash(0)
    print("  node 0 crashed")

    print("phase 3: node 1 proposes on the same object and takes over")
    cluster.propose(1, Command.make(1, 0, ["ledger"]))
    cluster.run_for(5.0)
    cluster.check_consistency()

    for node in range(1, N_NODES):
        cids = [c.cid for c in cluster.delivered(node)]
        print(f"  node {node} delivered: {cids}")
    survivor = [c.cid for c in cluster.delivered(1)]
    assert (0, 99) in survivor, "in-flight command was lost!"
    assert (1, 0) in survivor
    print("the crashed owner's in-flight command (0, 99) was recovered "
          "and ordered before node 1's command")


if __name__ == "__main__":
    main()
