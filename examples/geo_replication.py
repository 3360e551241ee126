"""Geo-replication: M2Paxos vs Multi-Paxos over a WAN latency matrix.

Run:  python examples/geo_replication.py

Five regions with realistic one-way delays.  Under Multi-Paxos every
command pays a round trip to the single leader's region; under M2Paxos
each region owns its local objects and commits with the nearest
majority -- the multi-leader advantage the paper's motivation opens
with (and the setting of the authors' companion system Alvin).
"""

from repro import Cluster, ClusterSpec, Command, M2Paxos
from repro.consensus.multipaxos import MultiPaxos
from repro.metrics.stats import summarize
from repro.sim.latency import TopologyLatency
from repro.sim.network import NetworkConfig

REGIONS = ["virginia", "oregon", "ireland", "frankfurt", "tokyo"]

# One-way delays in seconds (approximate public-cloud figures).
MATRIX = [
    # VA      OR      IE      FR      TK
    [0.0000, 0.0340, 0.0380, 0.0450, 0.0750],  # virginia
    [0.0340, 0.0000, 0.0650, 0.0800, 0.0500],  # oregon
    [0.0380, 0.0650, 0.0000, 0.0120, 0.1100],  # ireland
    [0.0450, 0.0800, 0.0120, 0.0000, 0.1200],  # frankfurt
    [0.0750, 0.0500, 0.1100, 0.1200, 0.0000],  # tokyo
]


def run(protocol_factory, label):
    cluster = Cluster(
        ClusterSpec(
            n_nodes=5,
            seed=21,
            network=NetworkConfig(
                latency=TopologyLatency(MATRIX, jitter=0.002)
            ),
        ),
        protocol_factory,
    )
    times = {}
    for node in cluster.nodes:
        node.deliver_listeners.append(
            lambda nid, c, t: times.setdefault((nid, c.cid), t)
        )
    cluster.start()

    latencies = []
    seq = 0
    for wave in range(10):
        starts = {}
        for region in range(5):
            command = Command.make(region, seq, [f"{REGIONS[region]}-data"])
            starts[command.cid] = (region, cluster.loop.now)
            cluster.propose(region, command)
            seq += 1
        cluster.run_for(2.0)
        for cid, (region, t0) in starts.items():
            done = times.get((region, cid))
            if done is not None:
                latencies.append(done - t0)
    cluster.check_consistency()

    summary = summarize(latencies).scaled(1e3)
    print(
        f"{label:12s} p50={summary.p50:7.1f} ms  p95={summary.p95:7.1f} ms  "
        f"(n={summary.count})"
    )
    return summary


def main() -> None:
    print("each region proposes on region-local data:")
    m2 = run(lambda node_id, n: M2Paxos(), "m2paxos")
    mp = run(lambda node_id, n: MultiPaxos(), "multipaxos")
    advantage = mp.p50 / m2.p50
    print(f"\nM2Paxos commits with the nearest majority: "
          f"{advantage:.1f}x lower median latency than the single-leader "
          f"round trip (leader in {REGIONS[0]}).")


if __name__ == "__main__":
    main()
