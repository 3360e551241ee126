"""Ablations of M2Paxos design choices (DESIGN.md per-experiment index).

Three knobs the paper's design discussion motivates:

- **ack-to-all vs decide-broadcast**: Algorithm 2 broadcasts ACKACCEPT
  to every node (all nodes learn in two delays, N^2 messages); the
  practical default replies to the coordinator only and broadcasts a
  DECIDE (3N messages, remote learners one delay later).
- **message batching**: the paper batches everywhere except Figure 2.
- **home-ownership hint**: static epoch-0 ownership vs purely on-demand
  acquisition, on the TPC-C workload whose object space is too large to
  warm up on demand.
"""

from dataclasses import replace

from repro.bench.harness import PointSpec, run_point, saturated_spec
from repro.bench.report import print_table
from repro.core.protocol import M2Paxos, M2PaxosConfig
from repro.obs.collect import ObsCollector
from repro.sim.cluster import Cluster
from repro.sim.cpu import CpuConfig
from repro.sim.latency import GaussianLatency
from repro.sim.network import NetworkConfig
from repro.sim.rng import RngRegistry
from repro.spec import ClusterSpec
from repro.workloads.client import ClientConfig, OpenLoopClients
from repro.workloads.synthetic import SyntheticConfig, SyntheticWorkload


def run_m2(n_nodes, m2_config, batching=True, clients=64, think=0.002,
           cap=96, warmup=0.5, duration=0.3, seed=1):
    cluster = Cluster(
        ClusterSpec(
            n_nodes=n_nodes,
            seed=seed,
            network=NetworkConfig(
                latency=GaussianLatency(100e-6, 10e-6), batching=batching
            ),
            cpu=CpuConfig(cores=16),
        ),
        lambda i, n: M2Paxos(m2_config),
    )
    workload = SyntheticWorkload(
        SyntheticConfig(), n_nodes, RngRegistry(seed * 7919 + 13).stream("wl")
    )
    collector = ObsCollector.for_cluster(cluster)
    drivers = OpenLoopClients(
        cluster,
        workload,
        ClientConfig(
            clients_per_node=clients, think_time=think, max_inflight_per_node=cap
        ),
    )
    cluster.start()
    drivers.start()
    cluster.run_for(warmup)
    collector.begin_window()
    cluster.run_for(duration)
    collector.end_window()
    cluster.check_consistency()
    return collector.result()


BENCH_CONFIG = M2PaxosConfig(
    forward_timeout=1.0,
    gap_timeout=0.5,
    gap_check_period=0.25,
    supervise_timeout=30.0,
    round_timeout=10.0,
)


def test_ablation_ack_to_all(benchmark):
    """N^2 learning (paper's Algorithm 2 literal) vs decide broadcast."""

    def once():
        rows = []
        for ack_to_all in (False, True):
            config = replace(BENCH_CONFIG, ack_to_all=ack_to_all)
            result = run_m2(5, config)
            rows.append(
                {
                    "ack_to_all": ack_to_all,
                    "throughput": result.throughput,
                    "messages": result.messages_sent,
                    "p50_ms": result.latency.p50 * 1e3,
                }
            )
        return rows

    rows = benchmark.pedantic(once, rounds=1, iterations=1)
    print_table(
        "Ablation: ACKACCEPT to all vs decide broadcast",
        rows,
        ["ack_to_all", "throughput", "messages", "p50_ms"],
    )
    plain, all_acks = rows
    # The N^2 variant sends far more messages for (at best) equal
    # throughput at this scale.
    assert all_acks["messages"] > 1.5 * plain["messages"]
    assert plain["throughput"] >= 0.8 * all_acks["throughput"]


def test_ablation_batching(benchmark):
    """Network batching amortises per-send CPU and framing."""

    def once():
        rows = []
        for batching in (True, False):
            result = run_m2(5, BENCH_CONFIG, batching=batching)
            rows.append(
                {
                    "batching": batching,
                    "throughput": result.throughput,
                    "p50_ms": result.latency.p50 * 1e3,
                }
            )
        return rows

    rows = benchmark.pedantic(once, rounds=1, iterations=1)
    print_table(
        "Ablation: message batching", rows, ["batching", "throughput", "p50_ms"]
    )
    batched, unbatched = rows
    assert batched["throughput"] >= unbatched["throughput"]


def test_ablation_home_hint_tpcc(benchmark):
    """Static TPC-C ownership vs on-demand acquisition of a huge,
    constantly-first-touched object space."""
    from repro.workloads.tpcc import TpccConfig

    def once():
        rows = []
        for use_hint in (True, False):
            spec = saturated_spec(
                PointSpec(
                    protocol="m2paxos",
                    n_nodes=3,
                    workload="tpcc",
                    tpcc=TpccConfig(remote_warehouse_prob=0.0),
                )
            )
            if not use_hint:
                # Bypass the harness's automatic TPC-C hint.
                import repro.bench.harness as harness

                original = harness.tpcc_home_hint
                harness.tpcc_home_hint = lambda n_nodes: None
                try:
                    result = run_point(spec)
                finally:
                    harness.tpcc_home_hint = original
            else:
                result = run_point(spec)
            rows.append({"home_hint": use_hint, "throughput": result.throughput})
        return rows

    rows = benchmark.pedantic(once, rounds=1, iterations=1)
    print_table(
        "Ablation: TPC-C home-ownership hint", rows, ["home_hint", "throughput"]
    )
    hinted, unhinted = rows
    # Without the hint every New-Order first-touches ~10 stock rows and
    # pays an acquisition for them; the hint keeps those commands on the
    # fast path.  The margin at 3 nodes is modest (~1.1-1.3x depending
    # on recovery tuning) and grows with the acquisition cost at larger
    # N, so assert the direction with a small guard band.
    assert hinted["throughput"] > 1.05 * unhinted["throughput"]
