"""One benchmark datapoint: build a cluster, drive load, measure.

The protocol configurations used here differ from the library defaults
only in their supervision timeouts: at saturation, command latency is
dominated by queueing, and the paper's runs are crash-free, so the
fault-tolerance timers are relaxed to keep spurious recoveries from
polluting the measurement (exactly as a real deployment would tune
them).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.consensus.base import Protocol
from repro.consensus.epaxos import EPaxos, EPaxosConfig
from repro.consensus.genpaxos import GenPaxos, GenPaxosConfig
from repro.consensus.multipaxos import MultiPaxos, MultiPaxosConfig
from repro.core.protocol import M2Paxos, M2PaxosConfig
from repro.obs.collect import ObsCollector, RunResult
from repro.sim.cluster import Cluster
from repro.sim.latency import GaussianLatency
from repro.sim.network import NetworkConfig
from repro.sim.rng import RngRegistry
from repro.spec import PROTOCOLS, ClusterSpec
from repro.workloads.client import ClientConfig, OpenLoopClients
from repro.workloads.synthetic import SyntheticConfig, SyntheticWorkload
from repro.workloads.tpcc import TpccConfig, TpccWorkload

# M2Paxos as every bench runs it: library defaults except for the
# supervision timeouts (see the module docstring).
BENCH_M2 = M2PaxosConfig(
    forward_timeout=1.0,
    # Balanced gap healing: fast enough that ownership-churn holes do
    # not stall the pipeline for long, slow enough not to scoop rounds
    # that are merely queued at saturation.
    gap_timeout=0.5,
    gap_check_period=0.25,
    supervise_timeout=30.0,
    round_timeout=10.0,
)

# The paper's ~0.1 ms LAN, every bench point's default network.
BENCH_NETWORK = NetworkConfig(latency=GaussianLatency(100e-6, 10e-6))


def protocol_factory(
    name: str, costs=None, **m2
) -> Callable[[int, int], Protocol]:
    """Benchmark-tuned factory for each protocol under test.

    ``m2`` names :class:`M2PaxosConfig` fields to set on top of
    :data:`BENCH_M2` (an unknown name is a ``TypeError``).  Note
    ``policy`` is an ownership-policy *factory* (zero-arg callable --
    policies hold per-node state).  ``costs`` optionally replaces the
    M2Paxos CPU-cost profile (the serving bench uses one that lets the
    message path dominate).
    """
    return make_factory(name, replace(BENCH_M2, **m2), costs)


def make_factory(
    name: str, m2: M2PaxosConfig, costs=None
) -> Callable[[int, int], Protocol]:
    """The ``(node_id, n_nodes) -> Protocol`` factory for ``name``: M2Paxos
    runs ``m2`` (under ``costs`` when given), the other protocols their
    bench-tuned timeouts."""
    if name == "m2paxos":

        def make_m2(node_id: int, n: int) -> Protocol:
            protocol = M2Paxos(m2)
            if costs is not None:
                protocol.costs = costs
            return protocol

        return make_m2
    if name == "multipaxos":
        config = MultiPaxosConfig(leader_timeout=30.0)
        return lambda node_id, n: MultiPaxos(config)
    if name == "genpaxos":
        config = GenPaxosConfig(retry_timeout=1.0)
        return lambda node_id, n: GenPaxos(config)
    if name == "epaxos":
        config = EPaxosConfig(commit_timeout=30.0)
        return lambda node_id, n: EPaxos(config)
    raise ValueError(f"unknown protocol {name!r}; choose from {PROTOCOLS}")


@dataclass(frozen=True)
class PointSpec(ClusterSpec):
    """One datapoint: a cluster deployment plus the load it runs.

    The deployment fields are :class:`~repro.spec.ClusterSpec`'s, with
    seed 1 and :data:`BENCH_NETWORK` as defaults; ``m2=None`` means
    :data:`BENCH_M2`.  A TPC-C point additionally homes every warehouse
    at one node (:func:`tpcc_home_hint`, layered on in :func:`build_run`).
    """

    seed: int = 1
    network: NetworkConfig = field(default_factory=lambda: replace(BENCH_NETWORK))
    workload: str = "synthetic"  # "synthetic" | "tpcc"
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    tpcc: TpccConfig = field(default_factory=TpccConfig)
    client: ClientConfig = ClientConfig(
        clients_per_node=64, think_time=0.005, max_inflight_per_node=96
    )
    duration: float = 0.25
    warmup: float = 0.15


def tpcc_home_hint(n_nodes: int) -> Callable[[str], int]:
    """TPC-C declares its partitioning: every object of warehouse W is
    homed at node ``W % N`` (DESIGN.md, "home-ownership hint")."""
    return lambda name: int(name[1:].split(".", 1)[0]) % n_nodes


def build_workload(spec: PointSpec, rng: RngRegistry):
    if spec.workload == "synthetic":
        return SyntheticWorkload(spec.synthetic, spec.n_nodes, rng.stream("workload"))
    if spec.workload == "tpcc":
        return TpccWorkload(spec.tpcc, spec.n_nodes, rng.stream("workload"))
    raise ValueError(f"unknown workload {spec.workload!r}")


@dataclass
class RunHandle:
    """A fully built but not-yet-started sim run.

    :func:`run_point` drives it start-to-finish; a caller that needs the
    cluster between phases (the benchmark workloads, the fingerprint
    tests) steps it itself.  Either way the pieces (cluster, workload,
    collector, clients) are assembled once, here.
    """

    spec: PointSpec
    cluster: Cluster
    workload: object
    collector: ObsCollector
    clients: OpenLoopClients

    def start(self) -> None:
        self.cluster.start()
        self.clients.start()

    def finish(self) -> RunResult:
        self.clients.stop()
        self.cluster.check_consistency()
        result = self.collector.result()
        result.extra["protocol_stats"] = [
            dict(node.protocol.stats) for node in self.cluster.nodes
        ]
        result.extra["obs"] = self.collector
        self.cluster.close_storage()
        return result


def build_run(
    spec: PointSpec, record_spans: bool = False, costs=None
) -> RunHandle:
    """Assemble cluster + workload + collector + clients for ``spec``."""
    m2 = BENCH_M2 if spec.m2 is None else spec.m2
    if spec.workload == "tpcc":
        m2 = replace(m2, home_hint=tpcc_home_hint(spec.n_nodes))
    cluster = Cluster(spec, make_factory(spec.protocol, m2, costs))
    workload = build_workload(spec, RngRegistry(spec.seed * 7919 + 13))
    collector = ObsCollector.for_cluster(cluster, record_spans=record_spans)
    clients = OpenLoopClients(cluster, workload, spec.client)
    return RunHandle(
        spec=spec,
        cluster=cluster,
        workload=workload,
        collector=collector,
        clients=clients,
    )


def run_point(
    spec: PointSpec,
    record_spans: bool = False,
    costs=None,
    telemetry_interval: Optional[float] = None,
) -> RunResult:
    """Simulate one datapoint and return its measurements.

    With ``record_spans`` the run also keeps the full span log; the
    attached observability collector rides along in
    ``result.extra["obs"]`` for the trace exporters.  ``costs``
    optionally replaces the protocol's CPU-cost profile (see
    :func:`protocol_factory`).  ``telemetry_interval`` additionally
    attaches the live-telemetry sampler at that cadence; the
    ``Telemetry`` handle rides along in ``result.extra["telemetry"]``.
    Sampler callbacks only read, so decision logs are unchanged.
    """
    handle = build_run(spec, record_spans=record_spans, costs=costs)
    cluster, collector = handle.cluster, handle.collector
    telemetry = None
    if telemetry_interval is not None:
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry(cluster, interval=telemetry_interval)
        telemetry.start()
    handle.start()
    cluster.run_for(spec.warmup)
    collector.begin_window()
    cluster.run_for(spec.duration)
    collector.end_window()
    if telemetry is not None:
        telemetry.stop()
    result = handle.finish()
    if telemetry is not None:
        result.extra["telemetry"] = telemetry
    return result


def saturated_spec(spec: PointSpec) -> PointSpec:
    """An offered load well above any protocol's capacity, so measured
    throughput equals capacity (the paper's 'maximum attainable
    throughput' methodology: load to saturation, report the plateau).

    The warm-up is stretched so the in-flight pipeline reaches steady
    state before the measurement window opens -- at saturation the
    queueing delay is a large multiple of the unloaded latency.
    """
    return replace(
        spec,
        client=ClientConfig(
            clients_per_node=64, think_time=0.002, max_inflight_per_node=96
        ),
        warmup=max(spec.warmup, 0.5),
        duration=max(spec.duration, 0.3),
    )
