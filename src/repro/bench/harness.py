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
from repro.sim.cpu import CpuConfig
from repro.sim.latency import GaussianLatency
from repro.sim.network import NetworkConfig
from repro.sim.rng import RngRegistry
from repro.spec import PROTOCOLS, ClusterSpec, ZoneLatency
from repro.storage.base import StorageConfig
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


def protocol_factory(
    name: str, costs=None, **m2
) -> Callable[[int, int], Protocol]:
    """Benchmark-tuned factory for each protocol under test.

    ``m2`` names :class:`M2PaxosConfig` fields to set on top of
    :data:`BENCH_M2` (ignored by the other protocols; an unknown name is
    a ``TypeError``).  Note ``policy`` is an ownership-policy *factory*
    (zero-arg callable -- policies hold per-node state).  ``costs``
    optionally replaces the M2Paxos CPU-cost profile (the serving bench
    uses one that lets the message path dominate).
    """
    if name == "m2paxos":
        config = replace(BENCH_M2, **m2)

        def make_m2(node_id: int, n: int) -> Protocol:
            protocol = M2Paxos(config)
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


@dataclass
class PointSpec:
    """Everything defining one datapoint."""

    protocol: str
    n_nodes: int
    workload: str = "synthetic"  # "synthetic" | "tpcc"
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    tpcc: TpccConfig = field(default_factory=TpccConfig)
    clients_per_node: int = 64
    think_time: float = 0.005
    max_inflight: int = 96
    duration: float = 0.25
    warmup: float = 0.15
    seed: int = 1
    cores: int = 16
    batching: bool = True
    # M2Paxos fast-path batching (1 = off, the seed-identical default).
    max_batch: int = 1
    batch_wait: float = 0.0
    # "estimate" (seed default) or "codec" (real binary frame sizes).
    frame_sizes: str = "estimate"
    # Durable storage; None keeps today's in-memory-only behaviour.
    storage: Optional[StorageConfig] = None
    # Geo runs: node->zone assignment, the intra/inter-zone latency
    # shorthand (replaces the Gaussian LAN model when set), and whether
    # m2paxos runs the zone-aware migration policy.
    zones: Optional[tuple[int, ...]] = None
    zone_latency: Optional["ZoneLatency"] = None
    zone_affinity: bool = False
    # Serving tier (m2paxos only; all off by default, keeping the run
    # byte-identical to the seed): ownership-lease knobs and
    # latency-aware accept-quorum targeting.
    lease_duration: float = 0.0
    lease_margin: float = 0.002
    nearest_accept: bool = False
    quorum_rtt: Optional[tuple] = None
    quorum: Optional[object] = None


def build_workload(spec: PointSpec, rng: RngRegistry):
    if spec.workload == "synthetic":
        return SyntheticWorkload(spec.synthetic, spec.n_nodes, rng.stream("workload"))
    if spec.workload == "tpcc":
        return TpccWorkload(spec.tpcc, spec.n_nodes, rng.stream("workload"))
    raise ValueError(f"unknown workload {spec.workload!r}")


@dataclass
class RunHandle:
    """A fully built but not-yet-started sim run.

    ``repro top`` steps the cluster interval-by-interval between screen
    refreshes; :func:`run_point` drives it start-to-finish.  Either way
    the pieces (cluster, workload, collector, clients) are assembled
    once, here.
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
    network = NetworkConfig(
        latency=GaussianLatency(100e-6, 10e-6),  # the paper's ~0.1 ms LAN
        batching=spec.batching,
        frame_sizes=spec.frame_sizes,
    )
    home_hint = None
    if spec.workload == "tpcc":
        # TPC-C declares its partitioning: every object of warehouse W
        # is homed at node ``W % N`` (DESIGN.md, "home-ownership hint").
        n_nodes = spec.n_nodes

        def home_hint(name: str, _n: int = n_nodes) -> int:
            return int(name[1:].split(".", 1)[0]) % _n

    policy = None
    if spec.zone_affinity:
        if spec.zones is None:
            raise ValueError("zone_affinity requires zones")
        if spec.protocol != "m2paxos":
            raise ValueError("zone_affinity is an m2paxos policy")
        from repro.core.policy import ZoneAffinityPolicy

        zones = spec.zones
        policy = lambda: ZoneAffinityPolicy(zones)  # noqa: E731
    cluster_spec = ClusterSpec(
        protocol=spec.protocol,
        n_nodes=spec.n_nodes,
        seed=spec.seed,
        network=network,
        cpu=CpuConfig(cores=spec.cores),
        storage=spec.storage,
        zones=spec.zones,
        zone_latency=spec.zone_latency,
    )
    cluster = Cluster(
        cluster_spec,
        # The bench-tuned factory, not cluster_spec.protocol_factory():
        # it layers home hints, fast-path batching, and cost overrides
        # on top of the spec's protocol choice.
        protocol_factory(
            spec.protocol,
            home_hint=home_hint,
            max_batch=spec.max_batch,
            batch_wait=spec.batch_wait,
            costs=costs,
            policy=policy,
            quorum=spec.quorum,
            lease_duration=spec.lease_duration,
            lease_margin=spec.lease_margin,
            nearest_accept=spec.nearest_accept,
            quorum_rtt=spec.quorum_rtt,
        ),
    )
    workload_rng = RngRegistry(spec.seed * 7919 + 13)
    workload = build_workload(spec, workload_rng)
    collector = ObsCollector.for_cluster(cluster, record_spans=record_spans)
    clients = OpenLoopClients(
        cluster,
        workload,
        ClientConfig(
            clients_per_node=spec.clients_per_node,
            think_time=spec.think_time,
            max_inflight_per_node=spec.max_inflight,
        ),
    )
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
        clients_per_node=64,
        think_time=0.002,
        max_inflight=96,
        warmup=max(spec.warmup, 0.5),
        duration=max(spec.duration, 0.3),
    )
