"""One configuration object for a whole cluster deployment.

:class:`ClusterSpec` names everything that defines a run -- protocol,
cluster size, seed, network/CPU models, protocol tunables,
and durable storage -- and both substrates consume it:

- ``Cluster(spec)`` builds a simulated cluster;
- ``LocalCluster.from_spec(spec)`` builds the asyncio/TCP cluster.

The CLI paths (``run``/``compare``/``chaos``/``perf``) all funnel their
flags through a spec; a bad deployment value raises :class:`ConfigError`
naming the offending field.

The per-layer configs it holds (:class:`~repro.sim.network.NetworkConfig`,
:class:`~repro.sim.cpu.CpuConfig`, ...) are what each layer reads; a
spec is a frozen value, so a variant is ``dataclasses.replace(spec, ...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.consensus.base import Protocol
from repro.core.m2.config import M2PaxosConfig
from repro.sim.cpu import CpuConfig
from repro.sim.network import NetworkConfig
from repro.storage.base import StorageConfig

PROTOCOLS = ("m2paxos", "multipaxos", "genpaxos", "epaxos")


class ConfigError(ValueError):
    """A deployment or scenario value did not validate.

    The message always names the bad field (``"n_nodes"``, ``"zones"``),
    so a bad value surfaces as one actionable line.
    """


@dataclass(frozen=True)
class ZoneLatency:
    """Zone-latency shorthand: two one-way delays instead of a matrix.

    Compiles to :class:`repro.sim.latency.TopologyLatency` via
    ``from_zones`` -- ``intra`` between same-zone nodes, ``inter``
    across zones, plus an optional symmetric ``jitter`` half-width.
    All values are **seconds** of one-way delay (the CLI's ``--zone-*``
    flags take milliseconds and convert).
    """

    intra: float = 0.0005
    inter: float = 0.04
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.intra < 0 or self.inter < 0:
            raise ValueError("zone latencies must be >= 0")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")


@dataclass(frozen=True)
class ClusterSpec:
    """Everything defining one cluster deployment, for either substrate.

    ``m2`` carries the M2Paxos tunables (ignored by other protocols);
    ``None`` means the bench-tuned defaults.  ``network`` and ``cpu``
    only affect the simulator (the runtime runs on real wires and
    cores); ``storage`` applies to both substrates.
    """

    protocol: str = "m2paxos"
    n_nodes: int = 3
    seed: int = 0
    network: NetworkConfig = field(default_factory=NetworkConfig)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    m2: Optional[M2PaxosConfig] = None
    storage: Optional[StorageConfig] = None
    # Geo deployments: ``zones[i]`` is the zone (region) of node ``i``.
    # Drives the zone-latency shorthand below, cross-zone wire counters,
    # and per-zone telemetry frames.  None means single-zone (the seed).
    zones: Optional[tuple[int, ...]] = None
    # Intra/inter-zone latency shorthand; compiled into a
    # ``TopologyLatency`` matrix that *replaces* ``network.latency`` in
    # the simulator.  Requires ``zones``.
    zone_latency: Optional[ZoneLatency] = None

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(
                f"protocol: must be one of {PROTOCOLS}, got {self.protocol!r}"
            )
        if self.n_nodes < 1:
            raise ConfigError(f"n_nodes: must be >= 1, got {self.n_nodes}")
        if self.zones is not None and len(self.zones) != self.n_nodes:
            raise ConfigError(
                f"zones: must assign all {self.n_nodes} nodes, "
                f"got {len(self.zones)} entries"
            )
        if self.zone_latency is not None and self.zones is None:
            raise ConfigError("zone_latency: requires zones to be set")

    def protocol_factory(self) -> Callable[[int, int], Protocol]:
        """The ``(node_id, n_nodes) -> Protocol`` factory for this spec:
        :func:`repro.bench.harness.make_factory` over ``m2``, or over the
        bench-tuned :data:`~repro.bench.harness.BENCH_M2` when it is None."""
        from repro.bench.harness import BENCH_M2, make_factory

        return make_factory(self.protocol, BENCH_M2 if self.m2 is None else self.m2)
