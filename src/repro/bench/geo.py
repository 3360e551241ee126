"""Geo/WAN benchmark: zone-aware ownership migration, measured.

The deployment the paper's Section VI never runs: nodes spread across
regions with a ~two-orders-of-magnitude gap between intra- and
inter-zone delay.  Every object starts homed in one region (``z0``),
while each region's clients hammer their *own* Zipf-skewed object pool
-- the worst case for static placement and the best case for a
placement policy that moves ownership to where the traffic is.

Three arms, identical workload and seed:

- ``pinned``: the seed behaviour -- ownership stays at the home region,
  every remote-region command pays WAN forwarding.
- ``zone_affinity``: :class:`~repro.core.policy.ZoneAffinityPolicy`
  migrates each object group to the region generating its demand; the
  fast path still needs a majority of all nodes, so one WAN hop remains
  in the quorum round.
- ``zone_affinity_flex``: the same policy plus a relaxed Fast Flexible
  Paxos quorum (``accept=2`` of 5, ``prepare=4``): after migration the
  owner reaches an accept quorum inside its own zone, so the steady
  state is intra-zone.

The CI floor (:func:`repro.bench.perf.check_regressions`) asserts the
migration arms actually migrated and that remote-region p50 improves
over ``pinned`` by a healthy margin.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.consensus.commands import Command

# Zone map for the canonical geo arm: 3 regions, two nodes in each of
# the first two, one in the third (5 nodes keeps majority quorums = 3).
GEO_ZONES = (0, 0, 1, 1, 2)
HOME_NODE = 0  # every object starts owned here (region 0)
GEO_INTRA = 0.5e-3  # one-way intra-zone delay (seconds)
GEO_INTER = 40e-3  # one-way inter-zone delay


def zone_rtt_matrix(
    zones: tuple[int, ...],
    intra: float = GEO_INTRA,
    inter: float = GEO_INTER,
) -> tuple[tuple[float, ...], ...]:
    """The full n x n RTT matrix the latency-aware quorum picker wants,
    derived from the same zone map the network model uses (a deployment
    would measure this; the sim knows it exactly)."""
    return tuple(
        tuple(
            0.0
            if a == b
            else 2.0 * (intra if zone_a == zone_b else inter)
            for b, zone_b in enumerate(zones)
        )
        for a, zone_a in enumerate(zones)
    )


class GeoZipfWorkload:
    """Per-region Zipf object affinity; deterministic per seed.

    Each zone has its own pool of ``objects_per_zone`` objects
    (``z<zone>.<rank>``) with Zipf(``skew``) popularity.  A client on
    node ``i`` targets its own zone's pool with probability
    ``affinity`` and a uniformly chosen other zone otherwise -- traffic
    is region-local but not perfectly partitioned, exactly the regime
    where decayed per-zone demand counters have to out-vote stray
    remote touches.
    """

    def __init__(
        self,
        zones: tuple[int, ...],
        rng: random.Random,
        objects_per_zone: int = 24,
        skew: float = 1.1,
        affinity: float = 0.95,
        payload_bytes: int = 16,
    ) -> None:
        self.zones = tuple(zones)
        self._rng = rng
        self.affinity = affinity
        self.payload_bytes = payload_bytes
        self._zone_ids = sorted(set(self.zones))
        self._pools = {
            zone: [f"z{zone}.{i}" for i in range(objects_per_zone)]
            for zone in self._zone_ids
        }
        weights = [1.0 / (rank + 1) ** skew for rank in range(objects_per_zone)]
        total = sum(weights)
        cum, acc = [], 0.0
        for weight in weights:
            acc += weight
            cum.append(acc / total)
        self._cum = cum
        self._seq = [0] * len(self.zones)

    def all_objects(self) -> list[str]:
        return [name for pool in self._pools.values() for name in pool]

    def next_command(self, node: int) -> Command:
        seq = self._seq[node]
        self._seq[node] += 1
        zone = self.zones[node]
        if len(self._zone_ids) > 1 and self._rng.random() >= self.affinity:
            others = [z for z in self._zone_ids if z != zone]
            zone = others[self._rng.randrange(len(others))]
        draw = self._rng.random()
        pool = self._pools[zone]
        # First cumulative weight >= draw (pools are small; linear scan
        # beats bisect's call overhead at this size).
        for rank, bound in enumerate(self._cum):
            if draw <= bound:
                break
        return Command.make(
            node, seq, [pool[rank]], payload_bytes=self.payload_bytes
        )


def _zone_frame_stats(frame, zones: tuple[int, ...]) -> dict:
    """Per-zone table out of one telemetry frame, ms units."""
    stats = {}
    for zone in sorted(set(zones)):
        key = str(zone)
        stats[key] = {
            "decides": frame.zone_decides.get(key, 0),
            "fast_share": frame.zone_fast_share.get(key, float("nan")),
            "p50_ms": frame.zone_p50.get(key, float("nan")) * 1e3,
            "p99_ms": frame.zone_p99.get(key, float("nan")) * 1e3,
        }
    return stats


def _remote_p50_ms(per_zone: dict, home_zone: int) -> float:
    """Mean p50 across the zones that do not host the home node."""
    remote = [
        row["p50_ms"]
        for zone, row in per_zone.items()
        if int(zone) != home_zone and row["decides"]
    ]
    return sum(remote) / len(remote) if remote else float("nan")


def run_geo_arm(
    config,
    policy=None,
    quorum=None,
    zones: tuple[int, ...] = GEO_ZONES,
    nearest_accept: bool = False,
) -> dict:
    """One geo arm: build, warm (migrations happen here), measure."""
    from repro.bench.harness import BENCH_M2
    from repro.obs.telemetry import Telemetry
    from repro.sim.cluster import Cluster
    from repro.sim.rng import RngRegistry
    from repro.spec import ClusterSpec, ZoneLatency
    from repro.workloads.client import ClientConfig, OpenLoopClients

    spec = ClusterSpec(
        protocol="m2paxos",
        n_nodes=len(zones),
        seed=config.seed,
        zones=zones,
        zone_latency=ZoneLatency(intra=GEO_INTRA, inter=GEO_INTER),
        m2=replace(
            BENCH_M2,
            home_hint=lambda name: HOME_NODE,
            policy=policy,
            quorum=quorum,
            nearest_accept=nearest_accept,
            quorum_rtt=zone_rtt_matrix(zones) if nearest_accept else None,
        ),
    )
    cluster = Cluster(spec)
    workload = GeoZipfWorkload(
        zones, RngRegistry(config.seed * 104729 + 1).stream("geo")
    )
    # Manual frame cuts at the window boundaries; the periodic cadence
    # stays off so the run is exactly two frames (warmup, measured).
    telemetry = Telemetry(cluster, interval=3600.0)
    clients = OpenLoopClients(
        cluster,
        workload,
        ClientConfig(
            clients_per_node=16, think_time=5e-3, max_inflight_per_node=32
        ),
    )
    cluster.start()
    clients.start()
    cluster.run_for(config.geo_warmup)
    telemetry.sampler.sample()  # close (and discard) the warmup window
    cluster.run_for(config.geo_duration)
    frame = telemetry.sampler.sample()
    clients.stop()
    cluster.check_consistency()
    telemetry.detach()
    cluster.close_storage()
    migrations = sum(
        node.protocol.stats.get("migrations", 0) for node in cluster.nodes
    )
    per_zone = _zone_frame_stats(frame, zones)
    home_zone = zones[HOME_NODE]
    return {
        "per_zone": per_zone,
        "remote_p50_ms": _remote_p50_ms(per_zone, home_zone),
        "home_p50_ms": per_zone[str(home_zone)]["p50_ms"],
        "decides": frame.decides,
        "throughput": frame.throughput,
        "migrations": migrations,
        "interval_migrations": frame.migrations,
        "cross_zone_messages": cluster.network.messages_cross_zone,
        "cross_zone_bytes": cluster.network.bytes_cross_zone,
        "messages_sent": cluster.network.messages_sent,
    }


def bench_geo(config) -> dict:
    """Per-region latency before vs after zone-aware migration."""
    from repro.core.policy import ZoneAffinityPolicy
    from repro.core.quorum import FlexibleQuorums

    zones = GEO_ZONES
    pinned = run_geo_arm(config, zones=zones)
    affinity = run_geo_arm(
        config, policy=lambda: ZoneAffinityPolicy(zones), zones=zones
    )
    flex = run_geo_arm(
        config,
        policy=lambda: ZoneAffinityPolicy(zones),
        quorum=FlexibleQuorums(prepare=4, accept=2),
        zones=zones,
    )
    # Satellite arm: same flexible quorum, but the owner *targets* the
    # accept quorum minimising its worst RTT instead of broadcasting --
    # with accept=2 of 5 there are ten candidate quorums, and after
    # migration the minimiser is the owner's own zone.
    flex_nearest = run_geo_arm(
        config,
        policy=lambda: ZoneAffinityPolicy(zones),
        quorum=FlexibleQuorums(prepare=4, accept=2),
        zones=zones,
        nearest_accept=True,
    )

    def improvement(arm: dict) -> float:
        baseline, after = pinned["remote_p50_ms"], arm["remote_p50_ms"]
        if not after or after != after:  # zero or NaN
            return float("nan")
        return baseline / after

    return {
        "zones": list(zones),
        "home_node": HOME_NODE,
        "pinned": pinned,
        "zone_affinity": affinity,
        "zone_affinity_flex": flex,
        "zone_affinity_flex_nearest": flex_nearest,
        "remote_p50_improvement": improvement(affinity),
        "flex_remote_p50_improvement": improvement(flex),
        "flex_nearest_remote_p50_improvement": improvement(flex_nearest),
    }
