"""Seeded feature A/B benches behind the ``repro perf`` CLI.

The hot path -- throughput, latency and per-layer cost on the TCP
runtime and the simulator -- is measured by ``python -m perfbench`` (see
``BENCHMARK.json``).  What stays here are the three comparisons that
turn on a feature no ``perfbench`` workload turns on:

- **telemetry_overhead**: pipelined runtime saturation with the full
  live-telemetry stack attached vs the bare cluster (the telemetry
  tax, asserted <= 5% by the CI floor);
- **serving**: leased owner-local reads vs consensus for every read, a
  simulated read-ratio sweep plus one runtime pair at 90% reads;
- **geo**: remote-region latency before vs after zone-aware ownership
  migration (:mod:`repro.bench.geo`).

Every bench is seeded; wall-clock rates vary with the machine, the
simulated numbers are deterministic.  Results are written as one
``BENCH_<stamp>.json`` datapoint.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass, replace
from typing import Awaitable, Callable

from repro.bench.geo import bench_geo
from repro.consensus.base import ProtocolCosts
from repro.consensus.commands import Command

BENCH_SCHEMA = "repro-perf/1"

# Profile for the serving-tier comparison: leases remove the *consensus
# messages* from the read path, so the bench shrinks the per-command
# client-handling cost (which both arms pay identically, served or not)
# until the message path dominates, and charges an honest
# ``per_command_cost`` for every extra command a batched round carries.
SERVING_COSTS = ProtocolCosts(
    base_cost=120e-6,
    serial_fraction=0.03,
    propose_cost=250e-6,
    per_command_cost=60e-6,
)
# Lease length of the serving comparison's leased sim arms, in virtual
# seconds.
SERVING_LEASE = 0.2

# The one pipelined M2 configuration every runtime arm runs: with
# ``batch_adaptive`` on, a depth-1 client sees immediate flushes (the
# serial protocol, batching adds no latency) while deep windows coalesce
# up to 32 commands per Accept round.
SATURATION_M2 = dict(max_batch=32, batch_wait=5e-3, batch_adaptive=True)

RUNTIME_NODES = 3
RUNTIME_DEPTH = 16


@dataclass
class PerfConfig:
    """Scale knobs; ``smoke`` shrinks everything for CI."""

    seed: int = 1
    n_nodes: int = 5
    bench_duration: float = 0.4
    bench_warmup: float = 0.4
    # Serving bench: sim read-ratio sweep (leased vs unleased arms per
    # ratio), plus a runtime pair at 90% reads driven with the same
    # alternating best-of-N discipline as the telemetry bench.
    serving_read_ratios: tuple[float, ...] = (0.0, 0.5, 0.9, 0.99)
    serving_commands: int = 1200
    serving_repeats: int = 5
    # Telemetry-overhead bench: commands per arm, alternating off/on
    # repeats (the tax is the ratio of per-arm bests, so more repeats
    # give each arm more chances to record an uncontaminated run), and
    # the wall-clock sampling cadence while measuring.
    telemetry_commands: int = 1200
    telemetry_repeats: int = 7
    telemetry_interval: float = 0.05
    # Geo bench (``geo``): virtual seconds of warmup (ownership
    # migrations settle here) and of measured window per arm.
    geo_warmup: float = 0.8
    geo_duration: float = 0.8
    smoke: bool = False

    def scaled_for_smoke(self) -> "PerfConfig":
        return replace(
            self,
            bench_duration=0.2,
            bench_warmup=0.25,
            # The endpoints of the sweep still resolve the speedup the
            # CI floor checks; the mid-ratio points are full-run detail.
            serving_read_ratios=(0.0, 0.9),
            serving_commands=600,
            serving_repeats=3,
            # Still the smallest telemetry arm that resolves a 5% tax:
            # below ~100ms of measured run, startup and batching-regime
            # jitter swamp the effect the floor is checking.
            telemetry_commands=900,
            # Long enough for every hot object to earn its migration
            # (threshold 3 demand-weight at ~200 req/s/zone) and for the
            # measured window to see >100 completions per zone.
            geo_warmup=0.5,
            geo_duration=0.5,
            smoke=True,
        )


# ----------------------------------------------------------------------
# The shared discipline of the two runtime A/Bs
# ----------------------------------------------------------------------


def _own_object_commands(
    per_node: int, first_seq: int = 0, read_mix: bool = False
) -> list[tuple[int, Command]]:
    """``per_node`` commands from each node on that node's own eight
    objects (so ownership settles once and the fast path carries the
    run); ``read_mix`` marks nine in ten as reads."""
    return [
        (
            node,
            Command.make(
                node,
                first_seq + i,
                [f"o{node}.{i % 8}"],
                is_read=read_mix and i % 10 != 0,
            ),
        )
        for node in range(RUNTIME_NODES)
        for i in range(per_node)
    ]


async def _drive_saturated(cluster, per_node: int, read_mix: bool = False) -> dict:
    """Settle ownership with an unmeasured pass of writes (first-touch
    acquisitions would otherwise bill the measured window for a one-time
    transient; on a leased arm they also establish every object's
    lease), then time ``per_node`` commands per node through a
    depth-16 :class:`~repro.runtime.driver.PipelineDriver`."""
    from repro.runtime.driver import PipelineDriver

    warm = _own_object_commands(min(64, per_node), first_seq=1_000_000)
    await PipelineDriver(cluster, depth=8).run(warm, timeout=60.0)
    proposals = _own_object_commands(per_node, read_mix=read_mix)
    driver = PipelineDriver(cluster, depth=RUNTIME_DEPTH)
    # Collector pauses skew short windows by whole milliseconds; park
    # the GC for the measured region only.
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    try:
        await driver.run(proposals, timeout=60.0)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return {
        "commands_per_sec": per_node * RUNTIME_NODES / elapsed,
        "wall_seconds": elapsed,
    }


def _alternating_repeats(
    arm: Callable[[bool], Awaitable[dict]], repeats: int
) -> dict[bool, list[dict]]:
    """``repeats`` measured runs of ``arm(False)`` and ``arm(True)``.

    One unmeasured burn-in arm first: process-level warm-up (allocator,
    socket machinery, code caches) otherwise lands entirely on the first
    measured round.  The arms then alternate, with the order flipped
    every round, so slow machine drift within the bench (thermal
    throttling, background load ramping) cannot systematically tax one
    arm.  Timing noise on a shared box is one-sided -- background load
    can only *add* time -- so callers take each arm's best repeat as its
    estimate of the uncontaminated cost.
    """
    asyncio.run(arm(False))
    runs: dict[bool, list[dict]] = {False: [], True: []}
    for round_index in range(repeats):
        order = (False, True) if round_index % 2 == 0 else (True, False)
        for feature_on in order:
            runs[feature_on].append(asyncio.run(arm(feature_on)))
    return runs


def _fastest(runs: list[dict]) -> dict:
    return max(runs, key=lambda r: r["commands_per_sec"])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else float("inf")


# ----------------------------------------------------------------------
# Telemetry tax
# ----------------------------------------------------------------------


def bench_telemetry_overhead(config: PerfConfig) -> dict:
    """The telemetry tax: pipelined saturation throughput with the full
    live-telemetry stack (collector + wall-clock sampler + health
    detector) attached vs the bare cluster.

    Must run on the real runtime: in the simulator throughput is
    virtual-time, so wall-clock instrumentation cost is invisible there
    by construction.  The tax is the **ratio of per-arm bests** (see
    :func:`_alternating_repeats`); the per-round paired ratios are
    reported alongside as a dispersion check.
    """
    from repro.bench.harness import protocol_factory
    from repro.runtime.cluster import LocalCluster

    per_node = config.telemetry_commands // RUNTIME_NODES

    async def arm(telemetry_on: bool) -> dict:
        factory = protocol_factory("m2paxos", **SATURATION_M2)
        cluster = LocalCluster(RUNTIME_NODES, factory)
        await cluster.start()
        try:
            telemetry = None
            if telemetry_on:
                telemetry = cluster.start_telemetry(
                    interval=config.telemetry_interval
                )
            measurement = await _drive_saturated(cluster, per_node)
            if telemetry is not None:
                # Close the partial last interval (after the timed run).
                telemetry.final_sample()
                measurement["frames"] = len(telemetry.frames)
            return measurement
        finally:
            await cluster.stop()

    runs = _alternating_repeats(arm, config.telemetry_repeats)
    off, on = _fastest(runs[False]), _fastest(runs[True])
    round_ratios = [
        _ratio(a["commands_per_sec"], b["commands_per_sec"])
        for a, b in zip(runs[False], runs[True])
    ]
    return {
        "nodes": RUNTIME_NODES,
        "commands": per_node * RUNTIME_NODES,
        "depth": RUNTIME_DEPTH,
        "interval": config.telemetry_interval,
        "repeats": config.telemetry_repeats,
        "off": off,
        "on": on,
        "round_ratios": round_ratios,
        "round_ratio_median": statistics.median(round_ratios),
        "overhead_ratio": _ratio(off["commands_per_sec"], on["commands_per_sec"]),
    }


# ----------------------------------------------------------------------
# Serving tier: leased owner-local reads
# ----------------------------------------------------------------------


def bench_serving(config: PerfConfig) -> dict:
    """Leased owner-local reads vs consensus-for-everything, on both
    substrates.

    Sim side: a read-ratio sweep (``serving_read_ratios``) where each
    ratio runs two arms under :data:`SERVING_COSTS` -- identical except
    that one enables ownership leases.  The workload is fully local
    (``locality=1.0``) so the arms isolate exactly what leases change:
    whether a read at its owner costs an Accept round or nothing.  The
    headline ``read_local_speedup`` is the leased/unleased throughput
    ratio at the 90%-read point, the serving mix the serving tier is
    built for.

    Runtime side: one 90%-read pair through real asyncio/TCP nodes,
    with the ratio of per-arm bests as the datapoint (see
    :func:`_alternating_repeats`).
    """
    from repro.bench.harness import (
        BENCH_M2,
        BENCH_NETWORK,
        PointSpec,
        protocol_factory,
        run_point,
    )
    from repro.runtime.cluster import LocalCluster
    from repro.workloads.client import ClientConfig
    from repro.workloads.synthetic import SyntheticConfig

    def sim_arm(read_fraction: float, leased: bool) -> dict:
        spec = PointSpec(
            protocol="m2paxos",
            n_nodes=config.n_nodes,
            synthetic=SyntheticConfig(
                locality=1.0,
                local_set_size=16,
                read_fraction=read_fraction,
            ),
            client=ClientConfig(
                clients_per_node=64, think_time=0.002, max_inflight_per_node=96
            ),
            duration=config.bench_duration,
            warmup=max(config.bench_warmup, 0.4),
            seed=config.seed,
            network=replace(BENCH_NETWORK, frame_sizes="codec"),
            m2=replace(BENCH_M2, lease_duration=SERVING_LEASE if leased else 0.0),
        )
        result = run_point(spec, costs=SERVING_COSTS)
        stats = result.extra["protocol_stats"]
        summary = {
            "commands_per_sec": result.throughput,
            "delivered": result.delivered,
            "reads_served": result.reads_served,
            "read_local": sum(s.get("read_local", 0) for s in stats),
            "read_fallback": sum(s.get("read_fallback", 0) for s in stats),
        }
        if result.latency is not None:
            summary["p50_ms"] = result.latency.p50 * 1e3
        return summary

    ratios: dict[str, dict] = {}
    for read_fraction in config.serving_read_ratios:
        unleased = sim_arm(read_fraction, leased=False)
        leased = sim_arm(read_fraction, leased=True)
        ratios[f"{read_fraction:g}"] = {
            "unleased": unleased,
            "leased": leased,
            "speedup": _ratio(
                leased["commands_per_sec"], unleased["commands_per_sec"]
            ),
        }
    # The headline: the 90%-read point when it is in the sweep, else the
    # most read-heavy ratio measured.
    headline_rf = (
        0.9
        if 0.9 in config.serving_read_ratios
        else max(config.serving_read_ratios)
    )

    per_node = config.serving_commands // RUNTIME_NODES

    async def runtime_arm(leased: bool) -> dict:
        factory = protocol_factory(
            "m2paxos",
            **SATURATION_M2,
            # Wall-clock lease: long enough that renewals (not expiries)
            # carry the measured window, short enough to stay honest.
            lease_duration=0.5 if leased else 0.0,
            lease_margin=0.005,
        )
        cluster = LocalCluster(RUNTIME_NODES, factory)
        await cluster.start()
        try:
            measurement = await _drive_saturated(cluster, per_node, read_mix=True)
            measurement["reads_local"] = sum(
                len(node.read_log) for node in cluster.nodes
            )
            return measurement
        finally:
            await cluster.stop()

    runs = _alternating_repeats(runtime_arm, config.serving_repeats)
    unleased, leased = _fastest(runs[False]), _fastest(runs[True])
    return {
        "nodes": config.n_nodes,
        "lease_duration": SERVING_LEASE,
        "ratios": ratios,
        "headline_read_ratio": headline_rf,
        "read_local_speedup": ratios[f"{headline_rf:g}"]["speedup"],
        "runtime": {
            "nodes": RUNTIME_NODES,
            "commands": per_node * RUNTIME_NODES,
            "read_ratio": 0.9,
            "repeats": config.serving_repeats,
            "unleased": unleased,
            "leased": leased,
            "speedup": _ratio(
                leased["commands_per_sec"], unleased["commands_per_sec"]
            ),
        },
    }


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------

BENCHES = {
    "telemetry_overhead": bench_telemetry_overhead,
    "serving": bench_serving,
    "geo": bench_geo,
}


def run_perf(config: PerfConfig, only: list[str] | None = None) -> dict:
    """Run the selected benches and return the BENCH datapoint dict."""
    names = only or list(BENCHES)
    unknown = [name for name in names if name not in BENCHES]
    if unknown:
        raise ValueError(f"unknown bench(es) {unknown}; choose from {list(BENCHES)}")
    return {
        "schema": BENCH_SCHEMA,
        "stamp": time.strftime("%Y%m%d-%H%M%S"),
        "smoke": config.smoke,
        "seed": config.seed,
        "config_hash": config_hash(config),
        "results": {name: BENCHES[name](config) for name in names},
    }


def config_hash(config: PerfConfig) -> str:
    """Stable digest of every scale knob -- two datapoints with the same
    hash, seed, and bench set measured the same thing."""
    blob = json.dumps(asdict(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def check_regressions(datapoint: dict) -> list[str]:
    """The assertions the CI perf smoke enforces.  Thresholds are set
    below the steady-state numbers so only a real regression -- not
    scheduler jitter -- trips them."""
    problems = []
    results = datapoint["results"]
    telemetry = results.get("telemetry_overhead")
    if telemetry is not None and telemetry["overhead_ratio"] > 1.05:
        problems.append(
            f"full telemetry costs more than 5% of saturation throughput "
            f"(overhead ratio {telemetry['overhead_ratio']:.3f})"
        )
    serving = results.get("serving")
    if serving is not None:
        # Steady-state sim speedup at 90% reads is ~4x; the smoke floor
        # is looser because its shorter windows resolve the ratio more
        # coarsely.
        floor = 2.0 if datapoint.get("smoke") else 3.0
        if serving["read_local_speedup"] < floor:
            problems.append(
                f"serving: leased local reads are not >= {floor}x the "
                f"lease-disabled arm at {serving['headline_read_ratio']:g} "
                f"read ratio (speedup {serving['read_local_speedup']:.3f})"
            )
        if serving["runtime"]["leased"]["reads_local"] <= 0:
            problems.append(
                "serving: runtime leased arm served no local reads"
            )
    geo = results.get("geo")
    if geo is not None:
        if geo["zone_affinity"]["migrations"] <= 0:
            problems.append(
                "geo: zone-affinity arm performed no ownership migrations"
            )
        # Floors far below the steady-state wins (~2x majority, ~10x+
        # flex): only a broken migration path trips them.
        if not geo["remote_p50_improvement"] >= 1.3:
            problems.append(
                f"geo: remote-region p50 did not improve >= 1.3x after "
                f"migration (got {geo['remote_p50_improvement']:.3f}x)"
            )
        if not geo["flex_remote_p50_improvement"] >= 1.3:
            problems.append(
                f"geo: flexible-quorum arm did not improve remote p50 >= "
                f"1.3x (got {geo['flex_remote_p50_improvement']:.3f}x)"
            )
        nearest = geo.get("flex_nearest_remote_p50_improvement")
        if nearest is not None:
            # Latency-aware targeting must never regress the broadcast
            # flexible-quorum arm (5% slack absorbs the run-to-run
            # wobble of the migration timing, nothing more).
            if not nearest >= geo["flex_remote_p50_improvement"] * 0.95:
                problems.append(
                    f"geo: nearest-quorum targeting regressed the "
                    f"flexible-quorum arm ({nearest:.3f}x vs "
                    f"{geo['flex_remote_p50_improvement']:.3f}x)"
                )
    return problems


def _datapoint_key(datapoint: dict) -> tuple:
    """Identity of one measurement: config shape, seed, and bench set.
    Re-running the same configuration replaces the old entry instead of
    accumulating duplicates."""
    return (
        datapoint.get("config_hash"),
        datapoint.get("seed"),
        tuple(sorted(datapoint.get("results", {}))),
    )


def write_datapoint(datapoint: dict, path: str | None = None) -> str:
    """Write ``datapoint`` to ``path`` (default ``BENCH_<stamp>.json``).

    A fresh path gets the bare datapoint dict.  Writing to an existing
    file (the accumulated ``BENCH_full.json`` pattern) merges: the file
    becomes a list of datapoints, deduplicated on (config hash, seed,
    bench set) so repeated runs of one configuration keep only the
    latest measurement instead of appending duplicates.
    """
    if path is None:
        path = f"BENCH_{datapoint['stamp']}.json"
    payload: dict | list = datapoint
    if os.path.exists(path):
        with open(path) as fh:
            existing = json.load(fh)
        history = existing if isinstance(existing, list) else [existing]
        key = _datapoint_key(datapoint)
        history = [d for d in history if _datapoint_key(d) != key]
        history.append(datapoint)
        payload = history
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
