"""Cross-commit pin of simulator behaviour.

Every other "byte-identical" test in this suite compares two configs of
the *same* build.  This one compares the build against values recorded
at a known-good commit: per case, the sha1 of every node's delivered cid
sequence, the network counters, the event count, the final virtual time,
per-type message counts and virtual p50/p99.  A substrate change that
reorders one event, skips one RNG draw or mis-sizes one message moves at
least one of them.  The ``telemetry-*`` cases pin the live-telemetry
frames instead: a digest of every ``Frame`` field (``fsync_p99`` too: a
simulated store times nothing) and each health event's kind and time.

``sim_fingerprint.json`` was recorded at the parent of PR 18 (commit
7206705) and is only re-recorded by a change that *means* to alter
behaviour (any case names given as arguments select a subset):

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/test_sim_fingerprint.py \
        > tests/sim_fingerprint.json

Cases in ``HASHSEED_DEPENDENT`` iterate a set of strings somewhere on
their path, so their event order depends on ``PYTHONHASHSEED``; they are
pinned in a subprocess with ``PYTHONHASHSEED=0`` (as ``perfbench/run.py``
re-executes itself).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.bench.harness import PointSpec, build_run, run_point, saturated_spec
from repro.chaos import Crash, DelayWindow, DuplicateWindow, FaultPlan, PartitionWindow
from repro.chaos import by_name, run_scenario
from repro.chaos.runner import CHAOS_CLUSTER, Scenario, _run_scenario
from repro.obs.collect import ObsCollector
from repro.sim.cluster import Cluster
from repro.sim.network import NetworkConfig
from repro.spec import ZoneLatency
from repro.storage.base import StorageConfig
from repro.workloads.synthetic import SyntheticConfig


def _log_hash(cids) -> str:
    return hashlib.sha1(
        ";".join(f"{proposer}.{seq}" for proposer, seq in cids).encode()
    ).hexdigest()


def _fingerprint(cluster, message_types, latency) -> dict:
    network, loop = cluster.network, cluster.loop
    return {
        "logs": [
            [_log_hash(c.cid for c in log) for log in node.delivery_history + [node.delivered]]
            for node in cluster.nodes
        ],
        "messages_sent": network.messages_sent,
        "bytes_sent": network.bytes_sent,
        "messages_dropped": network.messages_dropped,
        "messages_duplicated": network.messages_duplicated,
        "cross_zone": [network.messages_cross_zone, network.bytes_cross_zone],
        "processed_events": loop.processed_events,
        "now": repr(loop.now),
        "message_types": dict(sorted(message_types.items())),
        "latency": latency,
    }


CONTENDED = saturated_spec(
    PointSpec(
        "m2paxos",
        5,
        synthetic=SyntheticConfig(local_set_size=1000, locality=0.5, complex_fraction=0.1),
        seed=1,
    )
)
"""The ``sim-contended`` shape of ``perfbench`` (5 nodes at saturation,
half the accesses remote, a tenth complex commands)."""


def _point(spec: PointSpec, warmup: float, duration: float) -> dict:
    """``run_point``'s steps, keeping the cluster for its counters."""
    handle = build_run(spec)
    cluster, collector = handle.cluster, handle.collector
    handle.start()
    cluster.run_for(warmup)
    collector.begin_window()
    cluster.run_for(duration)
    collector.end_window()
    result = handle.finish()
    return _fingerprint(
        cluster,
        result.message_types,
        [result.latency.count, repr(result.latency.p50), repr(result.latency.p99)],
    )


def _chaos() -> dict:
    """Wire injector (duplicates, delay spikes, an injected partition),
    a ``Network.partition``, random drops, and a durable (recovery scan
    from a group-committing store) and an amnesia crash-restart."""
    plan = FaultPlan(
        crashes=(
            Crash(at=0.25, node=1, restart_at=0.55, mode="durable"),
            Crash(at=0.35, node=3, restart_at=0.75, mode="amnesia"),
        ),
        partitions=(
            PartitionWindow(0.15, 0.3, group_a=frozenset({0}), group_b=frozenset({2, 4})),
        ),
        duplicates=(DuplicateWindow(0.05, 0.9, probability=0.2),),
        delays=(DelayWindow(0.1, 0.8, extra=0.002, jitter=0.004),),
    )
    scenario = Scenario(
        "fingerprint",
        plan,
        cluster=replace(
            CHAOS_CLUSTER,
            seed=7,
            storage=StorageConfig(kind="mem", fsync_wait=0.001),
            network=NetworkConfig(drop_probability=0.01),
        ),
        rounds=30,
        settle=2.0,
    )
    cluster = Cluster(scenario.cluster)
    cluster.loop.schedule_at(0.6, lambda: cluster.partition({0, 1}, {4}))
    cluster.loop.schedule_at(0.8, cluster.heal_partitions)
    obs = ObsCollector.for_cluster(cluster)
    result = _run_scenario(scenario, cluster)
    assert result.ok, result.report.violations
    paths = sorted(
        (path, stats.count, repr(stats.p50), repr(stats.p99))
        for path, stats in obs.path_stats().items()
    )
    return _fingerprint(cluster, obs.message_types, [list(p) for p in paths])


def _plain(value):
    """A frame field as exact, order-free JSON (floats by ``repr``)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _telemetry(telemetry) -> dict:
    frames = [
        {f.name: _plain(getattr(frame, f.name)) for f in fields(frame)}
        for frame in telemetry.frames
    ]
    return {
        "frames": len(frames),
        "frames_sha1": hashlib.sha1(json.dumps(frames, sort_keys=True).encode()).hexdigest(),
        "health": [[event.kind, repr(event.at)] for event in telemetry.events],
    }


def _chaos_telemetry(name: str) -> dict:
    result = run_scenario(by_name(name), telemetry_interval=0.1)
    assert result.ok, result.report.violations
    return _telemetry(result.telemetry)


TELEMETRY_POINT = PointSpec(
    "m2paxos",
    5,
    synthetic=SyntheticConfig(locality=0.5, complex_fraction=0.1),
    warmup=0.1,
    duration=0.2,
)


CASES = {
    "contended-seed1": lambda: _point(CONTENDED, 0.03, 0.07),
    "contended-seed2": lambda: _point(replace(CONTENDED, seed=2), 0.03, 0.07),
    "multipaxos": lambda: _point(replace(CONTENDED, protocol="multipaxos"), 0.05, 0.1),
    "genpaxos": lambda: _point(replace(CONTENDED, protocol="genpaxos"), 0.05, 0.1),
    "epaxos": lambda: _point(replace(CONTENDED, protocol="epaxos"), 0.05, 0.1),
    "codec-frames": lambda: _point(
        replace(CONTENDED, network=replace(CONTENDED.network, frame_sizes="codec")), 0.03, 0.05
    ),
    "geo": lambda: _point(
        replace(
            CONTENDED,
            zones=(0, 0, 1, 1, 2),
            zone_latency=ZoneLatency(intra=0.0005, inter=0.01, jitter=0.001),
        ),
        0.04,
        0.06,
    ),
    "chaos": _chaos,
    "telemetry-contention-storm": lambda: _chaos_telemetry("contention-storm"),
    "telemetry-crash-restart-durable": lambda: _chaos_telemetry("crash-restart-durable"),
    "telemetry-point": lambda: _telemetry(
        run_point(TELEMETRY_POINT, telemetry_interval=0.05).extra["telemetry"]
    ),
}

HASHSEED_DEPENDENT = frozenset(
    {"chaos", "telemetry-contention-storm", "telemetry-crash-restart-durable", "telemetry-point"}
)

with open(Path(__file__).with_name("sim_fingerprint.json")) as _fh:
    EXPECTED = json.load(_fh)


@pytest.fixture(scope="module")
def hashseed0() -> dict:
    """The hash-seed-dependent cases, computed by one child process."""
    if not HASHSEED_DEPENDENT:
        return {}
    out = subprocess.run(
        [sys.executable, __file__, *sorted(HASHSEED_DEPENDENT)],
        env={
            **os.environ,
            "PYTHONHASHSEED": "0",
            "PYTHONPATH": os.pathsep.join(p for p in sys.path if p),
        },
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("case", sorted(CASES))
def test_fingerprint_matches_the_recorded_commit(case, hashseed0):
    got = hashseed0[case] if case in HASHSEED_DEPENDENT else CASES[case]()
    assert got == EXPECTED[case]


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(CASES)
    print(json.dumps({name: CASES[name]() for name in names}, indent=1, sort_keys=True))
