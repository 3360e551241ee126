"""The seeded scenario suite behind ``repro chaos``.

Each scenario is a fixed ``(workload seed, fault plan)`` pair, so a
failure reported by CI reproduces locally from just the scenario name.
Times are virtual seconds; the workload runs roughly ``[0.05, 0.85]``
(40 rounds at 20 ms), so faults are placed to overlap live traffic.
"""

from __future__ import annotations

from dataclasses import replace

from repro.chaos.plan import (
    NO_FAULTS,
    Crash,
    DelayWindow,
    DropWindow,
    DuplicateWindow,
    FaultPlan,
    PartitionWindow,
)
from repro.chaos.runner import CHAOS_CLUSTER, Scenario
from repro.core.policy import ZoneAffinityPolicy
from repro.spec import ZoneLatency
from repro.storage.base import StorageConfig

_GEO_ZONES = (0, 0, 1, 1, 2)

SCENARIOS: list[Scenario] = [
    Scenario(
        name="baseline",
        plan=NO_FAULTS,
        cluster=replace(CHAOS_CLUSTER, seed=11),
        description="no faults; exercises the harness and checker only",
    ),
    Scenario(
        name="crash-restart-durable",
        plan=FaultPlan(
            crashes=(Crash(at=0.2, node=1, restart_at=0.5, mode="durable"),)
        ),
        cluster=replace(CHAOS_CLUSTER, seed=12),
        description="one node crashes mid-run and rejoins with its log",
    ),
    Scenario(
        name="crash-restart-amnesia",
        plan=FaultPlan(
            crashes=(Crash(at=0.2, node=2, restart_at=0.5, mode="amnesia"),)
        ),
        cluster=replace(CHAOS_CLUSTER, seed=13),
        description="one node crashes and rejoins blank (promises lost)",
    ),
    Scenario(
        name="crash-forever-minority",
        plan=FaultPlan(
            crashes=(Crash(at=0.25, node=3), Crash(at=0.35, node=4))
        ),
        cluster=replace(CHAOS_CLUSTER, seed=14),
        description="two of five nodes die for good; majority keeps going",
    ),
    Scenario(
        name="partition-minority",
        plan=FaultPlan(
            partitions=(
                PartitionWindow(
                    start=0.2,
                    end=0.6,
                    group_a=frozenset({0, 1, 2}),
                    group_b=frozenset({3, 4}),
                ),
            )
        ),
        cluster=replace(CHAOS_CLUSTER, seed=15),
        description="minority isolated for 0.4 s, then the link heals",
    ),
    Scenario(
        name="partition-owner",
        plan=FaultPlan(
            partitions=(
                PartitionWindow(
                    start=0.15,
                    end=0.55,
                    group_a=frozenset({0}),
                    group_b=frozenset({1, 2, 3, 4}),
                ),
            )
        ),
        cluster=replace(CHAOS_CLUSTER, seed=16),
        locality=1.0,
        description="an object owner is cut off; others must re-acquire",
    ),
    Scenario(
        name="drop-storm",
        plan=FaultPlan(
            drops=(DropWindow(start=0.2, end=0.5, probability=0.3),)
        ),
        cluster=replace(CHAOS_CLUSTER, seed=17),
        description="30% of all messages dropped for 0.3 s",
    ),
    Scenario(
        name="drop-dup",
        plan=FaultPlan(
            drops=(DropWindow(start=0.2, end=0.45, probability=0.15),),
            duplicates=(
                DuplicateWindow(start=0.3, end=0.6, probability=0.4),
            ),
        ),
        cluster=replace(CHAOS_CLUSTER, seed=18),
        description="loss and duplication overlap; dedup must hold",
    ),
    Scenario(
        name="delay-spike",
        plan=FaultPlan(
            delays=(
                DelayWindow(start=0.2, end=0.5, extra=0.04, jitter=0.02),
            )
        ),
        cluster=replace(CHAOS_CLUSTER, seed=19),
        description="40-60 ms latency spike, reordering timer races",
    ),
    Scenario(
        name="combined",
        plan=FaultPlan(
            crashes=(Crash(at=0.3, node=1, restart_at=0.6, mode="durable"),),
            partitions=(
                PartitionWindow(
                    start=0.15,
                    end=0.35,
                    group_a=frozenset({0, 1}),
                    group_b=frozenset({2, 3, 4}),
                ),
            ),
            drops=(DropWindow(start=0.4, end=0.6, probability=0.2),),
            duplicates=(
                DuplicateWindow(start=0.2, end=0.7, probability=0.25),
            ),
        ),
        cluster=replace(CHAOS_CLUSTER, seed=20),
        settle=5.0,
        description="partition, then a crash, under loss and duplication",
    ),
    Scenario(
        name="restart-churn",
        plan=FaultPlan(
            crashes=(
                Crash(at=0.15, node=1, restart_at=0.3, mode="durable"),
                Crash(at=0.45, node=1, restart_at=0.6, mode="amnesia"),
                Crash(at=0.25, node=3, restart_at=0.55, mode="amnesia"),
            )
        ),
        cluster=replace(CHAOS_CLUSTER, seed=21),
        settle=5.0,
        description="repeated crash-restart cycles, durable then amnesia",
    ),
    Scenario(
        name="geo-zone-partition",
        plan=FaultPlan(
            partitions=(
                PartitionWindow(
                    start=0.2,
                    end=0.6,
                    group_a=frozenset({0, 1}),
                    group_b=frozenset({2, 3, 4}),
                ),
            )
        ),
        cluster=replace(
            CHAOS_CLUSTER,
            seed=26,
            zones=_GEO_ZONES,
            zone_latency=ZoneLatency(intra=0.0005, inter=0.005),
            m2=replace(
                CHAOS_CLUSTER.m2, policy=lambda: ZoneAffinityPolicy(_GEO_ZONES)
            ),
        ),
        locality=0.9,
        settle=5.0,
        description="WAN cut along the zone-0 boundary while the "
        "zone-affinity policy is migrating ownership; the majority side "
        "(zones 1+2) must keep deciding and the minority re-converge "
        "after the heal",
    ),
    Scenario(
        name="contention-storm",
        plan=NO_FAULTS,
        cluster=replace(CHAOS_CLUSTER, seed=25),
        objects=2,
        locality=0.0,
        multi=0.3,
        description="no faults; every node hammers two shared objects, "
        "driving the acquisition path (the HealthDetector's contention "
        "regime)",
    ),
    Scenario(
        name="lease-expiry-partition",
        plan=FaultPlan(
            partitions=(
                PartitionWindow(
                    start=0.15,
                    end=0.45,
                    group_a=frozenset({0}),
                    group_b=frozenset({1, 2, 3, 4}),
                ),
            ),
            crashes=(
                Crash(at=0.5, node=1, restart_at=0.7, mode="durable"),
                Crash(at=0.75, node=2, restart_at=0.95, mode="amnesia"),
            ),
        ),
        cluster=replace(
            CHAOS_CLUSTER,
            seed=27,
            m2=replace(CHAOS_CLUSTER.m2, lease_duration=0.08, lease_margin=0.01),
        ),
        objects=5,
        locality=0.6,
        multi=0.0,
        read_fraction=0.5,
        settle=5.0,
        description="a leaseholder is partitioned away while others "
        "write its objects (acquisition must wait out the lease), then "
        "two holders crash mid-lease and rejoin durable and amnesiac; "
        "the runner audits every locally served read against the "
        "decided write order -- no stale read across any handoff",
    ),
    # ------------------------------------------------------------------
    # Durable-storage scenarios: every scenario's nodes run a segmented
    # log (in-memory by default so the suite stays deterministic; the
    # CLI reruns them with --storage disk on real files + fsync), and
    # these three stress it: snapshot truncation, an open group-commit
    # window at the crash, a full disk.  Every durable restart goes
    # through the recovery scan -- snapshot + log tail replayed into a
    # factory-fresh protocol -- and the runner asserts the recovered
    # delivery log is a byte-identical prefix of the pre-crash one.
    # ------------------------------------------------------------------
    Scenario(
        name="recover-snapshot-tail",
        plan=FaultPlan(
            crashes=(Crash(at=0.3, node=1, restart_at=0.6, mode="durable"),)
        ),
        cluster=replace(
            CHAOS_CLUSTER,
            seed=22,
            storage=StorageConfig(kind="mem", snapshot_every=40),
        ),
        description="crash after snapshots truncate the log; recovery "
        "replays snapshot + tail",
    ),
    Scenario(
        name="crash-mid-fsync",
        plan=FaultPlan(
            crashes=(Crash(at=0.25, node=2, restart_at=0.55, mode="durable"),)
        ),
        cluster=replace(
            CHAOS_CLUSTER,
            seed=23,
            storage=StorageConfig(kind="mem", fsync_wait=0.005),
        ),
        description="group-commit window open at the crash; the "
        "un-fsynced tail (and its acks) die with the process",
    ),
    Scenario(
        name="disk-full",
        plan=NO_FAULTS,
        cluster=replace(
            CHAOS_CLUSTER,
            seed=24,
            storage=StorageConfig(
                kind="mem", capacity_bytes=20_000, capacity_nodes=(2,)
            ),
        ),
        description="one node's log fills mid-run; it fail-stops and the "
        "remaining quorum keeps deciding",
    ),
]

# Quick subset for CI: one crash, one partition, one wire-fault mix.
# (``geo-zone-partition`` is deliberately not here: the batching and
# pipelining suites re-run this list under max_batch=8 configs, and the
# zone-affinity policy's post-heal re-convergence is not yet tuned for
# batched rounds -- same-zone nodes can duel acquisitions for a long
# time.  The scenario runs unbatched in the CI geo-smoke job and in
# tests/test_geo.py instead.)
SMOKE = [
    "crash-restart-durable",
    "partition-minority",
    "drop-dup",
]

# Durable-storage subset for CI: run with ``--storage disk`` to exercise
# real files + fsync in a tmpdir.
DURABLE_SMOKE = ["recover-snapshot-tail", "crash-mid-fsync", "disk-full"]


def by_name(name: str) -> Scenario:
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    raise KeyError(f"unknown scenario: {name!r}")
