"""Run one chaos scenario end to end under the deterministic simulator.

A :class:`Scenario` bundles a :class:`~repro.spec.ClusterSpec`, a
seeded workload, and a :class:`~repro.chaos.plan.FaultPlan`.
:func:`run_scenario`:

1. builds the scenario's simulated cluster (by default M2Paxos with
   chaos-tuned timeouts) and installs the plan's
   :class:`~repro.chaos.injector.WireFaults` as the network injector;
2. schedules every crash/restart on the virtual clock and the whole
   proposal workload up front (so the event heap, and therefore the
   run, is a pure function of the seed);
3. runs until well past the last fault, or until :data:`EVENT_BUDGET`
   events have run (a failure that names the scenario and prints its
   plan), then audits:

   - **crash quiescence** -- zero handler/wire spans from any node
     inside any of its crash windows (a crashed machine computes
     nothing);
   - **safety** -- :func:`repro.chaos.checker.check_run` over every
     delivery log of every incarnation;

4. returns a :class:`ChaosResult` whose ``fingerprint`` hashes the full
   delivery history.  The CLI runs each scenario twice in one process
   and requires the same hex digest.  That checks determinism for the
   process's ``PYTHONHASHSEED`` only: some runs walk unsorted sets, so a
   fingerprint holds across processes only for a fixed hash seed.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
from dataclasses import dataclass, replace
from typing import Optional

from repro.chaos.checker import SafetyReport, check_run
from repro.chaos.injector import WireFaults
from repro.chaos.plan import FaultPlan
from repro.consensus.commands import Command
from repro.core.protocol import M2PaxosConfig, SafetyViolation
from repro.obs.collect import ObsCollector
from repro.sim.cluster import Cluster, ConsistencyViolation
from repro.spec import ClusterSpec, ConfigError
from repro.storage.base import StorageConfig


# Chaos-tuned protocol timeouts: short enough that supervision retries
# and decide re-sends fit inside the settle window, and the decide
# re-send budget covers the whole run so a durably-restarted node is
# guaranteed to hear about every instance decided while it was down.
_CHAOS_M2 = M2PaxosConfig(
    forward_timeout=0.05,
    supervise_timeout=0.6,
    round_timeout=0.3,
    gap_check_period=0.1,
    gap_timeout=0.3,
    learn_resend_timeout=0.15,
    learn_resend_attempts=80,
)


EVENT_BUDGET = 60_000
"""Simulator events one scenario may run.  Every scenario in
``chaos/scenarios.py`` finishes in under 33,000, and none in the test
suite needs 39,000; a run that needs more is not converging (a
livelock), and fails with its plan instead of running on."""


# The deployment every scenario starts from: five M2Paxos nodes with the
# chaos-tuned timeouts, each on an in-memory store -- a durable restart
# replays it, an amnesia restart wipes it.  The in-memory default
# (``fsync_wait=0``) keeps decision logs byte-identical to a run with no
# store; ``kind="disk"`` with no dir gets a per-run tmpdir from the runner.
CHAOS_CLUSTER = ClusterSpec(
    protocol="m2paxos",
    n_nodes=5,
    seed=1,
    m2=_CHAOS_M2,
    storage=StorageConfig(kind="mem"),
)


@dataclass(frozen=True)
class Scenario:
    """One reproducible chaos experiment: a deployment, the workload the
    runner generates on it, and a fault plan.

    The workload and the wire faults draw from ``cluster.seed``.  When
    ``cluster.m2`` grants leases and ``read_fraction > 0``, the runner
    also audits every locally served read against the decided write
    order (no stale read may be returned after a lease handoff)."""

    name: str
    plan: FaultPlan
    cluster: ClusterSpec = CHAOS_CLUSTER
    rounds: int = 40          # proposal rounds (one command/node/round)
    spacing: float = 0.02     # virtual seconds between rounds
    objects: int = 6          # shared object-pool size
    locality: float = 0.7     # P(own home object) vs a random one
    multi: float = 0.1        # P(two-object command)
    settle: float = 4.0       # extra run time past the last fault
    # Fraction of the workload issued as reads.  At 0 the generator
    # skips the read draw, so scenarios without reads keep their pinned
    # fingerprints.
    read_fraction: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        for name, ok, rule in (
            ("rounds", self.rounds >= 1, ">= 1"),
            ("objects", self.objects >= 1, ">= 1"),
            ("spacing", self.spacing > 0, "> 0"),
            ("settle", self.settle >= 0, ">= 0"),
            ("locality", 0 <= self.locality <= 1, "in [0, 1]"),
            ("multi", 0 <= self.multi <= 1, "in [0, 1]"),
            ("read_fraction", 0 <= self.read_fraction <= 1, "in [0, 1]"),
        ):
            if not ok:
                raise ConfigError(
                    f"{name}: must be {rule}, got {getattr(self, name)!r}"
                )


@dataclass
class ChaosResult:
    """Everything one scenario run produced."""

    scenario: Scenario
    report: SafetyReport
    fingerprint: str
    proposed: int = 0
    dropped: int = 0
    duplicated: int = 0
    faults_observed: int = 0
    # Live-telemetry handle when the run was sampled (see
    # ``run_scenario``'s ``telemetry_interval``); frames and health
    # events ride along for inspection.
    telemetry: Optional[object] = None

    @property
    def ok(self) -> bool:
        return self.report.ok


def _workload(scenario: Scenario) -> list[tuple[float, int, Command]]:
    """The full ``(time, proposer, command)`` schedule, from the seed."""
    rng = random.Random((scenario.cluster.seed << 4) ^ 0x5CE9A)
    pool = [f"obj{i}" for i in range(scenario.objects)]
    schedule: list[tuple[float, int, Command]] = []
    for round_nr in range(scenario.rounds):
        at = 0.05 + round_nr * scenario.spacing
        for node in range(scenario.cluster.n_nodes):
            # The read draw short-circuits at read_fraction == 0.0 so
            # legacy scenarios consume the exact seed RNG sequence and
            # keep their pinned fingerprints.
            is_read = bool(
                scenario.read_fraction
                and rng.random() < scenario.read_fraction
            )
            if is_read:
                # Reads are single-object (the stale-read audit indexes
                # per-object frontiers), placed by the same locality
                # rule as simple writes.
                if rng.random() < scenario.locality:
                    objs = [pool[node % len(pool)]]
                else:
                    objs = [rng.choice(pool)]
            elif rng.random() < scenario.multi and len(pool) > 1:
                objs = rng.sample(pool, 2)
            elif rng.random() < scenario.locality:
                objs = [pool[node % len(pool)]]
            else:
                objs = [rng.choice(pool)]
            schedule.append(
                (at, node, Command.make(node, round_nr, objs, is_read=is_read))
            )
    return schedule


def _fingerprint(logs: dict[int, list[list[Command]]]) -> str:
    """Hash every incarnation's delivery order; identical seeds must
    reproduce this digest bit for bit."""
    digest = hashlib.sha256()
    for node in sorted(logs):
        for life, log in enumerate(logs[node]):
            digest.update(f"\n[{node}:{life}]".encode())
            for command in log:
                digest.update(
                    f"{command.cid[0]}.{command.cid[1]}"
                    f"({','.join(sorted(command.ls))})".encode()
                )
    return digest.hexdigest()


def _audit_served_reads(
    cluster: Cluster,
    served_reads: list[tuple[int, "Command", object, float]],
    completions: dict[tuple[int, int], float],
) -> list[str]:
    """Linearizability audit for leased reads.

    A served read on object ``o`` returned frontier ``p``: the state
    after the first ``p`` commands appended on ``o``.  It is stale --
    a real-time linearizability violation -- if some command at
    per-object index ``>= p`` had already *completed* (been delivered
    at its proposer, i.e. acknowledged to a client) strictly before
    the read was served.  The decided per-object order comes from the
    live nodes' final delivery logs (the safety checker separately
    proves all logs agree per object); the longest log per object is
    used so a freshly restarted node's short log cannot mask a tail.
    """
    per_object: dict[str, list["Command"]] = {}
    for node in cluster.nodes:
        if node.crashed:
            continue
        local: dict[str, list["Command"]] = {}
        for command in node.delivered:
            for l in command.ls:
                local.setdefault(l, []).append(command)
        for l, order in local.items():
            if len(order) > len(per_object.get(l, ())):
                per_object[l] = order
    violations: list[str] = []
    for node_id, command, result, at in served_reads:
        if not isinstance(result, dict):
            continue
        for l, frontier in result.items():
            order = per_object.get(l, [])
            for index in range(int(frontier), len(order)):
                done = completions.get(order[index].cid)
                if done is not None and done < at:
                    violations.append(
                        f"stale read: node {node_id} served "
                        f"{command.cid[0]}.{command.cid[1]} on {l!r} at "
                        f"t={at:.4f} with frontier {frontier}, but "
                        f"{order[index].cid[0]}.{order[index].cid[1]} "
                        f"(index {index} on {l!r}) completed at "
                        f"t={done:.4f}"
                    )
                    break
    return violations


def run_scenario(
    scenario: Scenario,
    telemetry_interval: Optional[float] = None,
) -> ChaosResult:
    """Execute ``scenario`` once on ``Cluster(scenario.cluster)`` and
    check it; never raises on a safety failure -- violations land in
    the returned report.  A ``kind="disk"`` store gets a fresh per-run
    directory (under its ``dir`` when set, else the system tmpdir),
    removed when the run finishes.  ``telemetry_interval`` additionally
    attaches the live-telemetry sampler at that virtual-clock cadence
    (frames, fault stamps, health events on ``result.telemetry``);
    sampler callbacks only read, so the fingerprint is unchanged for a
    given seed."""
    spec = scenario.cluster
    tmpdir: Optional[str] = None
    if spec.storage is not None and spec.storage.kind == "disk":
        # Always a fresh per-run directory: reusing one directory across
        # runs would make recovery replay a *previous* run's log.
        tmpdir = tempfile.mkdtemp(
            prefix=f"chaos-{scenario.name}-", dir=spec.storage.dir
        )
        spec = replace(spec, storage=replace(spec.storage, dir=tmpdir))
    cluster = Cluster(spec)
    try:
        return _run_scenario(
            scenario, cluster, telemetry_interval=telemetry_interval
        )
    finally:
        cluster.close_storage()
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)


def _run_scenario(
    scenario: Scenario,
    cluster: Cluster,
    telemetry_interval: Optional[float] = None,
) -> ChaosResult:
    plan = scenario.plan
    faults: Optional[WireFaults] = None
    if plan.has_wire_faults:
        faults = WireFaults(plan, scenario.cluster.seed)
        cluster.network.injector = faults
    obs = ObsCollector.for_cluster(cluster, record_spans=True)
    telemetry = None
    if telemetry_interval is not None:
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry(cluster, interval=telemetry_interval)
        telemetry.start()
    extra_violations: list[str] = []
    # Lease runs: capture every served read (owner-local, zero
    # consensus) and every write completion (first delivery at the
    # proposer -- the moment a client is acknowledged), for the
    # stale-read audit after the run.  Listener lists live on the
    # SimNode, so they survive crash/restart incarnations.
    m2 = scenario.cluster.m2
    lease_audit = (
        m2 is not None and m2.lease_duration > 0.0 and scenario.read_fraction > 0.0
    )
    served_reads: list[tuple[int, Command, object, float]] = []
    completions: dict[tuple[int, int], float] = {}
    if lease_audit:

        def _on_read(
            node_id: int, command: Command, result: object, now: float
        ) -> None:
            served_reads.append((node_id, command, result, now))

        def _on_complete(node_id: int, command: Command, now: float) -> None:
            if command.proposer == node_id and command.cid not in completions:
                completions[command.cid] = now

        for sim_node in cluster.nodes:
            sim_node.read_listeners.append(_on_read)
            sim_node.deliver_listeners.append(_on_complete)
    cluster.start()

    def _restart(node: int, mode: str) -> None:
        # Durable-prefix audit: a durable restart replays the store
        # synchronously, so right after `restart` the new incarnation's
        # delivery log is exactly what recovery rebuilt.  It must be
        # byte-identical to a prefix of the pre-crash log (the whole log
        # under synchronous fsync; possibly shorter when a group-commit
        # window was open at the crash).
        pre = list(cluster.nodes[node].delivered)
        cluster.restart(node, mode)
        if mode == "durable":
            recovered = list(cluster.nodes[node].delivered)
            if recovered != pre[: len(recovered)]:
                extra_violations.append(
                    f"node {node}: recovered delivery log is not a prefix "
                    f"of its pre-crash log ({len(recovered)} recovered vs "
                    f"{len(pre)} pre-crash)"
                )

    for crash in plan.crashes:
        cluster.loop.schedule_at(
            crash.at, lambda node=crash.node: cluster.crash(node)
        )
        if crash.restart_at is not None:
            cluster.loop.schedule_at(
                crash.restart_at,
                lambda node=crash.node, mode=crash.mode: _restart(node, mode),
            )

    schedule = _workload(scenario)
    proposed: list[Command] = []

    def _propose(node: int, command: Command) -> None:
        # A dead machine takes no client requests; its command simply
        # never happened (and is not owed to anyone).
        if not cluster.nodes[node].crashed:
            proposed.append(command)
            cluster.propose(node, command)

    for at, node, command in schedule:
        cluster.loop.schedule_at(
            at, lambda node=node, command=command: _propose(node, command)
        )

    horizon = max(plan.end_of_faults(), schedule[-1][0]) + scenario.settle
    start = cluster.loop.processed_events
    try:
        cluster.run_until(horizon, max_events=EVENT_BUDGET)
        if cluster.loop.processed_events - start >= EVENT_BUDGET:
            extra_violations.append(
                f"event budget exhausted: scenario {scenario.name!r} ran"
                f" {EVENT_BUDGET:,} events and stopped at t={cluster.loop.now:.4f}"
                f" of {horizon:.4f}; its plan: {scenario!r}"
            )
    except (SafetyViolation, ConsistencyViolation) as exc:
        extra_violations.append(f"safety alarm during run: {exc}")
    finally:
        if telemetry is not None:
            # Cut a final partial frame, then cancel the repeating
            # timer so the heap can drain.
            telemetry.final_sample()
            telemetry.stop()

    # Crash quiescence: no handler or wire span may start inside a
    # crash window.  (Timers and CPU completions charged to the dead
    # incarnation are cancelled/ignored by the substrate; this audits
    # that from the outside.)
    n_nodes = scenario.cluster.n_nodes
    for node in range(n_nodes):
        for start, end in plan.crash_windows(node):
            window_end = end if end is not None else cluster.loop.now
            active = obs.activity_spans(node, start, window_end)
            if active:
                extra_violations.append(
                    f"node {node} made {len(active)} transition(s) while "
                    f"crashed in [{start}, {window_end}), "
                    f"first: {active[0].name!r} at {active[0].start:.4f}"
                )

    logs = {
        node.node_id: node.delivery_history + [node.delivered]
        for node in cluster.nodes
    }
    # Liveness sets are computed from the cluster, not the plan alone: a
    # node can also fail-stop on its own (disk full), in which case it
    # is dead without appearing in ``plan.crashes``.
    self_crashed = {
        node.node_id
        for node in cluster.nodes
        if node.crashed and node.node_id not in plan.ever_crashed()
    }
    live = (
        set(range(n_nodes))
        - set(plan.down_forever())
        - self_crashed
    )
    amnesiacs = {
        c.node
        for c in plan.crashes
        if c.mode == "amnesia" and c.restart_at is not None
    }
    ever_crashed = set(plan.ever_crashed()) | self_crashed
    # Served reads never enter the decision log by design, so reads are
    # not owed a delivery (a fallback read that did go through consensus
    # appears in the logs anyway and is prefix-checked like any write).
    must_deliver = [
        c.cid
        for c in proposed
        if c.proposer not in ever_crashed and not c.is_read
    ]
    if lease_audit:
        extra_violations.extend(
            _audit_served_reads(cluster, served_reads, completions)
        )
    report = check_run(
        logs, live, must_deliver=must_deliver, amnesia_nodes=amnesiacs
    )
    report.violations = extra_violations + report.violations
    return ChaosResult(
        scenario=scenario,
        report=report,
        fingerprint=_fingerprint(logs),
        proposed=len(proposed),
        dropped=(faults.dropped if faults else 0)
        + cluster.network.messages_dropped,
        duplicated=faults.duplicated if faults else 0,
        faults_observed=len(obs.faults),
        telemetry=telemetry,
    )
