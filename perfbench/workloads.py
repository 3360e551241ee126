"""The four workloads, the pass runners and the correctness gate.

A pass builds a fresh cluster, warms ownership, runs a fixed amount of
seeded work in equal chunks (each bracketed by the reference kernel)
and then checks what every node delivered.  Everything here drives the
program through its public surface -- ``LocalCluster`` +
``PipelineDriver`` for the asyncio TCP runtime, ``bench.harness`` for
the simulator -- and measures from outside.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import resource
from collections import Counter
from dataclasses import dataclass, field
from time import process_time
from typing import Optional

from repro.bench.harness import PointSpec, build_run, protocol_factory, saturated_spec
from repro.chaos.checker import check_run
from repro.consensus.commands import Command
from repro.runtime.cluster import LocalCluster
from repro.runtime.driver import PipelineDriver
from repro.sim.cluster import ConsistencyViolation
from repro.storage import disk
from repro.storage.base import StorageConfig
from repro.workloads.synthetic import SyntheticConfig, SyntheticWorkload

from perfbench.timing import PassTimer

TCP_NODES = 3
SIM_NODES = 5
OBJECTS_PER_NODE = 100
SIM_OBJECTS_PER_NODE = 1000
WAIT_S = 30.0
"""Per-wait timeout: a command not delivered at its proposer within
this many seconds of the window stalling fails the pass."""

TCP_M2 = dict(max_batch=32, batch_wait=5e-3, batch_adaptive=True)
FSYNC_WAIT = 0.5e-3
"""Group-commit window of ``tcp-durable``.  With 2 ms (and 16 in flight
per node) the loop sat idle a seventh of the time and throughput was set
by how the commit and batch timers happened to align: 6% run-to-run
spread on one seed, against 2% with this window."""
SIM_WARMUP_VS = 0.2
SIM_DRAIN_VS = 2.0
SIM_DRAIN_ROUNDS = 20


@dataclass(frozen=True)
class Workload:
    """One row of the workload table; the reason for each row is in
    ``BENCHMARK.json`` and README.md.

    ``work`` is commands per pass on TCP and simulator events per pass
    on sim; ``pass_seconds`` is what one pass (set-up, chunks and kernel
    brackets) costs on the host the benchmark was sized on, and turns
    ``--seconds`` into a whole number of passes.
    """

    name: str
    substrate: str
    work: int
    chunks: int
    pass_seconds: float
    depth: int = 0
    durable: bool = False

    def sized(self, quick: bool) -> "Workload":
        """``--quick``: one tenth of the work (tests only)."""
        if not quick:
            return self
        chunks = max(self.chunks // 5, 2)
        per_chunk = max(self.work // self.chunks // 2, 1)
        return Workload(
            self.name, self.substrate, per_chunk * chunks, chunks,
            self.pass_seconds / 10, self.depth, self.durable,
        )

    def passes(self, seconds: float, quick: bool) -> int:
        if quick:
            return 1
        return max(3, round(seconds / self.pass_seconds))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tcp-sat", "tcp", work=12_000, chunks=30, pass_seconds=4.0, depth=16),
        Workload("tcp-lat", "tcp", work=5_400, chunks=30, pass_seconds=4.0, depth=1),
        Workload(
            "tcp-durable", "tcp", work=7_500, chunks=30, pass_seconds=4.0, depth=16,
            durable=True,
        ),
        Workload("sim-contended", "sim", work=140_000, chunks=20, pass_seconds=5.0),
    )
}


@dataclass
class Plan:
    """Seeded inputs of one TCP workload: the program receives these
    and never the seed."""

    warm: list[tuple[int, Command]]
    chunks: list[list[tuple[int, Command]]]
    expected: dict[int, set]
    """Every command id each node proposes (warm-up included)."""


def tcp_plan(workload: Workload, seed: int) -> Plan:
    generator = SyntheticWorkload(
        SyntheticConfig(local_set_size=OBJECTS_PER_NODE, locality=1.0),
        TCP_NODES,
        random.Random(seed),
    )
    # Ownership warm-up: every object touched once by its home node, so
    # the measured chunks see steady-state ownership.
    warm = [
        (node, Command.make(node, 1_000_000 + i, [generator.object_name(node, i)]))
        for node in range(TCP_NODES)
        for i in range(OBJECTS_PER_NODE)
    ]
    per_chunk = workload.work // workload.chunks
    chunks = [
        [(i % TCP_NODES, generator.next_command(i % TCP_NODES)) for i in range(per_chunk)]
        for _ in range(workload.chunks)
    ]
    expected: dict[int, set] = {node: set() for node in range(TCP_NODES)}
    for node, command in warm + [p for chunk in chunks for p in chunk]:
        expected[node].add(command.cid)
    return Plan(warm, chunks, expected)


@dataclass
class PassResult:
    """What one pass measured.  ``timer`` chunk 0 is set-up (build,
    start, ownership warm-up); chunks 1.. are the measured work."""

    timer: PassTimer
    delivered: list[int] = field(default_factory=list)
    messages: list[dict] = field(default_factory=list)
    flushes: list[int] = field(default_factory=list)
    latencies: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    stats: Counter = field(default_factory=Counter)
    fsyncs: int = 0
    storage_bytes: int = 0
    rss_start_kb: int = 0
    rss_end_kb: int = 0
    virtual: dict = field(default_factory=dict)
    total_delivered: int = 0

    @property
    def setup_ref(self) -> float:
        return self.timer.ref()[0]

    @property
    def chunk_wall(self) -> list[float]:
        return self.timer.wall[1:]

    @property
    def chunk_scale(self) -> list[float]:
        """Wall -> reference factor of each measured chunk."""
        return [ref / wall for ref, wall in zip(self.chunk_ref, self.chunk_wall)]

    @property
    def chunk_cpu_ref(self) -> list[float]:
        """Reference CPU seconds of each measured chunk."""
        timer = self.timer
        return [timer.cpu[k] * timer.speed(k) for k in range(1, len(timer.cpu))]

    @property
    def chunk_ref(self) -> list[float]:
        return self.timer.ref()[1:]


class _Taps:
    """The benchmark's own counters on one cluster: flushes and messages
    by type (a flush hook) and deliveries at the proposer (a deliver
    listener).  A few hundred nanoseconds per command, the same in every
    pass, so counts are available without tracing."""

    def __init__(self, nodes) -> None:
        self.messages: Counter = Counter()
        self.flushes = 0
        self.delivered = 0
        for node in nodes:
            node.env.add_flush_hook(self._on_flush)
            node.deliver_listeners.append(self._on_deliver)

    def _on_flush(self, node_id, queued, batches) -> None:
        self.flushes += 1
        for _dst, message in queued:
            self.messages[type(message).__name__] += 1

    def _on_deliver(self, node_id, command, now) -> None:
        if node_id == command.proposer:
            self.delivered += 1


class _LatencyProbe:
    """Propose-call to delivery-at-the-proposer, per chunk."""

    def __init__(self, nodes, clock) -> None:
        self._clock = clock
        self._sent: dict = {}
        self.samples: list[float] = []
        for node in nodes:
            node.propose = self._timed(node.propose)
            node.deliver_listeners.append(self._on_deliver)

    def _timed(self, propose):
        sent, clock = self._sent, self._clock

        def timed_propose(command) -> None:
            sent[command.cid] = clock()
            propose(command)

        return timed_propose

    def _on_deliver(self, node_id, command, now) -> None:
        if node_id == command.proposer:
            started = self._sent.pop(command.cid, None)
            if started is not None:
                self.samples.append(self._clock() - started)

    def take(self) -> list[float]:
        samples, self.samples = self.samples, []
        return samples


def rss_kb() -> int:
    """Current resident set (the process's peak where there is no /proc)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024
    except (OSError, ValueError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _NoDeviceFlush:
    """``os`` as :mod:`repro.storage.disk` sees it during a durable
    pass: ``fsync`` returns at once, which is what it does on tmpfs.  The checkout's disk is a shared virtual device
    whose flush latency (a quarter of the pass, and twice the run-to-run
    spread, when issued) is the host's behaviour, not the program's;
    everything the program does to be durable -- encode, frame, write,
    group-commit, hold acks until the flush returns -- still runs, and
    the storage's own fsync *count* carries the batching story."""

    def __getattr__(self, name):
        return getattr(os, name)

    def fsync(self, fd) -> None:
        pass


def _check_logs(nodes, expected: dict[int, set]) -> list[str]:
    """The gate every pass goes through: each command delivered exactly
    once at its proposer, and the chaos checker's safety + completeness
    properties over every node's delivery log."""
    problems = []
    for node in nodes:
        mine = [c.cid for c in node.delivered if c.proposer == node.node_id]
        if len(mine) != len(set(mine)) or set(mine) != expected[node.node_id]:
            problems.append(
                f"node {node.node_id}: delivered {len(mine)} own commands "
                f"({len(set(mine))} distinct), expected {len(expected[node.node_id])}"
            )
    report = check_run(
        {node.node_id: [node.delivered] for node in nodes},
        live_nodes=[node.node_id for node in nodes],
        must_deliver=set().union(*expected.values()),
    )
    problems.extend(report.violations)
    return problems


def _sum_stats(nodes) -> Counter:
    total: Counter = Counter()
    for node in nodes:
        total.update(node.protocol.stats)
    return total


# ----------------------------------------------------------------------
# TCP runtime
# ----------------------------------------------------------------------


async def _tcp_pass(workload: Workload, plan: Plan, storage_dir, tracer) -> PassResult:
    factory = protocol_factory("m2paxos", **TCP_M2)
    storage = (
        StorageConfig(kind="disk", dir=storage_dir, fsync_wait=FSYNC_WAIT)
        if workload.durable
        else None
    )
    timer = PassTimer()
    result = PassResult(timer, rss_start_kb=rss_kb())
    clock = timer.clock
    cpu, started = process_time(), clock()
    cluster = LocalCluster(TCP_NODES, factory, storage=storage)
    nodes = cluster.nodes
    taps = _Taps(nodes)
    probe = _LatencyProbe(nodes, clock)
    if tracer is not None:
        tracer.observe(nodes)
    result.attempted = sum(len(chunk) for chunk in plan.chunks)
    await cluster.start()
    try:
        try:
            await PipelineDriver(cluster, depth=8).run(plan.warm, timeout=WAIT_S)
            timer.add(clock() - started, process_time() - cpu)
            probe.take()
            base = (taps.delivered, taps.flushes, Counter(taps.messages))
            for chunk in plan.chunks:
                if tracer is not None:
                    tracer.mark()
                cpu, began = process_time(), clock()
                await PipelineDriver(cluster, depth=workload.depth).run(
                    chunk, timeout=WAIT_S
                )
                timer.add(clock() - began, process_time() - cpu)
                result.latencies.append(probe.take())
                result.delivered.append(taps.delivered - base[0])
                result.flushes.append(taps.flushes - base[1])
                result.messages.append(dict(taps.messages - base[2]))
            if tracer is not None:
                tracer.mark()
            await cluster.wait_delivered(
                len(plan.warm) + result.attempted, timeout=WAIT_S
            )
        except asyncio.TimeoutError:
            result.problems.append(f"a wait exceeded {WAIT_S} s")
        result.rss_end_kb = rss_kb()
        result.stats = _sum_stats(nodes)
        result.total_delivered = taps.delivered
        if workload.durable:
            result.fsyncs = sum(node.env.storage.fsyncs for node in nodes)
    finally:
        await cluster.stop()
    if workload.durable:
        result.storage_bytes = sum(
            os.path.getsize(os.path.join(root, name))
            for root, _dirs, names in os.walk(storage_dir)
            for name in names
        )
    result.problems.extend(_check_logs(nodes, plan.expected))
    if workload.durable and not result.problems:
        result.problems.extend(await _check_recovery(cluster))
    return result


async def _check_recovery(cluster: LocalCluster) -> list[str]:
    """After ``stop()``: each node's recovery scan (the runtime's own
    durable restart, one node at a time with its peers down) must
    reproduce the sequence that node had delivered."""
    problems = []
    try:
        for node in cluster.nodes:
            before = [c.cid for c in node.delivered]
            await cluster.restart(node.node_id, mode="durable")
            after = [c.cid for c in node.delivered]
            await cluster.crash(node.node_id)
            if after != before:
                problems.append(
                    f"node {node.node_id}: recovery scan rebuilt {len(after)} "
                    f"deliveries, node had delivered {len(before)} "
                    f"(same order: {after == before[:len(after)]})"
                )
    finally:
        cluster.close_storage()
    return problems


# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------


def _sim_pass(workload: Workload, seed: int, tracer) -> PassResult:
    timer = PassTimer()
    result = PassResult(timer, rss_start_kb=rss_kb())
    clock = timer.clock
    cpu, started = process_time(), clock()
    spec = saturated_spec(
        PointSpec(
            "m2paxos",
            SIM_NODES,
            synthetic=SyntheticConfig(
                local_set_size=SIM_OBJECTS_PER_NODE, locality=0.5, complex_fraction=0.1
            ),
            seed=seed,
        )
    )
    handle = build_run(spec)
    cluster, collector = handle.cluster, handle.collector
    taps = _Taps(cluster.nodes)
    if tracer is not None:
        tracer.observe(cluster.nodes)
    handle.start()
    cluster.run_for(SIM_WARMUP_VS)
    collector.begin_window()
    timer.add(clock() - started, process_time() - cpu)
    base = (taps.delivered, taps.flushes, Counter(taps.messages))
    events_before = cluster.loop.processed_events
    per_chunk = workload.work // workload.chunks
    for _ in range(workload.chunks):
        if tracer is not None:
            tracer.mark()
        cpu, began = process_time(), clock()
        cluster.run(max_events=per_chunk)
        timer.add(clock() - began, process_time() - cpu)
        result.delivered.append(taps.delivered - base[0])
        result.flushes.append(taps.flushes - base[1])
        result.messages.append(dict(taps.messages - base[2]))
    if tracer is not None:
        tracer.mark()
    collector.end_window()
    events = cluster.loop.processed_events - events_before
    handle.clients.stop()
    # Drain: the open loop is cut mid-flight, so let every proposed
    # command finish before judging exactly-once delivery.
    proposed = collector.proposed
    for _ in range(SIM_DRAIN_ROUNDS):
        if not collector.inflight_of and all(
            len(node.delivered) == proposed for node in cluster.nodes
        ):
            break
        cluster.run_for(SIM_DRAIN_VS)
    result.rss_end_kb = rss_kb()
    result.attempted = proposed
    result.stats = _sum_stats(cluster.nodes)
    result.total_delivered = taps.delivered
    if collector.inflight_of:
        result.problems.append(
            f"{len(collector.inflight_of)} commands never delivered at their proposer"
        )
    expected = {node.node_id: set() for node in cluster.nodes}
    for node in cluster.nodes:
        for command in node.delivered:
            expected[command.proposer].add(command.cid)
    if sum(len(cids) for cids in expected.values()) != proposed:
        result.problems.append(
            f"{proposed} commands proposed, "
            f"{sum(len(cids) for cids in expected.values())} delivered anywhere"
        )
    result.problems.extend(_check_logs(cluster.nodes, expected))
    try:
        run = handle.finish()  # runs cluster.check_consistency()
    except ConsistencyViolation as exc:
        result.problems.append(f"check_consistency: {exc}")
        return result
    result.virtual = {
        "events": events,
        "throughput_cps": run.throughput,
        "p50_ms": run.latency.p50 * 1e3,
        "p99_ms": run.latency.p99 * 1e3,
        "latency_samples": run.latency.count,
        "network_messages": run.messages_sent,
    }
    return result


def run_pass(workload: Workload, seed: int, plan: Optional[Plan], storage_dir, tracer=None):
    """One pass of ``workload`` on a fresh cluster; GC stays enabled
    (users run with it) but starts every pass from a collected heap."""
    gc.collect()
    if workload.substrate == "sim":
        return _sim_pass(workload, seed, tracer)
    if workload.durable:
        disk.os = _NoDeviceFlush()
    try:
        return asyncio.run(_tcp_pass(workload, plan, storage_dir, tracer))
    finally:
        disk.os = os
