"""The run ledger against the collector it replaced.

PR 19 deleted ``metrics/collector.py::MetricsCollector`` -- its own
``cid -> propose time`` map, first-delivery set and latency list, fed by
an explicit ``on_propose()`` call from the client plus a deliver and a
read listener on every node -- and computes ``RunResult``
from the command traces ``ObsCollector`` already keeps.  The deleted
class lives on here as the oracle: it is attached beside the ledger to
the *same* run, and every ``RunResult`` field must be ``==``.

The last test pins the two intended differences (a proposal handed to a
crashed node, a re-proposal of a known cid) and that nothing else moves.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace
from typing import Optional

import pytest

from repro.bench.harness import BENCH_M2, PointSpec, build_run, saturated_spec
from repro.consensus.commands import Command
from repro.metrics.stats import summarize
from repro.obs.clock import Clock
from repro.obs.collect import ObsCollector, RunResult
from repro.runtime.cluster import LocalCluster
from repro.runtime.driver import PipelineDriver
from repro.sim.latency import FixedLatency
from repro.sim.network import NetworkConfig
from repro.storage.base import StorageConfig
from repro.workloads.synthetic import SyntheticConfig
from tests.conftest import make_cluster
from tests.test_obs import quiet_factory
from tests.test_pipelining import own_object_proposals, pipelined_factory


class ReferenceCollector:
    """``MetricsCollector`` as it was before PR 19, minus the
    ``ObsCollector`` it embedded (``obs`` is the ledger under test, read
    only for its clock and the flush-point counters the old class
    forwarded from it).  One edit: delivery and read times are read from
    the clock instead of the listener's ``now`` argument -- the same
    number under the simulator, and what lets the TCP case hand both
    collectors one stepped clock."""

    def __init__(self, cluster, obs: ObsCollector) -> None:
        self.cluster = cluster
        self.obs = obs
        self._clock = obs.clock
        self._propose_times: dict[tuple[int, int], float] = {}
        self._first_delivery: set[tuple[int, int]] = set()
        self._latencies: list[float] = []
        self._window_delivered = 0
        self._window_reads = 0
        self._window_start: Optional[float] = None
        self._window_end: Optional[float] = None
        self.proposed = 0
        for node in cluster.nodes:
            node.deliver_listeners.append(self._on_deliver)
            node.read_listeners.append(self._on_read)
            # The deleted client -> collector side channel: "call right
            # before handing the command to the cluster".
            node.propose = self._feeding(node.propose)

    def _feeding(self, propose):
        def proposing(command: Command) -> None:
            self.on_propose(command)
            propose(command)

        return proposing

    def on_propose(self, command: Command) -> None:
        self.proposed += 1
        self._propose_times[command.cid] = self._clock.now()

    def begin_window(self) -> None:
        self._window_start = self._clock.now()

    def end_window(self) -> None:
        self._window_end = self._clock.now()

    def _in_window(self, now: float) -> bool:
        if self._window_start is None or now < self._window_start:
            return False
        return self._window_end is None or now <= self._window_end

    def _on_deliver(self, node_id: int, command: Command, _now: float) -> None:
        now = self._clock.now()
        if command.cid not in self._first_delivery:
            self._first_delivery.add(command.cid)
            if self._in_window(now):
                self._window_delivered += 1
        if command.proposer == node_id:
            start = self._propose_times.pop(command.cid, None)
            if start is not None and self._in_window(now):
                self._latencies.append(now - start)

    def _on_read(
        self, node_id: int, command: Command, result: object, _now: float
    ) -> None:
        now = self._clock.now()
        if self._in_window(now):
            self._window_reads += 1
        start = self._propose_times.pop(command.cid, None)
        if start is not None and self._in_window(now):
            self._latencies.append(now - start)

    @property
    def inflight_of(self) -> dict[tuple[int, int], float]:
        return self._propose_times

    def result(self) -> RunResult:
        if self._window_start is None:
            raise RuntimeError("begin_window() was never called")
        end = self._window_end if self._window_end is not None else self._clock.now()
        duration = max(end - self._window_start, 1e-12)
        latency = summarize(self._latencies) if self._latencies else None
        network = getattr(self.cluster, "network", None)
        messages_sent = (
            network.messages_sent if network is not None else self.obs.wire_messages
        )
        bytes_sent = (
            network.bytes_sent if network is not None else self.obs.wire_bytes
        )
        return RunResult(
            duration=duration,
            delivered=self._window_delivered,
            throughput=(self._window_delivered + self._window_reads) / duration,
            latency=latency,
            messages_sent=messages_sent,
            bytes_sent=bytes_sent,
            proposed=self.proposed,
            message_types=dict(self.obs.message_types),
            flush_batches=self.obs.flush_batches,
            wire_messages=self.obs.wire_messages,
            wire_bytes=self.obs.wire_bytes,
            paths=self.obs.path_stats(self._window_start, end),
            inflight=len(self._propose_times),
            reads_served=self._window_reads,
        )


def windowed_latencies(ledger: ObsCollector) -> list[float]:
    start, end = ledger._window_start, ledger._window_end
    if end is None:
        end = ledger.clock.now()
    return sorted(
        trace.latency
        for trace in ledger.traces.values()
        if trace.latency is not None and start <= trace.delivered_at <= end
    )


def assert_same_books(ledger: ObsCollector, oracle: ReferenceCollector) -> RunResult:
    result = ledger.result()
    assert result == oracle.result()
    assert windowed_latencies(ledger) == sorted(oracle._latencies)
    assert ledger.proposed == oracle.proposed
    assert ledger.inflight_of == oracle.inflight_of
    return result


# ----------------------------------------------------------------------
# Simulator: the harness's own runs, both collectors on one cluster
# ----------------------------------------------------------------------

CONTENDED = saturated_spec(
    PointSpec(
        "m2paxos",
        5,
        synthetic=SyntheticConfig(local_set_size=1000, locality=0.5, complex_fraction=0.1),
    )
)
"""The ``sim-contended`` shape of ``perfbench``, as the fingerprint test
runs it: small windows, saturated."""

SIM_CASES = {
    "contended-seed1": (replace(CONTENDED, seed=1), 0.03, 0.07),
    "contended-seed2": (replace(CONTENDED, seed=2), 0.03, 0.07),
    "multipaxos": (replace(CONTENDED, protocol="multipaxos"), 0.05, 0.1),
    "genpaxos": (replace(CONTENDED, protocol="genpaxos"), 0.05, 0.1),
    "epaxos": (replace(CONTENDED, protocol="epaxos"), 0.05, 0.1),
    # 90% reads, every object local and leased: most commands are
    # answered on the read channel and never enter the decision log.
    "leased-reads": (
        replace(
            CONTENDED,
            synthetic=SyntheticConfig(locality=1.0, local_set_size=16, read_fraction=0.9),
            m2=replace(BENCH_M2, lease_duration=0.2),
            seed=3,
        ),
        0.2,
        0.2,
    ),
    # A group-committing store defers every delivery to the commit's
    # release, a millisecond after the handler that decided it.
    "group-commit": (
        replace(CONTENDED, storage=StorageConfig(kind="mem", fsync_wait=0.001)),
        0.03,
        0.07,
    ),
}


@pytest.mark.parametrize("case", sorted(SIM_CASES))
def test_sim_run_books_the_same_result(case):
    spec, warmup, duration = SIM_CASES[case]
    handle = build_run(spec)
    cluster, ledger = handle.cluster, handle.collector
    oracle = ReferenceCollector(cluster, ledger)
    handle.start()
    cluster.run_for(warmup)
    ledger.begin_window()
    oracle.begin_window()
    cluster.run_for(duration)
    ledger.end_window()
    oracle.end_window()
    # Mid-flight: the open loop is still running, commands are in flight.
    result = assert_same_books(ledger, oracle)
    assert result.inflight > 0 and result.latency.count > 100
    if case == "leased-reads":
        assert result.reads_served > 100 and result.delivered > 100
    handle.clients.stop()
    cluster.run_for(0.5)
    assert_same_books(ledger, oracle)
    handle.finish()


# ----------------------------------------------------------------------
# TCP runtime: PipelineDriver feeds no side channel, and needs none
# ----------------------------------------------------------------------


class SteppedClock(Clock):
    """Wall time that only advances between event-loop callbacks, so
    every hook one callback reaches -- the ledger's observer, then the
    oracle's listener -- reads the same instant."""

    def __init__(self) -> None:
        self.at = time.monotonic()

    def now(self) -> float:
        return self.at

    async def run(self) -> None:
        while True:
            self.at = time.monotonic()
            await asyncio.sleep(0.0005)


def test_tcp_pipeline_run_books_the_same_result():
    async def scenario() -> None:
        cluster = LocalCluster(3, pipelined_factory)
        clock = SteppedClock()
        ledger = ObsCollector(clock)
        ledger.attach(cluster)
        oracle = ReferenceCollector(cluster, ledger)
        ticking = asyncio.ensure_future(clock.run())
        await cluster.start()
        try:
            proposals = own_object_proposals(3, 24)
            warm, measured = proposals[:12], proposals[12:]
            await PipelineDriver(cluster, depth=4).run(warm)
            # Window membership is by timestamp (the old collector's was
            # by call order), so keep the stepped clock's coarse ticks
            # from putting a warm-up delivery *at* the window start.
            await cluster.wait_delivered(len(warm))
            await asyncio.sleep(0.01)
            ledger.begin_window()
            oracle.begin_window()
            await PipelineDriver(cluster, depth=4).run(measured)
            await cluster.wait_delivered(len(proposals))
            ledger.end_window()
            oracle.end_window()
            result = assert_same_books(ledger, oracle)
            assert result.delivered == result.latency.count == len(measured)
            assert result.proposed == len(proposals) and result.inflight == 0
            assert result.messages_sent == result.wire_messages > 0
        finally:
            ticking.cancel()
            await cluster.stop()

    asyncio.run(asyncio.wait_for(scenario(), timeout=60))


# ----------------------------------------------------------------------
# The two intended differences, and nothing else
# ----------------------------------------------------------------------

D = 0.01  # one-way network delay


def test_crash_restart_run_differs_in_exactly_the_two_documented_ways():
    cluster = make_cluster(
        quiet_factory, n_nodes=3, network=NetworkConfig(latency=FixedLatency(D))
    )
    ledger = ObsCollector.for_cluster(cluster)
    oracle = ReferenceCollector(cluster, ledger)
    ledger.begin_window()
    oracle.begin_window()
    for seq in range(4):
        cluster.propose(seq % 3, Command.make(seq % 3, seq, [f"k{seq % 3}"]))
    cluster.run_for(1.0)
    assert_same_books(ledger, oracle)

    # (1) A proposal handed to a crashed node never happened: the host
    # drops it before any observer sees it.  The old collector was told
    # first, and carried it as proposed and in flight forever.
    cluster.crash(1)
    refused = [Command.make(1, 10 + k, ["k1"]) for k in range(2)]
    for command in refused:
        cluster.propose(1, command)
    cluster.propose(0, Command.make(0, 20, ["k0"]))
    cluster.run_for(1.0)
    cluster.restart(1, mode="amnesia")
    cluster.run_for(1.0)

    # (2) A client retry of a command still in flight keeps its first
    # propose time; the old collector restarted the clock and counted a
    # second proposal.
    retried = Command.make(2, 30, ["k2"])
    cluster.propose(2, retried)
    cluster.run_for(D / 2)
    cluster.propose(2, retried)
    cluster.run_for(1.0)
    ledger.end_window()
    oracle.end_window()
    cluster.check_consistency()

    new, old = ledger.result(), oracle.result()
    assert set(oracle.inflight_of) - set(ledger.inflight_of) == {c.cid for c in refused}
    assert not ledger.inflight_of
    # Exactly one latency sample differs: the retried command's (the
    # last one delivered), by the retry delay.
    ours, theirs = windowed_latencies(ledger), sorted(oracle._latencies)
    retry_new, retry_old = ledger.traces[retried.cid].latency, oracle._latencies[-1]
    ours.remove(retry_new)
    theirs.remove(retry_old)
    assert ours == theirs and len(ours) == 5
    assert retry_new - retry_old == pytest.approx(D / 2)
    assert new == replace(
        old,
        proposed=old.proposed - len(refused) - 1,
        inflight=old.inflight - len(refused),
        latency=new.latency,
    )
    assert (new.proposed, new.inflight, new.delivered) == (6, 0, 6)
