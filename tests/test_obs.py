"""Tests for the substrate-independent observability layer (repro.obs).

The delay-count tests pin the paper's latency claims in *time*, not
just in message counts: with a fixed one-way latency D, a fast-path
command decides in two one-way delays (2D), a forwarded command in
three (3D), and an acquisition in at least four (4D).  The span
layer's path classification is cross-checked against the Tracer's
message-level ground truth and against the protocols' own stats
counters, and a sim-vs-runtime parity test proves both substrates emit
identical observations for the same workload.
"""

from __future__ import annotations

import asyncio
import json

from repro.consensus.base import EnvObserver
from repro.consensus.commands import Command
from repro.core.protocol import M2Paxos, M2PaxosConfig
from repro.obs import ObsCollector, to_chrome_trace
from repro.obs.collect import RunResult
from repro.runtime.cluster import LocalCluster
from repro.sim.latency import FixedLatency
from repro.sim.network import NetworkConfig
from repro.sim.trace import Tracer
from tests.conftest import make_cluster

# One-way network delay for the delay-count tests.  Large enough that
# per-handler CPU costs (~120us each) are noise against it.
D = 0.01
# Tolerance: everything beyond the network hops (CPU model, loopback
# scheduling) must fit well inside half a hop.
TOL = D / 2


def quiet_config(**overrides) -> M2PaxosConfig:
    """M2Paxos with every background timer disabled (or, for the gap
    checker, beyond any test's horizon), so the only messages on the
    wire are the ones the proposal itself causes."""
    defaults = dict(
        supervise_timeout=0.0,
        learn_resend_timeout=0.0,
        gap_check_period=3600.0,
        forward_timeout=30.0,
        round_timeout=30.0,
    )
    defaults.update(overrides)
    return M2PaxosConfig(**defaults)


def quiet_factory(node_id: int, n: int) -> M2Paxos:
    return M2Paxos(quiet_config())


def fixed_latency_cluster(n_nodes: int = 3):
    return make_cluster(
        quiet_factory,
        n_nodes=n_nodes,
        network=NetworkConfig(latency=FixedLatency(D)),
    )


class TestDelayCounts:
    """decision_latency counts one-way delays per decision path."""

    def test_acquisition_takes_at_least_four_delays(self):
        cluster = fixed_latency_cluster()
        obs = ObsCollector.for_cluster(cluster)
        tracer = Tracer(cluster)
        cmd = Command.make(0, 0, ["x"])  # first touch: nobody owns "x"
        cluster.propose(0, cmd)
        cluster.run_for(1.0)

        trace = obs.traces[cmd.cid]
        assert trace.resolved_path == "acquisition"
        assert trace.epoch_bumps >= 1
        # Prepare -> AckPrepare -> Accept -> AckAccept: 4 one-way delays.
        assert trace.decision_latency is not None
        assert 4 * D <= trace.decision_latency <= 4 * D + TOL
        # Ground truth: the acquisition really ran a prepare round.
        assert tracer.sends("Prepare")
        assert obs.path_counts() == {"acquisition": 1}

    def test_fast_path_takes_two_delays(self):
        cluster = fixed_latency_cluster()
        obs = ObsCollector.for_cluster(cluster)
        tracer = Tracer(cluster)
        cluster.propose(0, Command.make(0, 0, ["x"]))  # warm: acquire "x"
        cluster.run_for(1.0)
        tracer.clear()

        cmd = Command.make(0, 1, ["x"])
        cluster.propose(0, cmd)
        cluster.run_for(1.0)

        trace = obs.traces[cmd.cid]
        assert trace.resolved_path == "fast"
        assert trace.forward_hops == 0
        # Accept -> AckAccept: 2 one-way delays, decided at the owner.
        assert trace.decision_latency is not None
        assert 2 * D <= trace.decision_latency <= 2 * D + TOL
        # The proposer also *delivers* at 2D: it is its own coordinator.
        assert trace.latency is not None
        assert 2 * D <= trace.latency <= 2 * D + TOL
        assert trace.quorum_at is not None
        # Ground truth: no prepare round, no forwarding.
        counts = tracer.message_counts()
        assert "Prepare" not in counts
        assert "Forward" not in counts
        assert obs.path_counts() == {"acquisition": 1, "fast": 1}

    def test_forward_takes_three_delays(self):
        cluster = fixed_latency_cluster()
        obs = ObsCollector.for_cluster(cluster)
        tracer = Tracer(cluster)
        cluster.propose(0, Command.make(0, 0, ["x"]))  # warm: node 0 owns "x"
        cluster.run_for(1.0)
        tracer.clear()

        cmd = Command.make(1, 0, ["x"])  # node 1 proposes node 0's object
        cluster.propose(1, cmd)
        cluster.run_for(1.0)

        trace = obs.traces[cmd.cid]
        assert trace.resolved_path == "forward"
        assert trace.forward_hops == 1
        # Forward -> Accept -> AckAccept: 3 one-way delays to decide
        # (the decision happens at the owner, not the proposer).
        assert trace.decision_latency is not None
        assert 3 * D <= trace.decision_latency <= 3 * D + TOL
        # Ground truth: exactly one Forward hop, no ownership change.
        assert len(tracer.sends("Forward")) == 1
        assert "Prepare" not in tracer.message_counts()
        assert obs.path_counts() == {"acquisition": 1, "forward": 1}

    def test_path_counters_agree_with_protocol_stats(self):
        cluster = fixed_latency_cluster()
        obs = ObsCollector.for_cluster(cluster)
        cluster.propose(0, Command.make(0, 0, ["x"]))  # acquisition
        cluster.run_for(1.0)
        for seq in (1, 2, 3):  # fast: node 0 owns "x"
            cluster.propose(0, Command.make(0, seq, ["x"]))
            cluster.run_for(1.0)
        for seq in (0, 1):  # forward: node 1 does not own "x"
            cluster.propose(1, Command.make(1, seq, ["x"]))
            cluster.run_for(1.0)
        cluster.propose(2, Command.make(2, 0, ["y"]))  # acquisition
        cluster.run_for(1.0)

        assert obs.path_counts() == {"acquisition": 2, "fast": 3, "forward": 2}
        # The span layer and the protocols' own counters tell one story.
        totals: dict[str, int] = {}
        for node in cluster.nodes:
            for key, value in node.protocol.stats.items():
                totals[key] = totals.get(key, 0) + value
        assert totals["acquisitions"] == 2
        # ``fast_path`` counts rounds started at an owner, and a
        # forwarded command causes one such round at its destination --
        # the span layer's severity escalation is what keeps those
        # classified as "forward" end to end.
        assert totals["fast_path"] == 3 + 2
        assert totals["forwarded"] == 2
        # PathStats aggregates the same traces.
        stats = obs.path_stats()
        assert {p: s.count for p, s in stats.items()} == obs.path_counts()
        assert obs.fast_ratio() == 3 / 7


class TestSimRuntimeParity:
    """Same workload, same protocol, two substrates: the observability
    layer must report identical message-type counts and identical
    per-path decision counts, and the runtime must fill the same
    RunResult the simulator does."""

    # (proposer, seq, objects) -- proposed strictly one at a time.
    PROPOSALS = [
        (0, 0, ["alpha"]),  # acquisition: first touch
        (0, 1, ["alpha"]),  # fast: node 0 now owns alpha
        (0, 2, ["alpha"]),  # fast
        (1, 0, ["alpha"]),  # forward: node 1 proposes node 0's object
    ]
    EXPECTED_PATHS = {"acquisition": 1, "fast": 2, "forward": 1}

    @staticmethod
    def factory(node_id: int, n: int) -> M2Paxos:
        return M2Paxos(quiet_config())

    def sim_result(self) -> tuple[RunResult, ObsCollector]:
        cluster = make_cluster(self.factory, n_nodes=3)
        collector = ObsCollector.for_cluster(cluster)
        collector.begin_window()
        for node, seq, objs in self.PROPOSALS:
            command = Command.make(node, seq, objs)
            cluster.propose(node, command)
            cluster.run_for(0.5)  # fully settle before the next proposal
        collector.end_window()
        return collector.result(), collector

    def runtime_result(self, observer=None) -> tuple[RunResult, ObsCollector]:
        async def scenario():
            cluster = LocalCluster(3, self.factory)
            collector = ObsCollector.for_cluster(cluster)
            if observer is not None:
                for node in cluster.nodes:
                    node.env.add_observer(observer)
            await cluster.start()
            collector.begin_window()
            for k, (node, seq, objs) in enumerate(self.PROPOSALS, start=1):
                command = Command.make(node, seq, objs)
                cluster.propose(node, command)
                # Every node at k deliveries: the round fully settled.
                await cluster.wait_delivered(k)
            collector.end_window()
            result = collector.result()
            await cluster.stop()
            return result, collector

        return asyncio.run(asyncio.wait_for(scenario(), timeout=30))

    def test_wire_bytes_are_what_the_substrate_put_on_the_wire(self):
        """Not a second estimate: the simulator reports the bytes it
        priced for its network model (in either ``frame_sizes`` mode),
        the TCP runtime the encoded frame bytes it wrote -- the sum of
        its ``wire_bytes`` notes."""
        sim_bytes = {}
        for frame_sizes in ("estimate", "codec"):
            cluster = make_cluster(
                self.factory, n_nodes=3, network=NetworkConfig(frame_sizes=frame_sizes)
            )
            collector = ObsCollector.for_cluster(cluster)
            collector.begin_window()
            for node, seq, objs in self.PROPOSALS:
                cluster.propose(node, Command.make(node, seq, objs))
                cluster.run_for(0.5)
            result = collector.result()
            assert result.wire_bytes == cluster.network.bytes_sent == result.bytes_sent > 0
            assert result.wire_messages == cluster.network.messages_sent
            sim_bytes[frame_sizes] = result.wire_bytes
        assert sim_bytes["codec"] < sim_bytes["estimate"]

        noted = []

        class WireNotes(EnvObserver):
            note_kinds = frozenset({"wire_bytes"})
            wants_handler_timing = False

            def on_note(self, node_id, kind, fields):
                noted.append(fields["bytes"])

        rt_result, rt_obs = self.runtime_result(WireNotes())
        assert rt_result.wire_bytes == rt_result.bytes_sent == sum(noted) > 0
        # Real frames, minus loopback (which never crosses a socket):
        # less than the simulator charges for the same messages.
        assert rt_result.wire_bytes < sim_bytes["codec"]

    def test_same_messages_same_paths_same_result_shape(self):
        sim_result, sim_obs = self.sim_result()
        rt_result, rt_obs = self.runtime_result()

        # Identical per-message-type counts on the wire.
        assert sim_obs.message_types == rt_obs.message_types
        assert sim_obs.message_types  # non-trivial: something was counted
        # Identical per-path decision counts.
        assert sim_obs.path_counts() == self.EXPECTED_PATHS
        assert rt_obs.path_counts() == self.EXPECTED_PATHS
        # The runtime fills the very same RunResult the simulator does.
        assert type(rt_result) is type(sim_result)
        for result in (sim_result, rt_result):
            assert result.delivered == len(self.PROPOSALS)
            assert {p: s.count for p, s in result.paths.items()} == (
                self.EXPECTED_PATHS
            )
            assert result.fast_ratio == 2 / 4
            assert result.inflight == 0
            assert result.latency is not None
            assert result.message_types == sim_obs.message_types


class TestChromeExport:
    def test_chrome_trace_round_trips_with_fast_span(self):
        cluster = fixed_latency_cluster()
        obs = ObsCollector.for_cluster(cluster, record_spans=True)
        cluster.propose(0, Command.make(0, 0, ["x"]))
        cluster.run_for(1.0)
        cluster.propose(0, Command.make(0, 1, ["x"]))  # fast
        cluster.run_for(1.0)

        parsed = json.loads(json.dumps(to_chrome_trace(obs)))
        events = parsed["traceEvents"]
        assert events
        command_spans = [e for e in events if e.get("cat") == "command"]
        assert any(e["args"]["path"] == "fast" for e in command_spans)
        assert any(e["args"]["path"] == "acquisition" for e in command_spans)
        for event in events:
            assert isinstance(event["pid"], int)
            if event["ph"] == "X":
                assert isinstance(event["ts"], float)
                assert event["dur"] >= 0
        # Metadata names the node tracks (Perfetto track labels).
        assert any(e["ph"] == "M" and e["name"] == "process_name" for e in events)
        # Handler spans landed too.
        assert any(e.get("cat") == "handler" for e in events)


class TestInflight:
    def test_undelivered_proposals_are_counted_then_drained(self):
        cluster = fixed_latency_cluster()
        collector = ObsCollector.for_cluster(cluster)
        collector.begin_window()
        command = Command.make(0, 0, ["x"])
        cluster.propose(0, command)
        cluster.run_for(D / 10)  # shorter than one network hop
        assert collector.never_delivered() == 1
        assert list(collector.inflight_of) == [command.cid]

        cluster.run_for(1.0)
        collector.end_window()
        result = collector.result()
        assert result.delivered == 1
        assert result.inflight == 0
        assert collector.never_delivered() == 0
        assert not collector.inflight_of

    def test_detach_stops_observing(self):
        cluster = fixed_latency_cluster()
        collector = ObsCollector.for_cluster(cluster)
        collector.begin_window()
        collector.detach()
        cluster.propose(0, Command.make(0, 0, ["x"]))
        cluster.run_for(1.0)
        assert collector.traces == {}
        assert collector.message_types == {}
        assert len(cluster.delivered(0)) == 1  # the cluster still works
