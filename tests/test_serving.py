"""Serving tier: leased owner-local reads and accept-quorum targeting.

The lease tests prove the tentpole invariant from both sides -- a valid
lease serves linearizable reads with *zero consensus messages* (checked
against the Tracer's message-level ground truth, like the delay-count
tests in test_obs.py), while anything that could make a local read
unsafe (ownership in flight, a stale local log behind the serve floor,
clock skew beyond the margin) forces the full round.  The targeting
tests pin the nearest accept quorum; the last class checks that every
serving knob at its off value leaves decision logs unchanged.
"""

from __future__ import annotations

import pytest

from repro.consensus.commands import Command
from repro.core.protocol import M2Paxos, M2PaxosConfig
from repro.core.quorum import FlexibleQuorums
from repro.sim.trace import Tracer
from tests.conftest import assert_all_delivered, make_cluster, run_workload

# Long enough (in virtual seconds) that renewal heartbeats -- not
# expiries -- carry every test's measurement window.
LEASED = M2PaxosConfig(lease_duration=0.3, lease_margin=0.01)


def leased_cluster(n_nodes=5, seed=1, config=LEASED, **kwargs):
    return make_cluster(
        lambda node_id, n: M2Paxos(config), n_nodes=n_nodes, seed=seed, **kwargs
    )


def warm(cluster, node=0, obj="x", writes=3, settle=1.0):
    """Settle ownership of ``obj`` at ``node`` (and, with leases on,
    let the accept acks grant the owner its lease).

    The settle must outlast the startup lease blackout: every fresh
    incarnation parks *all* Prepares for one lease window, so even the
    first acquisition waits it out.
    """
    for seq in range(writes):
        cluster.propose(node, Command.make(node, seq, [obj]))
        cluster.run_for(0.05)
    cluster.run_for(settle)


class TestLeasedReads:
    def test_leased_owner_serves_read_with_zero_consensus_messages(self):
        cluster = leased_cluster()
        warm(cluster, writes=3)
        tracer = Tracer(cluster)
        mark = tracer.mark()
        read = Command.make(0, 100, ["x"], is_read=True)
        cluster.propose(0, read)
        cluster.run_for(0.05)
        # Served on the read channel with the object's write frontier.
        assert cluster.nodes[0].read_log == [(read, {"x": 3})]
        assert cluster.nodes[0].protocol.stats["read_local"] == 1
        # Ground truth: no consensus round ran for it (renew heartbeats
        # are the only lease traffic allowed in the window).
        counts = tracer.message_counts(since=mark)
        for kind in ("Accept", "Prepare", "Forward", "Decide"):
            assert kind not in counts, counts
        # Never enters the replicated decision log.
        assert read.cid not in cluster.all_delivered_cids()
        cluster.check_consistency()

    def test_read_without_leases_runs_consensus(self):
        cluster = make_cluster(lambda node_id, n: M2Paxos(), n_nodes=5, seed=1)
        warm(cluster, writes=2)
        read = Command.make(0, 100, ["x"], is_read=True)
        cluster.propose(0, read)
        cluster.run_for(1.0)
        assert read.cid in cluster.all_delivered_cids()
        assert cluster.nodes[0].read_log == []
        assert cluster.nodes[0].protocol.stats["read_local"] == 0

    def test_non_owner_read_falls_back_to_full_round(self):
        cluster = leased_cluster()
        warm(cluster, node=0, writes=2)
        read = Command.make(1, 100, ["x"], is_read=True)
        cluster.propose(1, read)
        cluster.run_for(1.0)
        assert cluster.nodes[1].protocol.stats["read_fallback"] == 1
        assert cluster.nodes[1].protocol.stats["read_local"] == 0
        assert read.cid in cluster.all_delivered_cids()
        cluster.check_consistency()

    def test_acquisition_waits_out_crashed_holders_lease(self):
        """Grants are wall-clock promises: with the holder dead (so no
        explicit release), a takeover parks until the window lapses."""
        config = M2PaxosConfig(
            lease_duration=0.4, lease_margin=0.01, forward_timeout=0.05
        )
        cluster = leased_cluster(config=config, seed=3)
        warm(cluster, node=0, writes=2)
        cluster.crash(0)
        tracer = Tracer(cluster)
        t0 = tracer.mark()
        takeover = Command.make(1, 0, ["x"])
        cluster.propose(1, takeover)
        cluster.run_for(2.0)
        deliveries = tracer.deliveries(cid=takeover.cid)
        assert deliveries, "takeover never delivered"
        # The handoff cannot beat the dead holder's lease window: the
        # acceptors' grants have well over half the 0.4s duration left
        # when the takeover arrives, so its Prepare parks.
        assert min(e.time for e in deliveries) - t0 >= 0.2
        cluster.check_consistency()

    def test_self_revoke_releases_lease_early(self):
        """A foreign Prepare reaching the live holder revokes: reads
        stop and ReleaseLease wakes parked acquirers well before the
        wall-clock expiry."""
        config = M2PaxosConfig(
            lease_duration=2.0, lease_margin=0.01, max_forward_hops=0
        )
        cluster = leased_cluster(config=config, seed=4)
        warm(cluster, node=0, writes=2, settle=3.0)  # outlast the 2s blackout
        takeover = Command.make(1, 0, ["x"])
        cluster.propose(1, takeover)  # hops exhausted -> acquisition
        # The holder's renewed grants have well over a second left, yet
        # the takeover lands within 0.5s: the live holder revoked and
        # released explicitly instead of letting the wall clock run out.
        cluster.run_for(0.5)
        assert takeover.cid in {c.cid for c in cluster.delivered(1)}
        assert cluster.nodes[0].protocol.state.lease_grants.get("x") is None
        cluster.check_consistency()

    def test_serve_floor_blocks_reads_until_log_catches_up(self):
        """A fresh lease does not imply a fresh log: below the serve
        floor reads take the full round, and the round itself advances
        the frontier past the floor."""
        cluster = leased_cluster(seed=5)
        warm(cluster, writes=3)
        proto = cluster.nodes[0].protocol
        proto.state.serve_floor["x"] = proto.state.obj("x").appended + 1
        first = Command.make(0, 100, ["x"], is_read=True)
        cluster.propose(0, first)
        cluster.run_for(1.0)
        assert proto.stats["read_fallback"] == 1
        assert proto.stats["read_local"] == 0
        assert first.cid in cluster.all_delivered_cids()
        # The consensus read appended at the floor; local serving resumes.
        second = Command.make(0, 101, ["x"], is_read=True)
        cluster.propose(0, second)
        cluster.run_for(0.05)
        assert proto.stats["read_local"] == 1
        assert second.cid not in cluster.all_delivered_cids()
        cluster.check_consistency()


class TestLeaseSkew:
    def test_skew_beyond_margin_forces_slow_path(self):
        """Clock skew past the margin must cost performance, never
        correctness: the owner's window lapses early and the read runs
        the full round (cross-checked against the Tracer, like the
        delay-count proofs in test_obs.py)."""
        cluster = leased_cluster(seed=6)
        warm(cluster, writes=2)
        proto = cluster.nodes[0].protocol
        tracer = Tracer(cluster)

        # Baseline: a served read sends nothing.
        mark = tracer.mark()
        cluster.propose(0, Command.make(0, 100, ["x"], is_read=True))
        cluster.run_for(0.03)
        assert proto.stats["read_local"] == 1
        assert "Accept" not in tracer.message_counts(since=mark)

        # Step this node's lease clock forward past every live grant.
        proto._lease_clock_skew = LEASED.lease_duration + 0.05
        mark = tracer.mark()
        skewed = Command.make(0, 101, ["x"], is_read=True)
        cluster.propose(0, skewed)
        cluster.run_for(0.5)
        assert proto.stats["read_fallback"] >= 1
        # Ground truth: the fallback really ran a consensus round.
        assert tracer.sends("Accept", since=mark)
        assert skewed.cid in cluster.all_delivered_cids()

        # A *constant* offset is harmless by construction: the renewal
        # heartbeat re-grants against the same skewed clock, and local
        # serving resumes.
        cluster.run_for(2.0 * LEASED.lease_duration)
        resumed = Command.make(0, 102, ["x"], is_read=True)
        cluster.propose(0, resumed)
        cluster.run_for(0.03)
        assert proto.stats["read_local"] == 2
        cluster.check_consistency()


class TestQuorumTargeting:
    ZONES_RTT = tuple(
        tuple(
            0.0 if a == b else (0.001 if (a // 2 == b // 2) else 0.08)
            for b in range(5)
        )
        for a in range(5)
    )

    def _config(self):
        return M2PaxosConfig(
            quorum=FlexibleQuorums(prepare=4, accept=2),
            nearest_accept=True,
            quorum_rtt=self.ZONES_RTT,
        )

    def test_picks_min_max_rtt_quorum(self):
        cluster = leased_cluster(config=self._config(), seed=12, n_nodes=5)
        proto = cluster.nodes[0].protocol
        # Node 0's cheapest accept quorum is its 1ms neighbour, node 1.
        assert proto._pick_nearest_accept_quorum() == (0, 1)
        assert cluster.nodes[2].protocol._pick_nearest_accept_quorum() == (2, 3)

    def test_first_attempt_targets_only_the_preferred_quorum(self):
        cluster = leased_cluster(config=self._config(), seed=13, n_nodes=5)
        warm(cluster, node=0, obj="q", writes=1)
        tracer = Tracer(cluster)
        mark = tracer.mark()
        write = Command.make(0, 50, ["q"])
        cluster.propose(0, write)
        cluster.run_for(0.5)
        accepts = tracer.sends("Accept", since=mark, predicate=lambda e: e.src == 0)
        assert accepts, "no Accept sent"
        # The round itself (well before the 0.25s learn-resend sweep)
        # goes only to the min-max-RTT quorum...
        first = {e.dst for e in accepts if e.time < mark + 0.1}
        assert first and first <= {0, 1}, first
        # ...and the resend sweep still teaches the bystanders, so the
        # command lands everywhere despite the targeted first attempt.
        assert {e.dst for e in accepts} == {0, 1, 2, 3, 4}
        for node in range(5):
            assert write.cid in {c.cid for c in cluster.delivered(node)}
        cluster.check_consistency()

    def test_targeted_quorums_deliver_everything(self):
        cluster = leased_cluster(config=self._config(), seed=14, n_nodes=5)
        proposed = run_workload(
            cluster, 10, lambda rng, node, r: [f"obj-{node}"], settle=5.0
        )
        assert_all_delivered(cluster, proposed)


class TestLeasesOffBehaviour:
    """Acceptance criterion: with every serving knob at (or explicitly
    set to) its disabled value, decision logs are identical to the
    plain-default build on pinned seeds -- the serving tier must cost
    nothing when off."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_disabled_knobs_leave_decision_logs_identical(self, seed):
        def drive(config):
            cluster = make_cluster(
                lambda node_id, n: M2Paxos(config), n_nodes=5, seed=seed
            )
            proposed = run_workload(
                cluster,
                20,
                lambda rng, node, r: [f"obj{(node + r) % 7}"],
                seed=seed,
                spacing=0.004,
            )
            assert_all_delivered(cluster, proposed)
            return [
                [c.cid for c in cluster.delivered(node)] for node in range(5)
            ]

        plain = drive(M2PaxosConfig())
        explicit = drive(
            M2PaxosConfig(
                lease_duration=0.0,  # the off switch
                lease_margin=0.5,
                lease_renew_fraction=0.9,
                nearest_accept=False,
            )
        )
        assert plain == explicit
