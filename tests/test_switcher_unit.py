"""Unit tests for the adaptive switcher's decision machinery."""

from repro.consensus.commands import Command
from repro.core.m2.config import _SUPERVISE
from repro.core.switcher import (
    AdaptiveSwitcher,
    SwitcherConfig,
    SwitchVote,
    MODE_M2,
    MODE_MP,
    _SubEnv,
)

from tests.conftest import make_cluster


def build(config=None, n=3, seed=0):
    cluster = make_cluster(
        lambda i, nn: AdaptiveSwitcher(config), n_nodes=n, seed=seed
    )
    return cluster


class TestConflictRate:
    def test_empty_window_is_zero(self):
        cluster = build()
        assert cluster.nodes[0].protocol.conflict_rate() == 0.0

    def test_rate_reflects_samples(self):
        cluster = build()
        protocol = cluster.nodes[0].protocol
        now = protocol.env.now()
        protocol._samples.extend([(now, 1), (now, 1), (now, 0), (now, 0)])
        assert protocol.conflict_rate() == 0.5

    def test_stale_samples_expire(self):
        cluster = build()
        protocol = cluster.nodes[0].protocol
        protocol._samples.append((protocol.env.now(), 1))
        cluster.run_for(protocol.SAMPLE_TTL + 1.0)
        assert protocol.conflict_rate() == 0.0


class TestVoting:
    def test_non_coordinator_ignores_votes(self):
        cluster = build()
        protocol = cluster.nodes[1].protocol
        protocol.on_message(2, SwitchVote(want=MODE_MP, conflict_rate=0.9))
        cluster.run_for(1.0)
        assert protocol.mode == MODE_M2
        assert protocol.stats["switches"] == 0

    def test_vote_for_current_mode_is_noop(self):
        cluster = build()
        coordinator = cluster.nodes[0].protocol
        coordinator.on_message(1, SwitchVote(want=MODE_M2, conflict_rate=0.9))
        cluster.run_for(1.0)
        assert coordinator.stats["switches"] == 0

    def test_coordinator_vote_triggers_consensus_marker(self):
        cluster = build()
        coordinator = cluster.nodes[0].protocol
        coordinator.on_message(1, SwitchVote(want=MODE_MP, conflict_rate=0.9))
        cluster.run_for(2.0)
        # Every node switched, through the delivered marker.
        assert all(
            cluster.nodes[i].protocol.mode == MODE_MP for i in range(3)
        )
        # The marker itself is not delivered to the application.
        assert all(len(cluster.delivered(i)) == 0 for i in range(3))

    def test_duplicate_votes_produce_single_switch(self):
        cluster = build()
        coordinator = cluster.nodes[0].protocol
        coordinator.on_message(1, SwitchVote(want=MODE_MP, conflict_rate=0.9))
        coordinator.on_message(2, SwitchVote(want=MODE_MP, conflict_rate=0.8))
        cluster.run_for(2.0)
        assert all(
            cluster.nodes[i].protocol.stats["switches"] == 1 for i in range(3)
        )


class TestCrossModeDelivery:
    def test_commands_of_both_modes_interleave_correctly(self):
        cluster = build(SwitcherConfig(window=4, to_fallback=0.9))
        # Deliver a few in M2 mode.
        for seq in range(3):
            cluster.propose(0, Command.make(0, seq, ["x"]))
            cluster.run_for(0.2)
        # Force the switch.
        cluster.nodes[0].protocol.on_message(
            1, SwitchVote(want=MODE_MP, conflict_rate=1.0)
        )
        cluster.run_for(2.0)
        for seq in range(3, 6):
            cluster.propose(0, Command.make(0, seq, ["x"]))
            cluster.run_for(0.2)
        cluster.run_for(2.0)
        cluster.check_consistency()
        for node in range(3):
            assert [c.cid for c in cluster.delivered(node)] == [
                (0, s) for s in range(6)
            ]


class TestSubEnv:
    def test_m2paxos_supervises_through_the_sub_env(self, monkeypatch):
        cluster = build()
        node = cluster.nodes[0]
        m2 = node.protocol._m2
        armed = []
        set_timer_at = _SubEnv.set_timer_at

        def recording(env, when, callback):
            armed.append(when)
            return set_timer_at(env, when, callback)

        monkeypatch.setattr(_SubEnv, "set_timer_at", recording)
        cluster.propose(0, Command.make(0, 0, ["x"]))
        cluster.run_for(0.1)
        # The timer is armed for the heap's earliest entry, here the
        # acquisition round's deadline; the supervision deadline waits.
        assert m2.state.deadlines[0][0] in armed
        [deadline] = [when for when, kind, _cid, _c in m2.state.deadlines if kind == _SUPERVISE]
        # The one deadline timer lives on the hosting node.
        assert m2.state.deadline_timer is not None and node._timers
        cluster.run_until(deadline)
        assert m2.state.deadlines == [] and m2.state.deadline_timer is None
