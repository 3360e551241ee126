"""Chaos harness tests: plans, wire faults, the safety checker, true
crash--restart on the simulator, and the fault bugs the harness flushed
out (stale pruning of ``_attempts`` / ``_active_recoveries``)."""

from dataclasses import replace

import pytest

from repro.chaos import (
    Crash,
    DelayWindow,
    DropWindow,
    DuplicateWindow,
    FaultPlan,
    PartitionWindow,
    WireFaults,
    check_run,
    run_scenario,
    runner,
)
from repro.chaos.scenarios import DURABLE_SMOKE, SCENARIOS, SMOKE, by_name
from repro.consensus.commands import Command
from repro.core.messages import Decide
from repro.core.protocol import M2Paxos, M2PaxosConfig
from repro.obs.collect import ObsCollector
from repro.spec import ConfigError
from repro.storage.base import StorageConfig
from tests.conftest import make_cluster

MEM = StorageConfig(kind="mem")


def cmd(proposer, seq, objs):
    return Command.make(proposer, seq, objs)


def m2(config=None):
    return lambda node_id, n: M2Paxos(config=config)


# ----------------------------------------------------------------------
# FaultPlan validation and helpers
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_restart_must_follow_crash(self):
        with pytest.raises(ValueError):
            Crash(at=1.0, node=0, restart_at=0.5)

    def test_overlapping_crash_windows_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(
                crashes=(
                    Crash(at=0.1, node=0, restart_at=0.5),
                    Crash(at=0.3, node=0, restart_at=0.7),
                )
            )
        with pytest.raises(ValueError):
            # First crash never restarts; a second crash cannot happen.
            FaultPlan(crashes=(Crash(at=0.1, node=0), Crash(at=0.3, node=0)))

    def test_partition_groups_must_be_disjoint(self):
        with pytest.raises(ValueError):
            PartitionWindow(
                start=0.0,
                end=1.0,
                group_a=frozenset({0, 1}),
                group_b=frozenset({1, 2}),
            )

    def test_window_bounds(self):
        with pytest.raises(ValueError):
            DropWindow(start=0.5, end=0.5)
        with pytest.raises(ValueError):
            DropWindow(start=0.0, end=1.0, probability=0.0)
        with pytest.raises(ValueError):
            DelayWindow(start=0.0, end=1.0)  # no extra, no jitter

    def test_helpers(self):
        plan = FaultPlan(
            crashes=(
                Crash(at=0.1, node=1, restart_at=0.4, mode="amnesia"),
                Crash(at=0.2, node=2),
            ),
            partitions=(
                PartitionWindow(
                    start=0.0,
                    end=0.5,
                    group_a=frozenset({0}),
                    group_b=frozenset({1}),
                ),
            ),
        )
        assert plan.ever_crashed() == frozenset({1, 2})
        assert plan.down_forever() == frozenset({2})
        assert plan.crash_windows(1) == [(0.1, 0.4)]
        assert plan.crash_windows(2) == [(0.2, None)]
        assert plan.end_of_faults() == 0.5
        assert plan.partitioned(0, 1, 0.25)
        assert plan.partitioned(1, 0, 0.25)
        assert not plan.partitioned(0, 1, 0.5)  # half-open window
        assert not plan.partitioned(0, 2, 0.25)


# ----------------------------------------------------------------------
# WireFaults evaluation
# ----------------------------------------------------------------------


class TestWireFaults:
    def test_partition_drops(self):
        plan = FaultPlan(
            partitions=(
                PartitionWindow(
                    start=0.0,
                    end=1.0,
                    group_a=frozenset({0}),
                    group_b=frozenset({1}),
                ),
            )
        )
        faults = WireFaults(plan, seed=1)
        assert faults.offsets(0, 1, 0.5) == []
        assert faults.offsets(0, 2, 0.5) == [0.0]
        assert faults.offsets(0, 1, 1.5) == [0.0]
        assert faults.dropped == 1

    def test_certain_drop_and_duplicate(self):
        plan = FaultPlan(
            drops=(DropWindow(start=0.0, end=1.0, probability=1.0),),
            duplicates=(DuplicateWindow(start=2.0, end=3.0, probability=1.0),),
        )
        faults = WireFaults(plan, seed=1)
        assert faults.offsets(0, 1, 0.5) == []
        assert faults.offsets(0, 1, 2.5) == [0.0, 0.0]
        assert faults.duplicated == 1

    def test_delay_adds_extra(self):
        plan = FaultPlan(delays=(DelayWindow(start=0.0, end=1.0, extra=0.2),))
        faults = WireFaults(plan, seed=1)
        assert faults.offsets(0, 1, 0.5) == [0.2]
        assert faults.delayed == 1

    def test_loopback_untouched(self):
        plan = FaultPlan(drops=(DropWindow(start=0.0, end=1.0, probability=1.0),))
        faults = WireFaults(plan, seed=1)
        assert faults.offsets(2, 2, 0.5) == [0.0]

    def test_offset_shifts_windows(self):
        plan = FaultPlan(drops=(DropWindow(start=0.0, end=1.0, probability=1.0),))
        faults = WireFaults(plan, seed=1, offset=10.0)
        assert faults.offsets(0, 1, 10.5) == []
        assert faults.offsets(0, 1, 11.5) == [0.0]

    def test_same_seed_same_decisions(self):
        plan = FaultPlan(drops=(DropWindow(start=0.0, end=1.0, probability=0.5),))
        first = WireFaults(plan, seed=7)
        second = WireFaults(plan, seed=7)
        sends = [(i % 3, (i + 1) % 3, (i % 10) / 10) for i in range(200)]
        assert [first.offsets(*s) for s in sends] == [
            second.offsets(*s) for s in sends
        ]


# ----------------------------------------------------------------------
# Safety checker
# ----------------------------------------------------------------------


class TestChecker:
    def test_clean_run_passes(self):
        a, b = cmd(0, 0, ["x"]), cmd(1, 0, ["x"])
        logs = {0: [[a, b]], 1: [[a, b]], 2: [[a]]}
        report = check_run(logs, live_nodes={0, 1}, must_deliver=[a.cid, b.cid])
        assert report.ok, report.violations
        assert report.delivered_union == 2

    def test_double_delivery_detected(self):
        a = cmd(0, 0, ["x"])
        report = check_run({0: [[a, a]]}, live_nodes={0})
        assert any("twice" in v for v in report.violations)

    def test_conflicting_order_detected(self):
        a, b = cmd(0, 0, ["x"]), cmd(1, 0, ["x"])
        report = check_run({0: [[a, b]], 1: [[b, a]]}, live_nodes={0, 1})
        assert any("conflicting order" in v for v in report.violations)

    def test_order_checked_across_amnesia_lives(self):
        a, b = cmd(0, 0, ["x"]), cmd(1, 0, ["x"])
        # The archived first life saw b before a; later lives disagree.
        logs = {0: [[b, a], [a, b]], 1: [[a, b]]}
        report = check_run(logs, live_nodes={0, 1})
        assert any("conflicting order" in v for v in report.violations)

    def test_durable_node_may_not_lose_commands(self):
        a, b = cmd(0, 0, ["x"]), cmd(1, 0, ["y"])
        report = check_run({0: [[a, b]], 1: [[a]]}, live_nodes={0, 1})
        assert any("lost" in v for v in report.violations)

    def test_amnesia_node_exempt_but_cluster_is_not(self):
        a, b = cmd(0, 0, ["x"]), cmd(1, 0, ["y"])
        logs = {0: [[a, b]], 1: [[a, b], [a]]}
        report = check_run(logs, live_nodes={0, 1}, amnesia_nodes={1})
        assert report.ok, report.violations
        # But if *nobody* live still has a delivered command, that is a
        # cluster-level durability loss even with amnesia in play.
        logs = {0: [[a, b], [a]], 1: [[a, b], [a]]}
        report = check_run(logs, live_nodes={0, 1}, amnesia_nodes={0, 1})
        assert any("cluster forgot" in v for v in report.violations)

    def test_must_deliver_missing_detected(self):
        a, b = cmd(0, 0, ["x"]), cmd(1, 0, ["y"])
        report = check_run(
            {0: [[a]], 1: [[a]]}, live_nodes={0, 1}, must_deliver=[a.cid, b.cid]
        )
        assert any("never delivered" in v for v in report.violations)


# ----------------------------------------------------------------------
# True crash--restart on the simulator
# ----------------------------------------------------------------------


class TestSimCrashRestart:
    def test_crashed_node_makes_zero_transitions(self):
        cluster = make_cluster(m2(), n_nodes=3, seed=1)
        obs = ObsCollector.for_cluster(cluster, record_spans=True)
        for seq in range(5):
            cluster.propose(0, cmd(0, seq, ["x"]))
        cluster.run_for(0.5)
        crash_at = cluster.loop.now
        cluster.crash(1)
        assert cluster.nodes[1]._timers == set()
        for seq in range(5, 10):
            cluster.propose(0, cmd(0, seq, ["x"]))
        cluster.run_for(2.0)
        # The crashed node neither handled an event nor sent a message.
        assert obs.activity_spans(1, crash_at, cluster.loop.now) == []
        # And the crash itself is on the fault timeline.
        assert [f.event for f in obs.faults] == ["crash"]

    def test_timer_set_while_crashed_never_fires(self):
        cluster = make_cluster(m2(), n_nodes=3, seed=1)
        cluster.run_for(0.1)
        cluster.crash(1)
        fired = []
        handle = cluster.nodes[1].env.set_timer(0.01, lambda: fired.append(1))
        cluster.run_for(1.0)
        assert fired == []
        handle.cancel()  # inert handle; must not raise

    def test_durable_restart_rejoins_and_catches_up(self):
        config = M2PaxosConfig(learn_resend_attempts=100)
        cluster = make_cluster(m2(config), n_nodes=3, seed=2, storage=MEM)
        proposed = [cmd(0, seq, ["x"]) for seq in range(20)]
        for command in proposed[:5]:
            cluster.propose(0, command)
        cluster.run_for(0.5)
        cluster.crash(1)
        for command in proposed[5:15]:
            cluster.propose(0, command)
        cluster.run_for(0.5)
        cluster.restart(1, mode="durable")
        for command in proposed[15:]:
            cluster.propose(0, command)
        cluster.run_for(5.0)
        cluster.check_consistency()
        # The restarted node ends up with the *full* log: what it had,
        # what it missed while down, and what came after.
        assert [c.cid for c in cluster.delivered(1)] == [
            c.cid for c in proposed
        ]

    def test_durable_restart_clears_volatile_round_state(self):
        cluster = make_cluster(m2(), n_nodes=3, seed=3, storage=MEM)
        for seq in range(5):
            cluster.propose(1, cmd(1, seq, ["y"]))
        cluster.run_for(0.5)
        cluster.crash(1)
        old = cluster.nodes[1].protocol
        old.state.attempts[(9, 9)] = 3
        old.state.active_recoveries.add((9, 9))
        old.state.acquiring.add("ghost")
        cluster.restart(1, mode="durable")
        protocol = cluster.nodes[1].protocol
        assert protocol is not old
        assert protocol.state.attempts == {}
        assert protocol.state.active_recoveries == set()
        assert protocol.state.acquiring == set()
        # Durable state survived: the store rebuilt the decided log.
        assert len(cluster.delivered(1)) == 5

    def test_amnesia_restarted_owner_cannot_stale_fast_decide(self):
        """The old owner of ``x`` comes back blank and immediately
        proposes on ``x`` again.  Its forgotten epochs must not let it
        fast-decide over instances it no longer owns: every node's
        per-object order must still agree."""
        cluster = make_cluster(m2(), n_nodes=3, seed=4)
        for seq in range(10):
            cluster.propose(1, cmd(1, seq, ["x"]))
        cluster.run_for(0.5)
        assert len(cluster.delivered(1)) == 10  # node 1 owns x
        cluster.crash(1)
        cluster.run_for(0.2)
        cluster.restart(1, mode="amnesia")
        # Blank node proposes on its old object; others propose too.
        for seq in range(10, 16):
            cluster.propose(1, cmd(1, seq, ["x"]))
            cluster.propose(2, cmd(2, seq, ["x"]))
        cluster.run_for(5.0)
        cluster.check_consistency()
        # The pre-crash log was archived, and the new incarnation's log
        # is order-consistent with everyone (checked above).
        assert len(cluster.nodes[1].delivery_history) == 1
        assert len(cluster.nodes[1].delivery_history[0]) == 10
        live_cids = {c.cid for c in cluster.delivered(2)}
        assert {(1, s) for s in range(10, 16)} <= live_cids
        assert {(2, s) for s in range(10, 16)} <= live_cids

    def test_restart_while_up_is_an_error(self):
        cluster = make_cluster(m2(), n_nodes=3, seed=5, storage=MEM)
        with pytest.raises(RuntimeError, match="not crashed"):
            cluster.nodes[0].restart(M2Paxos(), "durable")


# ----------------------------------------------------------------------
# The satellite bugfixes: proposer bookkeeping is pruned on decide
# ----------------------------------------------------------------------


class TestBookkeepingPruned:
    def test_attempts_pruned_after_decide(self):
        cluster = make_cluster(m2(), n_nodes=3, seed=6)
        for seq in range(10):
            for node in range(3):
                cluster.propose(node, cmd(node, seq, ["shared"]))
        cluster.run_for(5.0)
        for node in cluster.nodes:
            assert node.protocol.state.attempts == {}
            assert node.protocol.state.active_recoveries == set()

    def test_competing_decide_releases_recovery_guard(self):
        """Regression: a ``kind="recover"`` round whose command gets
        decided by a *competing* coordinator used to leave the cid
        stranded in ``_active_recoveries`` forever (the clean-accept ack
        path that discards it never runs), blocking any future recovery
        of that command.  The decide itself must release the guard."""
        cluster = make_cluster(m2(), n_nodes=3, seed=7)
        cluster.run_for(0.1)
        node = cluster.nodes[0]
        command = cmd(1, 0, ["x"])
        # Simulate a recovery we launched for a command someone else is
        # also driving...
        node.protocol.state.active_recoveries.add(command.cid)
        node.protocol.state.attempts[command.cid] = 2
        # ...which that competing node wins and announces.
        node.run_event(
            lambda: node.protocol.on_message(
                1, Decide(to_decide={("x", 1): command})
            )
        )
        assert command.cid not in node.protocol.state.active_recoveries
        assert command.cid not in node.protocol.state.attempts


# ----------------------------------------------------------------------
# The scenario suite itself
# ----------------------------------------------------------------------


class TestScenarios:
    def test_suite_is_big_enough(self):
        assert len(SCENARIOS) >= 8
        names = [s.name for s in SCENARIOS]
        assert len(set(names)) == len(names)
        assert all(name in names for name in SMOKE)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rounds", 0),
            ("objects", 0),
            ("locality", 1.5),
            ("spacing", 0.0),
            ("settle", -1.0),
            ("multi", -0.1),
            ("read_fraction", 2.0),
        ],
    )
    def test_scenario_refuses_a_bad_field_by_name(self, field, value):
        """Before the check, ``rounds=0`` and ``objects=0`` failed mid-run
        on an empty schedule or object pool, and ``locality=1.5`` ran."""
        with pytest.raises(ConfigError, match=f"^{field}:"):
            replace(by_name("baseline"), **{field: value})

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            by_name("no-such-scenario")

    def test_an_exhausted_event_budget_stops_the_run_and_names_its_plan(self, monkeypatch):
        clusters = []
        run = runner._run_scenario

        def spy(scenario, cluster, **kwargs):
            clusters.append(cluster)
            return run(scenario, cluster, **kwargs)

        monkeypatch.setattr(runner, "_run_scenario", spy)
        monkeypatch.setattr(runner, "EVENT_BUDGET", 2_000)
        scenario = by_name("crash-restart-durable")
        result = run_scenario(scenario)
        assert not result.ok
        assert clusters[0].loop.processed_events == 2_000
        first = result.report.violations[0]
        assert first.startswith("event budget exhausted")
        assert repr(scenario.name) in first and repr(scenario.plan) in first

    @pytest.mark.parametrize("name", SMOKE)
    def test_smoke_scenarios_pass_and_replay_identically(self, name):
        scenario = by_name(name)
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.ok, first.report.violations
        assert second.ok, second.report.violations
        assert first.fingerprint == second.fingerprint

    @pytest.mark.parametrize(
        "name",
        [
            s.name
            for s in SCENARIOS
            if s.cluster.storage == MEM
            and not any(c.mode == "durable" and c.restart_at is not None for c in s.plan.crashes)
        ],
    )
    def test_the_default_mem_store_leaves_the_fingerprint_of_no_store(self, name):
        """Every scenario runs on a store by default, so a durable
        restart has one to replay.  A scenario that never replays it
        decides exactly as it would with no store at all."""
        scenario = by_name(name)
        bare = run_scenario(
            replace(scenario, cluster=replace(scenario.cluster, storage=StorageConfig()))
        )
        stored = run_scenario(scenario)
        assert bare.ok and stored.ok
        assert stored.fingerprint == bare.fingerprint

    def test_combined_scenario_passes(self):
        result = run_scenario(by_name("combined"))
        assert result.ok, result.report.violations
        assert result.faults_observed == 2  # crash + restart

    @pytest.mark.parametrize("seed", [27, 11, 99])
    def test_lease_expiry_partition_no_stale_reads(self, seed):
        """The serving-tier chaos gate: a leaseholder is partitioned
        away mid-lease, others acquire its objects, and two more
        holders crash and rejoin (durable + amnesia) -- every locally
        served read is audited against the decided write order, and a
        stale one flips ``ok``."""
        scenario = by_name("lease-expiry-partition")
        assert scenario.cluster.m2.lease_duration > 0.0 and scenario.read_fraction > 0.0
        result = run_scenario(
            replace(scenario, cluster=replace(scenario.cluster, seed=seed))
        )
        assert result.ok, result.report.violations
        if seed == scenario.cluster.seed:  # determinism on the pinned seed
            again = run_scenario(scenario)
            assert again.ok and again.fingerprint == result.fingerprint

    def test_checker_wired_in_not_vacuous(self):
        """The harness must be able to fail: feed the checker an
        impossible guarantee and make sure it objects."""
        scenario = by_name("baseline")
        result = run_scenario(scenario)
        assert result.ok
        report = check_run(
            {0: [[]]}, live_nodes={0}, must_deliver=[(0, 0)]
        )
        assert not report.ok


class TestDurableScenarios:
    """The storage-backed scenario family: restarts go through the real
    recovery scan (snapshot + log tail into a factory-fresh protocol)
    and the runner audits the recovered log as a byte-identical prefix
    of the pre-crash one -- a violation flips ``ok``."""

    @pytest.mark.parametrize("name", DURABLE_SMOKE)
    def test_durable_scenarios_pass_and_replay_identically(self, name):
        scenario = by_name(name)
        assert scenario.cluster.storage != MEM  # a store shape of its own
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.ok, first.report.violations
        assert second.ok, second.report.violations
        assert first.fingerprint == second.fingerprint

    def test_recover_snapshot_tail_on_disk(self, tmp_path):
        scenario = by_name("recover-snapshot-tail")
        storage = replace(
            scenario.cluster.storage, kind="disk", dir=str(tmp_path)
        )
        result = run_scenario(
            replace(scenario, cluster=replace(scenario.cluster, storage=storage))
        )
        assert result.ok, result.report.violations

    def test_disk_full_fail_stop_is_survivable(self):
        result = run_scenario(by_name("disk-full"))
        assert result.ok, result.report.violations
        # Exactly one fault: the capacity-capped node's own crash (no
        # fault plan drives this scenario).
        assert result.faults_observed == 1

    def test_wiped_store_recovers_empty(self):
        """``wipe()`` (the amnesia-restart path) must leave nothing for
        the recovery scan, so an amnesia rejoin really starts blank."""
        from repro.sim.cluster import Cluster

        scenario = by_name("recover-snapshot-tail")
        spec = replace(
            scenario.cluster, m2=M2PaxosConfig(), storage=StorageConfig(kind="mem")
        )
        cluster = Cluster(spec)
        node = cluster.nodes[1]
        node.env.storage.wipe()
        recovered = node.env.storage.recover()
        assert recovered.records == []
        assert recovered.snapshot is None
