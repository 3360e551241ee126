"""Tests for ownership policies (the Section IV-C orthogonal knob)."""

import pytest

from repro.consensus.commands import Command
from repro.core.policy import (
    ACQUIRE,
    FORWARD,
    OnDemandPolicy,
    StickyPolicy,
    ZoneAffinityPolicy,
)
from repro.core.protocol import M2Paxos, M2PaxosConfig

from tests.conftest import assert_all_delivered, make_cluster, run_workload


class TestOnDemand:
    def test_always_acquires(self):
        policy = OnDemandPolicy()
        command = Command.make(0, 0, ["a", "b"])
        action, target = policy.decide(0, command, {"a": 1, "b": 2})
        assert action == ACQUIRE and target is None


class TestSticky:
    def test_forwards_to_majority_owner_when_cold(self):
        policy = StickyPolicy(threshold=3)
        command = Command.make(0, 0, ["a", "b", "c"])
        action, target = policy.decide(
            0, command, {"a": 2, "b": 2, "c": 1}
        )
        assert (action, target) == (FORWARD, 2)

    def test_acquires_after_threshold_requests(self):
        policy = StickyPolicy(threshold=2)
        command = Command.make(0, 0, ["a"])
        policy.on_local_request(0, command)
        action, _ = policy.decide(0, command, {"a": 2})
        assert action == FORWARD  # one request: not hot enough
        policy.on_local_request(0, command)
        action, _ = policy.decide(0, command, {"a": 2})
        assert action == ACQUIRE  # earned the migration

    def test_acquires_when_nothing_owned(self):
        policy = StickyPolicy(threshold=5)
        command = Command.make(0, 0, ["a", "b"])
        action, _ = policy.decide(0, command, {"a": None, "b": None})
        assert action == ACQUIRE

    def test_acquires_when_self_holds_majority(self):
        policy = StickyPolicy(threshold=5)
        command = Command.make(1, 0, ["a", "b", "c"])
        action, _ = policy.decide(1, command, {"a": 1, "b": 1, "c": 0})
        assert action == ACQUIRE

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            StickyPolicy(threshold=0)

    def test_empty_owners_rejected(self):
        # decide() with no undecided objects is a protocol bug, not a
        # policy input; silently acquiring for nothing used to let a
        # malformed call start a pointless acquisition round.
        policy = StickyPolicy(threshold=2)
        command = Command.make(0, 0, ["a"])
        with pytest.raises(ValueError, match="no undecided objects"):
            policy.decide(0, command, {})

    def test_remote_decide_resets_streak(self):
        # The streak-reset bugfix: "threshold requests in a row" means
        # without an intervening decision elsewhere.  Before the fix,
        # the streak kept counting across remote decisions, so on a
        # *shared* object every node eventually hit its threshold and
        # ownership ping-ponged forever.
        policy = StickyPolicy(threshold=2)
        command = Command.make(0, 0, ["hot"])
        remote = Command.make(1, 0, ["hot"])
        policy.on_local_request(0, command)
        policy.on_remote_decide(0, remote)  # node 1 decided in between
        policy.on_local_request(0, command)
        action, target = policy.decide(0, command, {"hot": 1})
        assert (action, target) == (FORWARD, 1)  # streak restarted at 1
        policy.on_local_request(0, command)
        action, _ = policy.decide(0, command, {"hot": 1})
        assert action == ACQUIRE  # two uninterrupted requests: earned

    def test_no_oscillation_between_two_alternating_nodes(self):
        # Two nodes alternating requests on one shared object: each
        # sees a remote decision between any two of its own requests,
        # so neither ever reaches threshold >= 2 and ownership stays
        # put (the regression the ISSUE calls out).
        policies = {0: StickyPolicy(threshold=2), 1: StickyPolicy(threshold=2)}
        owner = 0
        migrations = 0
        for round_nr in range(10):
            node = round_nr % 2
            command = Command.make(node, round_nr, ["hot"])
            policies[node].on_local_request(node, command)
            if owner != node:  # owner decides locally, no policy consult
                action, target = policies[node].decide(
                    node, command, {"hot": owner}
                )
                if action == ACQUIRE:
                    owner = node
                    migrations += 1
                else:
                    assert target == owner
            # Either way the decision lands in the *other* node's log as
            # a remotely-proposed command (forwarding does not change
            # command.proposer), resetting that node's streak.
            other = 1 - node
            policies[other].on_remote_decide(other, command)
        assert migrations == 0


def _zone_policy(**kwargs):
    # 5 nodes in 3 zones: {0,1} zone 0, {2,3} zone 1, {4} zone 2.
    return ZoneAffinityPolicy((0, 0, 1, 1, 2), **kwargs)


class TestZoneAffinity:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ZoneAffinityPolicy(())
        with pytest.raises(ValueError):
            _zone_policy(threshold=0)
        with pytest.raises(ValueError):
            _zone_policy(decay=0.0)
        with pytest.raises(ValueError):
            _zone_policy(decay=1.5)
        with pytest.raises(ValueError):
            _zone_policy(dominance=0.0)

    def test_empty_owners_rejected(self):
        policy = _zone_policy()
        command = Command.make(0, 0, ["a"])
        with pytest.raises(ValueError, match="no undecided"):
            policy.decide(0, command, {})

    def test_first_touch_acquires(self):
        policy = _zone_policy()
        command = Command.make(0, 0, ["a"])
        assert policy.decide(0, command, {"a": None}) == (ACQUIRE, None)

    def test_partial_self_ownership_acquires(self):
        policy = _zone_policy()
        command = Command.make(0, 0, ["a", "b"])
        action, _ = policy.decide(0, command, {"a": 0, "b": 3})
        assert action == ACQUIRE  # we hold some: finish the set here

    def test_zone_local_owner_forwarded_to_never_stolen_from(self):
        # Node 1 hammers an object node 0 owns (same zone).  However
        # dominant zone 0's demand gets, intra-zone traffic forwards --
        # stealing inside a zone only ping-pongs ownership between
        # nodes that see the same "our zone dominates" signal.
        policy = _zone_policy(threshold=1.0)
        command = Command.make(1, 0, ["a"])
        for _ in range(20):
            policy.on_local_request(1, command)
        assert policy.decide(1, command, {"a": 0}) == (FORWARD, 0)

    def test_remote_owner_forwarded_until_dominance_earned(self):
        policy = _zone_policy(threshold=3.0, dominance=0.6)
        command = Command.make(4, 0, ["a"])  # node 4, zone 2
        policy.on_local_request(4, command)
        action, target = policy.decide(4, command, {"a": 2})
        assert (action, target) == (FORWARD, 2)  # weight 1 < threshold 3
        for _ in range(5):
            policy.on_local_request(4, command)
        assert policy.decide(4, command, {"a": 2}) == (ACQUIRE, None)

    def test_remote_demand_blocks_migration(self):
        # Zone 2's own requests interleaved with decided traffic from
        # zone 1: zone 2 never reaches 60% of recent demand, so the
        # object stays where the majority of traffic is.
        policy = _zone_policy(threshold=3.0, dominance=0.6)
        mine = Command.make(4, 0, ["a"])
        theirs = Command.make(2, 0, ["a"])
        for _ in range(10):
            policy.on_local_request(4, mine)
            policy.on_remote_decide(4, theirs)
        action, target = policy.decide(4, mine, {"a": 2})
        assert (action, target) == (FORWARD, 2)

    def test_forwarded_requests_count_as_remote_demand(self):
        # The demand-blindness bugfix: an owner must count commands
        # other zones *forward to it* (pre-decision), or a stalled
        # pipeline makes it see only its own traffic and steal back
        # objects a remote region is hammering.
        policy = _zone_policy(threshold=3.0, dominance=0.6)
        ours = Command.make(0, 0, ["a"])
        forwarded = Command.make(2, 0, ["a"])  # zone 1 traffic, undecided
        policy.on_local_request(0, ours)
        for _ in range(10):
            policy.on_forwarded_request(0, forwarded)
        action, _ = policy.decide(0, ours, {"a": 3})
        assert action == FORWARD  # zone 1's forwards drown our 1 request

    def test_migration_spends_demand(self):
        # Hysteresis: the ACQUIRE that a dominance streak earned clears
        # the object's counters, so an immediate re-steal by the same
        # zone must re-earn dominance from zero.
        policy = _zone_policy(threshold=3.0)
        command = Command.make(4, 0, ["a"])
        for _ in range(5):
            policy.on_local_request(4, command)
        assert policy.decide(4, command, {"a": 2}) == (ACQUIRE, None)
        assert "a" not in policy._demand
        # Fresh decide with no new demand: back to forwarding.
        assert policy.decide(4, command, {"a": 2}) == (FORWARD, 2)

    def test_decay_favours_recent_traffic(self):
        # Old zone-1 demand decays under a burst of zone-2 requests:
        # recent traffic share, not lifetime totals, decides placement.
        # Lifetime totals would say zone 2 has 8/18 = 44% < 60% and
        # refuse; decayed counters see zone 1's old weight shrunk by
        # 0.8^8 and migrate.
        policy = _zone_policy(threshold=3.0, decay=0.8, dominance=0.6)
        old = Command.make(2, 0, ["a"])
        new = Command.make(4, 0, ["a"])
        for _ in range(10):
            policy.on_remote_decide(4, old)
        for _ in range(8):
            policy.on_local_request(4, new)
        assert policy.decide(4, new, {"a": 2}) == (ACQUIRE, None)

    def test_wants_single_owner(self):
        # The proposer must consult this policy even when a single
        # remote node owns everything, else hot objects can never be
        # attracted across zones.
        assert ZoneAffinityPolicy((0, 1)).wants_single_owner
        assert not StickyPolicy().wants_single_owner
        assert not OnDemandPolicy().wants_single_owner


class TestPolicyInProtocol:
    def test_sticky_policy_end_to_end(self):
        # Commands spanning two nodes' objects: sticky forwarding must
        # still deliver everything consistently.
        def factory(node_id, n):
            return M2Paxos(
                M2PaxosConfig(
                    policy=lambda: StickyPolicy(threshold=3),
                    gap_timeout=0.2,
                    gap_check_period=0.1,
                )
            )

        cluster = make_cluster(factory, n_nodes=3, seed=5)
        proposed = run_workload(
            cluster,
            10,
            lambda rng, node, r: [f"o{node}", f"o{(node + 1) % 3}"],
            spacing=0.005,
            settle=25.0,
        )
        assert_all_delivered(cluster, proposed)

    def test_sticky_reduces_acquisitions_vs_on_demand(self):
        # Single hot object proposed by everyone: with sticky forwarding,
        # non-owners route to the current owner instead of stealing.
        def run(policy_factory):
            cluster = make_cluster(
                lambda i, n: M2Paxos(
                    M2PaxosConfig(
                        policy=policy_factory,
                        gap_timeout=0.2,
                        gap_check_period=0.1,
                    )
                ),
                n_nodes=3,
                seed=6,
            )
            proposed = run_workload(
                cluster,
                12,
                lambda rng, node, r: ["hot", f"side{node}"],
                spacing=0.01,
                settle=25.0,
            )
            assert_all_delivered(cluster, proposed)
            return sum(
                cluster.nodes[i].protocol.stats["acquisitions"]
                for i in range(3)
            )

        on_demand = run(OnDemandPolicy)
        sticky = run(lambda: StickyPolicy(threshold=4))
        assert sticky <= on_demand
