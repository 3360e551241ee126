"""Integration tests for the EPaxos baseline."""

from repro.consensus.commands import Command
from repro.consensus.epaxos import (
    ACCEPTED,
    PREACCEPTED,
    EPaxos,
    EPaxosConfig,
    EpAccept,
    EpPrepareReply,
)
from repro.core.quorum import classic_quorum, epaxos_fast_quorum

from tests.conftest import assert_all_delivered, make_cluster, run_workload


def ep(config=None):
    return lambda node_id, n: EPaxos(config)


class TestFastPath:
    def test_non_conflicting_commands_commit_fast(self):
        cluster = make_cluster(ep(), n_nodes=5, seed=1)
        proposed = run_workload(
            cluster, 10, lambda rng, node, r: [f"o{node}"], settle=3.0
        )
        assert_all_delivered(cluster, proposed)
        total_fast = sum(
            cluster.nodes[i].protocol.stats["fast_path"] for i in range(5)
        )
        assert total_fast == len(proposed)

    def test_sequential_conflicts_still_fast(self):
        # Conflicting commands proposed far apart in time: deps settle,
        # attributes agree, fast path holds.
        cluster = make_cluster(ep(), n_nodes=5, seed=2)
        for seq in range(10):
            cluster.propose(0, Command.make(0, seq, ["x"]))
            cluster.run_for(0.1)
        cluster.run_for(2.0)
        cluster.check_consistency()
        assert cluster.nodes[0].protocol.stats["fast_path"] == 10


class TestSlowPath:
    def test_concurrent_conflicts_take_slow_path(self):
        cluster = make_cluster(ep(), n_nodes=5, seed=3)
        proposed = run_workload(
            cluster, 10, lambda rng, node, r: ["hot"], spacing=0.0005, settle=5.0
        )
        assert_all_delivered(cluster, proposed)
        total_slow = sum(
            cluster.nodes[i].protocol.stats["slow_path"] for i in range(5)
        )
        assert total_slow > 0

    def test_conflicting_order_agrees_across_nodes(self):
        cluster = make_cluster(ep(), n_nodes=5, seed=4)
        proposed = run_workload(
            cluster, 20, lambda rng, node, r: ["hot"], spacing=0.001, settle=5.0
        )
        assert_all_delivered(cluster, proposed)
        orders = {
            tuple(c.cid for c in cluster.delivered(i)) for i in range(5)
        }
        # All commands conflict, so the execution order must be total.
        assert len(orders) == 1

    def test_multi_object_commands(self):
        cluster = make_cluster(ep(), n_nodes=5, seed=5)
        proposed = run_workload(
            cluster,
            10,
            lambda rng, node, r: rng.sample(["a", "b", "c", "d"], k=2),
            settle=5.0,
        )
        assert_all_delivered(cluster, proposed)

    def test_dependency_cycle_broken_by_seq(self):
        # Two conflicting commands proposed simultaneously at two nodes
        # can each end up in the other's deps (an SCC); execution must
        # still agree everywhere.
        cluster = make_cluster(ep(), n_nodes=3, seed=6)
        a = Command.make(0, 0, ["x"])
        b = Command.make(1, 0, ["x"])
        cluster.propose(0, a)
        cluster.propose(1, b)
        cluster.run_for(3.0)
        cluster.check_consistency()
        orders = {tuple(c.cid for c in cluster.delivered(i)) for i in range(3)}
        assert len(orders) == 1
        assert len(next(iter(orders))) == 2


class TestRecovery:
    def test_leader_crash_after_accept_recovers(self):
        config = EPaxosConfig(commit_timeout=0.2)
        cluster = make_cluster(ep(config), n_nodes=5, seed=7)
        # Warm up: one command commits normally.
        cluster.propose(0, Command.make(0, 0, ["x"]))
        cluster.run_for(1.0)
        # Crash the command leader right after it broadcasts PreAccept:
        # acceptors have preaccepted, nobody committed.
        cluster.propose(0, Command.make(0, 1, ["x"]))
        cluster.run_for(0.0008)
        cluster.crash(0)
        cluster.run_for(5.0)
        cluster.check_consistency()
        survivors = [{c.cid for c in cluster.delivered(i)} for i in range(1, 5)]
        for cids in survivors:
            assert (0, 1) in cids


    def test_recovery_reproposes_the_highest_accepted_ballot(self):
        # Two replicas report ACCEPTED attributes: one accepted at the
        # leader's ballot 0, one at a later recovery's ballot.  The
        # lower-ballot reply arrives first; recovery must still pick the
        # higher-ballot attributes (the classic Paxos rule).
        cluster = make_cluster(ep(), n_nodes=5, seed=4)
        protocol = cluster.nodes[0].protocol
        sent = []
        protocol.env.broadcast = lambda msg, include_self=True: sent.append(msg)
        instance = (4, 1)
        command = Command.make(4, 0, ["x"])
        protocol._recover(instance)
        ballot = protocol.instances[instance].ballot
        old_deps, new_deps = frozenset({(1, 1)}), frozenset({(1, 1), (2, 1)})

        def reply(status, deps, accepted_ballot):
            return EpPrepareReply(
                instance=instance, ballot=ballot, ok=True, status=status,
                command=command, seq=1, deps=deps,
                accepted_ballot=accepted_ballot,
            )

        protocol._on_prepare_reply(1, reply(ACCEPTED, old_deps, 0))
        protocol._on_prepare_reply(2, reply(ACCEPTED, new_deps, 7))
        protocol._on_prepare_reply(3, reply(PREACCEPTED, frozenset(), 0))
        accepts = [m for m in sent if isinstance(m, EpAccept)]
        assert len(accepts) == 1
        assert accepts[0].deps == new_deps
        assert accepts[0].ballot == ballot
        assert protocol.instances[instance].accepted_ballot == ballot


class TestQuorums:
    def test_fast_quorum_grows_past_five_nodes(self):
        small = make_cluster(ep(), n_nodes=5, seed=9)
        large = make_cluster(ep(), n_nodes=11, seed=9)
        assert small.nodes[0].protocol.fast_quorum == epaxos_fast_quorum(5) == 3
        assert large.nodes[0].protocol.fast_quorum == epaxos_fast_quorum(11) == 8
        assert classic_quorum(5) == 3 and classic_quorum(11) == 6

    def test_dependency_messages_grow_with_conflicts(self):
        from repro.consensus.epaxos import EpPreAccept

        lean = EpPreAccept(
            instance=(0, 1),
            ballot=0,
            command=Command.make(0, 0, ["x"]),
            seq=1,
            deps=frozenset(),
        )
        fat = EpPreAccept(
            instance=(0, 2),
            ballot=0,
            command=Command.make(0, 1, ["x"]),
            seq=9,
            deps=frozenset((i, i) for i in range(20)),
        )
        assert fat.size_bytes() > lean.size_bytes()
