"""Unit tests for M2Paxos state, delivery engine, and SELECT rule."""


from repro.consensus.commands import Command, make_noop
from repro.core.delivery import DeliveryEngine
from repro.core.protocol import M2Paxos
from repro.core.state import M2PaxosState


def cmd(proposer, seq, objs):
    return Command.make(proposer, seq, objs)


class TestObjectState:
    def test_defaults_match_paper(self):
        state = M2PaxosState()
        obj = state.obj("x")
        assert obj.epoch == 0
        assert obj.owner is None
        assert obj.appended == 0
        assert obj.next_slot == 1

    def test_observe_position_keeps_next_slot_ahead(self):
        state = M2PaxosState()
        obj = state.obj("x")
        obj.observe_position(5)
        assert obj.next_slot == 6
        obj.observe_position(2)  # lower positions do not regress it
        assert obj.next_slot == 6

    def test_is_decided_for(self):
        state = M2PaxosState()
        command = cmd(0, 0, ["x"])
        assert not state.is_decided_for("x", command)
        state.record("x", 1, command)
        assert state.is_decided_for("x", command)
        assert not state.is_decided_for("y", command)

    def test_record_ack_counts_unique_voters(self):
        state = M2PaxosState()
        inst = ("x", 1)
        assert state.record_ack(inst, 0, (0, 0), voter=1) == {1}
        assert state.record_ack(inst, 0, (0, 0), voter=1) == {1}  # duplicate
        assert state.record_ack(inst, 0, (0, 0), voter=2) == {1, 2}
        # Different epoch or command is a separate tally.
        assert state.record_ack(inst, 1, (0, 0), voter=3) == {3}
        assert state.record_ack(inst, 0, (9, 9), voter=3) == {3}


class TestDeliveryEngine:
    def make(self):
        state = M2PaxosState()
        delivered = []
        engine = DeliveryEngine(state, delivered.append)
        return state, engine, delivered

    def test_single_object_in_order(self):
        state, engine, delivered = self.make()
        a, b = cmd(0, 0, ["x"]), cmd(0, 1, ["x"])
        engine.record_decision("x", 1, a)
        engine.record_decision("x", 2, b)
        engine.pump()
        assert delivered == [a, b]

    def test_gap_blocks_delivery(self):
        state, engine, delivered = self.make()
        b = cmd(0, 1, ["x"])
        engine.record_decision("x", 2, b)
        engine.pump()
        assert delivered == []
        a = cmd(0, 0, ["x"])
        engine.record_decision("x", 1, a)
        engine.pump()
        assert delivered == [a, b]

    def test_multi_object_waits_for_all_frontiers(self):
        state, engine, delivered = self.make()
        multi = cmd(0, 0, ["x", "y"])
        engine.record_decision("x", 1, multi)
        engine.pump()
        assert delivered == []
        engine.record_decision("y", 1, multi)
        engine.pump(dirty=["y"])
        assert delivered == [multi]

    def test_noop_advances_without_delivering(self):
        state, engine, delivered = self.make()
        noop = make_noop("x", 0, 0)
        real = cmd(0, 0, ["x"])
        engine.record_decision("x", 1, noop)
        engine.record_decision("x", 2, real)
        engine.pump()
        assert delivered == [real]
        assert state.obj("x").appended == 2

    def test_duplicate_position_skipped(self):
        # A command decided at two positions of the same object (retry
        # forced to completion twice) is delivered exactly once.
        state, engine, delivered = self.make()
        a = cmd(0, 0, ["x"])
        engine.record_decision("x", 1, a)
        engine.record_decision("x", 2, a)
        b = cmd(0, 1, ["x"])
        engine.record_decision("x", 3, b)
        engine.pump()
        assert delivered == [a, b]

    def test_decision_is_final(self):
        state, engine, _ = self.make()
        a, b = cmd(0, 0, ["x"]), cmd(1, 0, ["x"])
        assert engine.record_decision("x", 1, a)
        assert not engine.record_decision("x", 1, b)
        assert state.decided_at(("x", 1)).cid == a.cid

    def test_cascading_unblock_across_objects(self):
        state, engine, delivered = self.make()
        ab = cmd(0, 0, ["a", "b"])
        bc = cmd(0, 1, ["b", "c"])
        engine.record_decision("b", 2, bc)
        engine.record_decision("c", 1, bc)
        engine.pump()
        assert delivered == []
        engine.record_decision("a", 1, ab)
        engine.record_decision("b", 1, ab)
        engine.pump(dirty=["a", "b"])
        assert delivered == [ab, bc]

    def test_undelivered_gap_detection(self):
        state, engine, _ = self.make()
        assert engine.undelivered_gap("x") is None  # unknown object
        b = cmd(0, 1, ["x"])
        engine.record_decision("x", 2, b)
        engine.pump()
        assert engine.undelivered_gap("x") == 1

    def test_gap_from_reserved_slot_without_decision(self):
        # Coordinator crashed after reserving: activity seen, nothing
        # decided -- the frontier must be flagged for recovery.
        state, engine, _ = self.make()
        state.obj("x").observe_position(1)
        assert engine.undelivered_gap("x") == 1

    def test_no_gap_when_frontier_decided(self):
        state, engine, _ = self.make()
        engine.record_decision("x", 1, cmd(0, 0, ["x"]))
        assert engine.undelivered_gap("x") is None


class TestSelect:
    def test_empty_replies_force_nothing(self):
        eps = {("x", 1): 3}
        out = M2Paxos._select(eps, {1: {("x", 1): (None, 0, ())}})
        assert out[("x", 1)] == (None, 0, ())

    def test_highest_epoch_wins(self):
        a, b = cmd(0, 0, ["x"]), cmd(1, 0, ["x"])
        eps = {("x", 1): 5}
        replies = {
            1: {("x", 1): (a, 2, (("x", 1),))},
            2: {("x", 1): (b, 4, (("x", 1),))},
        }
        out = M2Paxos._select(eps, replies)
        assert out[("x", 1)] == (b, 4, (("x", 1),))

    def test_per_instance_independent(self):
        a, b = cmd(0, 0, ["x"]), cmd(1, 0, ["y"])
        eps = {("x", 1): 5, ("y", 1): 5}
        replies = {
            1: {("x", 1): (a, 1, (("x", 1),)), ("y", 1): (None, 0, ())},
            2: {("x", 1): (None, 0, ()), ("y", 1): (b, 3, (("y", 1),))},
        }
        out = M2Paxos._select(eps, replies)
        assert out[("x", 1)][0] == a
        assert out[("y", 1)][0] == b

    def test_carries_instance_set_of_winning_round(self):
        a = cmd(0, 0, ["x", "y"])
        fins = (("x", 1), ("y", 2))
        eps = {("x", 1): 5}
        replies = {1: {("x", 1): (a, 2, fins)}}
        out = M2Paxos._select(eps, replies)
        assert out[("x", 1)] == (a, 2, fins)
