"""Property-based tests for the C-struct delivery engine.

The engine's contract: feed per-instance decisions in ANY order and the
delivered sequence (a) contains each non-no-op command at most once,
(b) respects every object's position order, and (c) is invariant to the
order decisions arrive in, whenever the decision set is deliverable at
all.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.consensus.commands import Command, make_noop
from repro.core.delivery import DeliveryEngine
from repro.core.state import M2PaxosState

OBJECTS = ["a", "b", "c"]


def build_engine():
    state = M2PaxosState()
    delivered = []
    engine = DeliveryEngine(state, delivered.append)
    return state, engine, delivered


@st.composite
def decision_sets(draw):
    """A consistent set of decisions: commands packed contiguously into
    per-object logs, multi-object commands aligned by construction (one
    atomic round each), with occasional no-ops."""
    n_commands = draw(st.integers(1, 10))
    positions = {obj: 0 for obj in OBJECTS}
    decisions = []  # (obj, position, command)
    for seq in range(n_commands):
        objs = draw(
            st.sets(st.sampled_from(OBJECTS), min_size=1, max_size=2)
        )
        if draw(st.booleans()) and len(objs) == 1:
            command = make_noop(next(iter(objs)), 0, seq)
        else:
            command = Command.make(0, seq, objs)
        for obj in sorted(command.ls):
            positions[obj] += 1
            decisions.append((obj, positions[obj], command))
    return decisions


@settings(max_examples=120, deadline=None)
@given(decisions=decision_sets(), seed=st.integers(0, 2**16))
def test_delivery_respects_positions_any_arrival_order(decisions, seed):
    state, engine, delivered = build_engine()
    shuffled = list(decisions)
    random.Random(seed).shuffle(shuffled)
    for obj, position, command in shuffled:
        engine.record_decision(obj, position, command)
        engine.pump(dirty=[obj])
    engine.pump()

    # (a) no duplicates, no no-ops delivered.
    cids = [c.cid for c in delivered]
    assert len(cids) == len(set(cids))
    assert all(not c.noop for c in delivered)

    # (b) per-object delivered order matches decided position order.
    for obj in OBJECTS:
        expected = [
            command.cid
            for (o, position, command) in sorted(
                decisions, key=lambda d: d[1]
            )
            if o == obj and not command.noop
        ]
        got = [c.cid for c in delivered if obj in c.ls]
        assert got == expected

    # (c) with contiguous aligned decisions, everything deliverable.
    non_noop = {c.cid for (_o, _p, c) in decisions if not c.noop}
    assert set(cids) == non_noop


@settings(max_examples=60, deadline=None)
@given(decisions=decision_sets(), seed_a=st.integers(0, 999), seed_b=st.integers(0, 999))
def test_arrival_order_invariance(decisions, seed_a, seed_b):
    outcomes = []
    for seed in (seed_a, seed_b):
        _state, engine, delivered = build_engine()
        shuffled = list(decisions)
        random.Random(seed).shuffle(shuffled)
        for obj, position, command in shuffled:
            engine.record_decision(obj, position, command)
        engine.pump()
        # Compare per-object restrictions (commuting commands may
        # interleave differently, conflicting ones may not).
        outcomes.append(
            {
                obj: tuple(c.cid for c in delivered if obj in c.ls)
                for obj in OBJECTS
            }
        )
    assert outcomes[0] == outcomes[1]


@settings(max_examples=120, deadline=None)
@given(
    decisions=decision_sets(),
    seed=st.integers(0, 2**16),
    twice=st.integers(0, 9),
    cut=st.integers(0, 30),
)
def test_decision_log_views_agree_with_the_scans_they_replace(
    decisions, seed, twice, cut
):
    """``decided_index`` / ``max_decided`` / the tail walk are kept by the
    log's write path; the linear scans they replaced are the reference.
    One command is additionally decided at a second position of its
    first object (a NACKed round forced to completion after the retry),
    decisions arrive in any order, and delivery -- which retires
    instances but never decisions -- runs on a prefix of them."""
    state, engine, _delivered = build_engine()
    obj, _position, again = decisions[twice % len(decisions)]
    top = max(p for o, p, _c in decisions if o == obj)
    shuffled = decisions + [(obj, top + 1, again)]
    random.Random(seed).shuffle(shuffled)
    for step, (l, position, command) in enumerate(shuffled):
        engine.record_decision(l, position, command)
        if step < cut:
            engine.pump(dirty=[l])
    commands = {c.cid: c for _o, _p, c in decisions}
    for l in OBJECTS + ["never-touched"]:
        dense = state.objects[l].decided if l in state.objects else []
        log = {p: c for p, c in enumerate(dense, 1) if c is not None}
        for command in commands.values():
            scan = any(c.cid == command.cid for c in log.values())
            assert state.is_decided_for(l, command) == scan
            if scan:
                assert log[state.lowest(l, command)].cid == command.cid
        if l in state.objects:
            assert state.objects[l].max_decided == max(log, default=0)
        for start in range(1, len(log) + 3):
            assert state.positions_with_activity(l, start) == sorted(
                p for p in log if p >= start
            )
    for command in commands.values():
        found = state.instances_of(command)
        assert all(state.decided_at(inst).cid == command.cid for inst in found)
        assert [l for l, _p in found] == sorted(
            l for l in command.ls if state.is_decided_for(l, command)
        )
