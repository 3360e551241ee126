"""Self-time accounting of the span recorder, on a fake clock."""

import pytest

from perfbench.tracer import Tracer


def test_self_time_is_duration_minus_children():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 4.0

    traced_leaf = tracer._wrap(leaf, "leaf", None)

    def parent():
        now[0] += 1.0
        traced_leaf()
        traced_leaf()
        now[0] += 1.0

    traced_parent = tracer._wrap(parent, "parent", None)
    tracer.mark()
    traced_parent()
    tracer.mark()
    seconds, calls = tracer.self_times([2.0])  # wall -> reference factor
    assert seconds == pytest.approx({"parent": 4.0, "leaf": 16.0})
    assert calls == {"parent": 1, "leaf": 2}
    assert tracer.parents == [-1, 0, 0]


def test_patches_are_restored():
    from repro.core.protocol import M2Paxos
    from repro.runtime import codec

    before = (codec.decode_message, M2Paxos.propose, "propose" in vars(M2Paxos))
    with Tracer():
        assert codec.decode_message is not before[0]
    assert (codec.decode_message, M2Paxos.propose, "propose" in vars(M2Paxos)) == before
