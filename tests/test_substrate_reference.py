"""The simulator substrate against the code it replaced.

PR 18 rewrote the per-message arithmetic of the simulator (the size
estimate, the CPU model's core pick, how events carry their arguments)
under the rule that nothing observable moves.  The replaced
implementations live on here as oracles; each property requires the new
code to agree with them *exactly* -- sizes as ints, completion times
with ``==``.
"""

from __future__ import annotations

import random
import typing
from dataclasses import dataclass, fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.base import Message, Protocol, handles
from repro.consensus.commands import Command
from repro.sim.cluster import Cluster
from repro.sim.cpu import CpuConfig, CpuModel
from repro.sim.latency import FixedLatency
from repro.sim.network import NetworkConfig
from repro.spec import ClusterSpec
from tests.test_codec_fuzz import _message_classes, _sample, random_message

# ----------------------------------------------------------------------
# (i) Message.size_bytes == the recursive isinstance ladder
# ----------------------------------------------------------------------


def reference_size(value: object) -> int:
    """``consensus.base._estimate_size`` as it was before PR 18."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, Command):
        return value.size_bytes()
    if isinstance(value, (list, tuple, set, frozenset)):
        return 4 + sum(reference_size(v) for v in value)
    if isinstance(value, dict):
        return 4 + sum(reference_size(k) + reference_size(v) for k, v in value.items())
    if hasattr(value, "__dataclass_fields__"):
        return sum(reference_size(getattr(value, f.name)) for f in fields(value))
    return 8


@dataclass(frozen=True)
class _TaggedCommand(Command):
    """A ``Command`` subclass: exact-type dispatch has no entry for it
    and must fall back to how its base is sized (its *own*
    ``size_bytes``, not a walk over its dataclass fields)."""

    tag: str = "t"

    def size_bytes(self) -> int:
        return super().size_bytes() + len(self.tag)


class _Point(typing.NamedTuple):
    x: int
    label: str


@dataclass(frozen=True)
class _Inner:
    label: str
    weights: tuple = ()
    extra: object = None


@dataclass(frozen=True)
class _Envelope(Message):
    payload: object
    note: str = ""


class _Opaque:
    """Neither a scalar, a collection nor a dataclass: 8 bytes."""


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.builds(
        lambda p, s, objs, tag: _TaggedCommand(cid=(p, s), ls=frozenset(objs), tag=tag),
        st.integers(0, 9),
        st.integers(0, 999),
        st.sets(st.sampled_from(["a", "b", "w1.s3"]), min_size=1),
        st.text(max_size=5),
    ),
    st.builds(lambda p, s: Command.make(p, s, ["o"]), st.integers(0, 9), st.integers(0, 99)),
    st.builds(_Point, st.integers(), st.text(max_size=4)),
    st.just(_Opaque()),
)
_hashable = st.one_of(st.integers(), st.text(max_size=6), st.tuples(st.text(max_size=4), st.integers()))
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.frozensets(_hashable, max_size=4),
        st.sets(_hashable, max_size=4),
        st.dictionaries(_hashable, children, max_size=4),
        st.builds(_Inner, st.text(max_size=6), st.lists(children, max_size=3).map(tuple), children),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(payload=_values, note=st.text(max_size=8))
def test_size_matches_the_reference_on_nested_values(payload, note):
    message = _Envelope(payload=payload, note=note)
    assert message.size_bytes() == Message.TAG_BYTES + reference_size(message)
    assert message.size_bytes() == message.size_bytes()  # cached, same answer


@pytest.mark.parametrize("cls", _message_classes(), ids=lambda cls: cls.__name__)
def test_size_matches_the_reference_for_every_message_class(cls):
    hints = typing.get_type_hints(cls)
    message = cls(**{f.name: _sample(hints[f.name]) for f in fields(cls)})
    assert message.size_bytes() == Message.TAG_BYTES + reference_size(message)


@pytest.mark.parametrize("seed", range(4))
def test_size_matches_the_reference_on_fuzzed_m2paxos_messages(seed):
    rng = random.Random(seed * 7919 + 5)
    for _ in range(100):
        message = random_message(rng)
        assert message.size_bytes() == Message.TAG_BYTES + reference_size(message)


# ----------------------------------------------------------------------
# (ii) CpuModel.submit == min(range(cores), key=...) and max()
# ----------------------------------------------------------------------


class ReferenceCpu:
    """``sim.cpu.CpuModel.submit`` as it was before PR 18."""

    def __init__(self, config: CpuConfig) -> None:
        self.config = config
        self._core_free = [0.0] * config.cores
        self._lock_free = 0.0
        self.busy_time = 0.0

    def submit(self, now: float, cost: float, serial_fraction: float) -> float:
        serial = cost * serial_fraction
        parallel = cost - serial
        start_serial = max(now, self._lock_free)
        end_serial = start_serial + serial
        self._lock_free = end_serial
        idx = min(range(len(self._core_free)), key=self._core_free.__getitem__)
        start_parallel = max(end_serial, self._core_free[idx])
        end = start_parallel + parallel
        self._core_free[idx] = end
        self.busy_time += cost
        return end


# Costs and gaps from a small grid, so equal core-free times (ties on
# the core pick) and arrivals exactly at a completion time are common.
_jobs = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1e-6, 160e-6, 0.008]),  # gap to the next arrival
        st.sampled_from([0.0, 0.25e-6, 160e-6, 160e-6, 0.008]),  # cost
        st.sampled_from([0.0, 0.02, 0.05, 0.5, 1.0]),  # serial fraction
    ),
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(
    cores=st.integers(1, 32),
    jobs=_jobs,
)
def test_cpu_model_matches_the_reference(cores, jobs):
    config = CpuConfig(cores=cores)
    new, old = CpuModel(config), ReferenceCpu(config)
    now = 0.0
    for gap, cost, serial_fraction in jobs:
        now += gap
        assert new.submit(now, cost, serial_fraction) == old.submit(now, cost, serial_fraction)
    assert new.busy_time == old.busy_time
    assert new._core_free == old._core_free
    assert new._lock_free == old._lock_free


# ----------------------------------------------------------------------
# (iii) work charged to a dead incarnation never runs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Ping(Message):
    n: int


class _Recorder(Protocol):
    """Records what it handles, and when (virtual time)."""

    def __init__(self) -> None:
        super().__init__()
        self.handled: list[tuple[int, float]] = []

    @handles(_Ping)
    def _on_ping(self, sender: int, message: _Ping) -> None:
        self.handled.append((message.n, self.env.now()))

    def propose(self, command: Command) -> None:
        self.handled.append((command.cid[1], self.env.now()))


def _two_nodes() -> Cluster:
    config = ClusterSpec(n_nodes=2, network=NetworkConfig(latency=FixedLatency(100e-6)))
    cluster = Cluster(config, lambda node_id, n: _Recorder())
    cluster.start()
    return cluster


def _ping_and_propose(cluster: Cluster) -> float:
    """At t=0 node 0 sends node 1 a ``_Ping`` and node 1 gets a
    proposal; returns when the ping reaches node 1."""
    cluster.nodes[0].env.send(1, _Ping(1))
    cluster.nodes[1].propose(Command.make(1, 7, ["o"]))
    return 100e-6 + cluster.network.transmission_delay(_Ping(1).size_bytes())


def test_handlers_run_when_their_cpu_charge_completes():
    cluster = _two_nodes()
    arrival = _ping_and_propose(cluster)
    cluster.run()
    (first, proposed_at), (second, pinged_at) = cluster.nodes[1].protocol.handled
    assert (first, second) == (7, 1)
    assert arrival + 10e-6 < proposed_at < pinged_at  # what the crash cases rely on


@pytest.mark.parametrize("restart", [False, True], ids=["crashed", "crashed-then-restarted"])
def test_crash_between_arrival_and_cpu_completion_never_runs_the_handler(restart):
    cluster = _two_nodes()
    node = cluster.nodes[1]
    arrival = _ping_and_propose(cluster)
    cluster.run_until(arrival + 10e-6)
    # The ping arrived and was charged; both completions are queued.
    assert cluster.network.messages_delivered == 1
    assert cluster.loop.pending() == 2 and node.protocol.handled == []
    old = node.protocol
    node.crash()
    if restart:
        cluster.run_until(arrival + 20e-6)
        node.restart(_Recorder(), "amnesia")  # next incarnation
        assert not node.crashed and node.incarnation == 1
    cluster.run()
    assert cluster.loop.pending() == 0 and old.handled == node.protocol.handled == []
    if restart:  # the new incarnation is live: new work does run
        cluster.nodes[0].env.send(1, _Ping(2))
        cluster.run()
        assert [n for n, _at in node.protocol.handled] == [2]
