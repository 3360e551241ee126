"""Property-based tests (hypothesis).

Two layers:

- data-structure properties: C-struct compatibility, percentile
  invariants, CPU-model monotonicity;
- whole-protocol properties: for randomly generated workloads and
  network schedules, every protocol satisfies the Generalized Consensus
  safety properties and (given quiet time) delivers everything.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.consensus.commands import Command, CStruct
from repro.core.protocol import M2Paxos, M2PaxosConfig
from repro.metrics.stats import percentile
from repro.sim.cpu import CpuConfig, CpuModel
from repro.sim.cluster import Cluster
from repro.sim.latency import UniformLatency
from repro.sim.network import NetworkConfig
from repro.spec import ClusterSpec

from tests.conftest import PROTOCOL_FACTORIES

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

OBJECTS = ["a", "b", "c"]


def command_strategy(proposers=3):
    return st.builds(
        lambda proposer, seq, objs: Command.make(proposer, seq, objs),
        st.integers(0, proposers - 1),
        st.integers(0, 10_000),
        st.sets(st.sampled_from(OBJECTS), min_size=1, max_size=2),
    )


# ----------------------------------------------------------------------
# Data-structure properties
# ----------------------------------------------------------------------


class TestCStructProperties:
    @given(st.lists(command_strategy(), max_size=12, unique_by=lambda c: c.cid))
    def test_restriction_preserves_relative_order(self, commands):
        cs = CStruct()
        for command in commands:
            cs.append(command)
        for obj in OBJECTS:
            restricted = cs.restricted_to(obj)
            indices = [cs.commands.index(c) for c in restricted]
            assert indices == sorted(indices)

    @given(st.lists(command_strategy(), max_size=10, unique_by=lambda c: c.cid))
    def test_compatibility_is_reflexive_and_symmetric(self, commands):
        cs = CStruct()
        for command in commands:
            cs.append(command)
        assert cs.is_prefix_compatible(cs)
        other = CStruct()
        for command in commands[: len(commands) // 2]:
            other.append(command)
        assert cs.is_prefix_compatible(other) == other.is_prefix_compatible(cs)

    @given(
        st.lists(command_strategy(), min_size=2, max_size=10, unique_by=lambda c: c.cid)
    )
    def test_swapping_adjacent_commuting_commands_stays_compatible(self, commands):
        cs1 = CStruct()
        for command in commands:
            cs1.append(command)
        # Find an adjacent commuting pair and swap it.
        order = list(commands)
        for i in range(len(order) - 1):
            if not order[i].conflicts(order[i + 1]):
                order[i], order[i + 1] = order[i + 1], order[i]
                break
        cs2 = CStruct()
        for command in order:
            cs2.append(command)
        assert cs1.is_prefix_compatible(cs2)


class TestStatsProperties:
    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200), st.floats(0, 100))
    def test_percentile_bounded_by_min_max(self, values, q):
        result = percentile(values, q)
        assert min(values) <= result <= max(values)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    def test_percentile_monotone_in_q(self, values):
        qs = [0, 25, 50, 75, 100]
        results = [percentile(values, q) for q in qs]
        assert results == sorted(results)


class TestCpuModelProperties:
    @given(
        st.lists(st.floats(1e-6, 1e-3), min_size=1, max_size=50),
        st.integers(1, 32),
        st.floats(0, 1),
    )
    def test_completion_never_before_arrival_plus_cost(self, costs, cores, serial):
        cpu = CpuModel(CpuConfig(cores=cores))
        now = 0.0
        for cost in costs:
            done = cpu.submit(now, cost, serial)
            assert done >= now + cost - 1e-12

    @given(st.lists(st.floats(1e-6, 1e-3), min_size=1, max_size=50))
    def test_more_cores_never_slower(self, costs):
        few = CpuModel(CpuConfig(cores=2))
        many = CpuModel(CpuConfig(cores=8))
        few_done = max(few.submit(0.0, c, 0.0) for c in costs)
        many_done = max(many.submit(0.0, c, 0.0) for c in costs)
        assert many_done <= few_done + 1e-12


# ----------------------------------------------------------------------
# Whole-protocol properties
# ----------------------------------------------------------------------


def run_random_schedule(factory, commands, seed, jitter):
    """Drive a 5-node cluster with a random proposal schedule."""
    cluster = Cluster(
        ClusterSpec(
            n_nodes=5,
            seed=seed,
            network=NetworkConfig(
                latency=UniformLatency(50e-6, 50e-6 + jitter), batching=True
            ),
        ),
        factory,
    )
    cluster.start()
    rng = random.Random(seed)
    for command in commands:
        cluster.propose(command.proposer, command)
        cluster.run_for(rng.random() * 0.01)
    cluster.run_for(30.0)
    return cluster


protocol_names = st.sampled_from(sorted(PROTOCOL_FACTORIES))


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=protocol_names,
    seed=st.integers(0, 2**16),
    commands=st.lists(
        command_strategy(proposers=5),
        min_size=1,
        max_size=12,
        unique_by=lambda c: c.cid,
    ),
    jitter=st.floats(0, 200e-6),
)
def test_generalized_consensus_properties(name, seed, commands, jitter):
    """Non-triviality, Stability (implied by append-only delivery logs),
    Consistency, and quiet-time liveness for random workloads."""
    factory = PROTOCOL_FACTORIES[name]
    cluster = run_random_schedule(factory, commands, seed, jitter)

    # Consistency (raises on violation).
    cluster.check_consistency()

    proposed_cids = {c.cid for c in commands}
    for node in range(5):
        delivered = cluster.delivered(node)
        # Non-triviality: only proposed commands are delivered.
        assert {c.cid for c in delivered} <= proposed_cids
        # No duplicates.
        assert len({c.cid for c in delivered}) == len(delivered)
    # Liveness after quiet time: everything proposed was delivered
    # everywhere.
    for node in range(5):
        assert {c.cid for c in cluster.delivered(node)} == proposed_cids


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    commands=st.lists(
        command_strategy(proposers=5),
        min_size=1,
        max_size=10,
        unique_by=lambda c: c.cid,
    ),
)
def test_m2paxos_safety_under_message_loss(seed, commands):
    """With transient message drops, M2Paxos stays safe and -- thanks to
    retries and gap recovery -- still delivers everything."""
    config = M2PaxosConfig(gap_timeout=0.3, gap_check_period=0.15)
    cluster = Cluster(
        ClusterSpec(
            n_nodes=5,
            seed=seed,
            network=NetworkConfig(drop_probability=0.03),
        ),
        lambda i, n: M2Paxos(config),
    )
    cluster.start()
    rng = random.Random(seed)
    for command in commands:
        cluster.propose(command.proposer, command)
        cluster.run_for(rng.random() * 0.01)
    cluster.run_for(60.0)
    cluster.check_consistency()
    proposed_cids = {c.cid for c in commands}
    for node in range(5):
        assert {c.cid for c in cluster.delivered(node)} == proposed_cids
