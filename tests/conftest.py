"""Shared test helpers: cluster builders and workload drivers."""

from __future__ import annotations

import random

import pytest

from repro.consensus.commands import Command
from repro.consensus.epaxos import EPaxos
from repro.consensus.genpaxos import GenPaxos
from repro.consensus.multipaxos import MultiPaxos
from repro.core.protocol import M2Paxos
from repro.core.state import DERIVED, DURABLE, declared
from repro.sim.cluster import Cluster
from repro.spec import ClusterSpec

PROTOCOL_FACTORIES = {
    "m2paxos": lambda node_id, n: M2Paxos(),
    "multipaxos": lambda node_id, n: MultiPaxos(),
    "genpaxos": lambda node_id, n: GenPaxos(),
    "epaxos": lambda node_id, n: EPaxos(),
}


@pytest.fixture(params=sorted(PROTOCOL_FACTORIES))
def any_protocol_factory(request):
    """Parametrised over all protocol implementations."""
    return PROTOCOL_FACTORIES[request.param]


def make_cluster(factory, n_nodes=5, seed=0, **kwargs) -> Cluster:
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes, seed=seed, **kwargs), factory)
    cluster.start()
    return cluster


def run_workload(
    cluster: Cluster,
    commands_per_node: int,
    object_picker,
    seed: int = 0,
    spacing: float = 0.01,
    settle: float = 10.0,
) -> list[Command]:
    """Propose ``commands_per_node`` rounds; return all proposed commands.

    ``object_picker(rng, node, round) -> iterable of object names``.
    """
    rng = random.Random(seed)
    n = cluster.config.n_nodes
    proposed: list[Command] = []
    for round_nr in range(commands_per_node):
        for node in range(n):
            objs = object_picker(rng, node, round_nr)
            command = Command.make(node, round_nr, objs)
            proposed.append(command)
            cluster.propose(node, command)
        cluster.run_for(spacing)
    cluster.run_for(settle)
    return proposed


def assert_all_delivered(cluster: Cluster, proposed: list[Command]) -> None:
    cluster.check_consistency()
    delivered = cluster.all_delivered_cids()
    missing = [c for c in proposed if c.cid not in delivered]
    assert not missing, f"{len(missing)} commands never delivered: {missing[:5]}"
    for node in range(cluster.config.n_nodes):
        cids = {c.cid for c in cluster.delivered(node)}
        assert cids == {c.cid for c in proposed}, (
            f"node {node} delivered {len(cids)} of {len(proposed)}"
        )


def kept_state(record) -> dict:
    """Every field a restart keeps -- declared durable or derived -- of
    an M2Paxos node's state (pass ``protocol.state``), with each object
    and instance replaced by its own kept fields."""
    kept = {}
    for kind in (DURABLE, DERIVED):
        for f in declared(type(record), kind):
            value = getattr(record, f.name)
            if f.metadata["entry"] is not None:
                value = {key: kept_state(item) for key, item in value.items()}
            kept[f.name] = value
    return kept


def assert_same_kept_state(a: dict, b: dict) -> None:
    """``a`` and ``b`` agree on every durable and derived field but the
    round-id counter ``req``: no log record carries it, and a store
    recovery only estimates it (``NodeState.replayed``)."""
    assert {**a, "req": None} == {**b, "req": None}
