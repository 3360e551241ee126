"""Fast-path batching: equivalence, safety under faults, retry paths.

The batched Accept round must be an *optimisation only*: positions are
reserved at enqueue time in submission order, so for every object the
decided sequence of commands is identical whether rounds carry one
command or eight.  These tests drive identical seeded workloads through
``max_batch=1`` and ``max_batch=8`` clusters and compare the per-object
delivery projections, then rerun the chaos smoke suite with batching on.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.chaos.runner import run_scenario
from repro.chaos.scenarios import SMOKE, by_name
from repro.consensus.commands import Command
from repro.core.protocol import M2Paxos, M2PaxosConfig
from tests.conftest import assert_all_delivered, make_cluster, run_workload


def _run(max_batch: int, seed: int, locality: float = 1.0):
    config = M2PaxosConfig(
        max_batch=max_batch,
        batch_wait=1e-3 if max_batch > 1 else 0.0,
    )
    cluster = make_cluster(
        lambda node_id, n: M2Paxos(config), n_nodes=5, seed=seed
    )
    pool = [f"obj{i}" for i in range(10)]

    def picker(rng: random.Random, node: int, round_nr: int):
        if rng.random() < locality:
            return [pool[node % len(pool)]]
        return [rng.choice(pool)]

    proposed = run_workload(
        cluster, commands_per_node=30, object_picker=picker,
        seed=seed, spacing=0.004,
    )
    assert_all_delivered(cluster, proposed)
    return cluster, proposed


def _per_object_orders(cluster) -> dict[int, dict[str, list[tuple[int, int]]]]:
    """For each node: object -> the cid sequence delivered touching it."""
    orders: dict[int, dict[str, list[tuple[int, int]]]] = {}
    for node in range(cluster.config.n_nodes):
        by_object: dict[str, list[tuple[int, int]]] = {}
        for command in cluster.delivered(node):
            for obj in command.ls:
                by_object.setdefault(obj, []).append(command.cid)
        orders[node] = by_object
    return orders


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_batched_per_object_order_matches_unbatched(seed):
    plain, _ = _run(max_batch=1, seed=seed)
    batched, _ = _run(max_batch=8, seed=seed)
    assert _per_object_orders(plain) == _per_object_orders(batched)


def _run_burst(max_batch: int):
    """Each node fires 16 fast-path commands back to back -- the
    saturation shape batching exists for."""
    config = M2PaxosConfig(
        max_batch=max_batch, batch_wait=1e-3 if max_batch > 1 else 0.0
    )
    cluster = make_cluster(
        lambda node_id, n: M2Paxos(config), n_nodes=5, seed=3
    )
    proposed = []
    for node in range(5):
        for i in range(16):
            command = Command.make(node, i, [f"mine{node}"])
            proposed.append(command)
            cluster.propose(node, command)
    cluster.run_for(10.0)
    assert_all_delivered(cluster, proposed)
    return cluster


def test_batching_reduces_messages_on_bursty_workload():
    plain = _run_burst(max_batch=1)
    batched = _run_burst(max_batch=8)
    assert batched.network.messages_sent < plain.network.messages_sent
    assert _per_object_orders(plain) == _per_object_orders(batched)


@pytest.mark.parametrize("seed", [5, 11])
def test_mixed_locality_stays_equivalent(seed):
    """Forward/acquisition traffic interleaved with batched fast-path
    rounds must not perturb any per-object order."""
    plain, _ = _run(max_batch=1, seed=seed, locality=0.6)
    batched, _ = _run(max_batch=8, seed=seed, locality=0.6)
    assert _per_object_orders(plain) == _per_object_orders(batched)


def test_batched_run_is_deterministic():
    first, _ = _run(max_batch=8, seed=9)
    second, _ = _run(max_batch=8, seed=9)
    assert [c.cid for c in first.delivered(0)] == [
        c.cid for c in second.delivered(0)
    ]


@pytest.mark.parametrize("name", SMOKE)
def test_chaos_smoke_passes_with_batching(name):
    """Crash/partition/wire-fault scenarios stay safe and deterministic
    with multi-command Accept rounds in flight."""
    scenario = by_name(name)
    cluster = scenario.cluster
    m2 = replace(cluster.m2, max_batch=8, batch_wait=1e-3)
    scenario = replace(scenario, cluster=replace(cluster, m2=m2))
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert first.ok, first.report.violations
    assert second.ok, second.report.violations
    assert first.fingerprint == second.fingerprint


def test_batch_wait_timer_flushes_partial_batch():
    """A lone command must not wait for the batch to fill: the
    batch_wait timer flushes it."""
    config = M2PaxosConfig(max_batch=64, batch_wait=2e-3)
    cluster = make_cluster(
        lambda node_id, n: M2Paxos(config), n_nodes=3, seed=0
    )
    command = Command.make(0, 1, ["solo"])
    cluster.propose(0, command)
    cluster.run_for(0.5)
    assert command.cid in {c.cid for c in cluster.delivered(0)}


def test_nack_retries_every_batch_member():
    """If a batched round is NACKed, every command in it must still be
    decided eventually (the retry path walks the whole batch)."""
    config = M2PaxosConfig(max_batch=4, batch_wait=1e-3)
    cluster = make_cluster(
        lambda node_id, n: M2Paxos(config), n_nodes=5, seed=2
    )
    # Two nodes race batches on the same objects: the losers' rounds see
    # epoch NACKs and must re-drive each batched command.
    proposed = []
    for node in (0, 1):
        for i in range(8):
            command = Command.make(node, i, [f"hot{i % 2}"])
            proposed.append(command)
            cluster.propose(node, command)
    cluster.run_for(10.0)
    assert_all_delivered(cluster, proposed)
