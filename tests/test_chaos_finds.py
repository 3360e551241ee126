"""Defects the chaos harness has found and not yet fixed, each as a
strict xfail with its whole plan in code.

Each test asserts the scenario passes; it fails today for the reason
its marker names.  A fix flips it to an unexpected pass, which fails
the suite until the marker goes.  The event budget of ``run_scenario``
bounds the livelocks, so every case finishes in a few seconds.
"""

from dataclasses import replace

import pytest

from repro.chaos import (
    NO_FAULTS,
    Crash,
    DelayWindow,
    FaultPlan,
    PartitionWindow,
    Scenario,
    run_scenario,
)
from repro.chaos.runner import CHAOS_CLUSTER
from repro.storage.base import StorageConfig

FSYNC_5MS = StorageConfig(kind="mem", fsync_wait=0.005)
"""An in-memory store whose group commit waits 5 ms, as a disk would."""


def failures(scenario: Scenario) -> list[str]:
    return run_scenario(scenario).report.violations


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a blank incarnation votes at once and contradicts a decision: 'already decided'",
)
def test_amnesia_restart_after_a_partition_keeps_safety():
    scenario = Scenario(
        name="find-amnesia-partition",
        cluster=replace(CHAOS_CLUSTER, n_nodes=3, seed=16),
        objects=3,
        locality=0.5,
        multi=0.2,
        rounds=30,
        plan=FaultPlan(
            crashes=(Crash(at=0.3815, node=1, restart_at=0.4528, mode="amnesia"),),
            partitions=(PartitionWindow(0.0035, 0.2313, frozenset({2}), frozenset({0, 1})),),
        ),
    )
    violations = failures(scenario)
    assert not violations, violations


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="two commands decided in a cycle across objects: 14 commands never deliver",
)
def test_restart_partition_and_delay_decide_no_cycle():
    scenario = Scenario(
        name="find-decided-cycle",
        cluster=replace(CHAOS_CLUSTER, n_nodes=3, seed=82),
        objects=3,
        locality=0.5,
        multi=0.3,
        rounds=30,
        plan=FaultPlan(
            crashes=(Crash(at=0.1868, node=1, restart_at=0.3838),),
            partitions=(PartitionWindow(0.4741, 0.6941, frozenset({0}), frozenset({1, 2})),),
            delays=(DelayWindow(0.5479, 0.7479, extra=0.02224, jitter=0.02914),),
        ),
    )
    violations = failures(scenario)
    assert not violations, violations


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a 5 ms fsync makes hole-filling an ownership duel that exhausts the event budget",
)
def test_three_nodes_on_a_5ms_store_fill_their_holes():
    scenario = Scenario(
        name="find-fsync-duel-3-nodes",
        cluster=replace(CHAOS_CLUSTER, n_nodes=3, seed=0, storage=FSYNC_5MS),
        objects=3,
        locality=0.5,
        multi=0.3,
        rounds=30,
        plan=NO_FAULTS,
    )
    violations = failures(scenario)
    assert not violations, violations


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a 5 ms fsync makes hole-filling an ownership duel that exhausts the event budget",
)
def test_the_default_chaos_cluster_on_a_5ms_store_fills_its_holes():
    scenario = Scenario(
        name="find-fsync-duel-chaos-default",
        cluster=replace(CHAOS_CLUSTER, seed=7, storage=FSYNC_5MS),
        plan=NO_FAULTS,
    )
    violations = failures(scenario)
    assert not violations, violations
