"""Tests for the geo/WAN deployment: workload, bench arms, telemetry
labels, and the zone-boundary chaos scenario.

The full three-arm ``bench_geo`` with CI floors runs under
``repro perf``; here a single shrunk arm per interesting configuration
keeps the suite fast while still proving the moving parts: migrations
happen, per-zone telemetry labels are populated, and the migration arm
beats the pinned arm on remote-region latency even at smoke scale.
"""

import random

import pytest

from repro.bench.geo import GEO_ZONES, HOME_NODE, GeoZipfWorkload, run_geo_arm
from repro.bench.perf import PerfConfig
from repro.chaos import run_scenario
from repro.chaos.scenarios import by_name
from repro.core.policy import ZoneAffinityPolicy
from repro.core.quorum import FlexibleQuorums


def _mini_config() -> PerfConfig:
    # Small but big enough for the hot objects to earn their migration
    # during warmup and for the measured window to register decides in
    # every zone.
    return PerfConfig(geo_warmup=0.4, geo_duration=0.3)


class TestGeoZipfWorkload:
    def test_deterministic_per_seed(self):
        def stream(seed):
            wl = GeoZipfWorkload(GEO_ZONES, random.Random(seed))
            return [
                (node, tuple(wl.next_command(node).ls))
                for _ in range(50)
                for node in range(5)
            ]

        assert stream(7) == stream(7)
        assert stream(7) != stream(8)

    def test_affinity_keeps_traffic_zone_local(self):
        wl = GeoZipfWorkload(GEO_ZONES, random.Random(3), affinity=0.9)
        local = total = 0
        for _ in range(400):
            for node in range(5):
                (obj,) = wl.next_command(node).ls
                total += 1
                if obj.startswith(f"z{GEO_ZONES[node]}."):
                    local += 1
        assert local / total > 0.8

    def test_pool_namespaces_per_zone(self):
        wl = GeoZipfWorkload(GEO_ZONES, random.Random(1), objects_per_zone=4)
        names = wl.all_objects()
        assert len(names) == 12
        assert all(name[1] in "012" for name in names)


@pytest.fixture(scope="module")
def pinned_arm():
    return run_geo_arm(_mini_config())


@pytest.fixture(scope="module")
def affinity_flex_arm():
    return run_geo_arm(
        _mini_config(),
        policy=lambda: ZoneAffinityPolicy(GEO_ZONES),
        quorum=FlexibleQuorums(prepare=4, accept=2),
    )


class TestGeoArms:
    def test_pinned_arm_never_migrates(self, pinned_arm):
        assert pinned_arm["migrations"] == 0
        # Remote regions pay WAN forwarding against the home region.
        assert pinned_arm["remote_p50_ms"] > pinned_arm["home_p50_ms"]

    def test_per_zone_telemetry_labels_populated(self, pinned_arm):
        per_zone = pinned_arm["per_zone"]
        assert set(per_zone) == {"0", "1", "2"}
        for row in per_zone.values():
            assert row["decides"] > 0
            assert row["p50_ms"] > 0

    def test_affinity_flex_arm_migrates_and_wins(
        self, pinned_arm, affinity_flex_arm
    ):
        assert affinity_flex_arm["migrations"] > 0
        # After migration + intra-zone accept quorums, the remote
        # regions' p50 must beat static home placement outright.
        assert (
            affinity_flex_arm["remote_p50_ms"] < pinned_arm["remote_p50_ms"]
        )

    def test_all_zones_keep_deciding_after_migration(self, affinity_flex_arm):
        for row in affinity_flex_arm["per_zone"].values():
            assert row["decides"] > 0

    def test_cross_zone_accounting_populated(self, pinned_arm):
        # The network layer attributes WAN traffic: with 3 zones some
        # but not all messages cross a boundary.  (Message *share* is
        # not asserted to drop under migration: Decide broadcasts still
        # go cluster-wide, so the win shows up in latency, not count.)
        assert 0 < pinned_arm["cross_zone_messages"] < pinned_arm["messages_sent"]
        assert 0 < pinned_arm["cross_zone_bytes"]


class TestGeoChaosScenario:
    def test_zone_partition_scenario_safe_and_deterministic(self):
        scenario = by_name("geo-zone-partition")
        assert scenario.cluster.zones == GEO_ZONES
        first = run_scenario(scenario)
        assert first.ok, first.report.violations
        second = run_scenario(scenario)
        assert second.fingerprint == first.fingerprint


def test_home_node_is_in_home_zone():
    assert GEO_ZONES[HOME_NODE] == GEO_ZONES[0]
