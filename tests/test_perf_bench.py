"""The ``repro perf`` layer: schema, regression gates, CLI plumbing.

These run micro-scaled configs (fractions of the CI smoke) -- the point
is that every bench executes, the datapoint schema holds, and the
regression assertions mean what they say; the real numbers come from
``repro perf`` runs.  The serving arm's simulated sweep has a 0.4 s
saturated warm-up per arm that no scale knob shrinks (tens of seconds of
wall time), so only its floor logic is tested here; the geo arm's
driver is exercised in ``tests/test_geo.py``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.bench.perf import (
    BENCH_SCHEMA,
    BENCHES,
    PerfConfig,
    check_regressions,
    config_hash,
    run_perf,
    write_datapoint,
)

MICRO = PerfConfig(
    bench_duration=0.06,
    bench_warmup=0.12,
    telemetry_commands=45,
    telemetry_repeats=1,
    smoke=True,
)


def _datapoint(seed: int = MICRO.seed) -> dict:
    """A datapoint shaped like ``run_perf``'s, without running a bench."""
    config = replace(MICRO, seed=seed)
    return {
        "schema": BENCH_SCHEMA,
        "stamp": "20260927-000000",
        "smoke": True,
        "seed": seed,
        "config_hash": config_hash(config),
        "results": {"geo": {"remote_p50_improvement": 2.0}},
    }


def test_exactly_the_arms_perfbench_does_not_cover():
    assert list(BENCHES) == ["telemetry_overhead", "serving", "geo"]


def test_unknown_bench_rejected():
    with pytest.raises(ValueError, match="unknown bench"):
        run_perf(MICRO, only=["warp_drive"])


def test_telemetry_overhead_schema():
    datapoint = run_perf(MICRO, only=["telemetry_overhead"])
    assert datapoint["schema"] == BENCH_SCHEMA
    assert datapoint["smoke"] is True
    assert len(datapoint["config_hash"]) == 16
    telemetry = datapoint["results"]["telemetry_overhead"]
    assert telemetry["commands"] == 45
    assert telemetry["off"]["commands_per_sec"] > 0
    on = telemetry["on"]
    assert on["commands_per_sec"] > 0
    # The on arm actually ran the stack: its sampler cut frames.
    assert on["frames"] >= 1
    assert telemetry["overhead_ratio"] == pytest.approx(
        telemetry["off"]["commands_per_sec"] / on["commands_per_sec"]
    )
    # Micro scale is too noisy to assert the 1.05 CI floor here; the
    # smoke run enforces it.


def test_check_regressions_trips_on_costly_telemetry():
    datapoint = {"results": {"telemetry_overhead": {"overhead_ratio": 1.2}}}
    problems = check_regressions(datapoint)
    assert len(problems) == 1
    assert "telemetry" in problems[0]


def test_check_regressions_trips_on_slow_leased_reads():
    serving = {
        "read_local_speedup": 2.5,
        "headline_read_ratio": 0.9,
        "runtime": {"leased": {"reads_local": 10}},
    }
    # 2.5x clears the smoke floor (2x) but not the full-run floor (3x).
    assert check_regressions({"smoke": True, "results": {"serving": serving}}) == []
    problems = check_regressions({"results": {"serving": serving}})
    assert len(problems) == 1
    assert "leased local reads" in problems[0]
    serving["runtime"]["leased"]["reads_local"] = 0
    problems = check_regressions({"smoke": True, "results": {"serving": serving}})
    assert problems == ["serving: runtime leased arm served no local reads"]


def test_check_regressions_geo_floors():
    geo = {
        "zone_affinity": {"migrations": 12},
        "remote_p50_improvement": 2.0,
        "flex_remote_p50_improvement": 2.4,
        "flex_nearest_remote_p50_improvement": 3.7,
    }
    assert check_regressions({"results": {"geo": geo}}) == []
    broken = dict(
        geo,
        zone_affinity={"migrations": 0},
        remote_p50_improvement=float("nan"),
        flex_nearest_remote_p50_improvement=2.0,
    )
    problems = check_regressions({"results": {"geo": broken}})
    assert len(problems) == 3
    assert "no ownership migrations" in problems[0]
    assert "remote-region p50" in problems[1]
    assert "nearest-quorum" in problems[2]


def test_cli_perf_smoke(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    # The CLI's --smoke is CI-sized; shrink further for the test suite.
    monkeypatch.setattr(
        PerfConfig, "scaled_for_smoke", lambda self: MICRO, raising=True
    )
    out = tmp_path / "BENCH_cli.json"
    code = main(["perf", "telemetry_overhead", "--smoke", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert "telemetry overhead ratio" in stdout
    assert BENCH_SCHEMA in out.read_text()
    # At micro scale the 5% floor may or may not hold; the exit code
    # must say which.
    datapoint = json.loads(out.read_text())
    assert code == (1 if check_regressions(datapoint) else 0)


def test_config_hash_stable_and_config_sensitive():
    assert config_hash(MICRO) == config_hash(MICRO)
    smaller = replace(MICRO, telemetry_commands=MICRO.telemetry_commands - 1)
    assert config_hash(MICRO) != config_hash(smaller)


def test_write_datapoint_roundtrips(tmp_path):
    datapoint = _datapoint()
    path = write_datapoint(datapoint, str(tmp_path / "BENCH_test.json"))
    with open(path) as fh:
        assert json.load(fh) == datapoint


def test_write_datapoint_dedupes_reruns(tmp_path):
    path = str(tmp_path / "BENCH_full.json")
    first = _datapoint()
    first["tag"] = "old"
    write_datapoint(first, path)
    rerun = _datapoint()
    rerun["tag"] = "new"
    write_datapoint(rerun, path)
    with open(path) as fh:
        history = json.load(fh)
    # Same (config, seed, bench set): the rerun replaces, not appends.
    assert isinstance(history, list)
    assert len(history) == 1
    assert history[0]["tag"] == "new"

    write_datapoint(_datapoint(seed=7), path)
    with open(path) as fh:
        history = json.load(fh)
    assert len(history) == 2
    assert {d["seed"] for d in history} == {MICRO.seed, 7}
