"""BENCHMARK.json against the code, and a --quick smoke of every
workload through the contract's command line."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import report, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SCHEMA = report.load_schema()


def run_quick(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [
            sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload, "--seed", "2", "--seconds", "1",
            "--trace", str(trace), "--quick",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_names_and_keys():
    assert set(SCHEMA) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SCHEMA["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SCHEMA["end_to_end"] + SCHEMA["per_layer"]]
    names += [w["name"] for w in SCHEMA["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in SCHEMA["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SCHEMA["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SCHEMA["end_to_end"] if m["name"] == "setup_s"
    ).items()
    for metric in SCHEMA["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_quick_smoke(workload):
    done = run_quick(workload, trace=0)
    assert done.returncode == 0, done.stdout + done.stderr
    verdict = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(verdict) == {"correct", "attempted", "failed", "metrics"}
    assert verdict["correct"] and verdict["failed"] == 0 and verdict["attempted"] >= 1
    assert set(verdict["metrics"]) == {m["name"] for m in SCHEMA["end_to_end"]}
    for spec in SCHEMA["end_to_end"]:
        metric = verdict["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_quick_trace_layers_sum_to_wall(workload):
    done = run_quick(workload, trace=1)
    assert done.returncode == 0, done.stdout + done.stderr
    verdict = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(verdict["metrics"]) == {m["name"] for m in SCHEMA["per_layer"]}
    with open(os.path.join(report.OUT_DIR, f"{workload}.trace.json")) as fh:
        trace = json.load(fh)
    layers = trace["self_ref_us_per_cmd"]
    total_s = sum(layers.values()) * trace["traced_commands"] / 1e6
    assert total_s == pytest.approx(trace["traced_ref_s"], rel=1e-6)
    # A negative residual would mean a layer was counted twice.
    assert layers["runtime.other"] >= 0
    assert trace["spans_written"] > 0 and len(trace["spans"][0]) == len(trace["span_fields"])
    sim = workloads.WORKLOADS[workload].substrate == "sim"
    value = {name: m["value"] for name, m in verdict["metrics"].items()}
    assert (value["codec.encode_us_per_cmd"] == 0) == sim
    assert (value["sim.loop_us_per_event"] > 0) == sim
    assert (value["storage.commit_us_per_cmd"] > 0) == workloads.WORKLOADS[workload].durable
    assert value["m2.handler.Accept.us_per_cmd"] > 0 and value["delivery.pump_us_per_cmd"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = run_quick("tcp-sat", trace=0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()
