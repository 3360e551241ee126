"""A seeded run does not depend on string-hash order.

Python salts ``str`` hashes per process, so a walk over a set of object
names would make the same seed give different runs in different
processes.  M²Paxos walks its two such sets (the gap checker's
candidates and the delivery pump's work list) sorted; this test runs the
digests below in two child processes under different hash seeds and
requires them equal.  Each moved with the hash seed while those walks
followed set order: the ``chaos`` fingerprint case, the saturated point
and two of the smoke scenarios through the gap checker, and
``restart-churn`` through the pump.

Run directly, it prints this process's digests as JSON:

    PYTHONPATH=src python -m tests.test_hash_order
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.bench.harness import PointSpec, run_point, saturated_spec
from repro.chaos import SMOKE, by_name, run_scenario
from repro.workloads.synthetic import SyntheticConfig
from tests.test_sim_fingerprint import CASES

SATURATED = saturated_spec(
    PointSpec(
        "m2paxos",
        5,
        synthetic=SyntheticConfig(local_set_size=100, locality=0.5, complex_fraction=0.1),
        seed=1,
    )
)


def digests() -> dict:
    point = run_point(SATURATED)
    return {
        "chaos-case": CASES["chaos"](),
        "saturated-point": [
            repr(point.throughput),
            repr(point.latency.p50),
            point.messages_sent,
            point.bytes_sent,
        ],
        "scenarios": {
            name: run_scenario(by_name(name)).fingerprint
            for name in [*SMOKE, "restart-churn"]
        },
    }


def test_two_hash_seeds_give_the_same_runs():
    root = Path(__file__).resolve().parents[1]
    children = [
        subprocess.Popen(
            [sys.executable, "-m", "tests.test_hash_order"],
            cwd=root,
            env={
                **os.environ,
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": os.pathsep.join(p for p in sys.path if p),
            },
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("1", "2")
    ]
    outputs = [child.communicate(timeout=120)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    first, second = map(json.loads, outputs)
    for key in first:
        assert first[key] == second[key], key


if __name__ == "__main__":
    print(json.dumps(digests(), sort_keys=True))
