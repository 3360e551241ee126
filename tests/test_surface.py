"""The counts of ``benchmarks/surface.py``, on a small tree and on this one."""

import textwrap
from pathlib import Path

from benchmarks.surface import measure

CONFIGS = '''
from dataclasses import dataclass


@dataclass(frozen=True)
class ClusterSpec:
    n_nodes: int = 3
    seed: int = 0


@dataclass(frozen=True)
class PointSpec(ClusterSpec):
    seed: int = 1  # a subclass redeclaring a default restates nothing
    duration: float = 0.25


@dataclass(frozen=True)
class SweepSpec(PointSpec):
    n_nodes: int = 5  # nor does a grandchild


@dataclass
class RunConfig:
    seed: int = 1  # restated: RunConfig subclasses no spec
    duration: float = 1.0


@dataclass
class Scenario:
    name: str
    rounds: int = 40


class Helper:  # not a dataclass
    seed: int = 0


@dataclass
class Ledger:  # not named as a config
    n_nodes: int = 0
'''

# Every config field that no call outside ``tests/`` sets, with the
# ROADMAP item that decides whether it stays.  A new knob that only tests
# turn fails here: give it a caller, or make it a module constant.
UNSET_OWNERS = {
    "M2PaxosConfig.lease_renew_fraction": "item 13: leases earn a measured row or go",
    "M2PaxosConfig.max_forward_hops": "item 7: contention as a regime",
    "NetworkConfig.drop_probability": "item 1 (a1): the generated plans' drop windows",
    "PerfConfig.telemetry_repeats": "item 13: repro perf's arms become perfbench rows",
    "Scenario.spacing": "item 14: one run description for figure points and chaos runs",
}


def test_config_and_restated_fields(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "configs.py").write_text(textwrap.dedent(CONFIGS))
    numbers = measure(tmp_path / "src")
    assert numbers["config_fields"] == (
        9,
        "ClusterSpec=2 PointSpec=2 RunConfig=2 Scenario=2 SweepSpec=1",
    )
    assert numbers["restated_fields"] == (
        2,
        "duration(PointSpec,RunConfig) seed(ClusterSpec,PointSpec,RunConfig)",
    )


def test_unset_fields_count_keywords_outside_tests_only(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "configs.py").write_text(textwrap.dedent(CONFIGS))
    (package / "run.py").write_text("RunConfig(seed=2)\nreplace(spec, n_nodes=7)\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("Scenario(name='demo', rounds=3)\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_run.py").write_text("PointSpec(duration=1.0)\n")
    # Set by keyword in src/ or examples/: seed, n_nodes, name, rounds.
    # ``duration`` is set in tests/ only, on either class that has it.
    assert measure(tmp_path / "src")["unset_fields"] == (
        2,
        "PointSpec.duration RunConfig.duration",
    )


def test_every_knob_without_a_caller_has_an_owner():
    _count, names = measure(Path(__file__).resolve().parent.parent / "src")["unset_fields"]
    assert names.split() == sorted(UNSET_OWNERS)
