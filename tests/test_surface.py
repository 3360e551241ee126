"""The config counts of ``benchmarks/surface.py`` on a small source tree."""

import textwrap

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
