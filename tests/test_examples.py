"""Smoke tests: every example script runs to completion.

Examples are part of the public surface; a broken example is a broken
deliverable.  The TCP example is exercised by the runtime tests, and
the benchmark-grade examples are capped here by running their mains in
process (they finish in seconds under the simulator).  The README's
``python`` blocks are examples too, and run here the same way.
"""

import re
import runpy
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

FAST_EXAMPLES = [
    "examples/quickstart.py",
    "examples/bank_ledger.py",
    "examples/fault_tolerance.py",
    "examples/geo_replication.py",
]


@pytest.mark.parametrize("path", FAST_EXAMPLES)
def test_example_runs(path, capsys):
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # every example narrates what it showed


def test_live_tcp_example_runs(capsys):
    if sys.platform.startswith("win"):
        pytest.skip("localhost sockets assumed POSIX-like")
    runpy.run_path("examples/live_tcp_cluster.py", run_name="__main__")
    out = capsys.readouterr().out
    assert "all replicas agree : True" in out


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "__main__"})
    # The quickstart prints what replica 3 delivered: one command.
    assert "account-a" in capsys.readouterr().out
