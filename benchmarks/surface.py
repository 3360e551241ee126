"""The size numbers a simplification round is judged on (stdlib only).

    python3 benchmarks/surface.py [CHECKOUT]

prints, for the ``src/`` tree of ``CHECKOUT`` (default: this one):

- ``src_lines``: lines of Python under ``src/``, as ROADMAP counts them
  (``find src -name '*.py' | xargs wc -l``);
- ``config_fields``: fields of the dataclasses a caller sets to shape a
  run -- those named ``*Config``, ``*Spec`` or ``Scenario``;
- ``substrate_probes``: ``getattr``/``hasattr`` calls on a ``node`` or
  ``cluster`` -- code asking its argument which substrate it came from;
- ``env_observers``: subclasses of ``EnvObserver`` -- consumers of the
  one event stream;
- ``m2_state_fields``: dataclass fields declared ``durable(...)``,
  ``volatile(...)`` or ``derived(...)`` -- the M2Paxos node state of
  ``repro.core.state`` -- in all and per kind (zero before it existed).

Run it on the parent and on the change; every number should fall or hold.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

KINDS = ("durable", "volatile", "derived")
PROBE = re.compile(r"\b(?:getattr|hasattr)\(\s*(?:getattr\(\s*)?(?:self\.)?_?(?:node|cluster)\s*,")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def measure(src: Path) -> dict:
    lines = 0
    fields: dict[str, int] = {}
    probes: list[str] = []
    observers: list[str] = []
    kinds = dict.fromkeys(KINDS, 0)
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        where = path.relative_to(src.parent)
        for number, line in enumerate(text.splitlines(), start=1):
            if PROBE.search(line):
                probes.append(f"{where}:{number}")
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.ClassDef):
                continue
            if any(getattr(base, "id", None) == "EnvObserver" for base in node.bases):
                observers.append(node.name)
            for statement in node.body:
                call = getattr(statement, "value", None)
                kind = getattr(getattr(call, "func", None), "id", None)
                if isinstance(statement, ast.AnnAssign) and kind in kinds:
                    kinds[kind] += 1
            if _is_dataclass(node) and (
                node.name.endswith(("Config", "Spec")) or node.name == "Scenario"
            ):
                fields[node.name] = sum(
                    isinstance(statement, ast.AnnAssign) for statement in node.body
                )
    return {
        "src_lines": (lines, ""),
        "config_fields": (
            sum(fields.values()),
            " ".join(f"{name}={count}" for name, count in sorted(fields.items())),
        ),
        "substrate_probes": (len(probes), " ".join(probes)),
        "env_observers": (len(observers), " ".join(sorted(observers))),
        "m2_state_fields": (
            sum(kinds.values()),
            " ".join(f"{kind}={count}" for kind, count in kinds.items()),
        ),
    }


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    for name, (value, detail) in measure(root / "src").items():
        print(f"{name:18s}{value:7d}  {detail}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
