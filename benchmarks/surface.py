"""The size numbers a simplification round is judged on (stdlib only).

    python3 benchmarks/surface.py [CHECKOUT]

prints, for the ``src/`` tree of ``CHECKOUT`` (default: this one):

- ``src_lines``: lines of Python under ``src/``, as ROADMAP counts them
  (``find src -name '*.py' | xargs wc -l``);
- ``config_fields``: fields of the dataclasses a caller sets to shape a
  run -- those named ``*Config``, ``*Spec`` or ``Scenario``;
- ``restated_fields``: field names declared on two or more of those
  classes where neither class subclasses the other -- one knob spelled
  in two places (a subclass redeclaring a default does not count);
- ``unset_fields``: those fields whose name no call in the checkout
  outside ``tests/`` passes as a keyword -- a knob only tests turn;
- ``substrate_probes``: ``getattr``/``hasattr`` calls on a ``node`` or
  ``cluster`` -- code asking its argument which substrate it came from;
- ``env_observers``: subclasses of ``EnvObserver`` -- consumers of the
  one event stream;
- ``m2_state_fields``: dataclass fields declared ``durable(...)``,
  ``volatile(...)`` or ``derived(...)`` -- the M2Paxos node state of
  ``repro.core.state`` -- in all and per kind (zero before it existed);
- ``protocols`` / ``envs``: concrete classes that subclass
  ``repro.consensus.base.Protocol`` / ``Env``, directly or not (bases
  resolved through each module's imports, so ``asyncio.Protocol`` and
  ``typing.Protocol`` do not count) -- a wrapper protocol or env shows
  here.

Run it on the parent and on the change; every number should fall or hold.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

KINDS = ("durable", "volatile", "derived")
BASE = "repro.consensus.base"
PROBE = re.compile(r"\b(?:getattr|hasattr)\(\s*(?:getattr\(\s*)?(?:self\.)?_?(?:node|cluster)\s*,")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _dotted(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return getattr(node, "id", "?")


def _concrete_subclasses(modules: dict[str, tuple[str, ast.Module]]) -> list[list[str]]:
    """Concrete subclasses of :data:`BASE`'s ``Protocol`` and ``Env``.

    ``modules`` maps a module name to (its package, its tree).  Base
    names resolve through each module's imports, re-exports included.  A
    class is abstract if it lists ``ABC`` as a base or declares an
    ``@abstractmethod``."""
    aliases: dict[str, str] = {}  # "module.local_name" -> what it names
    classes: dict[str, tuple[list[str], bool]] = {}
    for module, (package, tree) in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                origin = package.rsplit(".", node.level - 1)[0] if node.level else ""
                origin = ".".join(filter(None, (origin, node.module)))
                for name in node.names:
                    aliases[f"{module}.{name.asname or name.name}"] = f"{origin}.{name.name}"
            elif isinstance(node, ast.Import):
                for name in node.names:
                    aliases[f"{module}.{name.asname or name.name}"] = name.name
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                abstract = any(
                    _dotted(decorator).endswith("abstractmethod")
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for decorator in item.decorator_list
                )
                bases = [f"{module}.{_dotted(base)}" for base in node.bases]
                classes[f"{module}.{node.name}"] = (bases, abstract)

    def resolve(name: str) -> str:
        seen = set()
        while name not in classes and name not in seen:
            seen.add(name)
            parts = name.split(".")
            for cut in range(len(parts), 0, -1):
                prefix = ".".join(parts[:cut])
                if prefix in aliases:
                    name = ".".join([aliases[prefix], *parts[cut:]])
                    break
            else:
                return name  # outside src/: asyncio.Protocol, abc.ABC, ...
        return name

    bases_of = {name: [resolve(b) for b in bases] for name, (bases, _) in classes.items()}
    found = []
    for root in (f"{BASE}.Protocol", f"{BASE}.Env"):
        seen, stack = set(), [root]
        while stack:
            parent = stack.pop()
            for name, bases in bases_of.items():
                if parent in bases and name not in seen:
                    seen.add(name)
                    stack.append(name)
        found.append(sorted(
            name.rpartition(".")[2]
            for name in seen
            if not classes[name][1] and "abc.ABC" not in bases_of[name]
        ))
    return found


def _restated(fields: dict[str, list[str]], bases: dict[str, list[str]]) -> dict:
    """Field name -> the classes declaring it, for each name declared by
    two classes of ``fields`` where neither subclasses the other."""

    def ancestors(name: str) -> set[str]:
        found, stack = set(), list(bases.get(name, ()))
        while stack:
            base = stack.pop()
            if base not in found:
                found.add(base)
                stack.extend(bases.get(base, ()))
        return found

    lineage = {name: ancestors(name) for name in fields}
    declared: dict[str, list[str]] = {}
    for name, names in sorted(fields.items()):
        for field in names:
            declared.setdefault(field, []).append(name)
    return {
        field: classes
        for field, classes in declared.items()
        if any(
            a not in lineage[b] and b not in lineage[a]
            for i, a in enumerate(classes)
            for b in classes[i + 1:]
        )
    }


def _unset(fields: dict[str, list[str]], root: Path) -> list[str]:
    """``Class.field`` for each field of ``fields`` whose name no call in
    ``root``'s Python files outside ``root/tests`` passes as a keyword."""
    passed = set()
    for path in root.rglob("*.py"):
        if path.relative_to(root).parts[0] == "tests":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                passed.update(keyword.arg for keyword in node.keywords)
    return sorted(
        f"{name}.{field}"
        for name, names in fields.items()
        for field in names
        if field not in passed
    )


def measure(src: Path) -> dict:
    lines = 0
    fields: dict[str, list[str]] = {}
    bases: dict[str, list[str]] = {}
    probes: list[str] = []
    observers: list[str] = []
    kinds = dict.fromkeys(KINDS, 0)
    modules: dict[str, tuple[str, ast.Module]] = {}
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        parts = path.relative_to(src).with_suffix("").parts
        package = ".".join(parts[:-1])
        modules[package if parts[-1] == "__init__" else ".".join(parts)] = (package, tree)
        lines += text.count("\n")
        where = path.relative_to(src.parent)
        for number, line in enumerate(text.splitlines(), start=1):
            if PROBE.search(line):
                probes.append(f"{where}:{number}")
        for node in ast.walk(tree):
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
                fields[node.name] = [
                    statement.target.id
                    for statement in node.body
                    if isinstance(statement, ast.AnnAssign)
                ]
                bases[node.name] = [_dotted(base).rpartition(".")[2] for base in node.bases]
    protocols, envs = _concrete_subclasses(modules)
    restated = _restated(fields, bases)
    unset = _unset(fields, src.parent)
    return {
        "src_lines": (lines, ""),
        "config_fields": (
            sum(map(len, fields.values())),
            " ".join(f"{name}={len(names)}" for name, names in sorted(fields.items())),
        ),
        "restated_fields": (
            len(restated),
            " ".join(
                f"{name}({','.join(classes)})" for name, classes in sorted(restated.items())
            ),
        ),
        "unset_fields": (len(unset), " ".join(unset)),
        "substrate_probes": (len(probes), " ".join(probes)),
        "env_observers": (len(observers), " ".join(sorted(observers))),
        "m2_state_fields": (
            sum(kinds.values()),
            " ".join(f"{kind}={count}" for kind, count in kinds.items()),
        ),
        "protocols": (len(protocols), " ".join(protocols)),
        "envs": (len(envs), " ".join(envs)),
    }


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    for name, (value, detail) in measure(root / "src").items():
        print(f"{name:18s}{value:7d}  {detail}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
