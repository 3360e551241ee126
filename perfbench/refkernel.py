"""The frozen reference kernel: this host's speed, right now.

A shared 2-vCPU box runs the *same* pure-Python loop up to x1.35 slower
for tens of seconds at a time.  The benchmark brackets every chunk of
measured work with this kernel and reports times in **reference
seconds**: ``wall * REF_S / kernel_seconds``.  The kernel does what the
program under test does all day -- allocate small objects, read and
write dicts, call methods, append to lists -- so a slow regime slows
both by about the same factor.

FROZEN: a change to the loop below, to ``ITERATIONS`` or to ``REF_S``
changes the unit of every time metric; treat it as a new benchmark and
re-measure the baseline.  Stdlib only, nothing from ``repro``.
"""

from __future__ import annotations

from time import perf_counter

REF_S = 0.005
"""Seconds one burst takes on the host the benchmark was sized on, in
its fast regime.  Reference seconds equal wall seconds there."""

ITERATIONS = 60_000
BURSTS = 3


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def bump(self, by: int) -> int:
        self.value += by
        return self.value


def burst() -> float:
    """One fixed burst of work; returns its wall seconds."""
    table: dict[int, _Cell] = {}
    log: list[int] = []
    append = log.append
    start = perf_counter()
    for i in range(ITERATIONS):
        key = i & 255
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell(key, i)
        append(cell.bump(i))
    elapsed = perf_counter() - start
    if len(log) != ITERATIONS:  # consume the result inside the caller
        raise AssertionError("reference kernel lost work")
    return elapsed


def measure() -> float:
    """Median of :data:`BURSTS` bursts, in wall seconds."""
    return sorted(burst() for _ in range(BURSTS))[BURSTS // 2]
