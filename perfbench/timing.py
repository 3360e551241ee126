"""The timing rule: fixed work, chunks bracketed by the reference
kernel, per-chunk median over passes.

A *pass* is a fixed amount of work cut into equal chunks.  Before the
first chunk and after every chunk the harness runs the reference kernel
(:mod:`perfbench.refkernel`).  Chunk ``k`` took ``dt_k`` wall seconds, of
which the process was on a CPU for ``cpu_k``, between kernel readings
``c_k`` and ``c_{k+1}``.  The kernel says how fast this host runs Python
right now, so it rescales the CPU seconds only; time the process spent
waiting on a timer is the same in any regime and stays as it is.  The
chunk's **reference time** is
``(dt_k - cpu_k) + cpu_k * REF_S / mean(c_k, c_{k+1})``.

A run makes several passes over the *same* work, so chunk ``k`` is the
same work in every pass; the estimate of the pass's cost, ``T_ref``, is
the sum over chunk indices of the median reference time over the passes.

The kernel correction removes the host's slow regimes (which last many
chunks); the per-chunk median removes what is left (a preemption that
hits one chunk of one pass).
"""

from __future__ import annotations

from statistics import median
from time import perf_counter
from typing import Callable, Sequence

from perfbench import refkernel
from perfbench.refkernel import REF_S


class PassTimer:
    """Wall time, CPU time and kernel readings of one pass's chunks.

    ``clock`` and ``kernel`` are injectable so the estimator can be fed
    a synthetic host (see ``tests/test_timing.py``).
    """

    def __init__(
        self,
        clock: Callable[[], float] = perf_counter,
        kernel: Callable[[], float] = refkernel.measure,
    ) -> None:
        self.clock = clock
        self._kernel = kernel
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.kernels: list[float] = [kernel()]

    def add(self, wall_seconds: float, cpu_seconds: float) -> None:
        """Record one finished chunk and take the closing kernel reading
        (which is also the next chunk's opening one)."""
        self.wall.append(wall_seconds)
        self.cpu.append(min(cpu_seconds, wall_seconds))
        self.kernels.append(self._kernel())

    def speed(self, chunk: int) -> float:
        """CPU seconds -> reference seconds factor around ``chunk``."""
        return REF_S / ((self.kernels[chunk] + self.kernels[chunk + 1]) / 2)

    def ref(self) -> list[float]:
        """Reference seconds of every chunk recorded so far."""
        return [
            (wall - cpu) + cpu * self.speed(k)
            for k, (wall, cpu) in enumerate(zip(self.wall, self.cpu))
        ]

    def scale(self, chunk: int) -> float:
        """Wall -> reference factor of ``chunk`` as a whole: what a
        latency sample or a span taken inside it is multiplied by."""
        return self.ref()[chunk] / self.wall[chunk]


def per_chunk_median(passes: Sequence[Sequence[float]]) -> list[float]:
    """Median over passes of each chunk index's value."""
    if len({len(p) for p in passes}) != 1:
        raise ValueError("passes must have the same number of chunks")
    return [median(values) for values in zip(*passes)]


def t_ref(passes: Sequence[Sequence[float]]) -> float:
    """``T_ref``: reference seconds one pass of the work costs."""
    return sum(per_chunk_median(passes))
