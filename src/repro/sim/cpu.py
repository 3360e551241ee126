"""Per-node CPU contention model.

The paper's evaluation (Figures 1 and 4) hinges on *where CPU work
happens*: Multi-Paxos saturates its single leader, EPaxos spends serial
CPU time maintaining shared dependency metadata, and M2Paxos has almost
no cross-thread shared state.  We reproduce this with a small queueing
model:

- a node has ``cores`` identical workers;
- each unit of work has a *serial* part (executed under a node-global
  lock -- one at a time) and a *parallel* part (executed on any worker);
- the model tracks, in virtual time, when the lock and each worker next
  become free, and returns the completion time of each submitted job.

With a serial fraction ``s``, per-node throughput is capped at
``1 / (s * cost)`` no matter how many cores there are -- Amdahl's law --
which is exactly the contrast between EPaxos (high ``s``) and M2Paxos
(negligible ``s``) that Figure 4 shows.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CpuConfig:
    """Shape of a node's CPU.

    ``cores``: number of parallel workers, each a c3.4xlarge core.
    """

    cores: int = 16

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")


class CpuModel:
    """Tracks busy intervals of one node's cores and serial lock."""

    def __init__(self, config: CpuConfig) -> None:
        self.config = config
        self._core_free = [0.0] * config.cores
        self._lock_free = 0.0
        self.busy_time = 0.0  # accumulated work, for utilisation stats

    def submit(self, now: float, cost: float, serial_fraction: float) -> float:
        """Submit a job arriving at ``now``; return its completion time.

        ``cost`` is the total CPU seconds the job needs on one core.
        ``serial_fraction`` of it contends on the node-global lock; the
        rest runs on the least-loaded core.
        """
        if cost < 0:
            raise ValueError("cost must be >= 0")
        if not 0.0 <= serial_fraction <= 1.0:
            raise ValueError("serial_fraction must be in [0, 1]")
        serial = cost * serial_fraction
        parallel = cost - serial

        end_serial = self._lock_free
        if end_serial < now:
            end_serial = now
        end_serial += serial
        self._lock_free = end_serial

        # Least-loaded core (lowest index on ties) runs the parallel
        # part after the serial part.
        cores = self._core_free
        free = min(cores)
        end = (end_serial if end_serial > free else free) + parallel
        cores[cores.index(free)] = end

        self.busy_time += cost
        return end

    def utilisation(self, elapsed: float) -> float:
        """Fraction of total core-time spent busy over ``elapsed``."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / (elapsed * self.config.cores))

    def backlog(self, now: float) -> float:
        """Seconds until the most-loaded core becomes free."""
        return max(0.0, max(self._core_free) - now)
