"""Declarative fault plans: what breaks, when, and how it comes back.

A :class:`FaultPlan` is pure data -- no substrate references -- so one
plan drives both the deterministic simulator and the asyncio runtime.
All times are seconds relative to scenario start (virtual seconds under
the simulator, wall seconds in the runtime).

Two delivery channels exist for a plan:

- **node-lifecycle events** (:class:`Crash`) are *scheduled* by the
  runner on the substrate's clock, because crashing a node is a
  substrate action (cancel timers, quarantine state, later re-join);
- **wire faults** (:class:`PartitionWindow`, :class:`DropWindow`,
  :class:`DuplicateWindow`, :class:`DelayWindow`) are *evaluated per
  message* by :class:`repro.chaos.injector.WireFaults` -- nothing needs
  scheduling, the window is simply consulted against the send time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Crash:
    """Crash ``node`` at ``at``; optionally restart it later.

    ``mode`` selects what a restart recovers:

    - ``"durable"``: the node is recovered from its store -- a fresh
      protocol rebuilt from the snapshot and log it had flushed, so its
      promises, accepted values and decided log survive; only volatile
      round state is lost.
    - ``"amnesia"``: the node comes back blank -- the failure mode a
      correct protocol must treat as a *new* participant, since its
      forgotten promises can no longer be counted on.
    """

    at: float
    node: int
    restart_at: Optional[float] = None
    mode: str = "durable"

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("crash time must be >= 0")
        if self.mode not in ("durable", "amnesia"):
            raise ValueError(f"unknown restart mode: {self.mode!r}")
        if self.restart_at is not None and self.restart_at <= self.at:
            raise ValueError("restart_at must come after the crash")


@dataclass(frozen=True)
class _Window:
    """A half-open time window ``[start, end)`` over the scenario."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError(f"need 0 <= start < end, got [{self.start}, {self.end})")

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class PartitionWindow(_Window):
    """Block all traffic between the two groups while active."""

    group_a: frozenset[int] = frozenset()
    group_b: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.group_a or not self.group_b:
            raise ValueError("both partition groups must be non-empty")
        if self.group_a & self.group_b:
            raise ValueError("partition groups must be disjoint")

    def severs(self, src: int, dst: int) -> bool:
        return (src in self.group_a and dst in self.group_b) or (
            src in self.group_b and dst in self.group_a
        )


@dataclass(frozen=True)
class _PairWindow(_Window):
    """A window optionally restricted to one direction of one link."""

    src: Optional[int] = None  # None = any sender
    dst: Optional[int] = None  # None = any receiver

    def applies(self, src: int, dst: int) -> bool:
        return (self.src is None or self.src == src) and (
            self.dst is None or self.dst == dst
        )


@dataclass(frozen=True)
class DropWindow(_PairWindow):
    """Drop each matching message with ``probability`` while active."""

    probability: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("drop probability must be in (0, 1]")


@dataclass(frozen=True)
class DuplicateWindow(_PairWindow):
    """Deliver each matching message twice with ``probability``."""

    probability: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("duplicate probability must be in (0, 1]")


@dataclass(frozen=True)
class DelayWindow(_PairWindow):
    """Add ``extra`` (plus up to ``jitter`` more) delay while active."""

    extra: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.extra < 0 or self.jitter < 0:
            raise ValueError("delay spike must be >= 0")
        if self.extra == 0 and self.jitter == 0:
            raise ValueError("delay window needs extra and/or jitter > 0")


@dataclass(frozen=True)
class FaultPlan:
    """Everything that goes wrong in one scenario, declaratively."""

    crashes: tuple[Crash, ...] = ()
    partitions: tuple[PartitionWindow, ...] = ()
    drops: tuple[DropWindow, ...] = ()
    duplicates: tuple[DuplicateWindow, ...] = ()
    delays: tuple[DelayWindow, ...] = ()

    def __post_init__(self) -> None:
        by_node: dict[int, list[Crash]] = {}
        for crash in self.crashes:
            by_node.setdefault(crash.node, []).append(crash)
        for node, crashes in by_node.items():
            crashes.sort(key=lambda c: c.at)
            for earlier, later in zip(crashes, crashes[1:]):
                if earlier.restart_at is None or later.at < earlier.restart_at:
                    raise ValueError(
                        f"node {node}: overlapping crash windows in plan"
                    )

    @property
    def has_wire_faults(self) -> bool:
        return bool(self.partitions or self.drops or self.duplicates or self.delays)

    def partitioned(self, src: int, dst: int, now: float) -> bool:
        return any(
            w.active(now) and w.severs(src, dst) for w in self.partitions
        )

    def crash_windows(self, node: int) -> list[tuple[float, Optional[float]]]:
        """The ``[crash, restart)`` intervals of ``node`` (restart None =
        down forever) -- what the zero-transition span check audits."""
        return sorted(
            (c.at, c.restart_at) for c in self.crashes if c.node == node
        )

    def down_forever(self) -> frozenset[int]:
        """Nodes whose final crash has no restart."""
        dead: set[int] = set()
        for node in {c.node for c in self.crashes}:
            last = max(
                (c for c in self.crashes if c.node == node), key=lambda c: c.at
            )
            if last.restart_at is None:
                dead.add(node)
        return frozenset(dead)

    def ever_crashed(self) -> frozenset[int]:
        return frozenset(c.node for c in self.crashes)

    def end_of_faults(self) -> float:
        """The time the last injected fault clears (crashed-forever
        nodes aside) -- runs should settle well past this."""
        times = [0.0]
        times += [c.restart_at if c.restart_at is not None else c.at
                  for c in self.crashes]
        for windows in (self.partitions, self.drops, self.duplicates, self.delays):
            times += [w.end for w in windows]
        return max(times)


# An empty plan (no faults at all), useful as a baseline scenario that
# exercises only the harness itself.
NO_FAULTS = FaultPlan()
