"""Span and command-trace model: the paper's decision paths as data.

The headline claim of M2Paxos is *which decision path a command takes*:

- ``fast``: the proposer owned every object -- two one-way delays;
- ``forward``: a single remote owner -- three delays;
- ``slow``: an extra coordination round (EPaxos/GenPaxos slow paths);
- ``acquisition``: ownership had to be (re)acquired -- four or more
  delays, unbounded under contention.

A :class:`CommandTrace` follows one command from C-PROPOSE through path
classification to quorum, decide, and local delivery.  Classifications
*escalate*: a command first forwarded and then caught in an acquisition
ends as ``acquisition``; re-runs on the fast path never downgrade it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.metrics.stats import Summary, summarize

Cid = tuple[int, int]

PATH_SEVERITY = {"fast": 0, "forward": 1, "slow": 2, "acquisition": 3}
"""Escalation order of decision paths; unknown labels rank highest."""


def path_severity(path: str) -> int:
    return PATH_SEVERITY.get(path, len(PATH_SEVERITY))


@dataclass
class Span:
    """One timed interval (or instant, when ``duration`` is 0) on a node.

    ``category`` groups spans for export: ``"command"`` (propose to
    local delivery), ``"handler"`` (one message handler invocation), or
    ``"mark"`` (instant annotations such as path classifications).
    ``args`` carries free-form structured detail.
    """

    name: str
    category: str
    node: int
    start: float
    duration: float = 0.0
    args: dict = field(default_factory=dict)


@dataclass
class CommandTrace:
    """Everything observed about one command's journey to delivery.

    Timestamps are on the attached collector's :class:`~repro.obs.clock.Clock`
    (virtual seconds under the simulator, wall seconds in the runtime).
    ``None`` means the milestone has not been observed (yet).
    """

    cid: Cid
    proposer: int
    proposed_at: float
    path: Optional[str] = None  # most severe classification observed
    forward_hops: int = 0
    epoch_bumps: int = 0
    quorum_at: Optional[float] = None
    decided_at: Optional[float] = None  # first decide on any node
    delivered_at: Optional[float] = None  # local delivery at the proposer
    first_delivered_at: Optional[float] = None  # first delivery anywhere

    @property
    def resolved_path(self) -> str:
        """The final classification.  A command that never escalated
        beyond its optimistic first round is the fast path."""
        return self.path if self.path is not None else "fast"

    def observe_path(self, path: str, hops: int = 0) -> None:
        """Record one classification; keep the most severe seen."""
        if self.path is None or path_severity(path) > path_severity(self.path):
            self.path = path
        if hops > self.forward_hops:
            self.forward_hops = hops

    @property
    def latency(self) -> Optional[float]:
        """C-PROPOSE to local delivery at the proposer (client view)."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.proposed_at

    @property
    def decision_latency(self) -> Optional[float]:
        """C-PROPOSE to the first decide anywhere -- the quantity the
        paper's delay counts (2 / 3 / >=4 one-way delays) refer to."""
        if self.decided_at is None:
            return None
        return self.decided_at - self.proposed_at


@dataclass(frozen=True)
class PathStats:
    """Per-decision-path breakdown for one run."""

    count: int
    latency: Optional[Summary]

    @property
    def p50(self) -> float:
        return self.latency.p50 if self.latency else float("nan")

    @property
    def p99(self) -> float:
        return self.latency.p99 if self.latency else float("nan")


def path_breakdown(
    traces,
    window_start: Optional[float] = None,
    window_end: Optional[float] = None,
) -> dict[str, PathStats]:
    """Group delivered traces by decision path.

    Counts every trace whose first delivery falls inside the window;
    latency summaries use the proposer-local latency of the traces that
    have one (the same latency definition as ``RunResult.latency``).
    """

    def in_window(t: Optional[float]) -> bool:
        if t is None:
            return False
        if window_start is not None and t < window_start:
            return False
        return window_end is None or t <= window_end

    counts: dict[str, int] = {}
    latencies: dict[str, list[float]] = {}
    for trace in traces:
        if not in_window(trace.first_delivered_at):
            continue
        path = trace.resolved_path
        counts[path] = counts.get(path, 0) + 1
        if trace.latency is not None and in_window(trace.delivered_at):
            latencies.setdefault(path, []).append(trace.latency)
    return {
        path: PathStats(
            count=count,
            latency=summarize(latencies[path]) if latencies.get(path) else None,
        )
        for path, count in counts.items()
    }


def fast_ratio(paths: dict[str, PathStats]) -> float:
    """Share of delivered commands that took the fast path."""
    total = sum(stats.count for stats in paths.values())
    if total == 0:
        return 0.0
    return paths.get("fast", PathStats(0, None)).count / total
