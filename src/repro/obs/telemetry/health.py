"""Health detection over interval frames.

The :class:`HealthDetector` is a frame listener that classifies each
interval against three rules and emits structured events on the
False→True transition (one event per episode, not per frame):

- ``contention``: the acquisition-path share of decides crosses
  :data:`CONTENTION_RATIO` — the M²Paxos degenerate regime CAESAR targets.
- ``overload``: inflight depth crosses :data:`OVERLOAD_INFLIGHT`, or
  overall p50 latency rises monotonically across
  :data:`OVERLOAD_SLOPE_FRAMES` consecutive frames by at least
  :data:`OVERLOAD_SLOPE_FACTOR` total.
- ``stall``: :data:`STALL_FRAMES` consecutive frames with proposes but
  zero decides.

Frames with fewer than :data:`MIN_DECIDES` decides are too sparse for the
ratio rules (a single slow command would read as 100% contention) and
only feed the stall rule.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List

from .sampler import Frame

HealthListener = Callable[["HealthEvent"], None]


MIN_DECIDES = 8
CONTENTION_RATIO = 0.30
OVERLOAD_INFLIGHT = 512
OVERLOAD_SLOPE_FRAMES = 3
OVERLOAD_SLOPE_FACTOR = 1.5
STALL_FRAMES = 2


@dataclass(frozen=True)
class HealthEvent:
    kind: str  # "contention" | "overload" | "stall"
    at: float  # frame end time on the substrate's clock
    frame_index: int
    details: Dict[str, float] = field(default_factory=dict)


class HealthDetector:
    """Classify frames; emit events on episode start."""

    def __init__(self) -> None:
        self.events: List[HealthEvent] = []
        self.listeners: List[HealthListener] = []
        self._active: set = set()
        self._p50_history: Deque[float] = deque(maxlen=OVERLOAD_SLOPE_FRAMES)
        self._stall_streak = 0

    def subscribe(self, listener: HealthListener) -> None:
        self.listeners.append(listener)

    def _emit(self, kind: str, frame: Frame, **details) -> None:
        if kind in self._active:
            return
        self._active.add(kind)
        event = HealthEvent(
            kind=kind, at=frame.end, frame_index=frame.index, details=details
        )
        self.events.append(event)
        for listener in self.listeners:
            listener(event)

    def _clear(self, kind: str) -> None:
        self._active.discard(kind)

    # ------------------------------------------------------------------
    # Frame listener
    # ------------------------------------------------------------------

    def observe_frame(self, frame: Frame) -> None:
        # --- contention -------------------------------------------------
        if frame.decides >= MIN_DECIDES:
            ratio = frame.path_ratio("acquisition")
            if ratio >= CONTENTION_RATIO:
                self._emit(
                    "contention",
                    frame,
                    acquisition_ratio=ratio,
                    decides=frame.decides,
                )
            else:
                self._clear("contention")

        # --- overload ---------------------------------------------------
        if not math.isnan(frame.p50):
            self._p50_history.append(frame.p50)
        depth_breach = frame.inflight >= OVERLOAD_INFLIGHT
        slope_breach = False
        history = self._p50_history
        if len(history) == history.maxlen and history[0] > 0:
            rising = all(
                later >= earlier for earlier, later in zip(history, list(history)[1:])
            )
            slope_breach = (
                rising and history[-1] >= OVERLOAD_SLOPE_FACTOR * history[0]
            )
        if depth_breach or slope_breach:
            self._emit(
                "overload",
                frame,
                inflight=frame.inflight,
                p50=frame.p50,
                slope=(history[-1] / history[0]) if slope_breach else 0.0,
            )
        else:
            self._clear("overload")

        # --- stall ------------------------------------------------------
        if frame.proposes > 0 and frame.decides == 0:
            self._stall_streak += 1
        elif frame.decides > 0:
            self._stall_streak = 0
            self._clear("stall")
        if self._stall_streak >= STALL_FRAMES:
            self._emit(
                "stall", frame, proposes=frame.proposes, streak=self._stall_streak
            )
