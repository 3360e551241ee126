"""Health detection over interval frames.

The :class:`HealthDetector` is a frame listener that classifies each
interval against three rules and emits structured events on the
False→True transition (one event per episode, not per frame):

- ``contention``: the acquisition-path share of decides crosses
  ``contention_ratio`` — the M²Paxos degenerate regime CAESAR targets.
- ``overload``: inflight depth crosses ``overload_inflight``, or overall
  p50 latency rises monotonically across ``overload_slope_frames``
  consecutive frames by at least ``overload_slope_factor`` total.
- ``stall``: ``stall_frames`` consecutive frames with proposes but zero
  decides.

Frames with fewer than ``min_decides`` decides are too sparse for the
ratio rules (a single slow command would read as 100% contention) and
only feed the stall rule.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from .sampler import Frame

HealthListener = Callable[["HealthEvent"], None]


@dataclass(frozen=True)
class HealthConfig:
    min_decides: int = 8
    contention_ratio: float = 0.30
    overload_inflight: int = 512
    overload_slope_frames: int = 3
    overload_slope_factor: float = 1.5
    stall_frames: int = 2


@dataclass(frozen=True)
class HealthEvent:
    kind: str  # "contention" | "overload" | "stall"
    at: float  # frame end time on the substrate's clock
    frame_index: int
    details: Dict[str, float] = field(default_factory=dict)


class HealthDetector:
    """Classify frames; emit events on episode start."""

    def __init__(self, config: Optional[HealthConfig] = None) -> None:
        self.config = config if config is not None else HealthConfig()
        self.events: List[HealthEvent] = []
        self.listeners: List[HealthListener] = []
        self._active: set = set()
        self._p50_history: Deque[float] = deque(
            maxlen=max(2, self.config.overload_slope_frames)
        )
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
        config = self.config

        # --- contention -------------------------------------------------
        if frame.decides >= config.min_decides:
            ratio = frame.path_ratio("acquisition")
            if ratio >= config.contention_ratio:
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
        depth_breach = frame.inflight >= config.overload_inflight
        slope_breach = False
        history = self._p50_history
        if len(history) == history.maxlen and history[0] > 0:
            rising = all(
                later >= earlier for earlier, later in zip(history, list(history)[1:])
            )
            slope_breach = (
                rising and history[-1] >= config.overload_slope_factor * history[0]
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
        if self._stall_streak >= config.stall_frames:
            self._emit(
                "stall", frame, proposes=frame.proposes, streak=self._stall_streak
            )
