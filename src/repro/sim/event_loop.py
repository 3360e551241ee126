"""A minimal, deterministic discrete-event loop.

The loop maintains a priority queue of ``(time, seq, fn, args, event)``
entries.  ``seq`` is a monotonically increasing counter that breaks ties
between events scheduled for the same instant, which makes every run
with the same inputs bit-for-bit reproducible.  A callback's arguments
ride on its entry, so the hot callers (message arrivals, CPU
completions, client ticks) schedule a bound method instead of building a
closure per event.

Time is a ``float`` in **seconds** of virtual time.  Nothing in the
simulator ever reads the wall clock.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Callable, Optional


class Event:
    """A scheduled callback; cancellable.

    Cancellation is implemented by flagging the entry rather than
    removing it from the heap (removal from the middle of a heap is
    O(n)); the loop skips cancelled entries when it pops them, and
    compacts the heap lazily once cancelled entries outnumber live ones
    (protocols under churn cancel far more timers than they fire).

    Heap entries are ``(time, seq, fn, args, event)`` tuples so ordering
    is decided by C-level float/int comparisons (``seq`` is unique, so
    the comparison never reaches ``fn``), never by calling into Python
    -- a measurable win at millions of events per run.  The event is
    only the cancellation handle; entries nobody can cancel carry
    ``None`` instead (:meth:`EventLoop.post_at`).
    """

    __slots__ = ("time", "seq", "cancelled", "loop")

    def __init__(
        self, time: float, seq: int, loop: Optional["EventLoop"] = None
    ) -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self.loop = loop

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.loop is not None:
            self.loop._on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class RepeatingEvent:
    """A self-rescheduling timer; ``cancel()`` stops the chain.

    Each firing runs ``fn()`` and then schedules the next occurrence, so
    the underlying :class:`Event` changes between firings -- this handle
    stays valid for the life of the chain.  Note that an active repeating
    timer keeps the heap non-empty: run-to-quiescence (``run()``) will
    not terminate until it is cancelled; drive such loops with
    ``run_until``/``run`` with ``max_events``.
    """

    __slots__ = ("interval", "fn", "cancelled", "_event", "_loop")

    def __init__(self, loop: "EventLoop", interval: float, fn: Callable[[], None]):
        if interval <= 0:
            raise ValueError(f"repeat interval must be positive: {interval!r}")
        self.interval = interval
        self.fn = fn
        self.cancelled = False
        self._loop = loop
        self._event = loop.schedule(interval, self._fire)

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fn()
        if not self.cancelled:  # fn may have cancelled us
            self._event = self._loop.schedule(self.interval, self._fire)

    def cancel(self) -> None:
        """Stop future firings.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        self._event.cancel()


class EventLoop:
    """Deterministic event loop with a virtual clock."""

    # Below this heap size, compaction is not worth the rebuild.
    COMPACT_FLOOR = 64

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable, tuple, Optional[Event]]] = []
        self._now = 0.0
        self._seq = 0
        self._stopped = False
        self._processed = 0
        # Cancelled entries still sitting in the heap.  ``pending()`` is
        # ``len(heap) - cancelled`` in O(1), and when the dead weight
        # exceeds half the heap it is compacted away in one pass.
        self._cancelled_in_heap = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of callbacks executed so far (for tests/diagnostics)."""
        return self._processed

    def schedule(self, delay: float, fn: Callable[..., None], *args) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay runs the callback
        after all events already scheduled for the current instant.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., None], *args) -> Event:
        """Schedule ``fn(*args)`` at an absolute virtual time."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past: {time!r} < now {self._now!r}"
            )
        event = Event(time, self._seq, self)
        heapq.heappush(self._heap, (time, self._seq, fn, args, event))
        self._seq += 1
        return event

    def post_at(self, time: float, fn: Callable[..., None], *args) -> None:
        """:meth:`schedule_at` for a callback nobody will cancel: same
        queue, same ``(time, seq)`` order, no :class:`Event` handle.
        Message arrivals, CPU completions and client ticks -- most of a
        saturated run's events -- are of this kind."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past: {time!r} < now {self._now!r}"
            )
        heapq.heappush(self._heap, (time, self._seq, fn, args, None))
        self._seq += 1

    def schedule_repeating(
        self, interval: float, fn: Callable[[], None]
    ) -> RepeatingEvent:
        """Run ``fn`` every ``interval`` seconds until cancelled (the
        telemetry sampler cadence).  First firing is one interval from
        now."""
        return RepeatingEvent(self, interval, fn)

    def _on_cancel(self) -> None:
        """Bookkeeping for one newly cancelled, still-queued event."""
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap * 2 > len(self._heap)
            and len(self._heap) >= self.COMPACT_FLOOR
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place (a running
        :meth:`_drain` holds the list).

        Pop order is unchanged: the surviving ``(time, seq)`` keys are
        unique, so any valid heap over them drains identically.
        """
        self._heap[:] = [
            entry for entry in self._heap if entry[4] is None or not entry[4].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0

    def stop(self) -> None:
        """Make the currently running ``run*`` call return promptly."""
        self._stopped = True

    def _drain(self, deadline: float, max_events: float) -> None:
        """The one dispatch loop: run events with ``time <= deadline``
        until the heap drains, ``stop()`` is called or ``max_events``
        callbacks have executed (``inf`` = no such bound)."""
        self._stopped = False
        heap, pop = self._heap, heapq.heappop
        limit = self._processed + max_events
        while heap and self._processed < limit and not self._stopped:
            if heap[0][0] > deadline:
                break
            time, _seq, fn, args, event = pop(heap)
            if event is not None:
                if event.cancelled:
                    self._cancelled_in_heap -= 1
                    continue
                # Detach before running: a late cancel() on a fired
                # event must not count a tombstone that is no longer in
                # the heap.
                event.loop = None
            self._now = time
            fn(*args)
            self._processed += 1

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``stop()`` is called, or
        ``max_events`` callbacks have executed."""
        self._drain(inf, inf if max_events is None else max_events)

    def run_until(self, deadline: float, max_events: Optional[int] = None) -> None:
        """Run events with ``time <= deadline``; afterwards ``now`` is
        exactly ``deadline`` (even if the heap drained earlier), unless
        ``max_events`` callbacks ran first."""
        budget = inf if max_events is None else max_events
        start = self._processed
        self._drain(deadline, budget)
        if not self._stopped and self._now < deadline and self._processed - start < budget:
            self._now = deadline

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued.  O(1): the
        loop tracks how many heap entries are cancelled tombstones."""
        return len(self._heap) - self._cancelled_in_heap
