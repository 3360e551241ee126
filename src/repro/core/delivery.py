"""C-struct delivery engine (Algorithm 3, lines 12-16).

A command ``c`` may be appended to the local C-struct once, for every
object ``l`` in ``c.LS``, ``c`` is decided at exactly the next position
to append for ``l`` (``LastDecided[l] + 1``).  Appending advances the
pointer of every object of ``c``, which can unblock further commands,
so the engine loops until a fixpoint.

Two practical refinements over the pseudocode:

- commands that were decided at more than one position for the same
  object (possible when a NACKed accept round is later *forced* to
  completion by another node while the proposer already retried) are
  appended only once; the duplicate position is skipped like a no-op.
  A command at the frontier of ``l`` was appended already exactly when
  its lowest position on ``l`` lies below the frontier: the frontier
  never passes an undecided position, so it passed that one by
  appending the command;
- no-op commands advance the pointer but are not handed to the
  application.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional

from repro.consensus.commands import Command
from repro.core.state import M2PaxosState


class DeliveryEngine:
    """Turns per-instance decisions into a delivered command sequence."""

    def __init__(
        self,
        state: M2PaxosState,
        deliver: Callable[[Command], None],
    ) -> None:
        self._state = state  # holds the log, its index and the C-struct
        self._deliver = deliver

    def record_decision(self, l: str, position: int, command: Command) -> bool:
        """Record ``Decided[l][position] = command``; returns True if new.

        Decisions are final: a second decision for the same instance is
        ignored (and, if it disagrees, reported by the caller's paranoia
        checks before we get here).
        """
        return self._state.record(l, position, command)

    def pump(self, dirty: Optional[Iterable[str]] = None) -> list[Command]:
        """Append every deliverable command; return the new appends.

        ``dirty`` restricts the scan to objects whose frontier may have
        moved (the objects of a just-recorded decision); appending a
        command re-dirties its other objects.  Without ``dirty`` all
        objects are scanned (used by tests and after bulk loads).
        """
        appended: list[Command] = []
        index = self._state.decided_index
        work = deque(dirty if dirty is not None else self._state.objects)
        while work:
            l = work.popleft()
            obj = self._state.objects.get(l)
            if obj is None:
                continue
            log = obj.decided
            while obj.appended < len(log):
                command = log[obj.appended]  # at position appended + 1
                if command is None:
                    break
                if command.noop:
                    self._state.advance(l)
                    continue
                at = index[command.cid]
                if (at if at.__class__ is int else at[l]) <= obj.appended:
                    # Decided lower down on ``l``, so appended already.
                    self._state.advance(l)
                    continue
                if not self._ready(command):
                    break
                self._append(command)
                appended.append(command)
                for other in command.ls:
                    if other != l:
                        work.append(other)
        return appended

    def _ready(self, command: Command) -> bool:
        """Is ``command`` at the append frontier of all its objects?"""
        for l in command.ls:
            obj = self._state.objects.get(l)
            if obj is None or obj.appended >= len(obj.decided):
                return False
            front = obj.decided[obj.appended]
            if front is None or front.cid != command.cid:
                return False
        return True

    def _append(self, command: Command) -> None:
        state = self._state
        for l in command.ls:
            state.advance(l)
        state.cstruct.append(command)
        self._deliver(command)

    def undelivered_gap(self, l: str) -> Optional[int]:
        """Position blocking delivery for ``l``, if any.

        Returns ``appended + 1`` when some *higher* position is already
        decided but the frontier position is not -- the situation gap
        recovery must resolve (typically after a coordinator crash).
        """
        obj = self._state.objects.get(l)
        if obj is None:
            return None
        frontier = obj.appended + 1
        log = obj.decided
        if frontier <= len(log) and log[frontier - 1] is not None:
            return None
        # Any activity at or above the frontier (a higher decision, or an
        # accept/prepare that reserved the position) means the frontier
        # may be stuck -- e.g. its coordinator crashed mid-round.
        if len(log) > frontier or obj.next_slot > frontier:
            return frontier
        return None
