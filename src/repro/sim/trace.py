"""Structured event tracing for simulated clusters.

A :class:`Tracer` attaches to a cluster's network and delivery streams
and records every event with its virtual timestamp.  Tests use it to
*prove* message-complexity claims (e.g. a warm fast-path command costs
3N messages and two one-way delays to decide) instead of asserting on
aggregate counters alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.consensus.commands import Command
from repro.sim.cluster import Cluster


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event.

    ``kind`` is ``"send"``, ``"deliver"``, or ``"flush"``; for sends,
    ``src``/``dst`` are node ids and ``message`` the protocol message;
    for delivery events ``src`` is the delivering node and ``message``
    the command; for flushes ``message`` is the tuple of messages one
    event batched toward ``dst``.
    """

    time: float
    kind: str
    src: int
    dst: Optional[int]
    message: object

    @property
    def message_type(self) -> str:
        return type(self.message).__name__


class Tracer:
    """Records sends, flush batches, and deliveries of a cluster."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.events: list[TraceEvent] = []
        self._original_send = cluster.network.send
        cluster.network.send = self._traced_send  # type: ignore[method-assign]
        for node in cluster.nodes:
            node.deliver_listeners.append(self._on_deliver)
            node.env.add_flush_hook(self._on_flush)

    def _on_flush(self, src, queued, batches) -> None:
        now = self.cluster.loop.now
        for dst, messages in batches.items():
            self.events.append(
                TraceEvent(
                    time=now,
                    kind="flush",
                    src=src,
                    dst=dst,
                    message=tuple(messages),
                )
            )

    def _traced_send(self, src: int, dst: int, message: object, size: int) -> None:
        self.events.append(
            TraceEvent(
                time=self.cluster.loop.now,
                kind="send",
                src=src,
                dst=dst,
                message=message,
            )
        )
        self._original_send(src, dst, message, size)

    def _on_deliver(self, node_id: int, command: Command, now: float) -> None:
        self.events.append(
            TraceEvent(time=now, kind="deliver", src=node_id, dst=None, message=command)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def sends(
        self,
        message_type: Optional[str] = None,
        since: float = 0.0,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> list[TraceEvent]:
        out = []
        for event in self.events:
            if event.kind != "send" or event.time < since:
                continue
            if message_type is not None and event.message_type != message_type:
                continue
            if predicate is not None and not predicate(event):
                continue
            out.append(event)
        return out

    def deliveries(self, cid=None, since: float = 0.0) -> list[TraceEvent]:
        return [
            event
            for event in self.events
            if event.kind == "deliver"
            and event.time >= since
            and (cid is None or event.message.cid == cid)
        ]

    def flushes(
        self, src: Optional[int] = None, since: float = 0.0
    ) -> list[TraceEvent]:
        """Flush batches: one event per (protocol event, destination)."""
        return [
            event
            for event in self.events
            if event.kind == "flush"
            and event.time >= since
            and (src is None or event.src == src)
        ]

    def message_counts(self, since: float = 0.0) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            if event.kind == "send" and event.time >= since:
                counts[event.message_type] = counts.get(event.message_type, 0) + 1
        return counts

    def mark(self) -> float:
        """Current virtual time, for use as a ``since`` watermark."""
        return self.cluster.loop.now

    def clear(self) -> None:
        self.events.clear()

    def detach(self) -> None:
        """Undo the attachment: restore ``network.send`` and remove the
        deliver listeners and flush hooks.  Safe to call twice; recorded
        events stay queryable."""
        if self.cluster.network.send == self._traced_send:
            self.cluster.network.send = self._original_send  # type: ignore[method-assign]
        for node in self.cluster.nodes:
            try:
                node.deliver_listeners.remove(self._on_deliver)
            except ValueError:
                pass
            node.env.remove_flush_hook(self._on_flush)
