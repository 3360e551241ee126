"""One live node: TCP server + peer connections + asyncio Env.

The protocol object is single-threaded by construction: every inbound
frame, timer, and proposal is dispatched on the event loop, so no locks
are needed -- the same execution model as the simulator.

Outbound traffic mirrors the simulator's outbox pipeline: each protocol
event's sends are buffered, then flushed per destination.  A flush
appends the encoded frames to a per-destination queue drained by a
single sender task, which coalesces everything queued into one
``writer.write`` and awaits ``drain()`` for backpressure.  One queue +
one sender per destination means wire order always matches send order
-- including across reconnects, where the old ad-hoc
``_connect_and_send`` futures could race each other and direct writes.

What a node *is* -- application log, listeners, event scope, crash and
restart -- lives in :class:`repro.consensus.host.Host`, shared with the
simulator; this module adds sockets, sender tasks and framing.
:meth:`RuntimeNode.stop` is a real crash (beyond the host's prologue,
senders are killed and the listening server *and* every established
inbound connection closed, so a dead node processes nothing).  An optional
:class:`~repro.chaos.injector.WireFaults` shim on the send path drops,
duplicates, or delays outbound messages per a declarative fault plan.
"""

from __future__ import annotations

import asyncio
import random
from typing import Callable, Optional

from repro.consensus.base import Env, Message, Protocol, Storage, TimerHandle
from repro.consensus.commands import Command
from repro.consensus.host import Host
from repro.runtime.codec import (
    FRAME_HEADER,
    MAX_FRAME,
    FrameError,
    decode_message,
    encode_message,
    encode_message_into,
)

Address = tuple[str, int]

_READ_CHUNK = 256 * 1024
"""Inbound socket read size: many frames arrive per syscall at
saturation, and the frame parser slices them out of one buffer."""


class _AsyncTimer(TimerHandle):
    """A live protocol timer; tracked by its node until fired/cancelled
    so ``stop()`` can cancel stragglers."""

    __slots__ = ("_handle", "_registry")

    def __init__(self, registry: set["_AsyncTimer"]) -> None:
        self._handle: Optional[asyncio.TimerHandle] = None
        self._registry = registry

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
        self._registry.discard(self)


class RuntimeEnv(Env):
    """Env implementation over asyncio."""

    def __init__(self, node: "RuntimeNode") -> None:
        self._node = node
        self.node_id = node.node_id
        self.n_nodes = len(node.peers)
        self._rng = random.Random(node.node_id * 7919 + 17)

    def _transmit(self, dst: int, message: Message) -> None:
        self._node.enqueue(dst, [message])

    def _flush(
        self,
        queued: list[tuple[int, Message]],
        batches: dict[int, list[Message]],
    ) -> None:
        # One enqueue per destination: the whole batch becomes a single
        # coalesced write on that destination's connection.
        for dst, messages in batches.items():
            self._node.enqueue(dst, messages)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        node = self._node
        timer = _AsyncTimer(node._timers)
        if node.crashed:
            # A crashed machine arms nothing; the handle is inert.
            return timer
        loop = asyncio.get_running_loop()

        def fire() -> None:
            node._timers.discard(timer)
            node.run_event(callback)

        timer._handle = loop.call_later(delay, fire)
        node._timers.add(timer)
        return timer

    def now(self) -> float:
        return asyncio.get_running_loop().time()

    def _deliver(self, command: Command) -> None:
        self._node.on_deliver(command)

    def _deliver_read(self, command: Command, result: object) -> None:
        self._node.on_read(command, result)

    @property
    def rng(self) -> random.Random:
        return self._rng


class RuntimeNode(Host):
    """Hosts one protocol instance on a real TCP endpoint."""

    def __init__(
        self,
        node_id: int,
        peers: dict[int, Address],
        protocol: Protocol,
        storage: Optional[Storage] = None,
    ) -> None:
        if node_id not in peers:
            raise ValueError("peers must include this node's own address")
        self.peers = peers
        # Optional chaos shim (repro.chaos.injector.WireFaults): maps
        # ``(src, dst, now)`` to the delay offsets of the copies of each
        # outbound message -- [] drops, [0.0] passes, more duplicates.
        self.wire_faults: Optional[Callable[[int, int, float], list[float]]] = None
        # Scrape address of this node's Prometheus /metrics endpoint,
        # stamped by LocalCluster.start_telemetry(serve=True).
        self.metrics_address: Optional[Address] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._inbound: set[asyncio.StreamWriter] = set()
        self._outgoing: dict[int, list[bytes]] = {}
        self._senders: dict[int, asyncio.Task] = {}
        # Last per-destination depth reported via the ``outbox_depth``
        # note (emit-on-change; see ``_enqueue_frames``).
        self._outbox_noted: dict[int, int] = {}
        self._stopping: Optional[asyncio.Future] = None
        super().__init__(node_id, protocol, RuntimeEnv, storage)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        host, port = self.peers[self.node_id]
        self._server = await asyncio.start_server(self._on_connection, host, port)
        self.run_event(self.protocol.on_start)

    async def stop(self) -> None:
        """Crash this node for real.

        Beyond the host's prologue (timers cancelled, unflushed records
        dropped), every sender is killed and the listening server *and*
        every established inbound connection closed -- a stopped node
        must not keep processing frames that arrive on sockets accepted
        before the "crash".  The node stays constructible into a new
        incarnation via :meth:`restart`.
        """
        if not self._crash_prologue():
            return
        senders = list(self._senders.values())
        self._senders.clear()
        for task in senders:
            task.cancel()
        if senders:
            await asyncio.gather(*senders, return_exceptions=True)
        self._outgoing.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()
        for writer in list(self._inbound):
            writer.close()
        self._inbound.clear()

    def _fail_stop(self) -> None:
        # ``stop()`` is async, so the crash lands on the next loop tick;
        # the discarded outbox already guarantees no unpersisted ack
        # escaped.
        self._stopping = asyncio.ensure_future(self.stop())

    async def restart(
        self, protocol: Optional[Protocol] = None, *, recover: bool = False
    ) -> None:
        """Boot a new incarnation of this node: durable-legacy
        (``protocol=None``), amnesia (a fresh ``protocol``) or, with
        ``recover=True``, a fresh ``protocol`` rebuilt from the durable
        store (see :meth:`Host._reboot`)."""
        self._reboot(protocol, recover)
        await self.start()

    # ------------------------------------------------------------------
    # Outbound
    # ------------------------------------------------------------------

    def propose(self, command: Command) -> None:
        if self.crashed:
            # A dead machine takes no client requests.
            return
        self.env.observe_propose(command)
        self.run_event(self.protocol.propose, command)

    def _encode_batch(self, messages: list[Message]) -> bytearray:
        """One flush batch's frames, encoded back to back into a single
        buffer (no intermediate ``bytes`` per frame, no join)."""
        out = bytearray()
        node_id = self.node_id
        for message in messages:
            encode_message_into(out, node_id, message)
        return out

    def enqueue(self, dst: int, messages: list[Message]) -> None:
        """Queue one flush batch for ``dst`` and kick its sender task."""
        if self.crashed:
            return
        if dst == self.node_id:
            # Local loopback: dispatch on the next loop tick so handlers
            # never re-enter the protocol synchronously.  Chaos leaves
            # loopback alone (it never crosses the wire).
            loop = asyncio.get_running_loop()
            for message in messages:
                loop.call_soon(self._dispatch, self.node_id, message)
            return
        faults = self.wire_faults
        if faults is None:
            frames = self._encode_batch(messages)
            # Real encoded frame bytes, measured for free post-encode --
            # telemetry's wire_bytes counter without a size estimate.
            self.env.observe("wire_bytes", bytes=len(frames))
            self._enqueue_frames(dst, frames)
            return
        # Fault shim: evaluate drop/duplicate/delay per message.  On-time
        # copies of one batch still coalesce into a single write; delayed
        # copies are re-queued by the event loop when their extra delay
        # elapses (FIFO order within the link is deliberately broken --
        # that is the fault being injected).
        loop = asyncio.get_running_loop()
        now = loop.time()
        on_time: list[bytes] = []
        sent_bytes = 0
        for message in messages:
            frame = encode_message(self.node_id, message)
            for extra in faults(self.node_id, dst, now):
                sent_bytes += len(frame)
                if extra <= 0:
                    on_time.append(frame)
                else:
                    loop.call_later(extra, self._enqueue_frames, dst, frame)
        if sent_bytes:
            self.env.observe("wire_bytes", bytes=sent_bytes)
        if on_time:
            self._enqueue_frames(dst, b"".join(on_time))

    def _enqueue_frames(self, dst: int, frames: "bytes | bytearray") -> None:
        if self.crashed:
            return
        queue = self._outgoing.setdefault(dst, [])
        queue.append(frames)
        # Queue depth in *flush batches* awaiting the sender task: the
        # backpressure signal a slow peer produces.  Noted only on
        # change -- a healthy sender holds the queue at one batch, so a
        # per-enqueue note would re-report the same depth per command,
        # while a backlog building behind a slow peer is a sequence of
        # new depths and always gets through.
        depth = len(queue)
        if depth != self._outbox_noted.get(dst):
            self._outbox_noted[dst] = depth
            self.env.observe("outbox_depth", dst=dst, depth=depth)
        sender = self._senders.get(dst)
        if sender is None or sender.done():
            self._senders[dst] = asyncio.ensure_future(self._drain_outgoing(dst))

    async def _drain_outgoing(self, dst: int) -> None:
        """Single writer for ``dst``: hand everything queued to the
        transport in one writev-style ``writelines`` call, then await
        ``drain()`` exactly once per coalesced flush.

        One drain per flush -- never per frame or per batch -- is what
        keeps a deep pipeline moving: the sender only parks when the
        transport's buffer is genuinely over the high-water mark, not
        once per message it wrote.  ``writelines`` hands the frame
        buffers to the transport as-is, avoiding a second copy of the
        whole backlog."""
        while not self.crashed:
            pending = self._outgoing.get(dst)
            if not pending:
                return
            writer = self._writers.get(dst)
            if writer is None or writer.is_closing():
                host, port = self.peers[dst]
                try:
                    _reader, writer = await asyncio.open_connection(host, port)
                except OSError:
                    # Peer down: drop the backlog; retries ride on the
                    # protocol's own timers, which re-send fresh state.
                    self._outgoing[dst] = []
                    return
                if self.crashed:
                    writer.close()
                    return
                self._writers[dst] = writer
            self._outgoing[dst] = []
            if len(pending) == 1:
                writer.write(pending[0])
            else:
                writer.writelines(pending)
            try:
                await writer.drain()
            except (ConnectionResetError, OSError):
                self._writers.pop(dst, None)
                writer.close()
                return

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Inbound frame pump, zero-copy: read whatever the socket has
        (many frames per syscall at saturation), then slice complete
        frames out of the buffer as memoryviews -- no ``readexactly``
        pair per frame, no payload copy before decode.  A partial frame
        stays buffered for the next read."""
        self._inbound.add(writer)
        buffer = bytearray()
        header_size = FRAME_HEADER.size
        try:
            while not self.crashed:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    break  # clean EOF (mid-frame leftovers are dropped)
                buffer += chunk
                end = len(buffer)
                pos = 0
                view = memoryview(buffer)
                try:
                    while end - pos >= header_size:
                        (size,) = FRAME_HEADER.unpack_from(view, pos)
                        if size > MAX_FRAME:
                            raise FrameError(f"oversized frame: {size}")
                        start = pos + header_size
                        if end - start < size:
                            break
                        sender, message = decode_message(view[start : start + size])
                        pos = start + size
                        self._dispatch(sender, message)
                finally:
                    # The view must be released before the bytearray can
                    # be resized below.
                    view.release()
                if pos:
                    del buffer[:pos]
        except ConnectionResetError:
            pass
        except FrameError:
            # An oversized or undecodable frame: whatever sent it is not
            # a peer speaking this protocol.  Nothing behind the bad
            # frame can be trusted to be aligned, so this connection
            # goes; the node and its other connections carry on.
            self.env.observe("fault", event="bad_frame")
        except asyncio.CancelledError:
            # Server shut down while this handler was awaiting a frame.
            pass
        finally:
            self._inbound.discard(writer)
            writer.close()

    def _dispatch(self, sender: int, message: Message) -> None:
        self.run_event(self.protocol.on_message, sender, message)
