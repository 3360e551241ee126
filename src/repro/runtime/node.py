"""One live node: TCP server + peer connections + asyncio Env.

The protocol object is single-threaded by construction: every inbound
frame, timer, and proposal is dispatched on the event loop, so no locks
are needed -- the same execution model as the simulator.

The transport is two small :class:`asyncio.Protocol` classes, with no
task and no future on the per-message path.  Outbound mirrors the
simulator's outbox pipeline: each protocol event's sends are buffered,
then flushed per destination, and a flush batch goes straight to
``transport.write`` on that destination's one :class:`_Link`.  While the
link is still connecting, or between the transport's ``pause_writing``
and ``resume_writing`` (its buffer is over the high-water mark: the
backpressure signal), batches are held in ``_outgoing[dst]`` and flushed
in order before anything newer, so wire order equals send order across
connect, pause and reconnect.  Inbound, :class:`_Inbound` slices frames
out of each socket read and dispatches them in the read callback.

What a node *is* -- application log, listeners, event scope, crash and
restart -- lives in :class:`repro.consensus.host.Host`, shared with the
simulator; this module adds sockets and framing.
:meth:`RuntimeNode.stop` is a real crash (beyond the host's prologue,
every link and every established inbound connection is aborted, then the
listening server closed, so a dead node processes nothing).  An optional
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

    def set_timer_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        node = self._node
        timer = _AsyncTimer(node._timers)
        if node.crashed:
            # A crashed machine arms nothing; the handle is inert.
            return timer
        loop = asyncio.get_running_loop()

        def fire() -> None:
            # Drop the asyncio handle first: it holds ``fire``, which
            # holds ``timer``, and that cycle would keep ``callback`` and
            # everything it closes over alive until the cyclic GC ran.
            timer._handle = None
            node._timers.discard(timer)
            node.run_event(callback)

        timer._handle = loop.call_at(when, fire)
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


class _Link(asyncio.Protocol):
    """The one outbound connection to ``dst``, connecting from the
    moment it is made.  ``writable`` is true only while batches may go
    straight to ``transport``; otherwise ``RuntimeNode._enqueue_frames``
    holds them in ``_outgoing[dst]``."""

    __slots__ = ("node", "dst", "transport", "writable", "connecting")

    def __init__(self, node: "RuntimeNode", dst: int) -> None:
        self.node = node
        self.dst = dst
        self.transport: Optional[asyncio.Transport] = None
        self.writable = False
        self.connecting = asyncio.ensure_future(self._connect())

    async def _connect(self) -> None:
        """The only task on the send side: one per (re)connect."""
        host, port = self.node.peers[self.dst]
        try:
            await asyncio.get_running_loop().create_connection(
                lambda: self, host, port
            )
        except OSError:
            self.connection_lost(None)  # peer down: the backlog is dropped

    def connection_made(self, transport: asyncio.Transport) -> None:
        if self.node._links.get(self.dst) is not self:
            transport.abort()  # the node stopped while this was connecting
            return
        self.transport = transport
        self.resume_writing()

    def pause_writing(self) -> None:
        self.writable = False

    def resume_writing(self) -> None:
        """Hand over everything held, oldest first, in one call.  The
        transport may pause again while taking it; the backlog is in its
        buffer by then, ahead of whatever is enqueued next."""
        self.writable = True
        held = self.node._outgoing.pop(self.dst, None)
        if held:
            self.transport.writelines(held)
            self.node.env.observe("outbox_depth", dst=self.dst, depth=0)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        """The peer hung up, or (called by the connect task) was never
        reached: what was held for this link is dropped with it, and the
        next send connects afresh.  Retries ride on the protocol's own
        timers, which re-send fresh state."""
        self.writable = False
        node = self.node
        if node._links.get(self.dst) is self:
            del node._links[self.dst]
            if node._outgoing.pop(self.dst, None):
                node.env.observe("outbox_depth", dst=self.dst, depth=0)


class _Inbound(asyncio.Protocol):
    """One accepted connection: complete frames are sliced out of the
    ``bytes`` each socket read returns (many per read at saturation) and
    dispatched in the read callback; a partial frame waits in
    ``partial`` for the next read.  A handler exception propagates to
    the transport, which reports it to the loop's exception handler and
    closes this connection only."""

    __slots__ = ("node", "transport", "partial")

    def __init__(self, node: "RuntimeNode") -> None:
        self.node = node
        self.transport: Optional[asyncio.Transport] = None
        self.partial = bytearray()

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        if self.node.crashed:
            transport.abort()
        else:
            self.node._inbound.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.node._inbound.discard(self.transport)

    def data_received(self, data: bytes) -> None:
        node = self.node
        if node.crashed:
            return
        partial = self.partial
        if partial:
            partial += data
            data = partial
        header_size = FRAME_HEADER.size
        end = len(data)
        pos = 0
        try:
            while end - pos >= header_size:
                (size,) = FRAME_HEADER.unpack_from(data, pos)
                if size > MAX_FRAME:
                    raise FrameError(f"oversized frame: {size}")
                start = pos + header_size
                if end - start < size:
                    break
                sender, message = decode_message(data[start : start + size])
                pos = start + size
                node._dispatch(sender, message)
        except FrameError:
            # An oversized or undecodable frame: whatever sent it is not
            # a peer speaking this protocol.  Nothing behind the bad
            # frame can be trusted to be aligned, so this connection
            # goes; the node and its other connections carry on.
            node.env.observe("fault", event="bad_frame")
            self.transport.close()
            return
        if data is partial:
            del partial[:pos]
        elif pos < end:
            partial += data[pos:]


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
        self._server: Optional[asyncio.AbstractServer] = None
        self._links: dict[int, _Link] = {}
        self._inbound: set[asyncio.Transport] = set()
        # Flush batches held back per destination while its link is
        # connecting or paused; empty when every link is writable.
        self._outgoing: dict[int, list["bytes | bytearray"]] = {}
        self._stopping: Optional[asyncio.Future] = None
        super().__init__(node_id, protocol, RuntimeEnv, storage)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        host, port = self.peers[self.node_id]
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(lambda: _Inbound(self), host, port)
        self.run_event(self.protocol.on_start)

    async def stop(self) -> None:
        """Crash this node for real.

        Beyond the host's prologue (timers cancelled, unflushed records
        dropped), every link and every established inbound connection is
        aborted and the listening server closed -- a stopped node must
        not keep processing frames that arrive on sockets accepted
        before the "crash".  Connections go first: since Python 3.12.1
        ``Server.wait_closed()`` waits for the accepted ones, and peers
        only hang up when they stop themselves.  The node stays
        constructible into a new incarnation via :meth:`restart`.
        """
        if not self._crash_prologue():
            return
        for link in self._links.values():
            link.connecting.cancel()
            if link.transport is not None:
                link.transport.abort()
        self._links.clear()
        self._outgoing.clear()
        for transport in self._inbound:
            transport.abort()
        self._inbound.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def _fail_stop(self) -> None:
        # ``stop()`` is async, so the crash lands on the next loop tick;
        # the discarded outbox already guarantees no unpersisted ack
        # escaped.
        self._stopping = asyncio.ensure_future(self.stop())

    async def restart(self, protocol: Protocol, mode: str) -> None:
        """Boot a new incarnation of this node on the fresh
        ``protocol``: ``mode`` is ``"durable"`` or ``"amnesia"`` (see
        :meth:`Host._reboot`)."""
        self._reboot(protocol, mode)
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
        """Encode one flush batch for ``dst`` and write it to its link."""
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
        link = self._links.get(dst)
        if link is None:
            self._links[dst] = _Link(self, dst)
        elif link.writable:
            link.transport.write(frames)
            return
        held = self._outgoing.setdefault(dst, [])
        held.append(frames)
        # ``outbox_depth``: flush batches held back for ``dst`` -- the
        # backpressure signal a slow or unreachable peer produces.  Every
        # hold is a new depth, the flush or drop that ends it notes 0,
        # and the writable path above notes nothing.
        self.env.observe("outbox_depth", dst=dst, depth=len(held))

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------

    def _dispatch(self, sender: int, message: Message) -> None:
        self.run_event(self.protocol.on_message, sender, message)
