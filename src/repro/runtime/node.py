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

Failure semantics match the simulator's: :meth:`RuntimeNode.stop` is a
real crash (timers cancelled, senders killed, the listening server
*and* every established inbound connection closed, so a dead node
processes nothing), and :meth:`RuntimeNode.restart` boots a new
incarnation either durably or with amnesia.  An optional
:class:`~repro.chaos.injector.WireFaults` shim on the send path drops,
duplicates, or delays outbound messages per a declarative fault plan.
"""

from __future__ import annotations

import asyncio
import random
from typing import Callable, Optional

from repro.consensus.base import (
    Env,
    Message,
    Protocol,
    Storage,
    StorageFull,
    TimerHandle,
)
from repro.consensus.commands import Command
from repro.runtime.codec import (
    FRAME_HEADER,
    MAX_FRAME,
    FrameError,
    decode_message,
    encode_message,
    encode_message_into,
)
from repro.storage.recovery import recover_protocol

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
        if node._closed:
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
        self._node.delivered.append(command)
        now = self.now()
        for listener in self._node.deliver_listeners:
            listener(self.node_id, command, now)

    def _deliver_read(self, command: Command, result: object) -> None:
        self._node.on_read(command, result)

    @property
    def rng(self) -> random.Random:
        return self._rng


class RuntimeNode:
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
        self.node_id = node_id
        self.peers = peers
        self.protocol = protocol
        self.delivered: list[Command] = []
        # One entry per finished amnesia incarnation, as in SimNode.
        self.delivery_history: list[list[Command]] = []
        self.incarnation = 0
        # Same shape as SimNode's: ``listener(node_id, command, now)``,
        # so one metrics collector serves both substrates.
        self.deliver_listeners: list[Callable[[int, Command, float], None]] = []
        # Locally-served (leased) reads and exactly-once session replays,
        # kept apart from ``delivered``: served reads happen at the owner
        # alone and never enter the replicated decision log.
        self.read_log: list[tuple[Command, object]] = []
        self.read_listeners: list[
            Callable[[int, Command, object, float], None]
        ] = []
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
        self._timers: set[_AsyncTimer] = set()
        self._closed = False

        self.env = RuntimeEnv(self)
        if storage is not None:
            # The storage object survives crash/restart on the env,
            # exactly as a disk survives a process death (and for
            # DiskStorage it *is* real files).
            self.env.storage = storage
            storage.attach(self.env, lambda: self.protocol.snapshot_payload())
        protocol.bind(self.env)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        host, port = self.peers[self.node_id]
        self._server = await asyncio.start_server(self._on_connection, host, port)
        self.run_event(self.protocol.on_start)

    async def stop(self) -> None:
        """Crash this node for real.

        Beyond cancelling timers and senders, every established inbound
        connection is closed too -- a stopped node must not keep
        processing frames that arrive on sockets accepted before the
        "crash".  The node stays constructible into a new incarnation
        via :meth:`restart`.
        """
        if self._closed:
            return
        self.env.observe("fault", event="crash", incarnation=self.incarnation)
        self._closed = True
        # Protocol timers must not fire into a closed node: cancel every
        # live handle (fired/cancelled timers deregister themselves).
        for timer in list(self._timers):
            timer.cancel()
        self._timers.clear()
        # Records and group-commit releases not yet fsynced die with the
        # process; only what the storage flushed survives.
        self.env.storage.discard_pending()
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

    async def restart(
        self, protocol: Optional[Protocol] = None, *, recover: bool = False
    ) -> None:
        """Boot a new incarnation of this node.

        ``recover=True`` (requires a fresh ``protocol`` and a durable
        storage) replays the store's snapshot + log tail into it -- the
        same recovery scan the simulator's ``restart_from_storage``
        runs.  Otherwise ``protocol=None`` is the legacy durable-log
        restart (the protocol object survives; :meth:`Protocol.on_restart`
        clears volatile round state) and passing a fresh ``protocol``
        without ``recover`` is an amnesia restart (the old delivery log
        is archived, the node rejoins blank).
        """
        if not self._closed:
            raise RuntimeError(f"node {self.node_id} is not stopped")
        if recover:
            if protocol is None:
                raise ValueError("recover=True requires a fresh protocol")
            if not self.env.storage.durable:
                raise RuntimeError(
                    f"node {self.node_id} has no durable storage"
                )
        self.incarnation += 1
        if recover:
            mode = "durable"
            self.delivery_history.append(self.delivered)
            self.delivered = []
            protocol.bind(self.env)
            self.protocol = protocol
        elif protocol is None:
            mode = "durable"
            self.protocol.on_restart()
        else:
            mode = "amnesia"
            self.delivery_history.append(self.delivered)
            self.delivered = []
            protocol.bind(self.env)
            self.protocol = protocol
        self._closed = False
        self.env.observe(
            "fault",
            event="restart",
            mode=mode,
            incarnation=self.incarnation,
            recovered=recover,
        )
        if recover:

            def replay() -> None:
                stats = recover_protocol(self.protocol, self.env.storage)
                self.env.observe(
                    "recovery", delivered=len(self.delivered), **stats
                )

            self.run_event(replay)
        await self.start()

    # ------------------------------------------------------------------
    # Outbound
    # ------------------------------------------------------------------

    def run_event(self, fn: Callable[[], None]) -> None:
        """Run one protocol event inside the env's outbox scope.

        :class:`StorageFull` is fail-stop, as in the simulator: the
        event's outbox is discarded and the node crashes (``stop()`` is
        scheduled -- it is async -- but the discarded outbox already
        guarantees no unpersisted ack escaped)."""
        if self._closed:
            return
        self.env.begin_event()
        storage_failed = False
        try:
            try:
                fn()
            except StorageFull:
                storage_failed = True
        finally:
            try:
                self.env.end_event(discard=storage_failed)
            except StorageFull:
                storage_failed = True
                self.env.storage.discard_pending()
        if storage_failed:
            asyncio.ensure_future(self.stop())

    def propose(self, command: Command) -> None:
        if self._closed:
            # A dead machine takes no client requests.
            return
        self.env.observe_propose(command)
        self.run_event(lambda: self.protocol.propose(command))

    def on_read(self, command: Command, result: object) -> None:
        """Record one locally-served read/session-replay result."""
        if self._closed:
            return
        self.read_log.append((command, result))
        now = asyncio.get_running_loop().time()
        for listener in self.read_listeners:
            listener(self.node_id, command, result, now)

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
        if self._closed:
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
        if self._closed:
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
        while not self._closed:
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
                if self._closed:
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
            while not self._closed:
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
        self.run_event(lambda: self.protocol.on_message(sender, message))
