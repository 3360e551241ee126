"""The TCP runtime's transport: framing across reads, send order across
pause, resume and reconnect, what a failing handler and a crash cost,
teardown order, and the per-command task budget.

Each test here either fails at the streams transport this one replaced
or pins behaviour nothing else covers; ``tests/test_runtime.py`` and
``tests/test_outbox.py`` hold the end-to-end cluster cases.
"""

import asyncio
import socket
from dataclasses import dataclass

from repro.consensus.base import EnvObserver, Message
from repro.consensus.commands import Command
from repro.core.messages import Prepare
from repro.core.protocol import M2Paxos
from repro.runtime.cluster import LocalCluster
from repro.runtime.codec import (
    FRAME_HEADER,
    decode_message,
    encode_message,
    register_message,
)
from repro.runtime.driver import PipelineDriver
from repro.runtime import node as runtime_node
from repro.runtime.node import RuntimeNode
from repro.storage.base import StorageConfig


@dataclass(frozen=True)
class Blob(Message):
    tag: int
    body: str = ""


register_message(Blob)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


def record_blobs(node: RuntimeNode) -> list:
    """Divert ``Blob`` frames arriving at ``node`` into the returned
    list; everything else still reaches the protocol."""
    received: list = []
    original = node._dispatch

    def dispatch(sender, message):
        if isinstance(message, Blob):
            received.append((sender, message))
        else:
            original(sender, message)

    node._dispatch = dispatch
    return received


async def until(condition, timeout: float = 10.0) -> None:
    async def poll():
        while not condition():
            await asyncio.sleep(0.002)

    await asyncio.wait_for(poll(), timeout)


class Notes(EnvObserver):
    """Every ``outbox_depth`` note of one node, in order."""

    note_kinds = frozenset({"outbox_depth"})
    wants_handler_timing = False

    def __init__(self) -> None:
        self.depths: list[tuple[int, int]] = []

    def on_note(self, node_id, kind, fields) -> None:
        self.depths.append((fields["dst"], fields["depth"]))


# ----------------------------------------------------------------------
# (i) framing does not depend on where the socket cut the stream
# ----------------------------------------------------------------------


class _NullTransport:
    closed = False

    def close(self) -> None:
        self.closed = True


def _inbound():
    """An ``_Inbound`` on a node that records instead of dispatching."""
    node = RuntimeNode(0, {0: ("127.0.0.1", 1)}, M2Paxos())
    dispatched: list = []
    node._dispatch = lambda sender, message: dispatched.append((sender, message))
    inbound = runtime_node._Inbound(node)
    inbound.transport = _NullTransport()
    return inbound, dispatched


def test_a_stream_cut_anywhere_dispatches_the_same_frames():
    sent = [
        (2, Blob(1)),
        (1, Prepare(req=7, eps={("o", 1): 2})),
        (2, Blob(3, "x" * 300)),
    ]
    stream = b"".join(encode_message(sender, message) for sender, message in sent)
    for cut in range(len(stream) + 1):
        inbound, dispatched = _inbound()
        inbound.data_received(stream[:cut])
        inbound.data_received(stream[cut:])
        assert dispatched == sent, cut
        assert not inbound.partial and not inbound.transport.closed


def test_a_stream_fed_a_byte_at_a_time_and_200_frames_in_one_read():
    sent = [(tag % 3, Blob(tag, "y" * (tag % 7))) for tag in range(200)]
    stream = b"".join(encode_message(sender, message) for sender, message in sent)
    inbound, dispatched = _inbound()
    inbound.data_received(stream)
    assert dispatched == sent
    inbound, dispatched = _inbound()
    for i in range(len(stream)):
        inbound.data_received(stream[i : i + 1])
    assert dispatched == sent and not inbound.partial


# ----------------------------------------------------------------------
# (ii) send order across pause_writing / resume_writing
# ----------------------------------------------------------------------


def test_frames_held_while_paused_arrive_in_order_and_the_depth_returns_to_zero():
    async def scenario():
        loop = asyncio.get_running_loop()
        listener = socket.socket()
        # Small kernel buffers on both ends, so the transport's fills fast.
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.setblocking(False)
        node = RuntimeNode(
            0, {0: ("127.0.0.1", 1), 1: listener.getsockname()}, M2Paxos()
        )
        notes = Notes()
        node.env.add_observer(notes)
        body = "z" * 32768
        peer = None
        try:
            node.enqueue(1, [Blob(0, body)])
            peer, _ = await loop.sock_accept(listener)  # ... and never reads
            await until(lambda: node._links[1].writable)
            link = node._links[1]
            link.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            assert notes.depths == [(1, 1), (1, 0)]  # held while connecting
            del notes.depths[:]
            tags = 1
            while link.writable:  # until pause_writing fires
                assert tags < 4096, "the transport never paused"
                node.enqueue(1, [Blob(tags, body)])
                tags += 1
            for _ in range(5):  # held back, not written
                node.enqueue(1, [Blob(tags, body)])
                tags += 1
            assert len(node._outgoing[1]) == 5
            assert notes.depths == [(1, depth) for depth in range(1, 6)]

            received = bytearray()
            got: list[int] = []
            while len(got) < tags:
                chunk = await loop.sock_recv(peer, 1 << 20)
                assert chunk, "the link closed before everything arrived"
                received += chunk
                while len(received) >= FRAME_HEADER.size:
                    (size,) = FRAME_HEADER.unpack_from(received)
                    if len(received) < FRAME_HEADER.size + size:
                        break
                    frame = bytes(received[FRAME_HEADER.size : FRAME_HEADER.size + size])
                    del received[: FRAME_HEADER.size + size]
                    sender, message = decode_message(frame)
                    assert sender == 0 and message.body == body
                    got.append(message.tag)
            assert got == list(range(tags)) and not received
            assert notes.depths[-1] == (1, 0) and not node._outgoing.get(1)
            assert link.writable
        finally:
            if peer is not None:
                peer.close()
            listener.close()
            await node.stop()

    run(scenario())


# ----------------------------------------------------------------------
# (iii) send order across a reconnect
# ----------------------------------------------------------------------


def test_frames_after_a_peer_restart_are_in_send_order_with_nothing_replayed():
    async def scenario():
        cluster = LocalCluster(2, lambda i, n: M2Paxos(), storage=StorageConfig(kind="mem"))
        await cluster.start()
        received = record_blobs(cluster.nodes[1])
        src = cluster.nodes[0]
        tag = 0

        async def stream_until(condition):
            nonlocal tag
            while not condition():
                src.enqueue(1, [Blob(tag)])
                tag += 1
                await asyncio.sleep(0.001)

        try:
            await stream_until(lambda: len(received) >= 20)
            await cluster.crash(1)
            before = len(received)
            first_while_down = tag
            await stream_until(lambda: tag >= first_while_down + 20)
            # Every connect attempt failed and took its backlog with it.
            await until(lambda: 1 not in src._links)
            assert not src._outgoing
            assert len(received) == before  # a dead node dispatches nothing
            await cluster.restart(1)
            first_after_restart = tag
            await stream_until(lambda: len(received) >= before + 20)
            tags = [message.tag for _sender, message in received]
            assert tags == sorted(set(tags))  # send order, no frame twice
            assert tags[:before] == list(range(before))
            # What the new connection carries was sent to the new
            # incarnation: nothing held from before the restart.
            assert tags[before] >= first_after_restart
            assert tags[before:] == list(range(tags[before], tags[-1] + 1))
        finally:
            await cluster.stop()

    run(scenario())


# ----------------------------------------------------------------------
# (iv) a handler that raises costs its connection, not the node
# ----------------------------------------------------------------------


def test_a_raising_handler_is_reported_once_and_costs_one_connection():
    async def scenario():
        cluster = LocalCluster(3, lambda i, n: M2Paxos())
        escaped = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: escaped.append(context)
        )
        await cluster.start()
        try:
            for node in range(3):  # every node connects to every other
                cluster.propose(node, Command.make(node, 0, ["alpha"]))
            await cluster.wait_delivered(3)
            target = cluster.nodes[1]
            original = target._dispatch

            def dispatch(sender, message):
                if isinstance(message, Blob):
                    raise RuntimeError("handler blew up")
                original(sender, message)

            target._dispatch = dispatch
            connections = len(target._inbound)
            assert connections == 2
            cluster.nodes[0].enqueue(1, [Blob(0), Blob(1)])
            await until(lambda: escaped)
            await until(lambda: len(target._inbound) == connections - 1)
            await until(lambda: 1 not in cluster.nodes[0]._links)
            assert len(escaped) == 1
            assert isinstance(escaped[0]["exception"], RuntimeError)
            for node in (1, 0, 2):
                cluster.propose(node, Command.make(node, 1, ["alpha"]))
            await cluster.wait_delivered(6)
        finally:
            await cluster.stop()
        assert len(escaped) == 1

    run(scenario())


# ----------------------------------------------------------------------
# (v) crash: nothing from sockets accepted before it; teardown order
# ----------------------------------------------------------------------


def test_bytes_waiting_in_an_accepted_socket_at_the_crash_are_never_dispatched():
    async def scenario():
        cluster = LocalCluster(2, lambda i, n: M2Paxos())
        await cluster.start()
        target = cluster.nodes[1]
        received = record_blobs(target)
        peer = socket.create_connection(cluster.peers[1])
        try:
            peer.sendall(encode_message(0, Blob(0)))
            await until(lambda: len(received) == 1)
            # In the kernel's buffer for the accepted socket before the
            # node crashes, and the loop has not polled since.
            peer.sendall(encode_message(0, Blob(1)) * 50)
            await cluster.crash(1)
            await asyncio.sleep(0.05)
            assert [message.tag for _s, message in received] == [0]
            assert not target._inbound
            # Straight into a dead node's read callback: still nothing.
            inbound = runtime_node._Inbound(target)
            inbound.data_received(encode_message(0, Blob(2)))
            assert len(received) == 1
        finally:
            peer.close()
            await cluster.stop()

    run(scenario())


def test_stop_and_crash_return_while_peers_hold_their_connections():
    """``Server.wait_closed()`` waits for accepted connections since
    Python 3.12.1, and a live peer never hangs up first."""

    async def scenario():
        cluster = LocalCluster(3, lambda i, n: M2Paxos())
        await cluster.start()
        for node in range(3):
            cluster.propose(node, Command.make(node, 0, ["alpha"]))
        await cluster.wait_delivered(3)
        assert all(len(node._inbound) == 2 for node in cluster.nodes)
        await asyncio.wait_for(cluster.crash(1), 5)
        cluster.propose(0, Command.make(0, 1, ["alpha"]))
        await cluster.wait_delivered(4, nodes=[0, 2])
        await asyncio.wait_for(cluster.stop(), 5)

    run(scenario())


def test_stop_closes_every_accepted_connection_before_it_waits_for_the_server():
    async def scenario():
        cluster = LocalCluster(3, lambda i, n: M2Paxos())
        await cluster.start()
        try:
            for proposer in range(3):
                cluster.propose(proposer, Command.make(proposer, 0, ["alpha"]))
            await cluster.wait_delivered(3)
            node = cluster.nodes[1]
            accepted = list(node._inbound)
            assert len(accepted) == 2
            server = node._server
            wait_closed = server.wait_closed
            seen = []

            async def recording_wait_closed():
                seen.append([transport.is_closing() for transport in accepted])
                await wait_closed()

            server.wait_closed = recording_wait_closed
            await asyncio.wait_for(node.stop(), 5)
            assert seen == [[True, True]]
        finally:
            await cluster.stop()

    run(scenario())


# ----------------------------------------------------------------------
# (vi) the per-command task budget
# ----------------------------------------------------------------------


def test_a_warm_cluster_creates_at_most_two_tasks_per_command():
    """The transport itself creates none once the links are up (the
    streams transport made one per flush, 6.7 per command in all); what
    is left belongs to ``PipelineDriver``'s ``wait_for``."""

    async def scenario():
        loop = asyncio.get_running_loop()
        created = 0

        def counting_factory(loop, coro, **kwargs):
            nonlocal created
            created += 1
            return asyncio.Task(coro, loop=loop, **kwargs)

        def proposals(first_seq, count):
            return [
                (node, Command.make(node, seq, [f"own-{node}"]))
                for seq in range(first_seq, first_seq + count)
                for node in range(3)
            ]

        cluster = LocalCluster(3, lambda i, n: M2Paxos())
        await cluster.start()
        try:
            await PipelineDriver(cluster, depth=1).run(proposals(0, 20))
            loop.set_task_factory(counting_factory)
            measured = proposals(20, 100)
            await PipelineDriver(cluster, depth=1).run(measured)
            loop.set_task_factory(None)
            assert not any(held for node in cluster.nodes for held in node._outgoing.values())
            return created / len(measured)
        finally:
            await cluster.stop()

    per_command = run(scenario())
    assert per_command <= 2.0, per_command
