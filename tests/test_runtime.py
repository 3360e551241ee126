"""Tests for the asyncio runtime: codec round-trips and live clusters."""

import asyncio
import gc

import pytest

from repro.consensus.commands import Command, CStruct
from repro.consensus.epaxos import EpPreAccept
from repro.consensus.multipaxos import MpAccept, MultiPaxos
from repro.core.messages import Accept, AckAccept, AckPrepare, Forward, Prepare
from repro.core.protocol import M2Paxos
from repro.runtime.codec import (
    FRAME_HEADER,
    MAX_FRAME,
    FrameError,
    decode_message,
    encode_message,
)
from repro.runtime.cluster import LocalCluster
from repro.storage.base import StorageConfig


def _framed(payload: bytes) -> bytes:
    return FRAME_HEADER.pack(len(payload)) + payload


_GOOD_PAYLOAD = encode_message(1, Prepare(req=1, eps={("o", 1): 2}))[
    FRAME_HEADER.size :
]

# case -> what to write, given the payload of one well-formed frame
MALFORMED_FRAMES = {
    "zero-length payload": lambda payload: _framed(b""),
    "json": lambda payload: _framed(b'{"s":1,"m":{"__obj__":"Prepare"}}'),
    "wrong marker": lambda payload: _framed(b"\x00" + payload[1:]),
    "unknown class": lambda payload: _framed(b"\xb1\x02\x0a\x03Foo"),
    "truncated value": lambda payload: _framed(payload[:-1]),
    "trailing bytes": lambda payload: _framed(payload + b"\x00"),
    "not utf-8": lambda payload: _framed(b"\xb1\x02\x05\x02\xff\xfe"),
    "unknown tag": lambda payload: _framed(b"\xb1\x02\x7f"),
    "oversized": lambda payload: FRAME_HEADER.pack(MAX_FRAME + 1),
}


def roundtrip(message, sender=3):
    frame = encode_message(sender, message)
    (size,) = FRAME_HEADER.unpack(frame[: FRAME_HEADER.size])
    assert size == len(frame) - FRAME_HEADER.size
    got_sender, got = decode_message(frame[FRAME_HEADER.size:])
    assert got_sender == sender
    return got


class TestCodec:
    def test_forward_roundtrip(self):
        command = Command.make(1, 7, ["a", "b"], payload_bytes=32)
        msg = Forward(command=command, hops=1)
        got = roundtrip(msg)
        assert got == msg
        assert got.command.ls == frozenset({"a", "b"})

    def test_accept_with_instance_keyed_dicts(self):
        c = Command.make(0, 0, ["x"])
        msg = Accept(req=5, to_decide={("x", 1): c}, eps={("x", 1): 2})
        got = roundtrip(msg)
        assert got == msg
        assert got.to_decide[("x", 1)].cid == (0, 0)

    def test_ack_accept_with_cids(self):
        msg = AckAccept(
            req=9,
            coordinator=2,
            ok=False,
            cids={("x", 1): (0, 4)},
            eps={("x", 1): 3},
            max_rnd=7,
        )
        assert roundtrip(msg) == msg

    def test_ack_prepare_with_nested_tuples(self):
        c = Command.make(0, 0, ["x", "y"])
        msg = AckPrepare(
            req=1,
            ok=True,
            decs={("x", 1): (c, 4, (("x", 1), ("y", 2)))},
        )
        got = roundtrip(msg)
        assert got.decs[("x", 1)][2] == (("x", 1), ("y", 2))

    def test_prepare_roundtrip(self):
        msg = Prepare(req=2, eps={("x", 3): 9, ("y", 1): 4})
        assert roundtrip(msg) == msg

    def test_none_command_encodes(self):
        msg = AckPrepare(req=1, ok=True, decs={("x", 1): (None, 0, ())})
        got = roundtrip(msg)
        assert got.decs[("x", 1)][0] is None

    def test_multipaxos_message(self):
        msg = MpAccept(view=3, slot=7, command=Command.make(1, 2, ["k"]))
        assert roundtrip(msg) == msg

    def test_epaxos_frozenset_deps(self):
        msg = EpPreAccept(
            instance=(0, 1),
            ballot=0,
            command=Command.make(0, 0, ["x"]),
            seq=4,
            deps=frozenset({(1, 2), (2, 3)}),
        )
        got = roundtrip(msg)
        assert got.deps == frozenset({(1, 2), (2, 3)})

    def test_noop_flag_survives(self):
        from repro.consensus.commands import make_noop

        msg = Forward(command=make_noop("x", 2, 5), hops=0)
        assert roundtrip(msg).command.noop


    @pytest.mark.parametrize("case", sorted(set(MALFORMED_FRAMES) - {"oversized"}))
    def test_malformed_payload_is_a_frame_error(self, case):
        frame = MALFORMED_FRAMES[case](_GOOD_PAYLOAD)
        with pytest.raises(ValueError) as caught:
            decode_message(frame[FRAME_HEADER.size :])
        assert type(caught.value) is FrameError


class TestLiveCluster:
    def run(self, coro):
        return asyncio.run(asyncio.wait_for(coro, timeout=30))

    def test_m2paxos_over_tcp(self):
        async def scenario():
            cluster = LocalCluster(3, lambda i, n: M2Paxos())
            await cluster.start()
            try:
                for seq in range(5):
                    cluster.propose(0, Command.make(0, seq, ["alpha"]))
                await cluster.wait_delivered(5)
                orders = {
                    tuple(c.cid for c in cluster.delivered(i)) for i in range(3)
                }
                assert orders == {tuple((0, s) for s in range(5))}
            finally:
                await cluster.stop()

        self.run(scenario())

    def test_m2paxos_concurrent_proposers_consistent(self):
        async def scenario():
            cluster = LocalCluster(3, lambda i, n: M2Paxos())
            await cluster.start()
            try:
                for node in range(3):
                    for seq in range(3):
                        cluster.propose(node, Command.make(node, seq, ["shared"]))
                await cluster.wait_delivered(9)
                structs = []
                for i in range(3):
                    cs = CStruct()
                    for c in cluster.delivered(i):
                        cs.append(c)
                    structs.append(cs)
                for i in range(3):
                    for j in range(i + 1, 3):
                        assert structs[i].is_prefix_compatible(structs[j])
            finally:
                await cluster.stop()

        self.run(scenario())

    def test_adaptive_switcher_over_tcp(self):
        """The switcher wraps every inner message in an envelope class of
        its own; those must cross real sockets like any other message."""
        from repro.core.switcher import AdaptiveSwitcher

        async def scenario():
            cluster = LocalCluster(3, lambda i, n: AdaptiveSwitcher())
            await cluster.start()
            try:
                for seq in range(6):
                    node = seq % 3
                    cluster.propose(node, Command.make(node, seq, ["shared"]))
                await cluster.wait_delivered(6)
            finally:
                await cluster.stop()

        self.run(scenario())

    def test_malformed_frames_cost_one_connection_not_the_node(self):
        """Whatever arrives on the listening socket is outside input: a
        bad frame ends the connection it came in on, nothing else."""

        async def scenario():
            cluster = LocalCluster(3, lambda i, n: M2Paxos())
            escaped = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: escaped.append(context)
            )
            await cluster.start()
            try:
                # Peer connections exist before the hostile ones do.
                cluster.propose(0, Command.make(0, 0, ["alpha"]))
                await cluster.wait_delivered(1)
                host, port = cluster.peers[1]
                for case, data in MALFORMED_FRAMES.items():
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(data(_GOOD_PAYLOAD))
                    eof = await asyncio.wait_for(reader.read(), timeout=5)
                    assert eof == b"", case
                    writer.close()
                cluster.propose(1, Command.make(1, 0, ["alpha"]))
                cluster.propose(0, Command.make(0, 1, ["alpha"]))
                await cluster.wait_delivered(3)
            finally:
                await cluster.stop()
            gc.collect()  # a dropped task reports its exception on collection
            assert escaped == []

        self.run(scenario())

    def test_multipaxos_over_tcp(self):
        async def scenario():
            cluster = LocalCluster(3, lambda i, n: MultiPaxos())
            await cluster.start()
            try:
                cluster.propose(1, Command.make(1, 0, ["k"]))
                cluster.propose(2, Command.make(2, 0, ["k"]))
                await cluster.wait_delivered(2)
                orders = {
                    tuple(c.cid for c in cluster.delivered(i)) for i in range(3)
                }
                assert len(orders) == 1
            finally:
                await cluster.stop()

        self.run(scenario())


class TestRuntimeChaos:
    """True crash--restart and wire faults over real TCP."""

    def run(self, coro):
        return asyncio.run(asyncio.wait_for(coro, timeout=30))

    def test_crashed_node_processes_nothing(self):
        async def scenario():
            cluster = LocalCluster(3, lambda i, n: M2Paxos())
            await cluster.start()
            try:
                cluster.propose(0, Command.make(0, 0, ["x"]))
                await cluster.wait_delivered(1)
                await cluster.crash(1)
                frozen = len(cluster.delivered(1))
                assert cluster.nodes[1]._timers == set()
                for seq in range(1, 4):
                    cluster.propose(0, Command.make(0, seq, ["x"]))
                await cluster.wait_delivered(4, nodes=[0, 2])
                # The dead node saw none of it: no server, and its old
                # inbound connections were closed at crash time.
                assert len(cluster.delivered(1)) == frozen
                # Proposals to a dead node are refused outright.
                cluster.propose(1, Command.make(1, 0, ["x"]))
                await asyncio.sleep(0.1)
                assert len(cluster.delivered(1)) == frozen
            finally:
                await cluster.stop()

        self.run(scenario())

    def test_durable_restart_over_tcp_catches_up(self):
        async def scenario():
            cluster = LocalCluster(
                3, lambda i, n: M2Paxos(), storage=StorageConfig(kind="mem")
            )
            await cluster.start()
            try:
                for seq in range(3):
                    cluster.propose(0, Command.make(0, seq, ["x"]))
                await cluster.wait_delivered(3)
                await cluster.crash(1)
                for seq in range(3, 6):
                    cluster.propose(0, Command.make(0, seq, ["x"]))
                await cluster.wait_delivered(6, nodes=[0, 2])
                await cluster.restart(1, mode="durable")
                # Learn re-sends fill in what the node missed while down.
                await cluster.wait_delivered(6, node_id=1, timeout=15.0)
                assert [c.cid for c in cluster.delivered(1)] == [
                    (0, s) for s in range(6)
                ]
            finally:
                await cluster.stop()

        self.run(scenario())

    def test_amnesia_restart_over_tcp_rejoins_blank(self):
        async def scenario():
            cluster = LocalCluster(3, lambda i, n: M2Paxos())
            await cluster.start()
            try:
                for seq in range(3):
                    cluster.propose(2, Command.make(2, seq, ["y"]))
                await cluster.wait_delivered(3)
                await cluster.crash(2)
                await cluster.restart(2, mode="amnesia")
                assert cluster.delivered(2) == []
                assert len(cluster.nodes[2].delivery_history) == 1
                assert len(cluster.nodes[2].delivery_history[0]) == 3
                # The blank node participates again: new commands on a
                # fresh object reach everyone, including it.
                for seq in range(3):
                    cluster.propose(0, Command.make(0, seq, ["z"]))
                await cluster.wait_delivered(3, nodes=[0, 1])
                await cluster.wait_delivered(3, node_id=2, timeout=15.0)
                zs = [c.cid for c in cluster.delivered(2) if "z" in c.ls]
                assert zs == [(0, s) for s in range(3)]
            finally:
                await cluster.stop()

        self.run(scenario())

    def test_wire_faults_shim_duplicates_are_deduped(self):
        async def scenario():
            from repro.chaos import DuplicateWindow, FaultPlan

            cluster = LocalCluster(3, lambda i, n: M2Paxos())
            await cluster.start()
            try:
                cluster.attach_faults(
                    FaultPlan(
                        duplicates=(
                            DuplicateWindow(start=0.0, end=60.0, probability=1.0),
                        )
                    ),
                    seed=3,
                )
                for seq in range(5):
                    cluster.propose(0, Command.make(0, seq, ["w"]))
                await cluster.wait_delivered(5)
                dup_total = sum(
                    node.wire_faults.duplicated for node in cluster.nodes
                )
                assert dup_total > 0
                for i in range(3):
                    assert [c.cid for c in cluster.delivered(i)] == [
                        (0, s) for s in range(5)
                    ]
            finally:
                await cluster.stop()

        self.run(scenario())

    def test_wire_faults_drop_window_heals(self):
        async def scenario():
            from repro.chaos import DropWindow, FaultPlan

            cluster = LocalCluster(3, lambda i, n: M2Paxos())
            await cluster.start()
            try:
                # Sever node 0 -> node 1 briefly; retries ride over it.
                cluster.attach_faults(
                    FaultPlan(
                        drops=(
                            DropWindow(
                                start=0.0, end=0.3, probability=1.0, dst=1
                            ),
                        )
                    ),
                    seed=4,
                )
                for seq in range(3):
                    cluster.propose(0, Command.make(0, seq, ["v"]))
                await cluster.wait_delivered(3, timeout=15.0)
                orders = {
                    tuple(c.cid for c in cluster.delivered(i)) for i in range(3)
                }
                assert orders == {tuple((0, s) for s in range(3))}
            finally:
                await cluster.stop()

        self.run(scenario())
