"""Unit tests for the Env outbox pipeline and runtime send hardening.

The outbox is the tentpole of the effect pipeline: every protocol
event's sends are buffered, grouped per destination, observed by flush
hooks, and handed to the substrate in one ``_flush``.  These tests pin
the contract with a bare recording Env, then exercise the runtime-side
guarantees the refactor bought: in-order wire delivery under concurrent
sends and clean shutdown (no timer callbacks or writes after ``stop``).
"""

import asyncio
import random
from dataclasses import dataclass

import pytest

from repro.consensus.base import Env, EnvObserver, Message, TimerHandle
from repro.consensus.commands import Command
from repro.core.protocol import M2Paxos
from repro.runtime.cluster import LocalCluster
from repro.runtime.codec import register_message
from repro.storage.base import StorageConfig
from repro.storage.mem import MemStorage


@dataclass(frozen=True)
class Note(Message):
    tag: int


register_message(Note)


class RecordingEnv(Env):
    """Minimal Env: records every _transmit and _flush."""

    def __init__(self):
        self.node_id = 0
        self.n_nodes = 3
        self.transmitted = []
        self.flushed = []

    def _transmit(self, dst, message):
        self.transmitted.append((dst, message))

    def _flush(self, queued, batches):
        self.flushed.append((list(queued), {d: list(m) for d, m in batches.items()}))
        super()._flush(queued, batches)

    def set_timer_at(self, when, callback) -> TimerHandle:
        raise NotImplementedError

    def now(self):
        return 0.0

    def _deliver(self, command):
        raise NotImplementedError

    @property
    def rng(self):
        return random.Random(0)


class TestOutbox:
    def test_send_outside_event_transmits_immediately(self):
        env = RecordingEnv()
        env.send(2, Note(1))
        assert env.transmitted == [(2, Note(1))]
        assert env.flushed == []

    def test_event_buffers_and_flushes_batches(self):
        env = RecordingEnv()
        env.begin_event()
        env.send(1, Note(1))
        env.send(2, Note(2))
        env.send(1, Note(3))
        assert env.transmitted == []  # buffered
        env.end_event()
        [(queued, batches)] = env.flushed
        assert queued == [(1, Note(1)), (2, Note(2)), (1, Note(3))]
        assert batches == {1: [Note(1), Note(3)], 2: [Note(2)]}
        # Default _flush preserves issue order.
        assert env.transmitted == queued

    def test_nested_events_flush_once_at_outermost_exit(self):
        env = RecordingEnv()
        env.begin_event()
        env.send(1, Note(1))
        env.begin_event()
        env.send(2, Note(2))
        env.end_event()
        assert env.flushed == []  # inner exit does not flush
        env.end_event()
        assert len(env.flushed) == 1
        assert env.flushed[0][0] == [(1, Note(1)), (2, Note(2))]

    def test_empty_event_does_not_flush(self):
        env = RecordingEnv()
        env.begin_event()
        env.end_event()
        assert env.flushed == []

    def test_flush_hooks_see_queued_and_batches(self):
        env = RecordingEnv()
        seen = []
        env.add_flush_hook(lambda src, queued, batches: seen.append((src, len(queued), dict(batches))))
        env.begin_event()
        env.broadcast(Note(7), include_self=False)
        env.end_event()
        assert seen == [(0, 2, {1: [Note(7)], 2: [Note(7)]})]

    def test_flush_happens_even_if_event_raises(self):
        # SimNode.run_event / RuntimeNode.run_event call end_event in a
        # finally block; verify the outbox itself stays consistent when
        # balanced that way around an exception.
        env = RecordingEnv()
        env.begin_event()
        try:
            env.send(1, Note(1))
            raise RuntimeError("handler blew up")
        except RuntimeError:
            pass
        finally:
            env.end_event()
        assert env._event_depth == 0
        assert len(env.flushed) == 1


class _Armed(TimerHandle):
    def cancel(self) -> None:
        pass


class WindowEnv(RecordingEnv):
    """RecordingEnv with a store bound: timers are captured, deliveries
    and flushes go into one ``trace`` so their order can be asserted."""

    def __init__(self, storage=None):
        super().__init__()
        self.timers = []
        self.trace = []
        if storage is not None:
            self.storage = storage
            storage.attach(self, lambda: None)

    def set_timer_at(self, when, callback) -> TimerHandle:
        self.timers.append(callback)
        return _Armed()

    def _deliver(self, command):
        if command.cid[1] < 0:
            raise RuntimeError("listener blew up")
        self.trace.append(("deliver", command.cid))

    def _flush(self, queued, batches):
        self.trace.append(("flush", len(queued)))
        super()._flush(queued, batches)

    def event(self, seq, sends, record=True):
        """One protocol event: a log record, a delivery, some sends."""
        self.begin_event()
        if record:
            self.storage.append(2, b"record")
        self.deliver(Command.make(0, seq, ["x"]))
        for dst, tag in sends:
            self.send(dst, Note(tag))
        self.end_event()


class _FlushCounter(EnvObserver):
    def __init__(self):
        self.flushes = []

    def on_flush(self, node_id, queued, batches):
        self.flushes.append((list(queued), {d: list(m) for d, m in batches.items()}))


class TestCommitWindow:
    def test_one_window_is_one_flush(self):
        env = WindowEnv(MemStorage(StorageConfig(kind="mem", fsync_wait=0.01)))
        hooked, observer = [], _FlushCounter()
        env.add_flush_hook(lambda src, queued, batches: hooked.append(list(queued)))
        env.add_observer(observer)
        env.event(0, [(1, 10), (2, 11)])
        env.event(1, [])  # sends nothing: its release must not see event 2's
        env.event(2, [(2, 12)], record=False)  # queues behind the open window
        env.event(3, [(1, 13), (1, 14)])
        assert env.trace == [] and len(env.timers) == 1  # all four gated
        env.timers[0]()
        queued = [(1, Note(10)), (2, Note(11)), (2, Note(12)), (1, Note(13)), (1, Note(14))]
        batches = {1: [Note(10), Note(13), Note(14)], 2: [Note(11), Note(12)]}
        assert hooked == [queued]
        assert observer.flushes == [(queued, batches)]
        assert env.flushed == [(queued, batches)]
        assert env.transmitted == queued
        # Every delivery of the window ran before anything was sent.
        assert env.trace == [("deliver", (0, seq)) for seq in range(4)] + [("flush", 5)]
        assert env.storage.fsyncs == 1

    def test_raising_release_leaves_nothing_held(self):
        env = WindowEnv(MemStorage(StorageConfig(kind="mem", fsync_wait=0.01)))
        env.event(0, [(1, 10)])
        env.event(-1, [(1, 11)])  # its delivery raises, inside the release
        env.event(2, [(1, 12)])
        with pytest.raises(RuntimeError, match="listener blew up"):
            env.timers[0]()
        # What was released before the failure still went out, once.
        assert env.transmitted == [(1, Note(10))]
        # The window is closed and the env is back on the per-event path.
        env.event(3, [(2, 13)], record=False)
        assert env.transmitted == [(1, Note(10)), (2, Note(13))]
        assert len(env.flushed) == 2

    @pytest.mark.parametrize(
        "config", [None, StorageConfig(kind="mem")], ids=["null", "sync"]
    )
    def test_without_a_window_every_event_flushes_itself(self, config):
        env = WindowEnv(config and MemStorage(config))
        for seq in range(3):
            env.event(seq, [(1, seq), (2, seq)])
            assert len(env.flushed) == seq + 1
            assert env.trace[-2:] == [("deliver", (0, seq)), ("flush", 2)]
        assert env.timers == []


class TestRuntimeHardening:
    def run(self, coro):
        return asyncio.run(asyncio.wait_for(coro, timeout=30))

    def test_frames_arrive_in_send_order(self):
        """Many sends queued before the connection is even up must reach
        the peer in order -- the race the per-destination sender task
        fixed (concurrent ``open_connection`` futures used to interleave
        their writes)."""

        async def scenario():
            cluster = LocalCluster(2, lambda i, n: M2Paxos())
            await cluster.start()
            received = []
            target = cluster.nodes[1]
            original = target._dispatch

            def recording_dispatch(sender, message):
                if isinstance(message, Note):
                    received.append((sender, message))
                else:
                    original(sender, message)

            target._dispatch = recording_dispatch
            try:
                src = cluster.nodes[0]
                for tag in range(50):
                    src.enqueue(1, [Note(tag)])
                while len(received) < 50:
                    await asyncio.sleep(0.005)
                tags = [m.tag for _s, m in received if isinstance(m, Note)]
                assert tags == list(range(50))
            finally:
                await cluster.stop()

        self.run(scenario())

    def test_stop_cancels_timers_and_silences_sends(self):
        async def scenario():
            cluster = LocalCluster(3, lambda i, n: M2Paxos())
            await cluster.start()
            node = cluster.nodes[0]
            cluster.propose(0, Command.make(0, 0, ["k"]))
            await cluster.wait_delivered(1)
            # A live M2Paxos node keeps periodic timers (gap checker).
            assert node._timers
            await cluster.stop()
            assert not node._timers
            assert node.crashed
            # Post-stop sends are dropped, not queued or written.
            node.enqueue(1, [Note(0)])
            assert node._outgoing == {}
            node.propose(Command.make(0, 1, ["k"]))  # no-op, must not raise
            # Give any stray callbacks a chance to fire into the closed
            # node; run_event's crashed guard must discard them.
            await asyncio.sleep(0.05)

        self.run(scenario())
