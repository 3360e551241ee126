"""The durable storage layer: record framing, the segmented log, crash
recovery, and the Storage API's wiring into both substrates.

Three levels:

- **record framing** -- seeded fuzz over frame/scan round-trips
  (payloads drawn from the same generator family as the codec fuzz),
  plus torn-write and bit-flip boundaries;
- **log engines** -- MemStorage / DiskStorage segment rolls, snapshots,
  group-commit gating, torn-tail truncation on recovery;
- **cluster integration** -- MemStorage with synchronous fsync produces
  *byte-identical* delivery logs to NullStorage (the no-durability
  default), durable crash-restart replays a byte-identical prefix,
  disk-full fail-stops one node while the quorum keeps going, and the
  asyncio runtime recovers over real TCP.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random

import pytest

from repro.consensus.base import NULL_STORAGE, StorageFull
from repro.consensus.commands import Command
from repro.core.protocol import M2Paxos, M2PaxosConfig
from repro.runtime.codec import decode_value_binary, encode_value_binary
from repro.sim.cluster import Cluster
from repro.spec import ClusterSpec
from repro.storage.base import StorageConfig
from repro.storage.disk import DiskStorage
from repro.storage.mem import MemStorage
from repro.storage.recovery import recover_protocol
from repro.storage.record import (
    frame_record,
    frame_snapshot,
    parse_snapshot,
    scan_records,
)

# Chaos-style timeouts: fast enough that recovery completes well inside
# the short simulated runs these tests drive.
_M2 = M2PaxosConfig(
    forward_timeout=0.05,
    supervise_timeout=0.6,
    round_timeout=0.3,
    gap_check_period=0.1,
    gap_timeout=0.3,
    learn_resend_timeout=0.15,
    learn_resend_attempts=80,
)


def _random_payload(rng: random.Random) -> bytes:
    """Record-payload fuzz: the value shapes the durability mixin logs
    (tuple-keyed dicts of commands, nested tuples, unicode object
    names), encoded with the same binary value codec."""
    value = rng.choice(
        [
            (rng.randrange(16), rng.randrange(-5, 1 << 40)),
            {("éléphant", rng.randrange(1 << 20)): rng.randrange(1 << 30)},
            {"o" * rng.randrange(40): (rng.randrange(8), rng.randrange(8))},
            (None, True, rng.random(), "x" * rng.randrange(64)),
            Command(
                cid=(rng.randrange(16), rng.randrange(1 << 20)),
                ls=frozenset({f"w{rng.randrange(9)}.{rng.randrange(9)}"}),
                payload_bytes=rng.randrange(1 << 16),
                proposer=rng.randrange(16),
            ),
        ]
    )
    return encode_value_binary(value)


class TestRecordFraming:
    def test_roundtrip_fuzz(self):
        rng = random.Random(42)
        for _ in range(50):
            records = [
                (seq + 1, rng.randrange(1, 8), _random_payload(rng))
                for seq in range(rng.randrange(1, 30))
            ]
            blob = b"".join(frame_record(*record) for record in records)
            scanned, clean_end = scan_records(blob)
            assert scanned == records
            assert clean_end == len(blob)

    def test_torn_tail_stops_scan(self):
        rng = random.Random(7)
        records = [(s + 1, 1, _random_payload(rng)) for s in range(10)]
        frames = [frame_record(*record) for record in records]
        blob = b"".join(frames)
        intact = len(blob) - len(frames[-1])
        for cut in (1, len(frames[-1]) // 2, len(frames[-1]) - 1):
            scanned, clean_end = scan_records(blob[: intact + cut])
            assert scanned == records[:-1]
            assert clean_end == intact

    def test_bit_flip_stops_scan_at_corruption(self):
        rng = random.Random(9)
        frames = [frame_record(s + 1, 2, _random_payload(rng)) for s in range(6)]
        blob = bytearray(b"".join(frames))
        # Flip a byte inside record 3's payload area.
        offset = sum(len(f) for f in frames[:3]) + len(frames[3]) // 2
        blob[offset] ^= 0x40
        scanned, clean_end = scan_records(bytes(blob))
        assert [seq for seq, _, _ in scanned] == [1, 2, 3]
        assert clean_end == sum(len(f) for f in frames[:3])

    def test_snapshot_roundtrip_and_corruption(self):
        payload = encode_value_binary({"state": (1, 2, 3)})
        framed = frame_snapshot(17, payload)
        assert parse_snapshot(framed) == (17, payload)
        assert parse_snapshot(framed[:-1]) is None  # truncated
        corrupt = bytearray(framed)
        corrupt[len(corrupt) // 2] ^= 0x01
        assert parse_snapshot(bytes(corrupt)) is None
        assert parse_snapshot(b"") is None


class _FakeTimer:
    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _FakeEnv:
    """Just enough Env for bare-storage tests: captures timers + notes."""

    def __init__(self) -> None:
        self.timers: list = []
        self.notes: list = []

    def set_timer(self, delay, callback):
        timer = _FakeTimer()
        self.timers.append((delay, callback, timer))
        return timer

    def observe(self, kind, **fields):
        self.notes.append((kind, fields))

    def run_releases(self, releases):
        for release in releases:
            release()


class TestLogEngines:
    def test_mem_segment_roll_and_recover(self):
        store = MemStorage(StorageConfig(kind="mem", segment_bytes=128))
        payloads = [b"r%03d" % i * 4 for i in range(40)]
        for payload in payloads:
            store.append(1, payload)
        store.commit(lambda: None)
        assert len(store._segments) > 1  # actually rolled
        recovered = MemStorage.recover(store)
        assert recovered.snapshot is None
        assert [p for _, p in recovered.records] == payloads

    def test_mem_torn_tail_truncated_on_recover(self):
        store = MemStorage(StorageConfig(kind="mem", segment_bytes=1 << 20))
        for i in range(10):
            store.append(1, b"payload-%d" % i)
        store.commit(lambda: None)
        # Tear the last record: recovery keeps the clean prefix and the
        # store stays appendable afterwards.
        del store._segments[-1][-3:]
        recovered = store.recover()
        assert [p for _, p in recovered.records] == [
            b"payload-%d" % i for i in range(9)
        ]
        store.append(1, b"after-recovery")
        store.commit(lambda: None)
        assert [p for _, p in store.recover().records][-1] == b"after-recovery"

    def test_group_commit_gates_release_until_fsync(self):
        env = _FakeEnv()
        store = MemStorage(StorageConfig(kind="mem", fsync_wait=0.01))
        store.attach(env, lambda: None)
        released: list[int] = []
        store.append(1, b"a")
        store.commit(lambda: released.append(1))
        store.append(1, b"b")
        store.commit(lambda: released.append(2))
        # Nothing persisted, nothing released: the window is open and
        # one timer covers both events.
        assert released == [] and store.fsyncs == 0
        assert len(env.timers) == 1
        env.timers[0][1]()  # fire the group-commit window
        assert released == [1, 2]
        assert store.fsyncs == 1 and store.records_flushed == 2

    def test_discard_pending_loses_unfsynced_records(self):
        env = _FakeEnv()
        store = MemStorage(StorageConfig(kind="mem", fsync_wait=0.01))
        store.attach(env, lambda: None)
        store.append(1, b"synced")
        store.commit(lambda: None)
        env.timers[0][1]()
        store.append(1, b"torn")
        store.commit(lambda: None)
        store.discard_pending()  # the crash
        assert [p for _, p in store.recover().records] == [b"synced"]
        # Sequence numbers of discarded records are reused, keeping the
        # log gapless for the next incarnation.
        store.append(1, b"next-life")
        store.commit(lambda: None)
        env.timers[-1][1]()  # the new incarnation's window closes
        scanned, _ = scan_records(bytes(store._segments[0]))
        assert [seq for seq, _, _ in scanned] == [1, 2]

    def test_capacity_raises_storage_full(self):
        store = MemStorage(
            StorageConfig(kind="mem", capacity_bytes=256), capacity=256
        )
        with pytest.raises(StorageFull):
            for i in range(100):
                store.append(1, b"x" * 32)
                store.commit(lambda: None)

    def test_disk_recover_snapshot_plus_tail(self, tmp_path):
        config = StorageConfig(kind="disk", dir=str(tmp_path))
        store = DiskStorage(config, str(tmp_path / "node-0"))
        for i in range(6):
            store.append(1, b"pre-%d" % i)
        store.commit(lambda: None)
        store.snapshot(b"snapshot-state")
        for i in range(3):
            store.append(2, b"tail-%d" % i)
        store.commit(lambda: None)
        store.close()
        # A different process (fresh object) reopens the same files.
        reopened = DiskStorage(config, str(tmp_path / "node-0"))
        recovered = reopened.recover()
        assert recovered.snapshot == b"snapshot-state"
        assert [(t, p) for t, p in recovered.records] == [
            (2, b"tail-%d" % i) for i in range(3)
        ]
        reopened.close()

    def test_disk_torn_write_truncated_on_recover(self, tmp_path):
        config = StorageConfig(kind="disk", dir=str(tmp_path))
        store = DiskStorage(config, str(tmp_path / "node-1"))
        for i in range(5):
            store.append(1, b"record-%d" % i)
        store.commit(lambda: None)
        store.close()
        # Tear the active segment's tail, as a crash mid-write would.
        seg = sorted((tmp_path / "node-1").glob("seg-*.log"))[-1]
        data = seg.read_bytes()
        seg.write_bytes(data[:-5])
        reopened = DiskStorage(config, str(tmp_path / "node-1"))
        recovered = reopened.recover()
        assert [p for _, p in recovered.records] == [
            b"record-%d" % i for i in range(4)
        ]
        # The torn bytes were physically truncated and appends continue.
        reopened.append(1, b"after")
        reopened.commit(lambda: None)
        reopened.close()
        final = DiskStorage(config, str(tmp_path / "node-1"))
        assert [p for _, p in final.recover().records][-1] == b"after"
        final.close()

    def test_retired_record_types_are_refused_by_name(self):
        """Types 1 and 3 were the per-command tuples of earlier builds.
        Skipping them like an unknown type would drop every vote and
        decision of such a log, so replay stops and names the type."""
        command = Command.make(0, 0, ["x"])
        old_accept = (0, False, {("x", 1): 3}, {("x", 1): command}, {})
        for rtype, value in ((1, old_accept), (3, (("x", 1), command))):
            store = MemStorage(StorageConfig(kind="mem"))
            store.append(rtype, encode_value_binary(value))
            store.commit(lambda: None)
            with pytest.raises(ValueError, match=f"record type {rtype}: "):
                recover_protocol(M2Paxos(), store)
        # A type this build has never written is a newer build's: skipped.
        M2Paxos().apply_log_record(9, b"anything")


# ----------------------------------------------------------------------
# Cluster integration (simulator)
# ----------------------------------------------------------------------


def _drive(
    storage: StorageConfig | None,
    seed: int,
    crash_node: int | None = None,
    crash_at: float = 0.25,
    restart_at: float = 0.6,
    rounds: int = 20,
    n_nodes: int = 3,
    m2: M2PaxosConfig = _M2,
    cut_off: int | None = None,
) -> Cluster:
    """One seeded run: every node proposes on its own object plus an
    occasionally-shared one, with an optional durable crash-restart, or
    with node ``cut_off`` partitioned from the rest for a while."""
    cluster = Cluster(
        ClusterSpec(n_nodes=n_nodes, seed=seed, storage=storage),
        lambda i, n: M2Paxos(m2),
    )
    cluster.start()
    for round_nr in range(rounds):
        at = 0.05 + round_nr * 0.02
        for node in range(n_nodes):
            obj = f"obj{node}" if round_nr % 4 else "shared"
            cluster.loop.schedule_at(
                at,
                lambda node=node, round_nr=round_nr, obj=obj: cluster.propose(
                    node, Command.make(node, round_nr, [obj])
                ),
            )
    if crash_node is not None:
        cluster.loop.schedule_at(
            crash_at, lambda: cluster.crash(crash_node)
        )
        cluster.loop.schedule_at(
            restart_at, lambda: cluster.restart(crash_node, "durable")
        )
    if cut_off is not None:
        others = set(range(n_nodes)) - {cut_off}
        cluster.loop.schedule_at(0.04, lambda: cluster.partition({cut_off}, others))
        cluster.loop.schedule_at(0.3, cluster.heal_partitions)
    cluster.run_until(3.0)
    cluster.check_consistency()
    cluster.close_storage()
    return cluster


def _logs(cluster: Cluster) -> list[list]:
    return [[c.cid for c in node.delivered] for node in cluster.nodes]


class TestClusterIntegration:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_mem_sync_fsync_byte_identical_to_null_storage(self, seed):
        """The API-redesign acceptance bar: a synchronous MemStorage run
        must replay the exact event order of the NullStorage default --
        same decision logs, command for command."""
        baseline = _drive(None, seed)
        durable = _drive(StorageConfig(kind="mem"), seed)
        assert _logs(durable) == _logs(baseline)
        assert all(
            node.env.storage is NULL_STORAGE for node in baseline.nodes
        )

    def test_durable_restart_replays_byte_identical_prefix(self):
        cluster = _drive(
            StorageConfig(kind="mem"), seed=5, crash_node=1
        )
        node = cluster.nodes[1]
        assert node.incarnation == 1
        [pre_crash] = node.delivery_history
        assert pre_crash, "crash landed before any delivery"
        final = node.delivered
        # Synchronous fsync: every pre-crash delivery was persisted, so
        # the new incarnation's log extends the old one exactly.
        assert [c.cid for c in final[: len(pre_crash)]] == [
            c.cid for c in pre_crash
        ]
        assert len(final) > len(pre_crash)  # it caught up afterwards

    def test_snapshot_truncation_still_recovers(self):
        storage = StorageConfig(kind="mem", snapshot_every=25)
        cluster = _drive(storage, seed=5, crash_node=1)
        node = cluster.nodes[1]
        [pre_crash] = node.delivery_history
        assert node.env.storage.fsyncs > 0
        recovered = [c.cid for c in node.delivered[: len(pre_crash)]]
        assert recovered == [c.cid for c in pre_crash]

    def test_group_commit_recovers_every_acked_delivery(self):
        """With an open group-commit window, deliveries are withheld
        until their records are fsynced -- so even though the crash can
        lose the un-fsynced tail, everything the node *delivered* must
        survive into the next incarnation."""
        storage = StorageConfig(kind="mem", fsync_wait=0.004)
        cluster = _drive(storage, seed=7, crash_node=1)
        node = cluster.nodes[1]
        [pre_crash] = node.delivery_history
        recovered = [c.cid for c in node.delivered[: len(pre_crash)]]
        assert recovered == [c.cid for c in pre_crash]

    def test_disk_full_fail_stops_node_quorum_continues(self):
        storage = StorageConfig(
            kind="mem", capacity_bytes=6_000, capacity_nodes=(2,)
        )
        cluster = _drive(storage, seed=13)
        assert cluster.nodes[2].crashed  # fail-stop, not an exception
        for node in (0, 1):
            assert not cluster.nodes[node].crashed
            assert len(cluster.nodes[node].delivered) > 0

    def test_disk_storage_cluster_restart(self, tmp_path):
        storage = StorageConfig(
            kind="disk", dir=str(tmp_path), snapshot_every=40
        )
        cluster = _drive(storage, seed=5, crash_node=1)
        node = cluster.nodes[1]
        [pre_crash] = node.delivery_history
        recovered = [c.cid for c in node.delivered[: len(pre_crash)]]
        assert recovered == [c.cid for c in pre_crash]
        assert any((tmp_path / "node-1").iterdir())

    @pytest.mark.parametrize(
        "fsync_wait, ack_to_all", [(0.0, False), (0.005, False), (0.0, True)]
    )
    def test_replay_rebuilds_what_every_decide_site_applied(
        self, fsync_wait, ack_to_all
    ):
        """A decision is logged by whichever handler learns it: a
        received Decide, an ack quorum (the coordinator; every node
        under ``ack_to_all``), or a prepare quorum's decided reports
        (node 1 is cut off for a while, and its gap recovery then hears
        of decisions it never saw).  Drop any one of the three log
        calls and some node's log replays short."""
        cluster = _drive(
            StorageConfig(kind="mem", fsync_wait=fsync_wait),
            seed=17,
            rounds=24,
            m2=dataclasses.replace(_M2, ack_to_all=ack_to_all),
            cut_off=1,
        )

        def durable_state(node):
            state = decode_value_binary(node.protocol.snapshot_payload())
            # The two counters are not log state: replay moves ``req``
            # clear of the dead incarnation on purpose, and ``noop``
            # travels in snapshots only.
            return [c.cid for c in node.delivered], {**state, "req": 0, "noop": 0}

        for node in cluster.nodes:
            assert len(node.delivered) == 24 * 3
            before = durable_state(node)
            cluster.crash(node.node_id)
            cluster.restart(node.node_id, "durable")
            assert durable_state(node) == before


class TestRuntimeRecovery:
    def run(self, coro):
        return asyncio.run(asyncio.wait_for(coro, timeout=30))

    def test_durable_recovery_over_tcp(self):
        from repro.runtime.cluster import LocalCluster

        async def scenario():
            cluster = LocalCluster(
                3,
                lambda i, n: M2Paxos(),
                storage=StorageConfig(kind="mem"),
            )
            await cluster.start()
            try:
                for seq in range(3):
                    cluster.propose(1, Command.make(1, seq, ["x"]))
                await cluster.wait_delivered(3)
                pre_crash = [c.cid for c in cluster.delivered(1)]
                await cluster.crash(1)
                await cluster.restart(1, mode="durable")
                # Recovery is synchronous: the replayed log is already
                # byte-identical to the pre-crash one at this point.
                assert [c.cid for c in cluster.delivered(1)] == pre_crash
                assert cluster.nodes[1].incarnation == 1
                assert len(cluster.nodes[1].delivery_history) == 1
                for seq in range(3, 6):
                    cluster.propose(0, Command.make(0, seq, ["x"]))
                await cluster.wait_delivered(6, timeout=15.0)
                assert [c.cid for c in cluster.delivered(1)[:3]] == pre_crash
            finally:
                await cluster.stop()

        self.run(scenario())
