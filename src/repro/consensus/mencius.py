"""Mencius (Mao et al., OSDI 2008) -- simplified.

The other multi-leader protocol in the paper's related work: the slot
log is pre-partitioned round-robin (slot s belongs to node ``s mod N``),
so every node is the *coordinator* of its own slots and can run phase 2
directly at ballot 0 -- two communication delays for its own commands,
with perfect load balance and no ownership machinery.

The price, and the reason the paper's approach differs: delivery is in
global slot order, so an idle node's empty slots block everyone until
it announces SKIPs, and a command's latency is gated by the *slowest*
node's duty cycle -- Mencius couples all nodes on every command, where
M2Paxos couples only the owners of the objects actually touched.

Simplifications versus the full protocol (documented scope):

- SKIP messages are coordinator fiat (no revocation phase), which is
  Mencius's own fast path; crash *revocation* of a dead node's slots is
  not implemented -- the fault-tolerance tests exercise M2Paxos and
  Multi-Paxos, and the benchmarks are crash-free, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.consensus.base import (
    Message,
    handles,
    Protocol,
    ProtocolCosts,
    classic_quorum_size,
)
from repro.consensus.commands import Command


@dataclass(frozen=True)
class MnAccept(Message):
    """Phase 2a by the slot's pre-assigned coordinator (ballot 0)."""

    slot: int
    command: Command


@dataclass(frozen=True)
class MnAck(Message):
    slot: int
    cid: tuple[int, int]


@dataclass(frozen=True)
class MnDecide(Message):
    slot: int
    command: Command


@dataclass(frozen=True)
class MnSkip(Message):
    """Coordinator announces its own slots in ``[start, stop)`` carry
    no-ops (only slots owned by the sender are affected)."""

    start: int
    stop: int


@dataclass(frozen=True)
class MenciusConfig:
    skip_check_period: float = 0.02


class Mencius(Protocol):
    """One Mencius node."""

    costs = ProtocolCosts(base_cost=160e-6, serial_fraction=0.05)

    SKIP = "__skip__"

    def __init__(self, config: Optional[MenciusConfig] = None) -> None:
        super().__init__()
        self.config = config or MenciusConfig()
        self.decided: dict[int, Optional[Command]] = {}  # None = skipped
        self.delivered_upto = -1
        self._next_own_slot: Optional[int] = None
        self._max_seen_slot = -1
        self._acks: dict[int, set[int]] = {}
        self._proposals: dict[int, Command] = {}
        self._skipped_upto: Optional[int] = None  # our own announced skips
        self.stats = {"decided": 0, "skips": 0}

    @property
    def quorum(self) -> int:
        return classic_quorum_size(self.env.n_nodes)

    def on_start(self) -> None:
        me = self.env.node_id
        self._next_own_slot = me
        self._skipped_upto = me
        self._schedule_skip_check()

    def _own(self, slot: int) -> bool:
        return slot % self.env.n_nodes == self.env.node_id

    # ------------------------------------------------------------------
    # Proposing (our own slots, ballot 0, phase 2 directly)
    # ------------------------------------------------------------------

    def propose(self, command: Command) -> None:
        assert self._next_own_slot is not None
        # Our own pre-assigned slot at ballot 0: two delays, always.
        self.note_path(command, "fast")
        slot = self._next_own_slot
        self._next_own_slot += self.env.n_nodes
        self._proposals[slot] = command
        self._max_seen_slot = max(self._max_seen_slot, slot)
        self.env.broadcast(MnAccept(slot=slot, command=command))

    @handles(MnAccept)
    def _on_accept(self, sender: int, msg: MnAccept) -> None:
        if msg.slot % self.env.n_nodes != sender:
            raise AssertionError(
                f"node {sender} proposed in foreign slot {msg.slot}"
            )
        self._observe_slot(msg.slot)
        self.env.send(sender, MnAck(slot=msg.slot, cid=msg.command.cid))

    @handles(MnAck)
    def _on_ack(self, sender: int, msg: MnAck) -> None:
        command = self._proposals.get(msg.slot)
        if command is None or command.cid != msg.cid:
            return
        voters = self._acks.setdefault(msg.slot, set())
        voters.add(sender)
        # The coordinator's own ack arrives via loopback (the accept is
        # broadcast to self too), so voters already includes us.
        if len(voters) >= self.quorum and msg.slot not in self.decided:
            self._decide(msg.slot, command)
            self.env.broadcast(
                MnDecide(slot=msg.slot, command=command), include_self=False
            )

    # ------------------------------------------------------------------
    # Skipping (the Mencius idle-node mechanism)
    # ------------------------------------------------------------------

    def _observe_slot(self, slot: int) -> None:
        """Seeing traffic in slot s means our own unused slots below s
        are holding everyone up; announce skips for them."""
        self._max_seen_slot = max(self._max_seen_slot, slot)
        self._announce_skips()

    def _announce_skips(self) -> None:
        assert self._next_own_slot is not None
        assert self._skipped_upto is not None
        start = max(self._skipped_upto, 0)
        # Skip every own slot below the frontier of observed traffic
        # that we have not proposed in.
        stop = self._max_seen_slot + 1
        if stop <= start:
            return
        me = self.env.node_id
        n = self.env.n_nodes
        skipped_any = False
        slot = start
        # Align to our first own slot >= start.
        if slot % n != me:
            slot += (me - slot % n) % n
        while slot < stop:
            if slot not in self._proposals and slot not in self.decided:
                self._decide(slot, None)
                skipped_any = True
            slot += n
        if skipped_any:
            self.stats["skips"] += 1
            self.env.broadcast(
                MnSkip(start=start, stop=stop), include_self=False
            )
        self._skipped_upto = stop
        if self._next_own_slot < stop:
            slot = stop
            if slot % n != me:
                slot += (me - slot % n) % n
            self._next_own_slot = slot

    @handles(MnSkip)
    def _on_skip(self, sender: int, msg: MnSkip) -> None:
        n = self.env.n_nodes
        slot = msg.start
        if slot % n != sender:
            slot += (sender - slot % n) % n
        while slot < msg.stop:
            if slot not in self.decided:
                self._decide(slot, None)
            slot += n

    def _schedule_skip_check(self) -> None:
        def tick() -> None:
            self._announce_skips()
            self._schedule_skip_check()

        self.env.set_timer(self.config.skip_check_period, tick)

    # ------------------------------------------------------------------
    # Learning + delivery (global slot order)
    # ------------------------------------------------------------------

    @handles(MnDecide)
    def _on_decide(self, sender: int, msg: MnDecide) -> None:
        self._observe_slot(msg.slot)
        self._decide(msg.slot, msg.command)

    def _decide(self, slot: int, value: Optional[Command]) -> None:
        existing = self.decided.get(slot, "unset")
        if existing != "unset":
            if (
                existing is not None
                and value is not None
                and existing.cid != value.cid
            ):
                raise AssertionError(f"slot {slot}: {existing} vs {value}")
            return
        self.decided[slot] = value
        self.stats["decided"] += 1
        if value is not None and not value.noop:
            self.note("decide", cid=value.cid)
        while self.delivered_upto + 1 in self.decided:
            self.delivered_upto += 1
            decided = self.decided[self.delivered_upto]
            if decided is not None and not decided.noop:
                self.env.deliver(decided)

    # ------------------------------------------------------------------

