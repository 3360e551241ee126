"""Multi-Paxos baseline: a single designated leader orders all commands.

This is the classic practical deployment the paper compares against
(Section I): commands are forwarded to the leader, which assigns them
consecutive slots in one global sequence and runs Paxos phase 2 per
slot.  A phase-1 (view change) covers the whole sequence, so steady
state costs three communication delays per command for a non-leader
proposer (forward, accept, ack) plus one more for remote learners.

The leader is the bottleneck by design: it receives every forward and
every acknowledgement.  Under the simulator's CPU model that caps
throughput at roughly ``1 / (messages_at_leader * base_cost)``, which
reproduces the degradation past ~11 nodes in the paper's Figure 1.

View change: any node that suspects the leader (commands it proposed
are not decided within ``leader_timeout``) prepares its next view above
the current one (``core.quorum.next_ballot``, so ``view % N == id``),
collects promises with the accepted-slot maps from a majority, then
re-proposes the highest-view value per slot (no-ops for gaps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.consensus.base import (
    Message,
    handles,
    Protocol,
    ProtocolCosts,
)
from repro.consensus.commands import Command, make_noop
from repro.core.quorum import classic_quorum, highest_ballot, next_ballot


@dataclass(frozen=True)
class MpForward(Message):
    """Client command forwarded to the believed leader."""

    command: Command


@dataclass(frozen=True)
class MpAccept(Message):
    """Phase 2a for one slot in a view."""

    view: int
    slot: int
    command: Command


@dataclass(frozen=True)
class MpAckAccept(Message):
    """Phase 2b vote, returned to the leader."""

    view: int
    slot: int
    ok: bool
    cid: tuple[int, int]


@dataclass(frozen=True)
class MpDecide(Message):
    """Learner broadcast once the leader sees a majority."""

    slot: int
    command: Command


@dataclass(frozen=True)
class MpPrepare(Message):
    """Phase 1a for a whole view (covers every slot)."""

    view: int


@dataclass(frozen=True)
class MpPromise(Message):
    """Phase 1b: promise plus the accepted map ``slot -> (view, cmd)``."""

    view: int
    ok: bool
    accepted: dict[int, tuple[int, Command]] = field(default_factory=dict)
    max_view: int = 0


@dataclass(frozen=True)
class MultiPaxosConfig:
    leader_timeout: float = 0.3


class MultiPaxos(Protocol):
    """One node of the Multi-Paxos baseline."""

    costs = ProtocolCosts(base_cost=160e-6, serial_fraction=0.05)

    # Per-command coordination work the designated leader does for every
    # forwarded command (slot management, client bookkeeping).  Charged
    # as CPU occupancy: this is what saturates the single leader as the
    # deployment grows (paper, Section VI-A).  Part of it (slot
    # assignment, socket management) is inherently serial, which is why
    # extra cores stop helping the leader past a point (Figure 4).
    LEADER_COORDINATION_COST = 1.2e-3
    LEADER_COORDINATION_SERIAL = 0.12

    def __init__(self, config: Optional[MultiPaxosConfig] = None) -> None:
        super().__init__()
        self.config = config or MultiPaxosConfig()
        self.view = 0
        self.promised_view = 0
        self.accepted: dict[int, tuple[int, Command]] = {}
        self.decided: dict[int, Command] = {}
        self._decided_cids: set[tuple[int, int]] = set()
        self._delivered_cids: set[tuple[int, int]] = set()
        self.next_slot = 1  # leader-only: next slot to assign
        self.delivered_upto = 0
        self._votes: dict[tuple[int, int], set[int]] = {}
        self._pending_view: Optional[int] = None
        self._promises: dict[int, MpPromise] = {}
        self._awaiting: dict[tuple[int, int], float] = {}
        self.stats = {"decided": 0, "view_changes": 0, "forwards": 0}

    def bind(self, env) -> None:
        super().bind(env)
        self.quorum = classic_quorum(env.n_nodes)

    # ------------------------------------------------------------------

    @property
    def leader(self) -> int:
        return self.view % self.env.n_nodes

    @property
    def is_leader(self) -> bool:
        return self.leader == self.env.node_id

    def propose(self, command: Command) -> None:
        if self.is_leader:
            # Leader-local proposal: accept round only, two delays --
            # the protocol's own "fast" case.
            self.note_path(command, "fast")
            self._assign(command)
        else:
            self.stats["forwards"] += 1
            self.note_path(command, "forward", hops=1)
            self.env.send(self.leader, MpForward(command=command))
        self._awaiting[command.cid] = self.env.now()
        self._arm_leader_timeout(command)

    def _arm_leader_timeout(self, command: Command) -> None:
        def on_timeout() -> None:
            if command.cid in self._awaiting:
                self._start_view_change()
                # Re-submit once a new view settles; retry via timer.
                self.env.set_timer(
                    self.config.leader_timeout, lambda: self._resubmit(command)
                )

        jitter = 1.0 + 0.5 * self.env.rng.random()
        self.env.set_timer(self.config.leader_timeout * jitter, on_timeout)

    def _resubmit(self, command: Command) -> None:
        if command.cid in self._awaiting:
            self.propose(command)

    # ------------------------------------------------------------------
    # Leader: slot assignment + phase 2
    # ------------------------------------------------------------------

    def _assign(self, command: Command) -> None:
        if command.cid in self._decided_cids:
            return
        slot = self.next_slot
        self.next_slot += 1
        self._send_accepts(slot, command)

    def _send_accepts(self, slot: int, command: Command) -> None:
        self.env.broadcast(MpAccept(view=self.view, slot=slot, command=command))

    @handles(MpAccept)
    def _on_accept(self, sender: int, msg: MpAccept) -> None:
        if msg.view < self.promised_view:
            self.env.send(
                sender,
                MpAckAccept(view=msg.view, slot=msg.slot, ok=False, cid=msg.command.cid),
            )
            return
        self.promised_view = msg.view
        self.view = max(self.view, msg.view)
        self.accepted[msg.slot] = (msg.view, msg.command)
        self.env.send(
            sender,
            MpAckAccept(view=msg.view, slot=msg.slot, ok=True, cid=msg.command.cid),
        )

    @handles(MpAckAccept)
    def _on_ack_accept(self, sender: int, msg: MpAckAccept) -> None:
        if not msg.ok or msg.view != self.view:
            return
        key = (msg.slot, msg.view)
        voters = self._votes.setdefault(key, set())
        voters.add(sender)
        if len(voters) >= self.quorum and msg.slot not in self.decided:
            entry = self.accepted.get(msg.slot)
            if entry is None or entry[1].cid != msg.cid:
                return
            command = entry[1]
            self.note("quorum", cid=command.cid)
            self._decide(msg.slot, command)
            self.env.broadcast(MpDecide(slot=msg.slot, command=command), include_self=False)

    # ------------------------------------------------------------------
    # Learning + delivery (global slot order)
    # ------------------------------------------------------------------

    @handles(MpDecide)
    def _on_decide(self, sender: int, msg: MpDecide) -> None:
        self._decide(msg.slot, msg.command)

    def _decide(self, slot: int, command: Command) -> None:
        existing = self.decided.get(slot)
        if existing is not None:
            if existing.cid != command.cid:
                raise AssertionError(
                    f"slot {slot}: {existing} decided, got {command}"
                )
            return
        self.decided[slot] = command
        self._decided_cids.add(command.cid)
        self.stats["decided"] += 1
        if not command.noop:
            self.note("decide", cid=command.cid)
        self.next_slot = max(self.next_slot, slot + 1)
        self._awaiting.pop(command.cid, None)
        while self.delivered_upto + 1 in self.decided:
            self.delivered_upto += 1
            decided = self.decided[self.delivered_upto]
            # A resubmitted command can be chosen at two slots (its
            # first round may have completed after the timeout fired);
            # deliver exactly once.
            if not decided.noop and decided.cid not in self._delivered_cids:
                self._delivered_cids.add(decided.cid)
                self.env.deliver(decided)

    # ------------------------------------------------------------------
    # View change (phase 1 over all slots)
    # ------------------------------------------------------------------

    def _start_view_change(self) -> None:
        new_view = next_ballot(self.view, self.env.node_id, self.env.n_nodes)
        if self._pending_view is not None and self._pending_view >= new_view:
            return
        self.stats["view_changes"] += 1
        self._pending_view = new_view
        self._promises = {}
        self.env.broadcast(MpPrepare(view=new_view))

    @handles(MpPrepare)
    def _on_prepare(self, sender: int, msg: MpPrepare) -> None:
        if msg.view <= self.promised_view:
            self.env.send(
                sender, MpPromise(view=msg.view, ok=False, max_view=self.promised_view)
            )
            return
        self.promised_view = msg.view
        undecided = {
            slot: entry
            for slot, entry in self.accepted.items()
            if slot not in self.decided
        }
        self.env.send(
            sender, MpPromise(view=msg.view, ok=True, accepted=undecided)
        )

    @handles(MpPromise)
    def _on_promise(self, sender: int, msg: MpPromise) -> None:
        if self._pending_view is None or msg.view != self._pending_view:
            return
        if not msg.ok:
            self._pending_view = None
            self.view = max(self.view, msg.max_view)
            return
        self._promises[sender] = msg
        if len(self._promises) < self.quorum:
            return

        # Become leader: adopt the highest-view accepted value per slot,
        # fill holes below the frontier with no-ops, then re-propose.
        self.view = msg.view
        self._pending_view = None
        votes: dict[int, list[tuple[int, Command]]] = {}
        for promise in self._promises.values():
            for slot, vote in promise.accepted.items():
                votes.setdefault(slot, []).append(vote)
        chosen = {slot: highest_ballot(vs)[1] for slot, vs in votes.items()}
        top = max(
            [self.delivered_upto]
            + list(chosen.keys())
            + list(self.decided.keys())
        )
        noop_seq = 0
        for slot in range(self.delivered_upto + 1, top + 1):
            if slot in self.decided:
                continue
            command = chosen.get(slot)
            if command is None:
                noop_seq += 1
                command = make_noop("__mp__", self.env.node_id, self.view * 10_000 + noop_seq)
            self._send_accepts(slot, command)
        self.next_slot = top + 1
        # Our own still-pending commands are re-proposed by their
        # per-command resubmit timers once this view settles.

    # ------------------------------------------------------------------

    def occupancy_cost(self, message: Message) -> tuple[float, float]:
        if isinstance(message, MpForward) and self.is_leader:
            return self.LEADER_COORDINATION_COST, self.LEADER_COORDINATION_SERIAL
        return 0.0, 0.0

    @handles(MpForward)
    def _on_forward(self, sender: int, msg: MpForward) -> None:
        if self.is_leader:
            self._assign(msg.command)
        else:
            # Stale forward: pass it along to the current leader.
            self.env.send(self.leader, msg)
