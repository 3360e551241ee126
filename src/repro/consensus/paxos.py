"""Classic (leaderless) Paxos over a slot log.

The paper's Section IV-C points at classic Paxos as the fallback that
"is more effective" when the workload is not partitionable at all
[Junqueira et al., Caveat emptor]: no designated leader means no
forwarding hop and no leader bottleneck, at the price of a full
prepare+accept (four communication delays) per command and duelling
proposers under contention.

Every proposer runs both phases itself for the slot it targets, with
globally unique striped ballots and randomised retry backoff.  Delivery
follows the slot log, exactly like Multi-Paxos.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
class PxPrepare(Message):
    req: int
    slot: int
    ballot: int


@dataclass(frozen=True)
class PxPromise(Message):
    req: int
    slot: int
    ballot: int
    ok: bool
    accepted_ballot: int = -1
    accepted_value: Optional[Command] = None
    max_ballot: int = 0


@dataclass(frozen=True)
class PxAccept(Message):
    req: int
    slot: int
    ballot: int
    value: Command


@dataclass(frozen=True)
class PxAccepted(Message):
    req: int
    slot: int
    ballot: int
    ok: bool
    max_ballot: int = 0


@dataclass(frozen=True)
class PxDecide(Message):
    slot: int
    value: Command


@dataclass
class _SlotState:
    promised: int = -1
    accepted_ballot: int = -1
    accepted_value: Optional[Command] = None


@dataclass
class _Round:
    slot: int
    ballot: int
    command: Command
    phase: str = "prepare"  # "prepare" | "accept"
    value: Optional[Command] = None
    promises: dict[int, PxPromise] = field(default_factory=dict)
    accepts: set[int] = field(default_factory=set)
    done: bool = False


@dataclass(frozen=True)
class PaxosConfig:
    retry_backoff: float = 0.004
    supervise_timeout: float = 1.5


class ClassicPaxos(Protocol):
    """One node of leaderless classic Paxos."""

    costs = ProtocolCosts(base_cost=160e-6, serial_fraction=0.05)

    def __init__(self, config: Optional[PaxosConfig] = None) -> None:
        super().__init__()
        self.config = config or PaxosConfig()
        self.slots: dict[int, _SlotState] = {}
        self.decided: dict[int, Command] = {}
        self._decided_cids: set[tuple[int, int]] = set()
        self._delivered_cids: set[tuple[int, int]] = set()
        self.delivered_upto = 0
        self._rounds: dict[int, _Round] = {}
        self._req_counter = 0
        self._attempts: dict[tuple[int, int], int] = {}
        self.stats = {"decided": 0, "prepare_nacks": 0, "accept_nacks": 0}

    @property
    def quorum(self) -> int:
        return classic_quorum_size(self.env.n_nodes)

    def _slot(self, slot: int) -> _SlotState:
        state = self.slots.get(slot)
        if state is None:
            state = _SlotState()
            self.slots[slot] = state
        return state

    def _next_ballot(self, floor: int) -> int:
        n = self.env.n_nodes
        return (max(floor, 0) // n + 1) * n + self.env.node_id

    def _next_free_slot(self) -> int:
        slot = self.delivered_upto + 1
        while slot in self.decided:
            slot += 1
        return slot

    # ------------------------------------------------------------------

    def propose(self, command: Command) -> None:
        if command.cid in self._decided_cids:
            return
        self._start_round(command)
        self._supervise(command)

    def _supervise(self, command: Command) -> None:
        if self.config.supervise_timeout <= 0:
            return
        delay = self.config.supervise_timeout * (1 + 0.5 * self.env.rng.random())

        def check() -> None:
            if command.cid not in self._decided_cids:
                self._start_round(command)
                self._supervise(command)

        self.env.set_timer(delay, check)

    def _start_round(self, command: Command) -> None:
        # Every round is a full prepare+accept: four one-way delays,
        # the same shape as an M2Paxos acquisition.
        self.note_path(command, "acquisition")
        slot = self._next_free_slot()
        ballot = self._next_ballot(self._slot(slot).promised)
        self._req_counter += 1
        req = self._req_counter
        self._rounds[req] = _Round(slot=slot, ballot=ballot, command=command)
        self.env.broadcast(PxPrepare(req=req, slot=slot, ballot=ballot))

    def _retry(self, command: Command) -> None:
        if command.cid in self._decided_cids:
            return
        attempt = self._attempts.get(command.cid, 0) + 1
        self._attempts[command.cid] = attempt
        delay = self.config.retry_backoff * attempt * (0.5 + self.env.rng.random())
        self.env.set_timer(delay, lambda: self._maybe_restart(command))

    def _maybe_restart(self, command: Command) -> None:
        if command.cid not in self._decided_cids:
            self._start_round(command)

    # ------------------------------------------------------------------
    # Acceptor
    # ------------------------------------------------------------------

    @handles(PxPrepare)
    def _on_prepare(self, sender: int, msg: PxPrepare) -> None:
        state = self._slot(msg.slot)
        if msg.ballot <= state.promised:
            self.env.send(
                sender,
                PxPromise(
                    req=msg.req,
                    slot=msg.slot,
                    ballot=msg.ballot,
                    ok=False,
                    max_ballot=state.promised,
                ),
            )
            return
        state.promised = msg.ballot
        self.env.send(
            sender,
            PxPromise(
                req=msg.req,
                slot=msg.slot,
                ballot=msg.ballot,
                ok=True,
                accepted_ballot=state.accepted_ballot,
                accepted_value=state.accepted_value,
            ),
        )

    @handles(PxAccept)
    def _on_accept(self, sender: int, msg: PxAccept) -> None:
        state = self._slot(msg.slot)
        if msg.ballot < state.promised:
            self.env.send(
                sender,
                PxAccepted(
                    req=msg.req,
                    slot=msg.slot,
                    ballot=msg.ballot,
                    ok=False,
                    max_ballot=state.promised,
                ),
            )
            return
        state.promised = msg.ballot
        state.accepted_ballot = msg.ballot
        state.accepted_value = msg.value
        self.env.send(
            sender,
            PxAccepted(req=msg.req, slot=msg.slot, ballot=msg.ballot, ok=True),
        )

    # ------------------------------------------------------------------
    # Proposer
    # ------------------------------------------------------------------

    @handles(PxPromise)
    def _on_promise(self, sender: int, msg: PxPromise) -> None:
        round_ = self._rounds.get(msg.req)
        if round_ is None or round_.done or round_.phase != "prepare":
            return
        if not msg.ok:
            round_.done = True
            self.stats["prepare_nacks"] += 1
            self._slot(round_.slot).promised = max(
                self._slot(round_.slot).promised, msg.max_ballot
            )
            self._retry(round_.command)
            return
        round_.promises[sender] = msg
        if len(round_.promises) < self.quorum:
            return
        round_.phase = "accept"
        best = max(
            round_.promises.values(), key=lambda p: p.accepted_ballot
        )
        round_.value = (
            best.accepted_value
            if best.accepted_value is not None
            else round_.command
        )
        self.env.broadcast(
            PxAccept(
                req=msg.req,
                slot=round_.slot,
                ballot=round_.ballot,
                value=round_.value,
            )
        )

    @handles(PxAccepted)
    def _on_accepted(self, sender: int, msg: PxAccepted) -> None:
        round_ = self._rounds.get(msg.req)
        if round_ is None or round_.done or round_.phase != "accept":
            return
        if not msg.ok:
            round_.done = True
            self.stats["accept_nacks"] += 1
            self._retry(round_.command)
            return
        round_.accepts.add(sender)
        if len(round_.accepts) < self.quorum:
            return
        round_.done = True
        assert round_.value is not None
        self._decide(round_.slot, round_.value)
        self.env.broadcast(
            PxDecide(slot=round_.slot, value=round_.value), include_self=False
        )
        if round_.value.cid != round_.command.cid:
            # We shepherded someone else's value; ours needs a new slot.
            self._retry(round_.command)

    # ------------------------------------------------------------------
    # Learner
    # ------------------------------------------------------------------

    @handles(PxDecide)
    def _on_decide(self, sender: int, msg: PxDecide) -> None:
        self._decide(msg.slot, msg.value)

    def _decide(self, slot: int, value: Command) -> None:
        existing = self.decided.get(slot)
        if existing is not None:
            if existing.cid != value.cid:
                raise AssertionError(
                    f"slot {slot}: {existing} decided, got {value}"
                )
            return
        self.decided[slot] = value
        self._decided_cids.add(value.cid)
        self.stats["decided"] += 1
        if not value.noop:
            self.note("decide", cid=value.cid)
        while self.delivered_upto + 1 in self.decided:
            self.delivered_upto += 1
            decided = self.decided[self.delivered_upto]
            # A command can be chosen at two slots (a round the proposer
            # believed failed may still have completed); deliver once.
            if not decided.noop and decided.cid not in self._delivered_cids:
                self._delivered_cids.add(decided.cid)
                self.env.deliver(decided)

    # ------------------------------------------------------------------

