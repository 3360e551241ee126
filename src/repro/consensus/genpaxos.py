"""Generalized Paxos baseline (Lamport 2005), rendered for object
conflict semantics.

Commands commute iff their object access sets are disjoint, so a
C-struct is determined (up to equivalence) by its per-object
subsequences.  We therefore run the protocol over per-object instances
``(l, idx)``:

- **Fast rounds** (ballot 0): a proposer of a single-object command
  broadcasts it directly to all acceptors; each acceptor votes for the
  command at its next free index of the object and broadcasts its vote
  to every learner (the N x N vote traffic is Generalized Paxos's
  documented cost).  A learner learns the command at ``(l, idx)`` once a
  *fast quorum* (floor(2N/3) + 1) voted identically.
- **Collisions**: when votes at an index split between conflicting
  commands, no fast quorum can form; the designated leader notices the
  stuck frontier and resolves the instance in a classic round (a
  prepare quorum large enough to recover a fast round, a majority accept
  quorum, two extra delays) -- the same recovery cost as Fast Paxos, as
  the paper notes.  Sizes, ballots and the value the round must pick
  come from the Paxos kernel, :mod:`repro.core.quorum`.
- **Multi-object commands** are serialised through the leader, which
  assigns them one index per accessed object atomically in a classic
  round.  This mirrors the conservative handling that makes Generalized
  Paxos "not sensitive to locality" and keeps cross-object orders
  acyclic (two multi-object commands are ordered by the single leader;
  a single-object command shares at most one object with anything).

Delivery reuses the per-object frontier engine of the core package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from repro.consensus.base import (
    Message,
    handles,
    Protocol,
    ProtocolCosts,
)
from repro.consensus.commands import Command, make_noop
from repro.core.delivery import DeliveryEngine
from repro.core.messages import Instance
from repro.core.quorum import (
    classic_quorum,
    fast_paxos_value,
    fast_quorum,
    fast_recovery_quorum,
    next_ballot,
)
from repro.core.state import M2PaxosState


@dataclass(frozen=True)
class GpPropose(Message):
    """Fast-round proposal, broadcast straight to the acceptors."""

    command: Command


@dataclass(frozen=True)
class GpVote(Message):
    """An acceptor's fast-round vote: ``command`` at the listed instances."""

    ballot: int
    entries: tuple[Instance, ...]
    command: Command


@dataclass(frozen=True)
class GpSubmit(Message):
    """Multi-object command handed to the leader."""

    command: Command


@dataclass(frozen=True)
class GpPrepare(Message):
    """Classic phase 1a over one or more instances (atomically)."""

    req: int
    instances: tuple[Instance, ...]
    ballot: int


@dataclass(frozen=True)
class GpPromise(Message):
    """Classic phase 1b: every vote this acceptor cast per instance."""

    req: int
    ballot: int
    ok: bool
    votes: dict[Instance, tuple[tuple[int, Command], ...]] = field(
        default_factory=dict
    )


@dataclass(frozen=True)
class GpAccept(Message):
    """Classic phase 2a, possibly covering several instances atomically."""

    req: int
    ballot: int
    to_decide: dict[Instance, Command]


@dataclass(frozen=True)
class GpAckAccept(Message):
    """Classic phase 2b."""

    req: int
    ok: bool
    to_decide: dict[Instance, Command]


@dataclass(frozen=True)
class GpDecide(Message):
    to_decide: dict[Instance, Command]


# The leader checks the frontiers every COLLISION_CHECK_PERIOD seconds and
# runs a classic round on one stuck for COLLISION_TIMEOUT seconds.
COLLISION_CHECK_PERIOD = 0.05
COLLISION_TIMEOUT = 0.05
# The node that detects collisions and orders multi-object commands.
LEADER = 0


@dataclass(frozen=True)
class GenPaxosConfig:
    retry_timeout: float = 0.3


class GenPaxos(Protocol):
    """One node of the Generalized Paxos baseline.

    Generalized Paxos must track which commands interfere and carry
    C-struct fragments in its votes, so it pays a higher serial CPU
    fraction and a per-conflict cost, per the paper's analysis.
    """

    costs = ProtocolCosts(
        base_cost=160e-6, serial_fraction=0.25, per_conflict_cost=8e-6
    )

    def __init__(self, config: Optional[GenPaxosConfig] = None) -> None:
        super().__init__()
        self.config = config or GenPaxosConfig()
        self.state = M2PaxosState()
        self.delivery: Optional[DeliveryEngine] = None
        # Acceptor state: fast votes this node cast, per instance.
        self._my_votes: dict[Instance, Command] = {}
        self._voted_instances: dict[tuple[int, int], set[Instance]] = {}
        self._next_vote_idx: dict[str, int] = {}
        self._promised: dict[Instance, int] = {}
        self._accepted: dict[Instance, tuple[int, Command]] = {}
        # Learner state: votes observed from every acceptor.
        self._seen_votes: dict[Instance, dict[int, tuple[int, Command]]] = {}
        # Leader state.
        self._req_counter = 0
        self._recovering: set[Instance] = set()
        self._pending_prepares: dict[int, dict] = {}
        self._pending_accepts: dict[int, dict] = {}
        self._leader_next_idx: dict[str, int] = {}
        self._noop_counter = 0
        # Leader-only: instance sets assigned to multi-object commands.
        # Retries and recovery re-use the same set so a multi-object
        # command is always decided atomically (never at diverging
        # indices, which could knot the per-object delivery orders).
        self._assignments: dict[tuple[int, int], tuple[Instance, ...]] = {}
        self.stats = {
            "fast_learned": 0,
            "collisions": 0,
            "classic_rounds": 0,
            "retries": 0,
        }

    def bind(self, env) -> None:
        super().bind(env)
        self.delivery = DeliveryEngine(self.state, self._on_append)
        n = env.n_nodes
        self.quorum = classic_quorum(n)
        self.fast_quorum = fast_quorum(n)
        # Phase 1 of a classic round must out-vote any rival of a value
        # a fast quorum may have chosen (see the kernel's docstring).
        self.recovery_quorum = fast_recovery_quorum(n)

    def on_start(self) -> None:
        if self.env.node_id == LEADER:
            self._schedule_collision_check()

    def _next_req(self) -> int:
        self._req_counter += 1
        return self._req_counter

    # ------------------------------------------------------------------
    # Proposing
    # ------------------------------------------------------------------

    def propose(self, command: Command) -> None:
        if self._is_learned(command):
            return
        if len(command.ls) == 1:
            self.env.broadcast(GpPropose(command=command))
        else:
            # Serialised through the designated leader: one extra hop
            # before its classic round even starts.
            self.note_path(command, "forward", hops=1)
            self.env.send(LEADER, GpSubmit(command=command))
        self._arm_retry(command)

    def _is_learned(self, command: Command) -> bool:
        return all(self.state.is_decided_for(l, command) for l in command.ls)

    def _arm_retry(self, command: Command) -> None:
        def on_timeout() -> None:
            if not self._is_learned(command):
                self.stats["retries"] += 1
                self.propose(command)

        jitter = 1.0 + 0.5 * self.env.rng.random()
        self.env.set_timer(self.config.retry_timeout * jitter, on_timeout)

    # ------------------------------------------------------------------
    # Acceptor: fast-round voting
    # ------------------------------------------------------------------

    @handles(GpPropose)
    def _on_propose(self, sender: int, msg: GpPropose) -> None:
        command = msg.command
        previous = self._voted_instances.get(command.cid, set())
        for inst in previous:
            decided = self.state.decided_at(inst)
            if decided is None or decided.cid == command.cid:
                # Still in flight (or already won) somewhere: do not
                # create a duplicate vote at a second index.
                return
        entries: list[Instance] = []
        for l in sorted(command.ls):
            idx = self._next_free_index(l)
            inst = (l, idx)
            if self._promised.get(inst, 0) > 0:
                # A classic round took this instance over; skip ahead.
                idx = self._bump_index(l, idx)
                inst = (l, idx)
            self._my_votes[inst] = command
            self._next_vote_idx[l] = idx + 1
            entries.append(inst)
        self._voted_instances.setdefault(command.cid, set()).update(entries)
        self.env.broadcast(
            GpVote(ballot=0, entries=tuple(entries), command=command)
        )

    def _next_free_index(self, l: str) -> int:
        obj = self.state.obj(l)
        return max(
            self._next_vote_idx.get(l, 1),
            obj.max_decided + 1,
            obj.appended + 1,
        )

    def _bump_index(self, l: str, idx: int) -> int:
        while self._promised.get((l, idx), 0) > 0 or (l, idx) in self._my_votes:
            idx += 1
        return idx

    # ------------------------------------------------------------------
    # Learner: counting fast votes
    # ------------------------------------------------------------------

    @handles(GpVote)
    def _on_vote(self, sender: int, msg: GpVote) -> None:
        for inst in msg.entries:
            per_acceptor = self._seen_votes.setdefault(inst, {})
            existing = per_acceptor.get(sender)
            if existing is None or existing[0] < msg.ballot:
                per_acceptor[sender] = (msg.ballot, msg.command)
            count = sum(
                1
                for ballot, cmd in per_acceptor.values()
                if ballot == msg.ballot and cmd.cid == msg.command.cid
            )
            if count >= self.fast_quorum and self.state.decided_at(inst) is None:
                self.stats["fast_learned"] += 1
                self._learn(inst, msg.command)

    def _learn(self, inst: Instance, command: Command) -> None:
        l, idx = inst
        existing = self.state.decided_at(inst)
        if existing is not None:
            if existing.cid != command.cid:
                raise AssertionError(
                    f"instance {inst}: {existing} learned, got {command}"
                )
            return
        if not command.noop:
            self.note("decide", cid=command.cid)
        assert self.delivery is not None
        self.delivery.record_decision(l, idx, command)
        self.state.obj(l).last_progress = self.env.now()
        self.delivery.pump(dirty=command.ls)

    def _on_append(self, command: Command) -> None:
        if not command.noop:
            self.env.deliver(command)

    # ------------------------------------------------------------------
    # Leader: collision detection + classic rounds
    # ------------------------------------------------------------------

    def _schedule_collision_check(self) -> None:
        def check() -> None:
            self._check_collisions()
            self._schedule_collision_check()

        self.env.set_timer(COLLISION_CHECK_PERIOD, check)

    def _check_collisions(self) -> None:
        """Find frontier instances that cannot complete on the fast path.

        Covers both true collisions (split fast votes) and holes left by
        abandoned classic rounds; either way a classic round settles the
        instance (with a no-op if nothing was voted there).
        """
        now = self.env.now()
        for l, obj in list(self.state.objects.items()):
            frontier = obj.appended + 1
            inst = (l, frontier)
            if self.state.decided_at(inst) is not None:
                continue
            if inst in self._recovering:
                continue
            stuck = inst in self._seen_votes or obj.max_decided > frontier
            if not stuck:
                continue
            if now - obj.last_progress < COLLISION_TIMEOUT:
                continue
            self.stats["collisions"] += 1
            self._start_classic_round((inst,), command=None)

    def _start_classic_round(
        self, instances: tuple[Instance, ...], command: Optional[Command]
    ) -> None:
        """Prepare + accept over ``instances``; decide ``command`` there
        unless phase 1 forces previously voted values."""
        self.stats["classic_rounds"] += 1
        if command is not None:
            self.note_path(command, "slow")
        self._recovering.update(instances)
        ballot = next_ballot(
            max(self._promised.get(inst, 0) for inst in instances),
            self.env.node_id,
            self.env.n_nodes,
        )
        req = self._next_req()
        self._pending_prepares[req] = {
            "instances": instances,
            "ballot": ballot,
            "command": command,
            "promises": {},
            "done": False,
        }
        self.env.broadcast(GpPrepare(req=req, instances=instances, ballot=ballot))

    @handles(GpPrepare)
    def _on_prepare(self, sender: int, msg: GpPrepare) -> None:
        refused = any(
            self._promised.get(inst, 0) >= msg.ballot for inst in msg.instances
        )
        if refused:
            self.env.send(sender, GpPromise(req=msg.req, ballot=msg.ballot, ok=False))
            return
        votes: dict[Instance, tuple[tuple[int, Command], ...]] = {}
        for inst in msg.instances:
            self._promised[inst] = msg.ballot
            reported: list[tuple[int, Command]] = []
            accepted = self._accepted.get(inst)
            if accepted is not None:
                reported.append(accepted)
            fast_vote = self._my_votes.get(inst)
            if fast_vote is not None:
                reported.append((0, fast_vote))
            decided = self.state.decided_at(inst)
            if decided is not None:
                reported.append((1 << 30, decided))
            votes[inst] = tuple(reported)
        self.env.send(
            sender, GpPromise(req=msg.req, ballot=msg.ballot, ok=True, votes=votes)
        )

    @handles(GpPromise)
    def _on_promise(self, sender: int, msg: GpPromise) -> None:
        pending = self._pending_prepares.get(msg.req)
        if pending is None or pending["done"]:
            return
        if not msg.ok:
            pending["done"] = True
            self._pending_prepares.pop(msg.req, None)
            for inst in pending["instances"]:
                self._recovering.discard(inst)
            return
        pending["promises"][sender] = msg.votes
        if len(pending["promises"]) < self.recovery_quorum:
            return
        pending["done"] = True
        self._pending_prepares.pop(msg.req, None)

        command = pending["command"]
        forced_map: dict[Instance, Optional[Command]] = {}
        for inst in pending["instances"]:
            forced_map[inst] = fast_paxos_value(
                (
                    vote
                    for votes in pending["promises"].values()
                    for vote in votes.get(inst, ())
                ),
                ident=attrgetter("cid"),
            )

        own = all(
            forced is None or (command is not None and forced.cid == command.cid)
            for forced in forced_map.values()
        )
        if command is not None and own:
            to_decide = {inst: command for inst in pending["instances"]}
            self._classic_accept(pending["ballot"], to_decide)
            return

        # Something else was voted at (some of) these instances.  Honour
        # it: forced multi-object commands with a recorded assignment are
        # re-run atomically over their full instance set; everything else
        # is forced in place; untouched instances become no-ops so the
        # frontier can never be left with a hole.  A displaced command is
        # re-submitted by its proposer's retry timer.
        if command is not None:
            self._assignments.pop(command.cid, None)
            for inst in pending["instances"]:
                self._recovering.discard(inst)
        to_decide: dict[Instance, Command] = {}
        reruns: dict[tuple[int, int], tuple[Instance, ...]] = {}
        for inst, forced in forced_map.items():
            if forced is None:
                self._noop_counter += 1
                to_decide[inst] = make_noop(
                    inst[0], self.env.node_id, self._noop_counter
                )
                continue
            record = (
                self._assignments.get(forced.cid) if len(forced.ls) > 1 else None
            )
            if record is not None and set(record) != {inst}:
                reruns[forced.cid] = record
            else:
                to_decide[inst] = forced
        if to_decide:
            self._classic_accept(pending["ballot"], to_decide)
        for cid, record in reruns.items():
            recorded_cmd = next(
                (c for votes in pending["promises"].values()
                 for vs in votes.values()
                 for _b, c in vs if c.cid == cid),
                None,
            )
            if recorded_cmd is not None:
                self._start_classic_round(record, recorded_cmd)

    def _classic_accept(self, ballot: int, to_decide: dict[Instance, Command]) -> None:
        req = self._next_req()
        self._pending_accepts[req] = {
            "ballot": ballot,
            "to_decide": to_decide,
            "voters": set(),
            "done": False,
        }
        self.env.broadcast(GpAccept(req=req, ballot=ballot, to_decide=to_decide))

    @handles(GpAccept)
    def _on_accept(self, sender: int, msg: GpAccept) -> None:
        ok = True
        for inst in msg.to_decide:
            if self._promised.get(inst, 0) > msg.ballot:
                ok = False
        if ok:
            for inst, command in msg.to_decide.items():
                self._promised[inst] = msg.ballot
                self._accepted[inst] = (msg.ballot, command)
                l, idx = inst
                self._next_vote_idx[l] = max(
                    self._next_vote_idx.get(l, 1), idx + 1
                )
        self.env.send(
            sender, GpAckAccept(req=msg.req, ok=ok, to_decide=msg.to_decide)
        )

    @handles(GpAckAccept)
    def _on_ack_accept(self, sender: int, msg: GpAckAccept) -> None:
        pending = self._pending_accepts.get(msg.req)
        if pending is None or pending["done"]:
            return
        if not msg.ok:
            pending["done"] = True
            for inst in pending["to_decide"]:
                self._recovering.discard(inst)
            return
        pending["voters"].add(sender)
        if len(pending["voters"]) < self.quorum:
            return
        pending["done"] = True
        for inst, command in pending["to_decide"].items():
            self._learn(inst, command)
            self._recovering.discard(inst)
        self.env.broadcast(
            GpDecide(to_decide=pending["to_decide"]), include_self=False
        )

    @handles(GpDecide)
    def _on_decide(self, sender: int, msg: GpDecide) -> None:
        for inst, command in msg.to_decide.items():
            l, idx = inst
            self._next_vote_idx[l] = max(self._next_vote_idx.get(l, 1), idx + 1)
            self._learn(inst, command)

    # ------------------------------------------------------------------
    # Leader: multi-object commands, serialised in classic rounds
    # ------------------------------------------------------------------

    @handles(GpSubmit)
    def _on_submit(self, sender: int, msg: GpSubmit) -> None:
        command = msg.command
        if self._is_learned(command):
            self._assignments.pop(command.cid, None)
            return
        recorded = self._assignments.get(command.cid)
        if recorded is not None:
            # Retry of a command we already placed: re-run the *same*
            # instances, never fresh ones, so its per-object positions
            # cannot diverge.
            if any(inst in self._recovering for inst in recorded):
                return  # a round for it is already in flight
            self._start_classic_round(recorded, command)
            return
        instances: list[Instance] = []
        for l in sorted(command.ls):
            idx = max(
                self._leader_next_idx.get(l, 1),
                self.state.obj(l).max_decided + 1,
                self._next_vote_idx.get(l, 1),
            )
            self._leader_next_idx[l] = idx + 1
            instances.append((l, idx))
        if not instances:
            return
        self._assignments[command.cid] = tuple(instances)
        # A classic round *with* a prepare phase: phase 1 may reveal fast
        # votes already cast at these indices, which are then forced
        # (and this command re-submitted by its proposer's retry timer).
        self._start_classic_round(tuple(instances), command)

    # ------------------------------------------------------------------

    def processing_cost(self, message):
        cost, serial = self.costs.base_cost, self.costs.serial_fraction
        if isinstance(message, GpVote):
            # Vote processing scans conflict metadata proportional to the
            # command's footprint.
            cost += self.costs.per_conflict_cost * len(message.command.ls)
        return cost, serial

