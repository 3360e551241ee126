"""Per-node M2Paxos bookkeeping (Section V-A of the paper).

The paper's multidimensional arrays become dictionaries keyed by object
id or by instance ``(l, in)``; defaults mirror the paper's initial
values (epochs/rounds 0, votes NULL, owners NULL).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.consensus.commands import Command
from repro.core.messages import Instance


@dataclass
class ObjectState:
    """Everything node-local about one object ``l``.

    ``epoch``       -- ``Epoch[l]``: current epoch number observed.
    ``promised``    -- object-level promise: the highest epoch this node
                       has acknowledged a PREPARE or ACCEPT for on this
                       object.  Because the owner pipelines commands
                       into *fresh* instances (whose per-instance
                       ``rnd`` is still 0), leadership must be enforced
                       at the object level, exactly as Multi-Paxos
                       enforces it per-log: accepts below ``promised``
                       are refused, making the owner of each epoch
                       unique.
    ``owner``       -- ``Owners[l]``: believed current owner (or None).
    ``owner_epoch`` -- epoch at which ``owner`` acquired the object; a
                       node is *currently* owner only while no higher
                       epoch has been observed.
    ``appended``    -- ``LastDecided[l]``: last position whose command
                       has been appended to the local C-struct.
    ``next_slot``   -- the next position this node would propose at; it
                       is kept ahead of every position the node has seen
                       used (decided, accepted, or prepared), which is
                       how the owner pipelines commands on one object
                       without self-collision.
    """

    epoch: int = 0
    promised: int = 0
    owner: Optional[int] = None
    owner_epoch: int = 0
    appended: int = 0
    next_slot: int = 1
    # The decision log, written only through ``record`` so its views
    # stay exact: ``decided_pos`` (cid -> a position it is decided at:
    # Algorithm 1 line 2 as a lookup) and the highest decided position.
    decided: dict[int, Command] = field(default_factory=dict)
    decided_pos: dict[tuple[int, int], int] = field(default_factory=dict)
    max_decided: int = 0
    last_progress: float = 0.0  # for gap-recovery timeouts
    # Acceptor-side read-lease grant (serving tier; inert unless the
    # config enables leases).  While ``lease_until`` (this node's clock)
    # lies in the future, ownership-moving Prepares from nodes other
    # than ``lease_holder`` are parked rather than promised, which is
    # what makes the holder's local reads linearizable.  Deliberately
    # volatile: a restarted acceptor instead refuses early promises for
    # one full lease window (the lease blackout), so forgetting grants
    # across a crash can never un-protect a live lease.
    lease_holder: Optional[int] = None
    lease_epoch: int = 0
    lease_until: float = 0.0
    # Serving-tier read frontier: count of non-noop commands delivered
    # on this object, the "result" a leased local read observes (and
    # what the chaos stale-read audit compares against the decided
    # write log).  Maintained unconditionally at append time so session
    # results stay a pure function of the delivered sequence.
    reads_frontier: int = 0

    def observe_position(self, position: int) -> None:
        """Keep ``next_slot`` strictly ahead of any used position."""
        if position >= self.next_slot:
            self.next_slot = position + 1

    def record(self, position: int, command: Command) -> None:
        """``Decided[l][position] = command`` -- the log's one write path."""
        self.decided[position] = command
        self.decided_pos.setdefault(command.cid, position)
        self.max_decided = max(self.max_decided, position)
        self.observe_position(position)


@dataclass
class InstanceState:
    """Acceptor-side state for one instance ``(l, in)``.

    ``rnd``  -- ``Rnd[l][in]``: highest epoch participated in.
    ``rdec`` -- ``Rdec[l][in]``: highest epoch a command was accepted in.
    ``vdec`` -- ``Vdec[l][in]``: the command accepted at ``rdec``.
    ``vdec_ins`` -- the full instance set of the accept round that
    placed ``vdec`` here.  Recovery of a multi-object command must
    re-propose it over this *whole* set: re-deciding it at a single
    instance could leave it decided at positions chosen at different
    times on different objects, which can knot the per-object delivery
    orders into a cycle (see DESIGN.md).
    """

    rnd: int = 0
    rdec: int = 0
    vdec: Optional[Command] = None
    vdec_ins: tuple[Instance, ...] = ()


class M2PaxosState:
    """Aggregates the dictionaries and provides defaulting accessors.

    ``instances``, ``active_positions`` and ``acks`` hold only instances
    above their object's append frontier; ``advance`` *retires* the rest,
    whose decided value answers from then on (DESIGN.md, "State lifetime").
    """

    def __init__(self, home_hint=None) -> None:
        # ``home_hint(l) -> node id`` statically assigns epoch-0
        # ownership (all nodes must share the same deterministic map).
        # Equivalent to Multi-Paxos's pre-agreed initial leader, per
        # object: safe because the epoch-0 owner is unique by
        # construction, and any node can still take over by preparing
        # epoch 1.  Used for workloads like TPC-C where the application
        # declares which node "homes" each object.
        self.home_hint = home_hint
        self.objects: dict[str, ObjectState] = {}
        self.instances: dict[Instance, InstanceState] = {}
        # Per-object index of positions with acceptor activity, so a
        # prepare can report the object's tail without scanning every
        # instance in the system.
        self.active_positions: dict[str, set[int]] = {}
        # Objects whose delivery frontier might be stuck; the gap checker
        # scans only these (workloads like TPC-C touch 10^4..10^5 objects,
        # so scanning everything every period would dominate).
        self.gap_candidates: set[str] = set()
        # Acks[l][in][e] of the paper, keyed further by command id so a
        # quorum is only counted for matching votes:
        # acks[instance][(epoch, cid)] = set of voter node ids.
        self.acks: dict[Instance, dict[tuple[int, tuple[int, int]], set[int]]] = {}

    def obj(self, l: str) -> ObjectState:
        state = self.objects.get(l)
        if state is None:
            state = ObjectState()
            if self.home_hint is not None:
                state.owner = self.home_hint(l)
            self.objects[l] = state
        return state

    def retired(self, instance: Instance) -> bool:
        """Is ``instance`` at or below its object's append frontier?"""
        obj = self.objects.get(instance[0])
        return obj is not None and instance[1] <= obj.appended

    def inst(self, instance: Instance) -> Optional[InstanceState]:
        """Mutable state of a live instance, created on first use; None once retired."""
        state = self.instances.get(instance)
        if state is None and not self.retired(instance):
            state = InstanceState()
            self.instances[instance] = state
            self.active_positions.setdefault(instance[0], set()).add(instance[1])
        return state

    def advance(self, l: str) -> None:
        """Move ``l``'s append frontier one position, retiring the instance it passes."""
        obj = self.objects[l]
        obj.appended += 1
        instance = (l, obj.appended)
        if self.instances.pop(instance, None) is not None:
            self.active_positions[l].discard(obj.appended)
        self.acks.pop(instance, None)

    def positions_with_activity(self, l: str, at_or_above: int) -> list[int]:
        """Positions >= ``at_or_above`` of ``l`` with any recorded
        activity (acceptance or decision) -- the tail a new owner's
        phase 1 must learn about."""
        positions = {
            p
            for p in self.active_positions.get(l, ())
            if p >= at_or_above
        }
        obj = self.objects.get(l)
        if obj is not None:
            tail = range(at_or_above, obj.max_decided + 1)
            positions.update(p for p in tail if p in obj.decided)
        return sorted(positions)

    def decided_at(self, instance: Instance) -> Optional[Command]:
        l, position = instance
        state = self.objects.get(l)
        if state is None:
            return None
        return state.decided.get(position)

    def is_decided_for(self, l: str, command: Command) -> bool:
        """``exists in : Decided[l][in] = c`` (Algorithm 1, line 2)."""
        state = self.objects.get(l)
        return state is not None and command.cid in state.decided_pos

    def instances_of(self, command: Command) -> tuple[Instance, ...]:
        """``command``'s decided instances, by object: its full set once decided everywhere."""
        return tuple(
            (l, self.objects[l].decided_pos[command.cid])
            for l in sorted(command.ls)
            if self.is_decided_for(l, command)
        )

    def record_ack(
        self, instance: Instance, epoch: int, cid: tuple[int, int], voter: int
    ) -> Optional[set[int]]:
        """Register one ACKACCEPT vote; return the voter set so far, or
        None (nothing recorded) for a retired instance.

        Returning the set (not just its size) lets membership-based
        quorum systems (zone grids) judge the round, not only counting
        ones.
        """
        if self.retired(instance):
            return None
        voters = self.acks.setdefault(instance, {}).setdefault((epoch, cid), set())
        voters.add(voter)
        return voters
