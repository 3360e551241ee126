"""Per-node M2Paxos state (Section V-A of the paper), declared once.

The paper's multidimensional arrays become dictionaries keyed by object
id or by instance ``(l, in)``; defaults mirror the paper's initial
values (epochs/rounds 0, votes NULL, owners NULL).

Every field a node holds is declared here with its kind, the way a TLA+
spec lists its ``VARIABLES``: :func:`durable` (a crash keeps it; the
snapshot and the log carry it), :func:`volatile` (each incarnation
starts it afresh) or :func:`derived` (rebuilt from the durable fields).
Snapshots and their restore read the declarations; ``home_hint`` is
configuration.  The per-object and per-instance records are slotted.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, Field, dataclass, field, fields
from typing import Callable, Iterable, Optional

from repro.consensus.commands import Command
from repro.core.messages import Instance

KINDS = DURABLE, VOLATILE, DERIVED = ("durable", "volatile", "derived")


def _declarer(kind: str) -> Callable[..., Field]:
    # ``entry``: the record type of a durable dict's values, whose own
    # durable fields a snapshot stores per key.
    def declare(default=MISSING, *, factory=MISSING, entry=None) -> Field:
        metadata = {"kind": kind, "entry": entry}
        return field(default=default, default_factory=factory, metadata=metadata)

    return declare


durable, volatile, derived = map(_declarer, KINDS)


@functools.cache
def declared(cls: type, kind: str) -> tuple[Field, ...]:
    """The fields of dataclass ``cls`` declared ``kind``, in order."""
    return tuple(f for f in fields(cls) if f.metadata.get("kind") == kind)


@dataclass(slots=True)
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

    epoch: int = durable(0)
    promised: int = durable(0)
    owner: Optional[int] = durable(None)
    owner_epoch: int = durable(0)
    appended: int = durable(0)
    next_slot: int = durable(1)
    # The decision log, written only through ``record`` so its views
    # stay exact: ``decided_pos`` (cid -> a position it is decided at:
    # Algorithm 1 line 2 as a lookup) and the highest decided position.
    decided: dict[int, Command] = durable(factory=dict)
    decided_pos: dict[tuple[int, int], int] = derived(factory=dict)
    max_decided: int = derived(0)
    last_progress: float = volatile(0.0)  # GenPaxos's collision timer
    # Acceptor-side read-lease grant (serving tier; inert unless the
    # config enables leases).  While ``lease_until`` (this node's clock)
    # lies in the future, ownership-moving Prepares from nodes other
    # than ``lease_holder`` are parked rather than promised, which is
    # what makes the holder's local reads linearizable.  Deliberately
    # volatile: a restarted acceptor instead refuses early promises for
    # one full lease window (the lease blackout), so forgetting grants
    # across a crash can never un-protect a live lease.
    lease_holder: Optional[int] = volatile(None)
    lease_epoch: int = volatile(0)
    lease_until: float = volatile(0.0)
    # Serving-tier read frontier: count of non-noop commands delivered
    # on this object, the "result" a leased local read observes (and
    # what the chaos stale-read audit compares against the decided
    # write log).  Maintained at append time, a pure function of the
    # delivered sequence.
    reads_frontier: int = derived(0)

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


@dataclass(slots=True)
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

    rnd: int = durable(0)
    rdec: int = durable(0)
    vdec: Optional[Command] = durable(None)
    vdec_ins: tuple[Instance, ...] = durable(())


@dataclass(eq=False)
class M2PaxosState:
    """Aggregates the dictionaries and provides defaulting accessors.

    ``instances``, ``active_positions`` and ``acks`` hold only instances
    above their object's append frontier; ``advance`` *retires* the rest,
    whose decided value answers from then on (DESIGN.md, "State lifetime").
    """

    # ``home_hint(l) -> node id`` statically assigns epoch-0 ownership
    # (all nodes must share the same deterministic map).  Equivalent to
    # Multi-Paxos's pre-agreed initial leader, per object: safe because
    # the epoch-0 owner is unique by construction, and any node can
    # still take over by preparing epoch 1.  Used for workloads like
    # TPC-C where the application declares which node "homes" each
    # object.
    home_hint: Optional[Callable[[str], int]] = None
    objects: dict[str, ObjectState] = durable(factory=dict, entry=ObjectState)
    instances: dict[Instance, InstanceState] = durable(factory=dict, entry=InstanceState)
    # The C-struct: every command appended here, in order, and the ids
    # among them (a command is appended once).
    cstruct: list[Command] = durable(factory=list)
    appended_cids: set[tuple[int, int]] = derived(factory=set)
    # Per-object index of positions with acceptor activity, so a
    # prepare can report the object's tail without scanning every
    # instance in the system.
    active_positions: dict[str, set[int]] = derived(factory=dict)
    # Objects whose delivery frontier might be stuck; the gap checker
    # scans only these (workloads like TPC-C touch 10^4..10^5 objects,
    # so scanning everything every period would dominate).
    gap_candidates: set[str] = volatile(factory=set)
    # Acks[l][in][e] of the paper, keyed further by command id so a
    # quorum is only counted for matching votes:
    # acks[instance][(epoch, cid)] = set of voter node ids.
    acks: dict[Instance, dict[tuple[int, tuple[int, int]], set[int]]] = volatile(factory=dict)

    def durable_record(self) -> dict:
        """The durable fields by name, in declaration order: a snapshot's
        content.  A dict of records maps each key to the tuple of that
        record's own durable fields (the value codec has no lists)."""
        out = {}
        for f in declared(type(self), DURABLE):
            value, entry = getattr(self, f.name), f.metadata["entry"]
            if entry is not None:
                names = [g.name for g in declared(entry, DURABLE)]
                value = {k: tuple(getattr(r, n) for n in names) for k, r in value.items()}
            out[f.name] = tuple(value) if type(value) is list else value
        return out

    def restore(self, record: dict) -> None:
        """Write a :meth:`durable_record` back; rebuilding the derived
        fields is the caller's."""
        for f in declared(type(self), DURABLE):
            value, entry = record[f.name], f.metadata["entry"]
            if entry is not None:
                names = [g.name for g in declared(entry, DURABLE)]
                value = {k: entry(**dict(zip(names, r))) for k, r in value.items()}
            elif type(getattr(self, f.name)) is list:
                value = list(value)
            setattr(self, f.name, value)

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
            positions = self.active_positions[l]
            positions.discard(obj.appended)
            if not positions:  # as a rebuild from ``instances`` has it
                del self.active_positions[l]
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


@dataclass(eq=False)
class NodeState(M2PaxosState):
    """Everything one M2Paxos node holds: the bookkeeping above plus the
    proposer, recovery, serving and supervision fields."""

    # The last round id and own no-op sequence number used (a no-op's
    # cid is ``(node, -seq - 1)``); :meth:`replayed` is their replay rule.
    req: int = durable(0)
    noop: int = durable(0)
    # -- Rounds in flight, keyed by ``req``, and their guards.
    pending_accepts: dict[int, object] = volatile(factory=dict)
    pending_prepares: dict[int, object] = volatile(factory=dict)
    attempts: dict[tuple[int, int], int] = volatile(factory=dict)
    active_recoveries: set[tuple[int, int]] = volatile(factory=set)
    acquiring: set[str] = volatile(factory=set)
    deferred: list[Command] = volatile(factory=list)
    # Gap checker's view of each stuck frontier: obj -> (frontier
    # position, time it was first seen stuck).  Keyed on the *position*
    # so steady decision traffic at higher slots cannot mask a frontier
    # that is not moving (see _check_gaps).
    gap_stall: dict[str, tuple[int, float]] = volatile(factory=dict)
    # Instance set assigned to each of our in-flight commands.  A NACKed
    # round may nevertheless have been *chosen* (a quorum of ACKs can
    # coexist with the NACK we saw), so retries must fight for the SAME
    # positions; re-proposing elsewhere could decide the command at two
    # position sets, whose relative orders with other commands can
    # contradict across objects.  Fresh positions are taken only once
    # the old round is provably dead (one of its instances decided with
    # a different command).
    assigned: dict[tuple[int, int], dict[str, tuple[int, int]]] = volatile(factory=dict)
    # Fast-path batch queue (see ProposerMixin._enqueue_fast).  With
    # ``config.max_batch == 1`` none of this is ever touched.
    batch: list[Command] = volatile(factory=list)
    batch_cids: set[tuple[int, int]] = volatile(factory=set)
    batch_timer: Optional[object] = volatile(None)
    # Our own proposals not yet fully decided -- the depth gauge behind
    # ``config.batch_adaptive`` (see _effective_batch_wait).
    inflight_cids: set[tuple[int, int]] = volatile(factory=set)
    # Deadlines behind one env timer (ProposerMixin._push_deadline): our
    # proposals' supervision, ``(when, _SUPERVISE, cid, command)``, our
    # prepare rounds', ``(when, _ROUND, req, None)``, and our announced
    # rounds' learn-resend attempts, ``(when, _LEARN, req, attempt)``.
    deadlines: list[tuple[float, int, object, object]] = volatile(factory=list)
    deadline_timer: Optional[object] = volatile(None)
    # -- Serving tier.  Owner-side grant ledger: obj -> {granter ->
    # expiry on *our* lease clock}.  Pruned when ownership moves (renew
    # pass) and on self-revoke.
    lease_grants: dict[str, dict[int, float]] = volatile(factory=dict)
    # Per-object serve floor: the highest position known used when this
    # tenure began (see _raise_serve_floors).  Local reads refuse until
    # ``appended`` has caught up to it.
    serve_floor: dict[str, int] = volatile(factory=dict)
    lease_blackout_until: float = volatile(0.0)
    # Parked foreign Prepares: park id -> (sender, message, timer).
    parked_prepares: dict[int, tuple] = volatile(factory=dict)
    park_counter: int = volatile(0)
    # Renewal heartbeat correlation (only the latest round counts).
    renew_req: int = volatile(0)
    renew_sent_at: float = volatile(0.0)
    # The min-max-RTT accept quorum (config.nearest_accept), picked on
    # first use.
    accept_quorum: Optional[tuple[int, ...]] = volatile(None)
    # True while recovery replays: suppresses re-logging.
    replaying: bool = volatile(False)

    def replayed(self, commands: Iterable[Command] = (), me: Optional[int] = None) -> None:
        """The counters' replay rule, per log record.  Node ``me``'s own
        no-ops ride in Accept and Decide records (``commands``), so
        ``noop`` resumes above the highest.  No record carries a round
        id: ``req`` moves one per record, an estimate of what the dead
        incarnation used (lease renewals, for one, log nothing)."""
        self.req += 1
        for command in commands:
            if command.noop and command.cid[0] == me:
                self.noop = max(self.noop, -command.cid[1] - 1)
