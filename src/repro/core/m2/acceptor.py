"""Acceptor and learner sides (Algorithms 2-3): votes and decisions.

The mixin owns every passive role: voting on Accepts, answering
Prepares (with the tail-reporting ownership promise), learning from
Decides, and feeding decisions to the delivery engine.
"""

from __future__ import annotations

from typing import Optional

from repro.consensus.base import handles
from repro.consensus.commands import Command
from repro.core.messages import Accept, AckAccept, AckPrepare, Decide, Instance, Prepare
from repro.core.m2.config import _DECIDED_EPOCH, SafetyViolation
from repro.core.state import InstanceState


def instances_by_command(
    to_decide: dict[Instance, Command],
) -> dict[tuple[int, int], tuple[Instance, ...]]:
    """Each command's instances within one round, grouped in one pass."""
    groups: dict[tuple[int, int], list[Instance]] = {}
    for inst, cmd in to_decide.items():
        groups.setdefault(cmd.cid, []).append(inst)
    return {cid: tuple(insts) for cid, insts in groups.items()}


class AcceptorMixin:
    """Algorithm 2's acceptor half + Algorithm 3 (learning/delivery)."""

    @handles(Accept)
    def _on_accept(self, sender: int, msg: Accept) -> None:
        refused = False
        max_rnd = 0
        for inst, epoch in msg.eps.items():
            inst_state = self.state.inst(inst)
            obj = self.state.obj(inst[0])
            rnd = inst_state.rnd if inst_state is not None else 0
            max_rnd = max(max_rnd, rnd, obj.promised)
            if rnd > epoch:
                refused = True
            if not msg.scoped and obj.promised > epoch:
                # Object-level leadership: a higher epoch was prepared,
                # so this accept comes from a dethroned owner.  Scoped
                # rounds arbitrate purely on the instance's rnd.
                refused = True
            existing = self.state.decided_at(inst)
            if existing is not None and existing.cid != msg.to_decide[inst].cid:
                # The instance is already burned with a different command;
                # never vote for a second value.
                refused = True
            # Either way, remember the position was used: our own picks
            # must steer clear of it.
            obj.observe_position(inst[1])

        if refused:
            self.env.send(
                sender,
                AckAccept(
                    req=msg.req,
                    coordinator=sender,
                    ok=False,
                    cids={},
                    eps=msg.eps,
                    max_rnd=max_rnd,
                ),
            )
            return

        self._absorb_accept(sender, msg)
        self._log_accept(sender, msg)

        ack = AckAccept(
            req=msg.req,
            coordinator=sender,
            ok=True,
            cids={inst: cmd.cid for inst, cmd in msg.to_decide.items()},
            eps=msg.eps,
        )
        if self.config.ack_to_all:
            self.env.broadcast(ack)
        else:
            self.env.send(sender, ack)
        if sender == self.env.node_id:
            # Our own accept landed: ownership is now recorded locally,
            # so deferred commands can take the fast path.
            self._drain_deferred()

    def _absorb_accept(self, sender: int, msg: Accept) -> None:
        """Apply one (non-refused) Accept's per-instance mutations.

        Shared by the live handler and storage-recovery replay: the
        log record is the message itself, so replay reproduces the
        handler's state transition verbatim."""
        # Each accepted value remembers the full instance set it was
        # proposed with (what a later forced recovery must cover
        # atomically): taken from the message's authoritative map when
        # present, else derived by grouping the round's instances.
        to_decide = msg.to_decide
        ins_of = instances_by_command(to_decide)
        ins_of.update(msg.cmd_ins)
        for inst, epoch in msg.eps.items():
            l, position = inst
            inst_state = self.state.inst(inst)
            if inst_state is not None:
                inst_state.rnd = epoch
                inst_state.rdec = epoch
                inst_state.vdec = to_decide[inst]
                inst_state.vdec_ins = ins_of[to_decide[inst].cid]
            obj = self.state.obj(l)
            if not msg.scoped:
                # Only leadership rounds transfer ownership.
                if obj.owner is not None and obj.owner != sender:
                    self.note("owner_handoff", obj=l, old=obj.owner, new=sender)
                obj.owner = sender
                obj.owner_epoch = epoch
                obj.promised = max(obj.promised, epoch)
                obj.epoch = max(obj.epoch, epoch)
                if self.config.lease_duration > 0.0 and not self.state.replaying:
                    # Absorbing a leadership-round accept doubles as a
                    # read-lease grant: the sender provably holds the
                    # object's current epoch, and counting the window
                    # from *our receipt clock* keeps it a superset of
                    # the owner's send-clock window under bounded skew
                    # (see DESIGN.md, Serving tier).  Replay never
                    # re-grants: grants are deliberately volatile and a
                    # restarted acceptor runs the lease blackout instead.
                    obj.lease_holder = sender
                    obj.lease_epoch = epoch
                    obj.lease_until = (
                        self.env.now() + self.config.lease_duration
                    )
            obj.observe_position(position)
            self.state.gap_candidates.add(l)

    TAIL_REPORT_CAP = 64

    @handles(Prepare)
    def _on_prepare(self, sender: int, msg: Prepare) -> None:
        if self.config.lease_duration > 0.0:
            # Serving tier: a Prepare that would dethrone (or, for
            # scoped rounds, decide behind the back of) a leased owner
            # is *parked* until the grant runs out or the owner releases
            # it -- this is the acceptor-side half of the lease
            # invariant.  The holder's own objects never park the
            # message when this node IS the holder: processing it moves
            # our promise, which stops our local reads synchronously and
            # triggers the explicit ReleaseLease revoke.
            wake = self._lease_block_until(sender, msg.eps)
            if wake is not None:
                self._park_prepare(sender, msg, wake)
                return
        refused = False
        max_rnd = 0
        for inst, epoch in msg.eps.items():
            inst_state = self.state.inst(inst)
            obj = self.state.obj(inst[0])
            rnd = inst_state.rnd if inst_state is not None else 0
            max_rnd = max(max_rnd, rnd)
            if rnd >= epoch:
                refused = True
            if not msg.scoped:
                max_rnd = max(max_rnd, obj.promised)
                if obj.promised >= epoch:
                    refused = True
            # Record the attempted position either way: our own next
            # picks must steer clear of it.
            obj.observe_position(inst[1])

        if refused:
            self.env.send(
                sender, AckPrepare(req=msg.req, ok=False, max_rnd=max_rnd)
            )
            return

        decs: dict[Instance, tuple[Optional[Command], int, tuple[Instance, ...]]] = {}
        rnds: dict[Instance, int] = {}  # the per-instance promises made
        if msg.scoped:
            # Instance-scoped phase 1: promise and report only the
            # requested instances; the object's leadership is untouched.
            for inst, epoch in msg.eps.items():
                inst_state = self.state.inst(inst)
                if inst_state is not None:
                    inst_state.rnd = rnds[inst] = epoch
                self.state.gap_candidates.add(inst[0])
                decs[inst] = self._report(inst, inst_state)
            self._log_promise((), rnds)
            self.env.send(sender, AckPrepare(req=msg.req, ok=True, decs=decs))
            return

        # A promise for epoch e covers the *whole object*, so the reply
        # reports every instance at/above the requested position that
        # carries activity -- exactly Multi-Paxos's view change, where
        # the new leader learns the log tail.  Without this, the new
        # owner could run fast-path rounds over instances where an
        # older-epoch quorum already chose a value it never saw.
        if self.config.lease_duration > 0.0 and sender != self.env.node_id:
            # We may hold read leases on some of these objects; promising
            # a foreign ownership round ends our tenure, so stop serving
            # *before* the promise leaves and tell the granters to wake
            # any parked acquisition (the explicit-revoke path).
            self._self_revoke_leases(inst[0] for inst in msg.eps)
        for inst, epoch in msg.eps.items():
            l, position = inst
            obj = self.state.obj(l)
            obj.promised = max(obj.promised, epoch)
            obj.epoch = max(obj.epoch, epoch)
            self.state.gap_candidates.add(l)
            tail = self.state.positions_with_activity(l, position)
            for p in [position] + tail[: self.TAIL_REPORT_CAP]:
                report_inst = (l, p)
                inst_state = self.state.inst(report_inst)
                # The promise covers every reported instance, exactly as
                # a Multi-Paxos promise covers the whole log: otherwise a
                # lower-ballot scoped round could slip in between this
                # report and the new owner's hole-filling accept.
                if inst_state is not None:
                    inst_state.rnd = rnds[report_inst] = max(inst_state.rnd, epoch)
                decs[report_inst] = self._report(report_inst, inst_state)
        self._log_promise((l for l, _position in msg.eps), rnds)
        self.env.send(sender, AckPrepare(req=msg.req, ok=True, decs=decs))

    def _report(
        self, inst: Instance, inst_state: Optional[InstanceState]
    ) -> tuple[Optional[Command], int, tuple[Instance, ...]]:
        """One instance's phase-1b report (``inst_state`` is None once
        retired).  A decision goes under the sentinel epoch, with the
        command's instance set from the vote held here, else the index."""
        decided = self.state.decided_at(inst)
        if decided is None:  # hence not retired: the state exists
            return (inst_state.vdec, inst_state.rdec, inst_state.vdec_ins)
        vdec = inst_state.vdec if inst_state is not None else None
        held = vdec is not None and vdec.cid == decided.cid
        ins = inst_state.vdec_ins if held else self.state.instances_of(decided)
        return (decided, _DECIDED_EPOCH, ins)

    # ------------------------------------------------------------------
    # Decision phase (Algorithm 3)
    # ------------------------------------------------------------------

    @handles(Decide)
    def _on_decide(self, sender: int, msg: Decide) -> None:
        self._log_decide(msg.to_decide)
        ins_of = None
        for inst, cmd in msg.to_decide.items():
            # A node that missed the Accept still learns the value and
            # its round's instance set, so its prepare replies can route
            # recoveries correctly.
            inst_state = self.state.inst(inst)
            if inst_state is not None and inst_state.vdec is None:
                if ins_of is None:
                    ins_of = instances_by_command(msg.to_decide)
                inst_state.vdec = cmd
                inst_state.vdec_ins = ins_of[cmd.cid]
            self._decide(inst, cmd)

    def _decide(self, inst: Instance, command: Command) -> None:
        l, position = inst
        existing = self.state.decided_at(inst)
        if existing is not None:
            if existing.cid != command.cid:
                if existing.noop and command.noop:
                    # Two recovery rounds racing to fill the same hole
                    # may carry distinct no-op ids; no-ops are
                    # semantically identical (they only advance the
                    # frontier and are never delivered), so either one
                    # standing is consistent.
                    return
                raise SafetyViolation(
                    f"instance {inst}: {existing} already decided, got {command}"
                )
            return
        if not command.noop:
            self.note("decide", cid=command.cid)
        assert self.delivery is not None
        self.delivery.record_decision(l, position, command)
        if self._fully_decided(command):
            # A fully decided command needs no further proposer-side
            # bookkeeping.  Pruning here (not only at append, which can
            # lag behind a stalled frontier) bounds `attempts` on long
            # runs and releases the recovery guard even when a
            # `kind="recover"` round we launched was won by a competing
            # node's decide -- the round's own ack path never announces
            # then, which used to strand the cid in `active_recoveries`
            # and block every future recovery of it.
            self.state.attempts.pop(command.cid, None)
            self.state.active_recoveries.discard(command.cid)
            self.state.inflight_cids.discard(command.cid)
        appended = self.delivery.pump(dirty=command.ls)
        # Every object whose frontier may have moved goes (back) on the
        # gap checker's radar; the checker discards clean ones itself.
        self.state.gap_candidates.update(command.ls)
        for done in appended:
            self.state.gap_candidates.update(done.ls)

    def _on_append(self, command: Command) -> None:
        """A command reached the C-struct: deliver it upward."""
        self.state.attempts.pop(command.cid, None)
        self.state.assigned.pop(command.cid, None)
        if not command.noop:
            self._fold_append(command)
            if command.proposer != self.env.node_id:
                # Exactly-once "decision elsewhere" signal for the
                # ownership policy (appends happen once per command per
                # node); our own proposals -- including ones the owner
                # decided for us after a forward -- stay out, so a
                # node's local demand keeps counting.
                self.policy.on_remote_decide(self.env.node_id, command)
            self.env.deliver(command)
