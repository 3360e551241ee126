"""Ownership acquisition (Algorithm 4): prepare rounds and SELECT.

The mixin owns phase 1: epoch bumping, prepare rounds (ownership,
gap, and recovery flavours), quorum collection, and turning the
replies into accept rounds that honour forced values.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from repro.consensus.base import handles
from repro.consensus.commands import Command, make_noop
from repro.core.messages import AckPrepare, Instance, Prepare
from repro.core.m2.config import _DECIDED_EPOCH, _ROUND, _PendingPrepare
from repro.core.quorum import highest_ballot, next_ballot

_EPOCH = itemgetter(1)
"""A phase-1 report ``(command, epoch, instances)``'s ballot."""

_NO_VOTE: tuple = (None, 0, ())
"""What SELECT forces where no reply reports a command."""


class OwnershipMixin:
    """Algorithm 4: acquire ownership, resolve prepared rounds."""

    def _acquisition_phase(self, command: Command) -> None:
        eps = self._pick_instances(command)
        if not eps:
            return
        # Only skip phase 1 for objects we currently own AND whose
        # assigned instance is still from our tenure: re-preparing our
        # own fresh pipeline would NACK it, but a stale instance may
        # have been touched at another epoch and must be prepared.
        stale = self._stale_instances(command)
        owned = {
            inst: epoch
            for inst, epoch in eps.items()
            if self._is_current_owner(inst[0]) and inst not in stale
        }
        missing = {inst: epoch for inst, epoch in eps.items() if inst not in owned}
        if not missing:
            # Races can make everything owned by the time we get here.
            self._accept_phase(command, eps)
            return
        self.stats["acquisitions"] += 1
        self.note_path(command, "acquisition")
        self.state.acquiring.update(inst[0] for inst in missing)
        full = self._full_ins(command, eps)
        self._prepare_round(
            command,
            list(missing),
            kind="acquisition",
            extra_eps=owned,
            fins=full or (),
        )

    def _prepare_round(
        self,
        command: Optional[Command],
        instances: list[Instance],
        kind: str,
        extra_eps: Optional[dict[Instance, int]] = None,
        fins: tuple[Instance, ...] = (),
    ) -> None:
        scoped = kind in ("gap", "recover")
        eps: dict[Instance, int] = {}
        bumped: set[str] = set()
        for inst in instances:
            obj = self.state.obj(inst[0])
            if scoped:
                # Instance-level ballot only: above anything seen, but
                # never claiming the object (no dethroning).
                floor = max(
                    self.state.inst(inst).rnd, obj.epoch, obj.promised
                )
                eps[inst] = self._next_epoch(floor)
            else:
                # One new epoch per *object* per round: instances of the
                # same object share it, so the follow-up accept is never
                # refused against the promise this round created.
                if inst[0] not in bumped:
                    obj.epoch = self._next_epoch(
                        max(obj.epoch, obj.promised)
                    )
                    bumped.add(inst[0])
                    self.note(
                        "epoch_bump",
                        obj=inst[0],
                        cid=command.cid if command is not None else None,
                    )
                eps[inst] = obj.epoch
            obj.observe_position(inst[1])
        req = self._next_req()
        self.state.pending_prepares[req] = _PendingPrepare(
            command=command,
            eps=eps,
            kind=kind,
            extra_eps=extra_eps or {},
            fins=fins,
        )
        self.env.broadcast(Prepare(req=req, eps=eps, scoped=scoped))
        self._push_deadline(self.config.round_timeout, _ROUND, req)

    def _next_epoch(self, floor: int) -> int:
        """This node's next epoch above ``floor``: the kernel's
        :func:`~repro.core.quorum.next_ballot`, whose striping rules out
        same-epoch duelling coordinators structurally."""
        return next_ballot(floor, self.env.node_id, self.env.n_nodes)

    def _next_noop(self, l: str) -> Command:
        """A hole filler for ``l`` with an id this node never used."""
        self.state.noop += 1
        return make_noop(l, self.env.node_id, self.state.noop)

    def _abandon_round(self, pending: _PendingPrepare, retry: bool = False) -> None:
        """Release what a round that failed (NACK) or expired guarded."""
        if pending.kind == "acquisition":
            self.state.acquiring.difference_update(l for l, _p in pending.eps)
            if retry:
                self._retry(pending.command)
            self._drain_deferred()
        elif pending.kind == "recover" and pending.command is not None:
            # The gap checker re-fires recovery if the frontier stays stuck.
            self.state.active_recoveries.discard(pending.command.cid)

    @handles(AckPrepare)
    def _on_ack_prepare(self, sender: int, msg: AckPrepare) -> None:
        pending = self.state.pending_prepares.get(msg.req)
        if pending is None:
            return  # the round is over
        if msg.ok:
            pending.replies[sender] = msg.decs
            if not self.quorums.is_prepare_quorum(pending.replies):
                return
        # A quorum or a NACK ends the round: it is retired here.
        del self.state.pending_prepares[msg.req]
        if not msg.ok:
            self.stats["prepare_nacks"] += 1
            for (l, _position) in pending.eps:
                obj = self.state.obj(l)
                obj.epoch = max(obj.epoch, msg.max_rnd)
            self._abandon_round(pending, retry=True)
            return
        if pending.kind == "acquisition":
            self.state.acquiring.difference_update(l for l, _p in pending.eps)
        self._resolve_prepared(pending)

    def _resolve_prepared(self, pending: _PendingPrepare) -> None:
        """Turn a prepared round into accept rounds, honouring forced
        values (Paxos phase 2a over multiple instances).

        The replies may report *more* instances than were asked for: the
        object's whole active tail.  Decided reports are learned on the
        spot; accepted-but-undecided ones are forced like any phase-1
        discovery, at the object's prepared epoch.
        """
        # Union of requested and reported instances, each with an epoch.
        object_epoch: dict[str, int] = {}
        for (l, _p), epoch in pending.eps.items():
            object_epoch[l] = max(object_epoch.get(l, 0), epoch)
        eps = dict(pending.eps)
        for decs in pending.replies.values():
            for inst in decs:
                eps.setdefault(inst, object_epoch.get(inst[0], 0))
        selected = self._select(eps, pending.replies)

        # Learn decided reports immediately; they leave the round.
        learnt: dict[Instance, Command] = {}
        for inst in list(selected):
            forced, fep, _fins = selected[inst]
            self.state.obj(inst[0]).observe_position(inst[1])
            if forced is not None and fep >= _DECIDED_EPOCH:
                learnt[inst] = forced
                del selected[inst]
                eps.pop(inst, None)
        self._log_decide(learnt)
        decided_foreign = False
        for inst, forced in learnt.items():
            self._decide(inst, forced)
            if pending.command is not None and (
                inst in pending.eps and forced.cid != pending.command.cid
            ):
                decided_foreign = True

        if pending.kind == "acquisition":
            # Serving tier: the quorum's reports just taught us the
            # objects' full tails; pin each object's serve floor so
            # leased reads wait for the local log to cover them.
            self._raise_serve_floors(l for (l, _p) in pending.eps)

        round_insts = set(eps)
        target = pending.command

        clean = (
            target is not None
            and not decided_foreign
            and all(
                forced is None
                or (forced.cid == target.cid and set(fins) <= round_insts)
                for (forced, _epoch, fins) in selected.values()
            )
        )
        if clean:
            to_decide: dict[Instance, Command] = {}
            accept_eps = dict(pending.extra_eps)
            for inst in pending.extra_eps:
                to_decide[inst] = target
            for inst in pending.eps:
                if inst in eps:  # not learned as decided above
                    accept_eps[inst] = eps[inst]
                    to_decide[inst] = target
            # Reported-but-empty instances are holes the previous owner
            # left behind (reserved or refused rounds); fill them with
            # no-ops in the same atomic round so the frontier can never
            # stall on them.
            for inst in eps:
                if inst not in to_decide and selected.get(inst, (None,))[0] is None:
                    to_decide[inst] = self._next_noop(inst[0])
                    accept_eps[inst] = eps[inst]
            cmd_ins = (
                {target.cid: pending.fins} if pending.fins else None
            )
            self._send_accept_round(
                to_decide,
                accept_eps,
                retry_command=target,
                cmd_ins=cmd_ins,
                scoped=pending.kind in ("gap", "recover"),
            )
            return

        # Conflicted (or pure gap) round: honour every forced value.
        # Multi-object forced commands whose recorded instance set is
        # not fully covered here are re-proposed atomically over that
        # set; unforced instances are filled with no-ops so the round's
        # prepared positions can never become permanent delivery gaps.
        to_decide: dict[Instance, Command] = {}
        cmd_ins: dict[tuple[int, int], tuple[Instance, ...]] = {}
        recoveries: dict[tuple[int, int], tuple[Command, tuple[Instance, ...]]] = {}
        for inst, (forced, _epoch, fins) in selected.items():
            if forced is None:
                to_decide[inst] = self._next_noop(inst[0])
                continue
            fins_set = set(fins) if fins else {inst}
            if self._round_is_dead(forced, fins_set):
                # One of the forced command's sibling instances is
                # already decided with a *different* command, so its
                # round never reached a quorum anywhere (the quorum
                # would have covered the sibling too).  The stale
                # acceptance is safe to overwrite with a no-op --
                # resurrecting it would split its decision.
                to_decide[inst] = self._next_noop(inst[0])
                continue
            group_ok = fins_set <= round_insts and all(
                selected[i][0] is not None and selected[i][0].cid == forced.cid
                for i in fins_set
            )
            if len(forced.ls) > 1 and fins_set != {inst} and not group_ok:
                recoveries[forced.cid] = (forced, tuple(fins))
                continue
            to_decide[inst] = forced
            if fins:
                cmd_ins[forced.cid] = tuple(fins)
        if to_decide:
            self._send_accept_round(
                to_decide,
                eps,
                retry_command=None,
                cmd_ins=cmd_ins,
                scoped=pending.kind in ("gap", "recover"),
            )
        for forced, fins in recoveries.values():
            self._schedule_recover_command(forced, fins)
        if pending.kind == "recover" and target is not None:
            self.state.active_recoveries.discard(target.cid)
        if pending.kind == "acquisition" and target is not None:
            self._retry(target)

    def _round_is_dead(
        self, command: Command, fins_set: set[Instance]
    ) -> bool:
        """True if any of the command's round instances is decided with
        a different command (hence the round never reached a quorum)."""
        for inst in fins_set:
            decided = self.state.decided_at(inst)
            if decided is not None and decided.cid != command.cid:
                return True
        return False

    @staticmethod
    def _select(
        eps: dict[Instance, int],
        replies: dict[
            int, dict[Instance, tuple[Optional[Command], int, tuple[Instance, ...]]]
        ],
    ) -> dict[Instance, tuple[Optional[Command], int, tuple[Instance, ...]]]:
        """Paxos phase-2a value selection per instance (Algorithm 4,
        lines 22-28), by the kernel's classic rule: the command accepted
        in the highest epoch wins, along with the instance set of the
        round that accepted it."""
        out: dict[Instance, tuple[Optional[Command], int, tuple[Instance, ...]]] = {}
        reports = replies.values()
        for inst in eps:
            voted = [
                report
                for decs in reports
                if (report := decs.get(inst, _NO_VOTE))[0] is not None
            ]
            out[inst] = highest_ballot(voted, _EPOCH) or _NO_VOTE
        return out
