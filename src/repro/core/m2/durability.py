"""Durable-state logging and recovery for M2Paxos.

What must survive a crash is exactly the acceptor-side promise/vote
state plus the decision log -- everything :meth:`M2Paxos.on_restart`
declares durable.  Three record types cover it; two are the protocol's
own messages, stored as ``decode_message`` accepts them:

- ``REC_ACCEPT`` (4): one absorbed (non-refused) ``Accept``; replay
  re-runs :meth:`AcceptorMixin._absorb_accept` on it.
- ``REC_PROMISE`` (2): the object-level promises and per-instance ``rnd``
  values one Prepare reply committed to (an ``encode_value_binary``
  pair); replay max-merges them, so duplicated log tails are harmless.
- ``REC_DECIDE`` (5): one ``Decide`` -- as received, or as this node
  would send it for what an ack quorum or a prepare quorum's reports
  taught it -- logged before it is applied, if it decides anything new
  here.  Replay re-runs :meth:`AcceptorMixin._on_decide`; decisions in
  log order re-run the delivery engine's pump, which rebuilds the
  delivered sequence byte-identically -- the property the chaos
  checker's cross-incarnation prefix check asserts.

(Types 1 and 3, earlier builds' per-command tuples, are refused by name.)

Records are logged *inside* the handler (buffered by the storage) and
made durable by the env's end-of-event commit before the handler's
acks/deliveries are released: persist-before-ack without any I/O in
protocol code.  With :class:`~repro.consensus.base.NullStorage` bound
(``durable == False``) every ``_log_*`` call is a cheap no-op and the
protocol behaves exactly as before this layer existed.

Snapshots serialise the full durable state (object states with their
decision logs, the *live* instance states -- those above each object's
append frontier; retired ones are dropped as the frontier passes and
their decisions answer for them -- and the C-struct) with the binary
wire codec; recovery restores the snapshot, then replays the log tail,
then continues as a normal durable restart.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.messages import Accept, Decide
from repro.runtime.codec import (
    decode_message,
    decode_value_binary,
    encode_value_binary,
    message_payload,
)

REC_PROMISE = 2
REC_ACCEPT = 4
REC_DECIDE = 5
_RETIRED = {1: "an older build's Accept tuple", 3: "an older build's decision"}


class DurabilityMixin:
    """Write-ahead logging + snapshot/restore for M2Paxos."""

    # True while recovery replays records: suppresses re-logging.
    _replaying = False

    # ------------------------------------------------------------------
    # Logging (called from the handlers that change durable state)
    # ------------------------------------------------------------------

    def _log(self, rtype: int, encode: Callable[..., bytes], *value) -> None:
        storage = self.env.storage
        if storage.durable and not self._replaying:
            storage.append(rtype, encode(*value))

    def _log_accept(self, sender: int, msg: Accept) -> None:
        self._log(REC_ACCEPT, message_payload, sender, msg)

    def _log_promise(self, objs: dict, insts: dict) -> None:
        self._log(REC_PROMISE, encode_value_binary, (objs, insts))

    def _log_decide(self, to_decide: dict) -> None:
        """Called with the decisions a handler is about to apply."""
        if self.env.storage.durable and any(
            self.state.decided_at(inst) is None for inst in to_decide
        ):
            self._log(
                REC_DECIDE, message_payload, self.env.node_id, Decide(to_decide)
            )

    # ------------------------------------------------------------------
    # Recovery replay
    # ------------------------------------------------------------------

    def apply_log_record(self, rtype: int, payload: bytes) -> None:
        if rtype in _RETIRED:
            raise ValueError(f"cannot replay record type {rtype}: {_RETIRED[rtype]}")
        self._replaying = True
        try:
            if rtype == REC_ACCEPT:
                self._absorb_accept(*decode_message(payload))
            elif rtype == REC_PROMISE:
                self._absorb_promise(*decode_value_binary(payload))
            elif rtype == REC_DECIDE:
                self._on_decide(*decode_message(payload))
            # Unknown record types from a newer build are skipped.
        finally:
            self._replaying = False
        # Keep round identifiers clear of anything the dead incarnation
        # may still have in flight (strictly safer than an amnesia
        # restart, which resets the counter to zero).
        self._req_counter += 1

    def _absorb_promise(self, objs: dict, insts: dict) -> None:
        """Max-merge logged promises (replay-only; the live handlers
        interleave this state with reply construction)."""
        for l, (promised, epoch) in objs.items():
            obj = self.state.obj(l)
            obj.promised = max(obj.promised, promised)
            obj.epoch = max(obj.epoch, epoch)
            self.state.gap_candidates.add(l)
        for inst, rnd in insts.items():
            inst_state = self.state.inst(inst)
            if inst_state is not None:
                inst_state.rnd = max(inst_state.rnd, rnd)
            self.state.obj(inst[0]).observe_position(inst[1])

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot_payload(self) -> Optional[bytes]:
        objects = {
            l: (
                obj.epoch,
                obj.promised,
                obj.owner,
                obj.owner_epoch,
                obj.appended,
                obj.next_slot,
                obj.decided,
            )
            for l, obj in self.state.objects.items()
        }
        instances = {
            inst: (state.rnd, state.rdec, state.vdec, tuple(state.vdec_ins))
            for inst, state in self.state.instances.items()
        }
        return encode_value_binary(
            {
                "objects": objects,
                "instances": instances,
                "cstruct": tuple(self.delivery.cstruct),
                "req": self._req_counter,
                "noop": self._noop_counter,
            }
        )

    def restore_snapshot(self, payload: bytes) -> None:
        value = decode_value_binary(payload)
        now = self.env.now()
        for l, fields in value["objects"].items():
            epoch, promised, owner, owner_epoch, appended, next_slot, decided = fields
            obj = self.state.obj(l)
            for position, command in decided.items():
                obj.record(position, command)  # rebuilds the cid index
            obj.epoch = epoch
            obj.promised = promised
            obj.owner = owner
            obj.owner_epoch = owner_epoch
            obj.appended = appended
            obj.next_slot = next_slot
            obj.last_progress = now  # no instant gap-recovery storm
            self.state.gap_candidates.add(l)
        for inst, (rnd, rdec, vdec, vdec_ins) in value["instances"].items():
            inst_state = self.state.inst(inst)  # registers active position
            if inst_state is None:
                continue  # below the frontier: an older build's snapshot
            inst_state.rnd = rnd
            inst_state.rdec = rdec
            inst_state.vdec = vdec
            inst_state.vdec_ins = tuple(vdec_ins)
        # The snapshot's object states already hold the final ``appended``
        # pointers, so the C-struct is re-seated without re-pumping; the
        # env re-delivers each command so the application log is rebuilt
        # in the original order.  The serving tier's read frontiers and
        # session dedup table are pure functions of this sequence, so
        # re-walking it rebuilds both exactly as the dead incarnation
        # had them -- truncation-safe with no extra snapshot payload
        # (the log tail after the snapshot replays through the ordinary
        # append path, which maintains the same state).
        self._replaying = True
        try:
            for command in value["cstruct"]:
                self.delivery.restore_append(command)
                if not command.noop:
                    for l in command.ls:
                        self.state.obj(l).reads_frontier += 1
                    if command.session is not None:
                        self._session_record(command)
                    self.env.deliver(command)
        finally:
            self._replaying = False
        self._req_counter = value["req"]
        self._noop_counter = value["noop"]
