"""Durable-state logging and recovery for M2Paxos.

What must survive a crash is every field :mod:`repro.core.state`
declares durable.  Three record types carry it; two are the protocol's
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

The id counters replay by :meth:`~repro.core.state.NodeState.replayed`.
(Types 1 and 3, earlier builds' per-command tuples, are refused by name.)

Records are logged *inside* the handler (buffered by the storage) and
made durable by the env's end-of-event commit before the handler's
acks/deliveries are released: persist-before-ack without any I/O in
protocol code.  With :class:`~repro.consensus.base.NullStorage` bound
(``durable == False``) every ``_log_*`` call is a cheap no-op and the
protocol behaves exactly as before this layer existed.

A snapshot is the durable declaration: the durable fields in order,
through the binary value codec (only *live* instances exist: retired
ones are dropped as the frontier passes).  Recovery writes them back,
rebuilds the derived fields and replays the log tail; the node then
starts like every other incarnation.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Optional

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

    # ------------------------------------------------------------------
    # Logging (called from the handlers that change durable state)
    # ------------------------------------------------------------------

    def _log(self, rtype: int, encode: Callable[..., bytes], *value) -> None:
        storage = self.env.storage
        if storage.durable and not self.state.replaying:
            storage.append(rtype, encode(*value))

    def _log_accept(self, sender: int, msg: Accept) -> None:
        self._log(REC_ACCEPT, message_payload, sender, msg)

    def _log_promise(self, ls: Iterable[str], insts: dict) -> None:
        """One Prepare reply's promises: on objects ``ls`` and instances ``insts``."""
        if self.env.storage.durable:
            objects = self.state.objects
            objs = {l: (objects[l].promised, objects[l].epoch) for l in ls}
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

    @contextmanager
    def _replay(self):
        """Recovery is re-running what the log holds: nothing is logged
        again, granted again or noted as new."""
        self.state.replaying = True
        try:
            yield
        finally:
            self.state.replaying = False

    def apply_log_record(self, rtype: int, payload: bytes) -> None:
        if rtype in _RETIRED:
            raise ValueError(f"cannot replay record type {rtype}: {_RETIRED[rtype]}")
        with self._replay():
            if rtype == REC_PROMISE:
                self._absorb_promise(*decode_value_binary(payload))
            elif rtype in (REC_ACCEPT, REC_DECIDE):
                sender, msg = decode_message(payload)
                apply = self._absorb_accept if rtype == REC_ACCEPT else self._on_decide
                apply(sender, msg)
                self.state.replayed(msg.to_decide.values(), self.env.node_id)
                return
            # Unknown record types from a newer build are skipped.
        self.state.replayed()

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
        return encode_value_binary(self.state.durable_record())

    def restore_snapshot(self, payload: bytes) -> None:
        self.state.restore(decode_value_binary(payload))
        with self._replay():
            self._rebuild_derived()

    def _rebuild_derived(self) -> None:
        """Recompute every derived field from the durable ones through
        the write paths a replayed log tail uses.  The objects hold their
        final ``appended`` pointers, so nothing is re-pumped: the env
        re-delivers the C-struct, rebuilding the application log."""
        state = self.state
        for l, obj in state.objects.items():
            for position, command in enumerate(obj.decided, 1):
                if command is not None:
                    state.index(l, position, command)
        for instance in list(state.instances):
            if state.retired(instance):  # saved by a build that kept them
                del state.instances[instance]
            else:
                state.active_positions.setdefault(instance[0], set()).add(instance[1])
        for command in state.cstruct:
            if not command.noop:
                self._fold_append(command)
                self.env.deliver(command)
