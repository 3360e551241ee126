"""Coordination and accept phases (Algorithms 1-2): the proposer side.

The mixin owns everything a node does for commands it coordinates:
picking instances, the fast/forward decision, the accept round and its
ack counting, retries, and the node's deadline heap (proposer-side
supervision, prepare-round deadlines and learn-resend).
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.consensus.base import handles
from repro.consensus.commands import Command
from repro.core.messages import Accept, AckAccept, Decide, Forward, Instance
from repro.core.m2.config import _LEARN, _RETRY_BACKOFF, _ROUND, _SUPERVISE, _PendingAccept
from repro.core.policy import FORWARD


class ProposerMixin:
    """Algorithm 1 (coordination) + Algorithm 2's coordinator half."""

    # ------------------------------------------------------------------
    # Coordination phase (Algorithm 1)
    # ------------------------------------------------------------------

    def propose(self, command: Command) -> None:
        if self._intercept_propose(command):
            # Serving tier: a leased owner-local read, complete with
            # zero consensus messages.
            return
        self.policy.on_local_request(self.env.node_id, command)
        # In-flight gauge feeding the adaptive batch_wait: our own
        # proposals not yet fully decided (pruned in ``_decide``).
        self.state.inflight_cids.add(command.cid)
        self._coordinate(command, hops=0)
        self._supervise(command)

    def _supervise(self, command: Command) -> None:
        """Watch our own proposal until it is decided (liveness under
        message loss: a silently lost round never produces a NACK).  A
        healthy proposal costs a deadline heap entry, not a timer."""
        self._push_deadline(self.config.supervise_timeout, _SUPERVISE, command.cid, command)

    def _push_deadline(self, timeout: float, kind: int, key, value=None) -> None:
        """Put a deadline ``timeout x U[1, 1.5)`` from now on the heap
        (``NodeState.deadlines``); a timeout of 0 disables the kind."""
        if timeout <= 0:
            return
        entry = (self.env.now() + timeout * (1.0 + 0.5 * self.env.rng.random()), kind, key, value)
        deadlines = self.state.deadlines
        heapq.heappush(deadlines, entry)
        if deadlines[0] is entry:
            self._arm_deadline()

    def _arm_deadline(self) -> None:
        state = self.state
        if state.deadline_timer is not None:
            state.deadline_timer.cancel()
        state.deadline_timer = self.env.set_timer_at(state.deadlines[0][0], self._on_deadline)

    def _on_deadline(self) -> None:
        """One firing per deadline: the earliest entry expires its round,
        chases its announced round's unheard nodes or re-coordinates its
        undecided proposal, then the timer is armed for the next."""
        state = self.state
        state.deadline_timer = None
        _when, kind, key, value = heapq.heappop(state.deadlines)
        if kind == _ROUND:
            pending = state.pending_prepares.pop(key, None)
            if pending is not None:
                self._abandon_round(pending)
        elif kind == _LEARN:
            self._resend_learn(key, value)
        elif not self._fully_decided(value):
            self._coordinate(value, hops=0)
            self._supervise(value)
        if state.deadlines and state.deadline_timer is None:
            self._arm_deadline()

    def _pick_instances(self, command: Command) -> dict[Instance, int]:
        """Choose the next free position per still-undecided object.

        Returns ``{(l, in): epoch}`` with the *current* epoch (fast
        path); the acquisition path overwrites the epochs.  Positions
        are reserved immediately so pipelined proposals on the same
        object never collide.
        """
        assigned = self.state.assigned.get(command.cid)
        if assigned is not None:
            fins = {(l, position) for l, (position, _e) in assigned.items()}
            if self._round_is_dead(command, fins):
                assigned = None  # provably unchoosable; safe to move
        if assigned is None:
            assigned = {}
            for l in sorted(command.ls):
                obj = self.state.obj(l)
                position = max(obj.next_slot, obj.appended + 1)
                # Remember the epoch the position was allocated under:
                # if the object's epoch moves on, the position may have
                # been touched by an interim owner and must be prepared
                # (phase 1) before any further accept.
                assigned[l] = (position, obj.epoch)
            self.state.assigned[command.cid] = assigned
        eps: dict[Instance, int] = {}
        for l, (position, _alloc_epoch) in assigned.items():
            if self.state.is_decided_for(l, command):
                continue
            obj = self.state.obj(l)
            obj.observe_position(position)
            eps[(l, position)] = obj.epoch
        return eps

    def _stale_instances(self, command: Command) -> set[Instance]:
        """Assigned instances whose object epoch moved since allocation."""
        assigned = self.state.assigned.get(command.cid) or {}
        stale = set()
        for l, (position, alloc_epoch) in assigned.items():
            if self.state.obj(l).epoch != alloc_epoch:
                stale.add((l, position))
        return stale

    def _coordinate(self, command: Command, hops: int) -> None:
        undecided = [
            l for l in command.ls if not self.state.is_decided_for(l, command)
        ]
        if not undecided:
            return

        me = self.env.node_id
        if all(self._is_current_owner(l) for l in undecided):
            eps = self._pick_instances(command)
            if eps and not self._stale_instances(command):
                self.stats["fast_path"] += 1
                self.note_path(command, "fast")
                if self.config.max_batch > 1:
                    # Positions are already reserved (in submission
                    # order) by _pick_instances; the round itself waits
                    # in the batch queue for company.
                    self._enqueue_fast(command)
                    return
                self._accept_phase(
                    command, eps, full_ins=self._full_ins(command, eps)
                )
                return
            if eps:
                # A pinned position outlived an ownership change: it may
                # have been touched at another epoch, so run phase 1.
                self._acquisition_phase(command)
            return

        if any(l in self.state.acquiring for l in undecided):
            # We are already acquiring (some of) these objects for an
            # earlier command; queue FIFO and re-coordinate once that
            # settles, rather than launching a second epoch war against
            # ourselves.  Preserving order here is what keeps a burst of
            # pipelined proposals delivered in submission order.
            self.state.deferred.append(command)
            return

        owners = {self.state.obj(l).owner for l in undecided}
        if (
            len(owners) == 1
            and None not in owners
            and me not in owners
            and hops < self.config.max_forward_hops
            and not self.policy.wants_single_owner
        ):
            (owner,) = owners
            self.stats["forwarded"] += 1
            self.note_path(command, "forward", hops=hops + 1)
            self.env.send(owner, Forward(command=command, hops=hops + 1))
            self._arm_forward_timeout(command)
            return

        # No usable single owner: the ownership policy decides between
        # reshuffling here or forwarding to a better-placed node
        # (Section IV-C: when-to-acquire is a pluggable, orthogonal
        # choice; the default acquires on demand, as in the paper).
        owner_map = {l: self._believed_owner(l) for l in undecided}
        action, target = self.policy.decide(me, command, owner_map)
        if (
            action == FORWARD
            and target is not None
            and target != me
            and hops < self.config.max_forward_hops
        ):
            self.stats["forwarded"] += 1
            self.note_path(command, "forward", hops=hops + 1)
            self.env.send(target, Forward(command=command, hops=hops + 1))
            self._arm_forward_timeout(command)
            return
        if any(owner is not None and owner != me for owner in owner_map.values()):
            # The policy chose to take over objects somebody else owns:
            # an ownership *migration*, as opposed to a first-touch
            # acquisition.  Geo benches and the telemetry layer count
            # these to show placement converging toward the traffic.
            self.stats["migrations"] += 1
            self.note("migration", cid=command.cid, objs=len(owner_map))
        self._acquisition_phase(command)

    @handles(Forward)
    def _on_forward(self, sender: int, msg: Forward) -> None:
        self.policy.on_forwarded_request(self.env.node_id, msg.command)
        self._coordinate(msg.command, hops=msg.hops)

    def _full_ins(
        self, command: Command, eps: dict[Instance, int]
    ) -> Optional[tuple[Instance, ...]]:
        """The command's authoritative full instance set, when the round
        at hand covers only part of it (siblings already decided)."""
        assigned = self.state.assigned.get(command.cid)
        if assigned is None or len(assigned) == len(eps):
            return None
        return tuple(
            (l, position) for l, (position, _epoch) in sorted(assigned.items())
        )

    def _drain_deferred(self) -> None:
        if not self.state.deferred:
            return
        queued, self.state.deferred = self.state.deferred, []
        for command in queued:
            self._coordinate(command, hops=0)

    def _believed_owner(self, l: str) -> Optional[int]:
        """The node the policy should treat as ``l``'s owner.

        Usually the recorded owner -- but while an acquisition is in
        flight the record still names the *old* owner, and a policy
        acting on it starts (or joins) an epoch war: the dethroned
        owner reads "we hold it: finish here", and a second would-be
        acquirer reads "steal it from the old owner" instead of
        forwarding to the one already taking over.  Epochs are striped
        ``k*N + node`` (ownership.py), so a raised epoch itself names
        the contender; when one is in flight (``epoch`` above the
        recorded ``owner_epoch``), report the contender and let the
        policy forward to where ownership is headed.  If the contender
        crashed mid-takeover, the forward timeout still falls back to
        acquisition.  Only the policy branch sees this view: the plain
        forward path keeps the recorded owners, byte-identical to the
        seed."""
        obj = self.state.obj(l)
        if obj.epoch > obj.owner_epoch:
            return obj.epoch % self.env.n_nodes
        return obj.owner

    def _is_current_owner(self, l: str) -> bool:
        """IsOwner(p_i, l): we acquired ``l`` and nobody has started a
        higher epoch since (a raised epoch means our leadership is being
        taken over, so fast-path rounds would only be refused)."""
        obj = self.state.obj(l)
        return (
            obj.owner == self.env.node_id
            and obj.owner_epoch == obj.epoch
            and obj.promised <= obj.epoch
        )

    def _arm_forward_timeout(self, command: Command) -> None:
        def on_timeout() -> None:
            if not self._fully_decided(command):
                # Take over: the owner may have crashed or lost ownership.
                self._acquisition_phase(command)

        jitter = 1.0 + 0.2 * self.env.rng.random()
        self.env.set_timer(self.config.forward_timeout * jitter, on_timeout)

    def _fully_decided(self, command: Command) -> bool:
        return all(self.state.is_decided_for(l, command) for l in command.ls)

    def _retry(self, command: Command) -> None:
        """Re-run the coordination phase after a randomised backoff.

        The backoff grows with the attempt count; this is the practical
        concession the paper makes in Section IV-C ("an unbounded
        sequence of restarts") -- safety never depends on it.
        """
        attempt = self.state.attempts.get(command.cid, 0) + 1
        self.state.attempts[command.cid] = attempt
        delay = _RETRY_BACKOFF * attempt * (0.5 + self.env.rng.random())

        def fire() -> None:
            if not self._fully_decided(command):
                self._coordinate(command, hops=0)

        self.env.set_timer(delay, fire)

    # ------------------------------------------------------------------
    # Fast-path batching
    # ------------------------------------------------------------------
    #
    # While this node owns all objects of its queued proposals, up to
    # ``max_batch`` of them coalesce into one multi-command Accept round
    # (single broadcast, single quorum, single Decide) -- the CAESAR /
    # Mencius leader-batching trick, which amortises the per-round
    # message cost that otherwise dominates at saturation.  Correctness
    # rides entirely on the unbatched machinery: instances were assigned
    # at enqueue time in submission order, the batch proposes exactly
    # the (instance -> command) pairs the sequential rounds would have,
    # and acceptors vote per instance, so the decided per-object total
    # order is identical to sequential rounds.

    def _effective_batch_wait(self) -> float:
        """How long the first queued command should wait for company.

        Fixed mode returns ``batch_wait`` untouched.  Adaptive mode
        self-tunes to the observed in-flight depth: with at most one of
        our proposals undecided there is nobody to coalesce with, so
        the wait is zero (flush immediately, no latency tax); with a
        deep pipeline the wait scales toward the full ``batch_wait``
        because the next proposals are already in flight and a fuller
        batch amortises the round cost further.
        """
        cfg = self.config
        if not cfg.batch_adaptive:
            return cfg.batch_wait
        depth = len(self.state.inflight_cids)
        if depth <= 1:
            return 0.0
        return cfg.batch_wait * min(1.0, depth / cfg.max_batch)

    def _enqueue_fast(self, command: Command) -> None:
        """Queue a fast-path command for the next batched Accept round."""
        state = self.state
        if command.cid in state.batch_cids:
            return  # supervision re-coordinated a command already queued
        state.batch_cids.add(command.cid)
        state.batch.append(command)
        if len(state.batch) >= self.config.max_batch:
            self._flush_batch()
        elif state.batch_timer is None:
            wait = self._effective_batch_wait()
            if wait <= 0.0 and self.config.batch_adaptive:
                # Shallow pipeline: waiting cannot attract company.
                self._flush_batch()
                return

            def fire() -> None:
                state.batch_timer = None
                self._flush_batch()

            state.batch_timer = self.env.set_timer(wait, fire)

    def _flush_batch(self) -> None:
        """Emit one Accept round covering every still-eligible queued
        command; commands whose ownership or instances went stale while
        queued are re-coordinated individually, after a backoff.

        The backoff matters: a stale batch member means another node is
        (re)taking the object, and re-coordinating immediately answers
        every flush with a counter-acquisition -- two nodes can duel
        epochs indefinitely that way.  The randomised, attempt-scaled
        retry delay breaks the symmetry, exactly as it does for NACKed
        rounds on the unbatched path."""
        state = self.state
        if state.batch_timer is not None:
            state.batch_timer.cancel()
            state.batch_timer = None
        queued, state.batch = state.batch, []
        state.batch_cids.clear()
        batch: list[Command] = []
        to_decide: dict[Instance, Command] = {}
        eps: dict[Instance, int] = {}
        cmd_ins: dict[tuple[int, int], tuple[Instance, ...]] = {}
        requeue: list[Command] = []
        for command in queued:
            undecided = [
                l for l in command.ls if not self.state.is_decided_for(l, command)
            ]
            if not undecided:
                continue
            if not all(self._is_current_owner(l) for l in undecided):
                requeue.append(command)
                continue
            cmd_eps = self._pick_instances(command)
            if not cmd_eps:
                continue
            if self._stale_instances(command):
                requeue.append(command)
                continue
            batch.append(command)
            for inst, epoch in cmd_eps.items():
                to_decide[inst] = command
                eps[inst] = epoch
            full = self._full_ins(command, cmd_eps)
            if full:
                cmd_ins[command.cid] = full
        if to_decide:
            self._send_accept_round(
                to_decide,
                eps,
                retry_command=batch[0] if len(batch) == 1 else None,
                cmd_ins=cmd_ins or None,
                batch=tuple(batch) if len(batch) > 1 else (),
            )
        for command in requeue:
            self._retry(command)

    # ------------------------------------------------------------------
    # Accept phase (Algorithm 2)
    # ------------------------------------------------------------------

    def _accept_phase(
        self,
        command: Command,
        eps: dict[Instance, int],
        full_ins: Optional[tuple[Instance, ...]] = None,
    ) -> None:
        """Plain accept of ``command`` at all its instances (fast path,
        clean acquisitions, and full-set recoveries)."""
        cmd_ins = {command.cid: full_ins} if full_ins else None
        self._send_accept_round(
            {inst: command for inst in eps},
            eps,
            retry_command=command,
            cmd_ins=cmd_ins,
        )

    def _send_accept_round(
        self,
        to_decide: dict[Instance, Command],
        eps: dict[Instance, int],
        retry_command: Optional[Command],
        cmd_ins: Optional[dict[tuple[int, int], tuple[Instance, ...]]] = None,
        scoped: bool = False,
        batch: tuple[Command, ...] = (),
    ) -> None:
        req = self._next_req()
        self.state.pending_accepts[req] = _PendingAccept(
            command=retry_command,
            to_decide=dict(to_decide),
            eps={inst: eps[inst] for inst in to_decide},
            scoped=scoped,
            batch=batch,
            # Owner-clock send stamp: positive acks renew the sender's
            # lease grants from this (conservative) end of the window.
            sent_at=(
                self._lease_now() if self.config.lease_duration > 0.0 else 0.0
            ),
        )
        msg = Accept(
            req=req,
            to_decide=dict(to_decide),
            eps={inst: eps[inst] for inst in to_decide},
            cmd_ins=cmd_ins or {},
            scoped=scoped,
        )
        targets = self._accept_targets(retry_command, scoped)
        if targets is None:
            self.env.broadcast(msg)
        else:
            # Latency-aware quorum targeting: first attempts go to the
            # min-max-RTT accept quorum only; everyone else learns via
            # the Decide broadcast (and the learn-resend sweep).
            for dst in targets:
                self.env.send(dst, msg)

    @handles(AckAccept)
    def _on_ack_accept(self, sender: int, msg: AckAccept) -> None:
        if not msg.ok:
            pending = self.state.pending_accepts.get(msg.req)
            if pending is None or pending.done:
                return
            pending.done = True
            self.stats["accept_nacks"] += 1
            for (l, _position), _epoch in msg.eps.items():
                obj = self.state.obj(l)
                obj.epoch = max(obj.epoch, msg.max_rnd)
            # Failed recoveries must be re-runnable (by us or by the gap
            # checker); a leaked active flag would block them forever.
            for cmd in pending.to_decide.values():
                self.state.active_recoveries.discard(cmd.cid)
            if pending.command is not None:
                self._retry(pending.command)
            for cmd in pending.batch:
                self._retry(cmd)
            return

        pending = None
        if msg.coordinator == self.env.node_id:
            pending = self.state.pending_accepts.get(msg.req)
            if pending is None:
                return  # the round is over: nothing left to count
            pending.acked.add(sender)
            if pending.sent_at and not pending.scoped:
                # The acceptor absorbed our leadership round, which
                # doubles as a lease grant on its side; mirror it.
                self._record_lease_grants(sender, pending)
            if pending.announced:
                # A late ack only feeds learn-resend's stop condition.
                if len(pending.acked) >= self.env.n_nodes:
                    del self.state.pending_accepts[msg.req]
                return

        # Count votes per instance; with ack_to_all every node runs this
        # and learns in two delays (Algorithm 3, lines 6-10); otherwise
        # only the coordinator does and the others learn via Decide.
        ready = True
        for inst, cid in msg.cids.items():
            voters = self.state.record_ack(inst, msg.eps[inst], cid, sender)
            if voters is None:
                # Retired, nothing recorded.  Decided with our value, the
                # round's own ackers stand in for the tally (we may still
                # owe the Decide); otherwise the round lost it for good.
                ours = pending is not None and self.state.decided_at(inst).cid == cid
                voters = pending.acked if ours else ()
            if not self.quorums.is_accept_quorum(voters):
                ready = False
        if not ready:
            return

        # The ack carries ids only; resolve the command bodies from the
        # coordinator's pending round or from our own accepted values
        # (a node that missed the Accept learns from the Decide instead).
        resolved: dict[Instance, Command] = {}
        for inst, cid in msg.cids.items():
            command = pending.to_decide.get(inst) if pending is not None else None
            if command is None or command.cid != cid:
                inst_state = self.state.instances.get(inst)
                vdec = inst_state.vdec if inst_state is not None else None
                command = vdec if vdec is not None and vdec.cid == cid else None
            if command is not None:
                resolved[inst] = command
        self._log_decide(resolved)
        for inst, command in resolved.items():
            self._decide(inst, command)

        if pending is not None:
            # Announce even if a NACK marked the round done earlier: a
            # quorum of ACKs means the values ARE chosen, and silence
            # here would strand the decision at this node alone.
            pending.announced = True
            pending.done = True
            for cmd in pending.to_decide.values():
                self.note("quorum", cid=cmd.cid)
            self.env.broadcast(
                Decide(to_decide=pending.to_decide), include_self=False
            )
            for cmd in pending.to_decide.values():
                self.state.active_recoveries.discard(cmd.cid)
            self._arm_learn_resend(msg.req)

    def _arm_learn_resend(self, req: int, attempt: int = 1) -> None:
        """Chase nodes whose ack for an announced round never arrived.

        A node that missed both the round's Accept and its Decide holds
        no trace of the instance, so its own gap recovery can never
        trigger; re-sending both (they travel in one flush batch) both
        decides it there outright and elicits the missing ack.  Stops
        as soon as every node acked, if a decision was superseded
        (laggards then heal via gap recovery on the activity the resent
        Accept recorded), or after the configured attempt cap -- and
        stopping is what retires the round's ``pending_accepts`` entry.
        Each attempt waits on the deadline heap, not on a timer."""
        cfg = self.config
        if cfg.learn_resend_timeout <= 0 or attempt > cfg.learn_resend_attempts:
            self.state.pending_accepts.pop(req, None)
            return
        self._push_deadline(cfg.learn_resend_timeout * attempt, _LEARN, req, attempt)

    def _resend_learn(self, req: int, attempt: int) -> None:
        """A learn-resend deadline: chase the unheard nodes, or retire the round."""
        pending = self.state.pending_accepts.get(req)
        if pending is None:
            return  # the last ack already retired it
        if len(pending.acked) >= self.env.n_nodes or any(
            (decided := self.state.decided_at(inst)) is None or decided.cid != cmd.cid
            for inst, cmd in pending.to_decide.items()
        ):
            del self.state.pending_accepts[req]
            return
        for dst in self.env.nodes:
            if dst not in pending.acked:
                self.env.send(
                    dst,
                    Accept(
                        req=req,
                        to_decide=pending.to_decide,
                        eps=pending.eps,
                        cmd_ins={},
                        scoped=pending.scoped,
                    ),
                )
                self.env.send(dst, Decide(to_decide=pending.to_decide))
        self._arm_learn_resend(req, attempt + 1)
