"""Serving tier: leased owner-local reads + exactly-once sessions.

Two orthogonal mechanisms live here, both inert under default config:

**Ownership leases** (``config.lease_duration > 0``).  Every leadership
Accept an acceptor absorbs doubles as a time-bounded *read lease* grant
to the sender, counted from the acceptor's receipt clock; the owner
counts the same window from its *send* clock minus ``lease_margin``.
Send time <= receipt time in real time, so the owner's serving window
always ends before any granter's parking window, and the margin
additionally absorbs clock *rate* drift of up to ``margin / duration``
over one window.  While the owner's window covers a set of granters
that intersects every prepare quorum, no competing acquisition can
complete -- granters park foreign Prepares -- so the owner may answer
read-only commands from its already-appended local state with zero
consensus messages, and the answer is still linearizable.  A valid
lease alone is not enough, though: after re-acquiring an object the
owner's *log* may still trail writes decided under the previous tenure
(they arrive asynchronously via learn resends and gap recovery), so
each acquisition also pins a per-object *serve floor* -- the highest
position its prepare quorum reported in use -- and reads fall back to
the full round until the local append frontier covers it.  Idle objects
are kept leased by a RenewLease heartbeat; a foreign Prepare reaching
the owner itself revokes explicitly (promise moves -> reads stop ->
ReleaseLease wakes parked acquirers).  Grants are deliberately
volatile: every incarnation (first boot, durable or amnesia restart)
opens with a *lease blackout* -- it parks all Prepares for one full
lease window -- so grants forgotten across a crash can never
un-protect a lease that is still live somewhere.

**Exactly-once sessions** (``command.session = (client_id, seq)``).
Every node keeps a dedup table mapping client id to the highest applied
seq and that command's cached result.  The table is updated at append
time, making it a pure function of the delivered sequence: all nodes
(and every replayed incarnation) converge on the same table, which is
what lets it survive restarts through the ordinary Storage API with no
extra log records.  A retried command whose seq is at or below the
watermark is answered from cache without a consensus round.  The table
is bounded by ``session_cap``: beyond it the least-recently-active
session is evicted (counted in telemetry).  An evicted session's
*cached response* is lost -- a retry after eviction re-runs consensus
-- but exactly-once application still holds, because the delivery
engine's cid dedup refuses a second append of the same command.

Read results are ``{object: reads_frontier}`` snapshots -- the count of
non-noop commands applied per object -- delivered on the env's separate
read channel (:meth:`repro.consensus.base.Env.deliver_read`): served
reads must never enter the decision log, which is replicated and
byte-compared across nodes, while a served read happens at the owner
alone.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.consensus.base import handles
from repro.consensus.commands import Command
from repro.core.messages import (
    AckRenew,
    Decide,
    Prepare,
    ReleaseLease,
    RenewLease,
)


class ServingMixin:
    """Leases, the session dedup table, and accept-quorum targeting."""

    # Test hook: an offset on this node's lease clock.  The protocol only
    # compares its own stamps against its own clock, so a *constant*
    # offset is harmless by construction; a mid-run step (or rate drift
    # beyond the margin) makes the owner's window lapse early and forces
    # the slow path -- never a stale read.
    _lease_clock_skew = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _serving_on_start(self) -> None:
        """Every incarnation -- first boot or either restart, a durable
        one having replayed the store before this -- opens with the
        lease blackout and serves no object below its known tail."""
        cfg = self.config
        if cfg.lease_duration <= 0.0:
            return
        self.state.lease_blackout_until = self.env.now() + cfg.lease_duration + cfg.lease_margin
        self._schedule_lease_renew()
        self._raise_serve_floors(self.state.objects)

    def _raise_serve_floors(self, objs: Iterable[str]) -> None:
        """Pin each object's serve floor at the highest position known
        used, as when an acquisition's prepare quorum resolves.

        Any write that *completed* under a previous tenure was accepted
        by a full accept quorum, which intersects our prepare quorum, so
        some reply reported its position and ``next_slot`` moved past it
        -- but its *value* may still be in flight towards us (learn
        resend, gap recovery, or our own forced accept round).  Until
        ``appended`` reaches the floor, the local state may be missing a
        completed write and reads must take the full round (see
        _try_serve_read).
        """
        if self.config.lease_duration <= 0.0:
            return
        for l in set(objs):
            floor = self.state.obj(l).next_slot - 1
            if floor > self.state.serve_floor.get(l, 0):
                self.state.serve_floor[l] = floor

    # ------------------------------------------------------------------
    # Clocks and lease validity (owner side)
    # ------------------------------------------------------------------

    def _lease_now(self) -> float:
        """This node's lease clock (env time + injected test skew)."""
        return self.env.now() + self._lease_clock_skew

    def _lease_live_granters(self, l: str, at: float) -> set[int]:
        grants = self.state.lease_grants.get(l)
        if not grants:
            return set()
        return {node for node, expiry in grants.items() if expiry > at}

    def _lease_valid(self, l: str, at: Optional[float] = None) -> bool:
        """True while our granters block every possible acquisition.

        The condition is exactly "the complement of the live granter set
        contains no prepare quorum": any node trying to take the object
        over needs a prepare quorum, every prepare quorum then includes
        a live granter, and that granter is parking the Prepare until
        after our own (strictly earlier-ending) window closes.  Works
        unchanged for flexible and zone quorum systems because it asks
        the quorum family itself, not a count.
        """
        if at is None:
            at = self._lease_now()
        live = self._lease_live_granters(l, at)
        if not live:
            return False
        return not self.quorums.is_prepare_quorum(set(self.env.nodes) - live)

    def _record_lease_grants(self, sender: int, pending) -> None:
        """A positive AckAccept renews the sender's grants: it absorbed
        our leadership Accept, so it granted from its receipt clock; we
        record the conservative end of the window from our *send* stamp.
        """
        expiry = (
            pending.sent_at
            + self.config.lease_duration
            - self.config.lease_margin
        )
        for (l, _position) in pending.eps:
            grants = self.state.lease_grants.setdefault(l, {})
            if expiry > grants.get(sender, 0.0):
                grants[sender] = expiry

    # ------------------------------------------------------------------
    # Read serving
    # ------------------------------------------------------------------

    def _intercept_propose(self, command: Command) -> bool:
        """Serving-tier front door; True when fully handled locally."""
        if command.session is not None and self._session_replay(command):
            return True
        if command.is_read:
            if self._try_serve_read(command):
                return True
            if self.config.lease_duration > 0.0:
                self.stats["read_fallback"] += 1
        return False

    def _try_serve_read(self, command: Command) -> bool:
        cfg = self.config
        # ack_to_all lets *other* nodes complete a write from the ack
        # fan-in possibly before the owner appends it, which would let a
        # leased read miss a completed write; leases stay off under it.
        if cfg.lease_duration <= 0.0 or cfg.ack_to_all:
            return False
        now = self._lease_now()
        for l in command.ls:
            # Ownership in flight (our epoch bumped past our tenure, or
            # an acquisition guard is up) forces the full round: the
            # believed owner is about to change, so local state may
            # already be behind.
            if l in self.state.acquiring or not self._is_current_owner(l):
                return False
            if not self._lease_valid(l, at=now):
                return False
            # Tenure completeness: a fresh lease does not imply a fresh
            # *log*.  Writes decided under the previous tenure (say,
            # while we sat behind a partition) reach us asynchronously
            # -- learn resends, gap recovery -- possibly well after the
            # re-acquisition that made our lease valid.  The serve
            # floor pins the tail the prepare quorum knew about; until
            # the local append frontier covers it, a local read could
            # miss a completed write.
            if self.state.obj(l).appended < self.state.serve_floor.get(l, 0):
                return False
        result = {l: self.state.obj(l).reads_frontier for l in command.ls}
        if command.session is not None:
            self._session_store(command, result)
        self.stats["read_local"] += 1
        self.note("read_local", cid=command.cid)
        self.env.deliver_read(command, result)
        return True

    # ------------------------------------------------------------------
    # Acceptor-side parking (the granter's half of the invariant)
    # ------------------------------------------------------------------

    def _lease_block_until(self, sender: int, eps: dict) -> Optional[float]:
        """Latest time a live grant (or the blackout) blocks this
        Prepare, or None when it may proceed.

        Scoped rounds park too: a gap/recovery round does not dethrone
        the owner, but it can *decide* (and hence complete) a write the
        leased owner has not appended yet, which a local read would then
        miss.  The holder itself never parks its own objects' Prepares:
        when this node is the holder, processing the message is the
        revoke; when the holder is the sender, it is reclaiming its own
        object.
        """
        now = self.env.now()
        wake: Optional[float] = None
        if self.state.lease_blackout_until > now:
            wake = self.state.lease_blackout_until
        me = self.env.node_id
        for inst in eps:
            obj = self.state.objects.get(inst[0])
            if obj is None or obj.lease_holder is None:
                continue
            if obj.lease_holder == sender or obj.lease_holder == me:
                continue
            if obj.lease_until > now and (
                wake is None or obj.lease_until > wake
            ):
                wake = obj.lease_until
        return wake

    def _park_prepare(self, sender: int, msg: Prepare, wake: float) -> None:
        # Parking must not starve a *learner*.  The common reason a
        # round knocks on a leased object at all is a gap/recovery
        # prepare from a node with a hole in its log -- and with the
        # lease renewed indefinitely it would park forever.  Decided
        # positions are immutable, so resending the decisions we know
        # for the requested instances is promise-free and lease-neutral,
        # and it fills the sender's holes without the round ever waking.
        known = {}
        for inst in msg.eps:
            decided = self.state.decided_at(inst)
            if decided is not None:
                known[inst] = decided
        if known:
            self.env.send(sender, Decide(to_decide=known))
        self.state.park_counter += 1
        pid = self.state.park_counter

        def fire() -> None:
            entry = self.state.parked_prepares.pop(pid, None)
            if entry is not None:
                # Re-dispatch; a renewed grant simply re-parks it.
                self._on_prepare(entry[0], entry[1])

        delay = max(0.0, wake - self.env.now())
        handle = self.env.set_timer(delay, fire)
        self.state.parked_prepares[pid] = (sender, msg, handle)
        self.note("lease_wait", req=msg.req, sender=sender)

    def _wake_parked_prepares(self) -> None:
        if not self.state.parked_prepares:
            return
        entries, self.state.parked_prepares = self.state.parked_prepares, {}
        for sender, msg, handle in entries.values():
            handle.cancel()
            self._on_prepare(sender, msg)

    def _self_revoke_leases(self, objs: Iterable[str]) -> None:
        """A foreign ownership Prepare reached us: our tenure on these
        objects is over.  Reads stop *now* (grants dropped before the
        promise is issued), and granters are told to wake any parked
        acquisition instead of waiting out the wall clock."""
        me = self.env.node_id
        released: dict[str, int] = {}
        for l in set(objs):
            dropped = self.state.lease_grants.pop(l, None) is not None
            obj = self.state.objects.get(l)
            if obj is not None and obj.lease_holder == me:
                released[l] = obj.lease_epoch
                obj.lease_holder = None
                obj.lease_until = 0.0
            elif dropped:
                released[l] = obj.owner_epoch if obj is not None else 0
        if released:
            self.note("lease_release", objs=len(released))
            self.env.broadcast(ReleaseLease(objs=released), include_self=False)

    @handles(ReleaseLease)
    def _on_release_lease(self, sender: int, msg: ReleaseLease) -> None:
        for l in msg.objs:
            obj = self.state.objects.get(l)
            if obj is not None and obj.lease_holder == sender:
                obj.lease_holder = None
                obj.lease_until = 0.0
        self._wake_parked_prepares()

    # ------------------------------------------------------------------
    # Renewal heartbeat (idle, read-heavy objects)
    # ------------------------------------------------------------------

    def _schedule_lease_renew(self) -> None:
        period = self.config.lease_duration * self.config.lease_renew_fraction

        def fire() -> None:
            self._renew_leases()
            self._schedule_lease_renew()

        self.env.set_timer(period, fire)

    def _renew_leases(self) -> None:
        cfg = self.config
        now = self._lease_now()
        period = cfg.lease_duration * cfg.lease_renew_fraction
        objs: dict[str, int] = {}
        for l in list(self.state.lease_grants):
            if not self._is_current_owner(l):
                # Ownership moved since the grants were recorded; the
                # ledger entry can only mislead validity checks.
                del self.state.lease_grants[l]
                continue
            if self._lease_valid(l, at=now + 2.0 * period):
                continue  # accept traffic is keeping this one fresh
            objs[l] = self.state.obj(l).owner_epoch
        if not objs:
            return
        self.state.renew_req = self._next_req()
        self.state.renew_sent_at = now
        self.env.broadcast(RenewLease(req=self.state.renew_req, objs=objs))

    @handles(RenewLease)
    def _on_renew_lease(self, sender: int, msg: RenewLease) -> None:
        if self.config.lease_duration <= 0.0:
            return
        granted: list[str] = []
        until = self.env.now() + self.config.lease_duration
        for l, epoch in msg.objs.items():
            obj = self.state.objects.get(l)
            if obj is None:
                continue
            # Re-grant only while the sender provably still holds the
            # epoch: a restarted or dethroned owner whose object moved
            # on gets nothing and must run a full round.
            if (
                obj.owner == sender
                and obj.owner_epoch == epoch
                and obj.promised <= epoch
            ):
                obj.lease_holder = sender
                obj.lease_epoch = epoch
                if until > obj.lease_until:
                    obj.lease_until = until
                granted.append(l)
        if granted:
            self.env.send(
                sender, AckRenew(req=msg.req, granted=tuple(granted))
            )

    @handles(AckRenew)
    def _on_ack_renew(self, sender: int, msg: AckRenew) -> None:
        if msg.req != self.state.renew_req:
            return
        expiry = (
            self.state.renew_sent_at
            + self.config.lease_duration
            - self.config.lease_margin
        )
        for l in msg.granted:
            grants = self.state.lease_grants.get(l)
            if grants is None:
                continue  # released or lost since the heartbeat left
            if expiry > grants.get(sender, 0.0):
                grants[sender] = expiry

    # ------------------------------------------------------------------
    # Exactly-once session table
    # ------------------------------------------------------------------

    def _session_replay(self, command: Command) -> bool:
        """Answer a retry at or below the client's watermark from cache
        (called at propose time, before any consensus work)."""
        client, seq = command.session
        entry = self.state.sessions.get(client)
        if entry is None or seq > entry[0]:
            return False
        self.stats["session_hit"] += 1
        self.note("session_hit", cid=command.cid)
        self.env.deliver_read(command, entry[1])
        return True

    def _fold_append(self, command: Command) -> None:
        """Append-time bookkeeping of one delivered non-noop command, on
        every node: its objects' read frontiers, then the session table.
        Both are a pure function of the delivered sequence, so every
        node -- and every recovered incarnation -- converges on them."""
        for l in command.ls:
            self.state.obj(l).reads_frontier += 1
        if command.session is not None:
            self._session_store(command, {l: self.state.obj(l).reads_frontier for l in command.ls})

    def _session_store(self, command: Command, result: object) -> None:
        """Cache ``result`` under the command's session, unless a later
        seq is already there (then the entry is only touched, LRU)."""
        client, seq = command.session
        entry = self.state.sessions.pop(client, None)
        if entry is not None and seq <= entry[0]:
            self.state.sessions[client] = entry
            return
        self.state.sessions[client] = (seq, result)
        self._evict_sessions_over_cap()

    def _evict_sessions_over_cap(self) -> None:
        cap = self.config.session_cap
        while len(self.state.sessions) > cap:
            evicted = next(iter(self.state.sessions))
            del self.state.sessions[evicted]
            self.stats["session_evict"] += 1
            if not self.state.replaying:
                self.note("session_evict", client=evicted)

    # ------------------------------------------------------------------
    # Latency-aware accept-quorum targeting (satellite)
    # ------------------------------------------------------------------

    def _accept_targets(self, retry_command, scoped: bool) -> Optional[list[int]]:
        """Destinations for an Accept round, or None for broadcast.

        With ``config.nearest_accept`` and an RTT matrix configured, the
        first attempt of a non-scoped round goes only to the accept
        quorum minimising the worst RTT from this node (plus ourselves:
        our own absorb is what records our ownership locally).  Retries
        and recoveries always broadcast -- liveness must not hinge on
        the preferred quorum staying up.
        """
        cfg = self.config
        if not cfg.nearest_accept or cfg.quorum_rtt is None or scoped:
            return None
        if retry_command is None or self.state.attempts.get(retry_command.cid, 0):
            return None
        if self.state.accept_quorum is None:
            self.state.accept_quorum = self._pick_nearest_accept_quorum()
        return list(self.state.accept_quorum)

    def _pick_nearest_accept_quorum(self) -> tuple[int, ...]:
        rtt = self.config.quorum_rtt[self.env.node_id]
        best: Optional[frozenset[int]] = None
        best_cost: Optional[tuple] = None
        for quorum in self.quorums.accept_quorums():
            # Our own vote is free; rank by the slowest *remote* member.
            cost = (
                max((rtt[node] for node in quorum if node != self.env.node_id),
                    default=0.0),
                sorted(quorum),
            )
            if best_cost is None or cost < best_cost:
                best, best_cost = quorum, cost
        members = set(best) | {self.env.node_id}
        return tuple(sorted(members))
