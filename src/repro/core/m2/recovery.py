"""Gap and crash recovery (Section IV intro): healing stalled frontiers.

The mixin owns the periodic gap checker and the two recovery round
flavours it launches: instance-scoped gap fills (no-ops) and atomic
re-proposals of forced multi-object commands.
"""

from __future__ import annotations

from repro.consensus.commands import Command
from repro.core.messages import Instance
from repro.core.m2.config import _RETRY_BACKOFF


class RecoveryMixin:
    """Frontier recovery: gap rounds and forced-command re-proposals."""

    GAP_BATCH = 16

    def _recover_gap(self, l: str, position: int) -> None:
        """Prepare the stalled instances of ``l`` to either learn their
        pending commands or fill them with no-ops (crash recovery,
        Section IV intro).  Batched: one round covers every open
        position up to the highest decided one, so a burst of abandoned
        reservations heals in one shot instead of one per timeout."""
        self.stats["gap_recoveries"] += 1
        top = min(self.state.obj(l).max_decided, position + self.GAP_BATCH)
        instances = [
            (l, p)
            for p in range(position, max(top, position) + 1)
            if self.state.decided_at((l, p)) is None
        ] or [(l, position)]
        self._prepare_round(None, instances, kind="gap")

    def _schedule_recover_command(
        self, command: Command, fins: tuple[Instance, ...]
    ) -> None:
        """Atomically re-propose a forced multi-object command over the
        full instance set its original accept round used.

        Re-deciding it at a single instance could split its decision
        across positions chosen at different times, which can knot the
        per-object delivery orders into a cycle -- so recovery always
        covers the recorded set.
        """
        if command.cid in self.state.active_recoveries:
            return
        self.state.active_recoveries.add(command.cid)

        def fire() -> None:
            remaining = [
                inst for inst in fins if self.state.decided_at(inst) is None
            ]
            if not remaining:
                self.state.active_recoveries.discard(command.cid)
                return
            if self._round_is_dead(command, set(fins)):
                # The command lost one of its instances to another
                # command: fill the leftovers as plain gaps (no-ops).
                self.state.active_recoveries.discard(command.cid)
                self._prepare_round(None, remaining, kind="gap")
                return
            self._prepare_round(command, remaining, kind="recover", fins=fins)

        jitter = _RETRY_BACKOFF * (0.5 + self.env.rng.random())
        self.env.set_timer(jitter, fire)

    # ------------------------------------------------------------------
    # Gap recovery timer
    # ------------------------------------------------------------------

    def _schedule_gap_check(self) -> None:
        period = self.config.gap_check_period * (0.75 + 0.5 * self.env.rng.random())

        def check() -> None:
            self._check_gaps()
            self._schedule_gap_check()

        self.env.set_timer(period, check)

    def _check_gaps(self) -> None:
        assert self.delivery is not None
        now = self.env.now()
        # A round that never announced (NACKed, or beaten by a competing
        # decide) is over once every instance it named is retired; one
        # sweep of grace lets a straggling quorum of acks still announce.
        for req, pending in list(self.state.pending_accepts.items()):
            if pending.announced or not all(map(self.state.retired, pending.to_decide)):
                continue
            if pending.lapsed:
                del self.state.pending_accepts[req]
            pending.lapsed = True
        # Sorted, not set order: which stalled object gets its gap
        # Prepare first must not depend on string hashing.
        for l in sorted(self.state.gap_candidates):
            gap = self.delivery.undelivered_gap(l)
            if gap is None:
                self.state.gap_candidates.discard(l)
                self.state.gap_stall.pop(l, None)
                continue
            stalled = self.state.gap_stall.get(l)
            if stalled is None or stalled[0] != gap:
                # A frontier we have not seen stuck before (or it moved
                # since last time): start its stall clock.  The clock is
                # keyed on the frontier *position*, not on decision
                # activity (``last_progress``): a busy object keeps
                # deciding at higher slots the whole time its frontier
                # is wedged, and counting that as progress would starve
                # recovery exactly when ownership churn burns positions
                # under live traffic.
                self.state.gap_stall[l] = (gap, now)
                continue
            if now - stalled[1] >= self.config.gap_timeout:
                self.state.gap_stall[l] = (gap, now)  # rate-limit re-recovery
                self._recover_gap(l, gap)
