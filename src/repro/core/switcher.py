"""Adaptive protocol switching (the paper's Section IV-C extension).

"To keep the performance consistent across varying workloads, we could
use the approach described in [28] to combine M2PAXOS with algorithms
that perform well on workloads not favorable to M2PAXOS.  For example,
we could obtain an algorithm that dynamically switches between M2PAXOS
and MultiPaxos according to the workload characteristics."

This module implements that hybrid.  Both constituent protocols run on
every node; an epoch-per-mode regime keeps them from interfering:

- commands proposed in mode k are tagged with k and handled by that
  mode's protocol instance;
- every node monitors its local conflict signals (the fraction of
  M2Paxos proposals that needed the acquisition path over a sliding
  window);
- when the rate crosses ``to_fallback`` the node votes to switch; a
  deterministic coordinator (node 0) decides mode changes and announces
  them through the *current* mode's consensus (a mode-change command),
  so every replica switches at the same point in the delivery order --
  the linearizable handover of [28];
- delivery order is: all commands of mode k, then the mode-change
  marker, then mode k+1.  Commands proposed in an old mode after the
  switch are re-proposed in the new one.

The switcher is itself a :class:`Protocol`, so it runs under the
simulator and the asyncio runtime unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.consensus.base import Env, Message, Protocol, ProtocolCosts, handles
from repro.consensus.commands import Command
from repro.consensus.multipaxos import MultiPaxos, MultiPaxosConfig
from repro.core.protocol import M2Paxos, M2PaxosConfig
from repro.runtime.codec import register_message

MODE_M2 = "m2paxos"
MODE_MP = "multipaxos"

_MODE_MARKER = "__mode_switch__"


@dataclass(frozen=True)
class Tagged(Message):
    """Envelope binding an inner protocol message to a mode."""

    mode: str
    inner: Message


@dataclass(frozen=True)
class SwitchVote(Message):
    """A node's signal to the coordinator that its conflict rate crossed
    the threshold for ``want`` mode."""

    want: str
    conflict_rate: float


register_message(Tagged)
register_message(SwitchVote)


@dataclass(frozen=True)
class SwitcherConfig:
    window: int = 64  # proposals per conflict-rate sample
    to_fallback: float = 0.35  # acquisition fraction that trips M2 -> MP
    to_fast: float = 0.05  # fraction below which MP -> M2
    min_votes: int = 1  # votes the coordinator needs
    check_period: float = 0.25
    # Hysteresis: minimum time in a mode before voting to leave it, and
    # a full sample window before any verdict -- prevents flapping right
    # after a switch clears the window.
    min_dwell: float = 1.0


class _SubEnv(Env):
    """Env adapter: wraps a sub-protocol's traffic in mode envelopes."""

    def __init__(self, switcher: "AdaptiveSwitcher", mode: str) -> None:
        self._switcher = switcher
        self._mode = mode
        self.node_id = switcher.env.node_id
        self.n_nodes = switcher.env.n_nodes

    def _transmit(self, dst: int, message: Message) -> None:
        self._switcher.env.send(dst, Tagged(mode=self._mode, inner=message))

    def send(self, dst: int, message: Message) -> None:
        # Always wrap-and-forward immediately: batching happens in the
        # switcher's own Env, whose outbox this send lands in.
        self._transmit(dst, message)

    def set_timer_at(self, when, callback):
        return self._switcher.env.set_timer_at(when, callback)

    def now(self) -> float:
        return self._switcher.env.now()

    def _deliver(self, command: Command) -> None:
        self._switcher._on_sub_deliver(self._mode, command)

    def observe(self, kind: str, **fields) -> None:
        # Forward structured notes (path / decide / epoch_bump / ...) to
        # the *outer* env, where observers are attached -- without this,
        # sub-protocol decision paths are invisible to the obs layer.
        self._switcher.env.observe(kind, **fields)

    @property
    def rng(self):
        return self._switcher.env.rng


class AdaptiveSwitcher(Protocol):
    """M2Paxos when the workload is partitionable, Multi-Paxos when not."""

    costs = ProtocolCosts(base_cost=160e-6, serial_fraction=0.05)

    def __init__(
        self,
        config: Optional[SwitcherConfig] = None,
        m2_config: Optional[M2PaxosConfig] = None,
        mp_config: Optional[MultiPaxosConfig] = None,
    ) -> None:
        super().__init__()
        self.config = config or SwitcherConfig()
        self._m2 = M2Paxos(m2_config)
        self._mp = MultiPaxos(mp_config)
        self.mode = MODE_M2
        self._mode_seq = 0
        self._pending: dict[tuple[int, int], Command] = {}
        self._delivered: set[tuple[int, int]] = set()
        # Conflict-rate window: (time, sample); 1 = needed acquisition
        # (or non-local in MP mode), 0 = fast/forward.  Samples expire,
        # so a quiet period can never trigger a switch on stale data.
        self._samples: list[tuple[float, int]] = []
        self._marker_seq = 0
        self._marker_pending = False
        self._last_switch_at = 0.0
        # Locality proxy while in Multi-Paxos mode: when another node's
        # command last touched each object (from the delivered stream).
        self._foreign_touch: dict[str, float] = {}
        self.stats = {"switches": 0, "votes_sent": 0, "health_events": 0}

    # ------------------------------------------------------------------

    def bind(self, env: Env) -> None:
        super().bind(env)
        self._m2.bind(_SubEnv(self, MODE_M2))
        self._mp.bind(_SubEnv(self, MODE_MP))

    def on_start(self) -> None:
        self._m2.on_start()
        self._mp.on_start()
        self._schedule_check()

    @property
    def coordinator(self) -> int:
        return 0

    def _sub(self, mode: str) -> Protocol:
        return self._m2 if mode == MODE_M2 else self._mp

    # ------------------------------------------------------------------
    # Propose path + conflict monitoring
    # ------------------------------------------------------------------

    def propose(self, command: Command) -> None:
        self._pending[command.cid] = command
        before = self._m2.stats["acquisitions"]
        self._sub(self.mode).propose(command)
        if self.mode == MODE_M2:
            sample = 1 if self._m2.stats["acquisitions"] > before else 0
        else:
            # In Multi-Paxos mode: would this command have been
            # non-local?  Objects recently touched by another proposer
            # are the contention M2Paxos would pay for.
            horizon = self.env.now() - self.SAMPLE_TTL
            sample = (
                1
                if any(
                    self._foreign_touch.get(l, -1.0) >= horizon
                    for l in command.ls
                )
                else 0
            )
        self._samples.append((self.env.now(), sample))
        if len(self._samples) > self.config.window:
            self._samples.pop(0)

    SAMPLE_TTL = 2.0

    def _fresh_samples(self) -> list[int]:
        horizon = self.env.now() - self.SAMPLE_TTL
        return [s for (t, s) in self._samples if t >= horizon]

    def conflict_rate(self) -> float:
        fresh = self._fresh_samples()
        if not fresh:
            return 0.0
        return sum(fresh) / len(fresh)

    def _schedule_check(self) -> None:
        period = self.config.check_period * (0.8 + 0.4 * self.env.rng.random())

        def check() -> None:
            self._evaluate()
            self._schedule_check()

        self.env.set_timer(period, check)

    def _evaluate(self) -> None:
        fresh = self._fresh_samples()
        if len(fresh) < self.config.window:
            return  # not enough recent evidence since the last switch
        if self.env.now() - self._last_switch_at < self.config.min_dwell:
            return
        rate = sum(fresh) / len(fresh)
        want = None
        if self.mode == MODE_M2 and rate >= self.config.to_fallback:
            want = MODE_MP
        elif self.mode == MODE_MP and rate <= self.config.to_fast:
            want = MODE_M2
        if want is None:
            return
        self.stats["votes_sent"] += 1
        self.env.send(self.coordinator, SwitchVote(want=want, conflict_rate=rate))

    def on_health_event(self, event) -> None:
        """Consume a live-telemetry :class:`HealthEvent`.

        The :class:`~repro.obs.telemetry.health.HealthDetector` sees the
        whole cluster's decision paths per interval, so a ``contention``
        event is direct evidence of the acquisition-path regime -- vote
        to fall back to Multi-Paxos immediately instead of waiting for a
        full local sample window.  Dwell hysteresis still applies, and
        the coordinator still decides through the current mode's
        consensus, so the handover stays linearizable.
        """
        self.stats["health_events"] += 1
        if event.kind != "contention" or self.mode != MODE_M2:
            return
        if self.env.now() - self._last_switch_at < self.config.min_dwell:
            return
        rate = float(event.details.get("acquisition_ratio", 1.0))
        self.stats["votes_sent"] += 1
        self.env.send(
            self.coordinator, SwitchVote(want=MODE_MP, conflict_rate=rate)
        )

    @handles(SwitchVote)
    def _on_vote(self, sender: int, msg: SwitchVote) -> None:
        if self.env.node_id != self.coordinator:
            return
        if msg.want == self.mode or self._marker_pending:
            return
        self._marker_pending = True
        # Announce the switch through the *current* mode's consensus so
        # every replica changes mode at the same delivery position.
        self._marker_seq += 1
        marker = Command.make(
            self.env.node_id,
            -(1_000_000 + self._marker_seq),
            [_MODE_MARKER],
            payload_bytes=8,
        )
        self._pending[marker.cid] = marker
        self._sub(self.mode).propose(marker)

    # ------------------------------------------------------------------
    # Delivery + mode change
    # ------------------------------------------------------------------

    def _on_sub_deliver(self, mode: str, command: Command) -> None:
        if _MODE_MARKER in command.ls:
            if mode == self.mode:
                self._switch_from(mode)
            return
        if command.cid in self._delivered:
            return
        self._delivered.add(command.cid)
        self._pending.pop(command.cid, None)
        if command.proposer != self.env.node_id:
            now = self.env.now()
            for l in command.ls:
                self._foreign_touch[l] = now
        self.env.deliver(command)

    def _switch_from(self, old_mode: str) -> None:
        self.mode = MODE_MP if old_mode == MODE_M2 else MODE_M2
        self._mode_seq += 1
        self._samples.clear()
        self._last_switch_at = self.env.now()
        self._marker_pending = False
        self.stats["switches"] += 1
        # Re-propose our still-undelivered commands in the new mode.
        for command in list(self._pending.values()):
            if _MODE_MARKER not in command.ls:
                self._sub(self.mode).propose(command)

    # ------------------------------------------------------------------

    @handles(Tagged)
    def _on_tagged(self, sender: int, msg: Tagged) -> None:
        self._sub(msg.mode).on_message(sender, msg.inner)

    def processing_cost(self, message):
        if isinstance(message, Tagged):
            return self._sub(message.mode).processing_cost(message.inner)
        return self.costs.base_cost, self.costs.serial_fraction
