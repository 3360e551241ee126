"""M2Paxos protocol state machine (Algorithms 1-4 of the paper).

The decision paths, in the paper's terms:

- **Fast path** (Section IV-A, Algorithm 1 lines 5-10): the proposer
  owns every object in ``c.LS`` -> one ``Accept`` broadcast + a classic
  quorum of ``AckAccept`` = decided in two communication delays.
- **Forward path** (Section IV-B, lines 11-15): a single other node
  owns all the objects -> forward, total three delays.
- **Acquisition path** (Section IV-C, Algorithm 4): no single owner ->
  per-object Paxos prepare with bumped epochs, then the accept phase,
  honouring any command *forced* by the prepare replies.

The implementation is split along those roles:

- :mod:`repro.core.m2.config` -- tunables and shared round records;
- :mod:`repro.core.m2.proposer` -- coordination + accept phases
  (Algorithms 1-2, coordinator side);
- :mod:`repro.core.m2.acceptor` -- voting, promises, learning and
  delivery (Algorithms 2-3, passive side);
- :mod:`repro.core.m2.ownership` -- acquisition rounds and SELECT
  (Algorithm 4);
- :mod:`repro.core.m2.recovery` -- gap checking and forced-command
  recovery.

The mixins keep no attributes of their own: every field a node holds is
declared in :mod:`repro.core.state` as durable, volatile or derived.
:class:`M2Paxos` composes the mixins over :class:`Protocol`; message
routing uses the dispatch table built from the mixins' ``@handles``
registrations.  Deviations and hardenings beyond the pseudocode are
catalogued with rationale in DESIGN.md ("Protocol-hardening
decisions"); each mixin keeps the relevant commentary inline.
"""

from __future__ import annotations

from typing import Optional

from repro.consensus.base import Protocol, ProtocolCosts
from repro.core.delivery import DeliveryEngine
from repro.core.messages import Accept, Decide
from repro.core.policy import OnDemandPolicy, OwnershipPolicy
from repro.core.quorum import MajorityQuorums, QuorumSystem
from repro.core.m2.acceptor import AcceptorMixin
from repro.core.m2.config import M2PaxosConfig, SafetyViolation
from repro.core.m2.durability import DurabilityMixin
from repro.core.m2.ownership import OwnershipMixin
from repro.core.m2.proposer import ProposerMixin
from repro.core.m2.recovery import RecoveryMixin
from repro.core.m2.serving import ServingMixin
from repro.core.state import NodeState

__all__ = [
    "M2Paxos",
    "M2PaxosConfig",
    "SafetyViolation",
    "AcceptorMixin",
    "DurabilityMixin",
    "OwnershipMixin",
    "ProposerMixin",
    "RecoveryMixin",
    "ServingMixin",
]


class M2Paxos(
    ProposerMixin,
    AcceptorMixin,
    OwnershipMixin,
    RecoveryMixin,
    ServingMixin,
    DurabilityMixin,
    Protocol,
):
    """One node's M2Paxos instance.  Bind to an Env, then feed events."""

    # M2Paxos has no dependency computation and no shared metadata on
    # the critical path, hence the cheaper per-message handler and the
    # near-zero serial fraction ("there is no time consuming operation
    # performed on its critical path", Section I).
    costs = ProtocolCosts(base_cost=120e-6, serial_fraction=0.03)

    def __init__(self, config: Optional[M2PaxosConfig] = None) -> None:
        super().__init__()
        self.config = config or M2PaxosConfig()
        policy = self.config.policy
        if policy is not None and not isinstance(policy, OwnershipPolicy):
            # Factory form: policies hold per-node state, so a config
            # shared across a cluster supplies `lambda: Policy(...)`.
            policy = policy()
        self.policy = policy or OnDemandPolicy()
        self.state = NodeState(home_hint=self.config.home_hint)
        # Bound at bind() time (needs the cluster size); None until then.
        self.quorums: Optional[QuorumSystem] = None
        self.delivery: Optional[DeliveryEngine] = None
        # Diagnostics consumed by the benchmark harness.
        self.stats = {
            "fast_path": 0,
            "forwarded": 0,
            "acquisitions": 0,
            "migrations": 0,
            "accept_nacks": 0,
            "prepare_nacks": 0,
            "gap_recoveries": 0,
            "read_local": 0,
            "read_fallback": 0,
            "session_hit": 0,
            "session_evict": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def bind(self, env) -> None:
        super().bind(env)
        spec = self.config.quorum or MajorityQuorums()
        self.quorums = spec.build(env.n_nodes)
        self.delivery = DeliveryEngine(self.state, self._on_append)

    def on_start(self) -> None:
        # Every incarnation checks each known frontier once: which ones
        # looked stuck is volatile.
        self.state.gap_candidates.update(self.state.objects)
        self._schedule_gap_check()
        self._serving_on_start()

    def processing_cost(self, message):
        """Charge multi-command rounds for their extra commands.

        A batched Accept/Decide is one message but carries several
        commands; when ``costs.per_command_cost`` is non-zero (the
        benchmark's honest-batching profile) each command beyond the
        first adds that much CPU, so batching amortises -- not erases --
        per-command work in the simulator.
        """
        cost, serial = self.costs.base_cost, self.costs.serial_fraction
        extra = self.costs.per_command_cost
        if extra and isinstance(message, (Accept, Decide)):
            n_commands = len({c.cid for c in message.to_decide.values()})
            if n_commands > 1:
                cost += extra * (n_commands - 1)
        return cost, serial

    def _next_req(self) -> int:
        self.state.req += 1
        return self.state.req
