"""Shared configuration and bookkeeping records for M2Paxos.

Everything here is pure data: tunables, the safety-violation alarm, and
the in-flight round records the proposer/ownership phases share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.consensus.commands import Command
from repro.core.messages import Instance

_DECIDED_EPOCH = 1 << 30
"""Sentinel epoch reported for already-decided instances in prepare
replies, so SELECT always re-forces the decided command."""


_RETRY_BACKOFF = 0.002
"""Base delay (env seconds) before a NACKed round or a recovery retries,
times U[0.5, 1.5) and, for a NACKed round, the attempt count."""


_SUPERVISE, _ROUND, _LEARN = 0, 1, 2
"""Entry kinds on a node's deadline heap (``NodeState.deadlines``); the
kind sorts before the key, so two kinds never compare their keys."""


class SafetyViolation(AssertionError):
    """Two different commands decided for the same instance."""


@dataclass(frozen=True)
class M2PaxosConfig:
    """Tunables (timeouts in seconds of env time)."""

    forward_timeout: float = 0.05
    gap_check_period: float = 0.2
    gap_timeout: float = 0.4
    # Proposer-side supervision: re-coordinate a command that has not
    # been decided after this long.  NACK-triggered retries cover rounds
    # that fail loudly; this covers rounds lost to message drops or
    # crashes.  Must exceed worst-case decision latency (tune up for
    # saturation benchmarks).
    supervise_timeout: float = 1.5
    # Abandon a prepare round whose quorum of replies never arrives
    # (message loss), releasing the per-object acquisition guard; a
    # round that ended earlier is already retired.  0 disables it.
    round_timeout: float = 0.6
    # After announcing a decided round, re-send it to nodes whose ack
    # never arrived.  A node that misses both the Accept and the Decide
    # has *no local record* of the instance, so its gap checker can
    # never notice the hole; only the coordinator knows who went
    # unheard.  Quiet clusters send nothing extra (everyone acks long
    # before the first timeout).  Attempt k waits on the deadline heap
    # for k x timeout x U[1, 1.5); the round retires at the last ack, a
    # superseded decision or the attempt cap.  0 disables it.
    learn_resend_timeout: float = 0.25
    learn_resend_attempts: int = 12
    # Accept-round batching (CAESAR-style leader batching): while this
    # node owns all objects of its queued fast-path proposals, up to
    # ``max_batch`` commands coalesce into a single multi-command Accept
    # round -- one broadcast, one quorum of acks, one Decide -- instead
    # of one full round per command.  The first queued command waits at
    # most ``batch_wait`` env-seconds for company.  ``max_batch=1``
    # bypasses the queue entirely: the code path, message flow, and RNG
    # draws are exactly the unbatched protocol's, so decision logs stay
    # byte-identical to pre-batching builds.  Per-object delivery order
    # is unaffected either way: instances are assigned at enqueue time
    # in submission order, and a batch decides the same (instance ->
    # command) pairs the sequential rounds would have.
    max_batch: int = 1
    batch_wait: float = 0.0
    # Adaptive batch_wait (pipelined clients): instead of a fixed wait,
    # the proposer self-tunes to its *observed in-flight depth* -- the
    # number of its own proposals submitted but not yet fully decided.
    # A shallow pipeline (<= 1 in flight) flushes immediately, adding
    # zero latency for trickle traffic; a deep pipeline waits up to
    # ``batch_wait`` (scaled by ``depth / max_batch``, capped at 1.0)
    # because more company is provably on the way.  Off by default:
    # with it off -- and ``max_batch=1`` -- the code path and decision
    # logs are byte-identical to the seed.
    batch_adaptive: bool = False
    ack_to_all: bool = False
    max_forward_hops: int = 1
    # Optional deterministic epoch-0 ownership map (``l -> node id``),
    # identical on every node.  Lets an application with a natural data
    # partitioning (e.g. TPC-C warehouses) start on the fast path
    # without first-touch acquisitions; any node can still take objects
    # over by preparing epoch 1.
    home_hint: Optional[Callable[[str], int]] = None
    # When-to-acquire policy (Section IV-C calls this an orthogonal
    # problem): a zero-argument factory returning a fresh policy per
    # node, since policies hold per-node state; None means the paper's
    # on-demand policy.  See repro.core.policy.
    policy: Optional[object] = None
    # Quorum system spec (see repro.core.quorum): None means the seed's
    # classic-majority pair.  Bound to the cluster size (and validated
    # against the prepare∩accept intersection condition) at bind time.
    quorum: Optional[object] = None
    # ------------------------------------------------------------------
    # Serving tier (leased owner-local reads, nearest accept quorum).
    # ------------------------------------------------------------------
    # Ownership leases: > 0 enables time-bounded read leases.  Every
    # positive AckAccept (and AckRenew heartbeat) grants the owner the
    # right to serve linearizable reads on its objects locally -- zero
    # consensus messages -- for ``lease_duration`` seconds counted from
    # the owner's *send* clock, while each granting acceptor refuses (or
    # parks) ownership-moving Prepares for ``lease_duration`` counted
    # from its *receipt* clock.  Send time <= receipt time in real time,
    # so the owner's window ends before any granter's as long as clocks
    # agree to within ``lease_margin``, which the owner additionally
    # subtracts from its own window.  0.0 (the default) disables every
    # lease code path: no timers, no extra messages, no RNG draws --
    # decision logs stay byte-identical to the seed.
    lease_duration: float = 0.0
    # Conservative clock-skew margin: the owner stops serving reads
    # ``lease_margin`` before its lease nominally expires.  Must be >=
    # the worst pairwise clock skew for reads to be linearizable.
    lease_margin: float = 0.002
    # Idle renewal cadence as a fraction of ``lease_duration``; the
    # owner's heartbeat timer re-grants leases on owned objects that
    # accept traffic has not refreshed recently.
    lease_renew_fraction: float = 0.34
    # Latency-aware accept-quorum selection: when the quorum system
    # admits several accept quorums, send the first attempt of each
    # non-scoped Accept round only to the quorum minimising the worst
    # RTT from this node (plus ourselves), instead of broadcasting.
    # Retries always broadcast, so liveness never hinges on the
    # preferred quorum.  Requires ``quorum_rtt``: a full n x n matrix of
    # one-way latencies (seconds), identical on every node -- protocols
    # cannot see the network model, so the deployment passes its
    # topology in.  Off by default: broadcast, byte-identical to seed.
    nearest_accept: bool = False
    quorum_rtt: Optional[tuple] = None


@dataclass
class _PendingAccept:
    command: Optional[Command]  # retried on NACK when set
    to_decide: dict[Instance, Command]
    eps: dict[Instance, int]
    scoped: bool = False
    done: bool = False  # a NACK arrived; retry handling has run
    announced: bool = False  # Decide broadcast sent
    lapsed: bool = False  # unannounced and wholly retired at the last sweep
    acked: set = field(default_factory=set)  # nodes whose AckAccept arrived
    # Batched rounds: every command of the batch, each re-coordinated
    # individually on NACK (``command`` stays None for them).
    batch: tuple[Command, ...] = ()
    # Lease bookkeeping: owner-clock send time of the Accept broadcast.
    # A positive ack renews the sender's grant from this timestamp (the
    # conservative end of the skew interval); 0.0 when leases are off.
    sent_at: float = 0.0


@dataclass
class _PendingPrepare:
    """An in-flight prepare round.

    ``kind`` is one of:

    - ``"acquisition"``: ownership acquisition for our own ``command``
      (Algorithm 4);
    - ``"gap"``: frontier recovery of one stalled instance
      (``command`` is None; unforced instances become no-ops);
    - ``"recover"``: atomic re-proposal of a forced multi-object
      ``command`` over its recorded instance set.

    Retired from ``pending_prepares`` at its quorum, NACK or deadline.
    """

    command: Optional[Command]
    eps: dict[Instance, int]
    kind: str = "acquisition"
    replies: dict[
        int, dict[Instance, tuple[Optional[Command], int, tuple[Instance, ...]]]
    ] = field(default_factory=dict)
    # Instances of objects we already owned when the round started (at
    # their current epochs): not prepared -- re-electing ourselves would
    # dethrone our own pipeline -- but included in the clean accept.
    extra_eps: dict[Instance, int] = field(default_factory=dict)
    # For kind == "recover": the command's authoritative full instance
    # set (this round may cover only its still-undecided subset).
    fins: tuple[Instance, ...] = ()
