"""M2Paxos: the paper's primary contribution.

A multi-leader Generalized Consensus implementation that orders
commands through per-object Multi-Paxos incarnations.  A node that owns
every object a command accesses decides it in two communication delays
with a classic (majority) quorum; otherwise the command is forwarded to
the single owner (three delays) or ownership is re-acquired with a
Paxos prepare phase (Algorithms 1-4 of the paper).
"""

from repro.core.messages import (
    Accept,
    AckAccept,
    AckPrepare,
    Decide,
    Forward,
    Prepare,
)
from repro.core.protocol import M2Paxos, M2PaxosConfig
from repro.core.policy import OnDemandPolicy, OwnershipPolicy, StickyPolicy

__all__ = [
    "M2Paxos",
    "M2PaxosConfig",
    "OwnershipPolicy",
    "OnDemandPolicy",
    "StickyPolicy",
    "Accept",
    "AckAccept",
    "Decide",
    "Prepare",
    "AckPrepare",
    "Forward",
]
