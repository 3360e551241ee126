"""Consensus protocols: shared sans-I/O interface and the paper's baselines.

- :mod:`repro.consensus.base` -- the :class:`Protocol` / :class:`Env`
  contract every implementation follows, CPU-cost hooks (quorum sizes,
  ballots and value selection live in :mod:`repro.core.quorum`).
- :mod:`repro.consensus.commands` -- commands with object access sets
  (``c.LS`` in the paper) and the conflict relation.
- :mod:`repro.consensus.multipaxos` -- single-leader Multi-Paxos.
- :mod:`repro.consensus.genpaxos` -- Generalized Paxos (fast rounds with
  fast quorums, leader recovery on collision).
- :mod:`repro.consensus.epaxos` -- EPaxos (dependency tracking, fast and
  slow paths, SCC-based execution order).
"""

from repro.consensus.base import Env, Protocol, ProtocolCosts
from repro.consensus.commands import Command, conflict

__all__ = [
    "Env",
    "Protocol",
    "ProtocolCosts",
    "Command",
    "conflict",
]
