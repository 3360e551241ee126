"""Reproduction of "Making Fast Consensus Generally Faster" (M2Paxos, DSN 2016).

The package is organised as follows:

- :mod:`repro.spec` -- :class:`ClusterSpec`, the one configuration
  object a simulated or TCP cluster is built from.
- :mod:`repro.sim` -- deterministic discrete-event simulation substrate
  (virtual clock, network with latency/bandwidth models, CPU model, crash
  injection).
- :mod:`repro.consensus` -- the sans-I/O protocol interface shared by all
  consensus implementations, plus the three baselines evaluated in the
  paper, and only those: Multi-Paxos, Generalized Paxos, and EPaxos.
- :mod:`repro.core` -- M2Paxos itself, the paper's primary contribution.
- :mod:`repro.workloads` -- synthetic and TPC-C command generators and the
  open-loop client model used by the evaluation.
- :mod:`repro.metrics` -- throughput/latency collection.
- :mod:`repro.bench` -- the experiment harness that regenerates every
  figure of the paper's evaluation section.
- :mod:`repro.runtime` -- an asyncio TCP runtime for running the same
  protocol objects over a real network.
"""

from repro.consensus.commands import Command
from repro.core.protocol import M2Paxos, M2PaxosConfig
from repro.sim.cluster import Cluster
from repro.spec import ClusterSpec

__all__ = [
    "Command",
    "M2Paxos",
    "M2PaxosConfig",
    "Cluster",
    "ClusterSpec",
]

__version__ = "1.0.0"
