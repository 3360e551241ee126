"""The synthetic benchmark of Section VI-A.

Each node has a *local-set* of objects it "owns" at the application
level.  Knobs map one-to-one to the paper's experiments:

- ``locality``: probability a command targets the node's local-set
  (Figures 1-4 use 1.0; Figure 5 compares 1.0 vs 0.0; Figure 6 sweeps).
  A non-local command picks an object uniformly across *all* objects.
- ``complex_fraction``: probability of a *complex* command that
  accesses one local object plus one uniformly random object
  (Figure 7); the rest access a single object.
- ``local_set_size``: objects per node (Figure 7 varies 10/100/1000).
- ``payload_bytes``: 16 in the paper's synthetic runs.

One serving-tier extension, off by default, in which case the generator
draws exactly the seed's RNG sequence and emits byte-identical commands:

- ``read_fraction``: probability a command is a read (``is_read``).
  Reads target a single object chosen by the same locality rule as
  simple writes; the owner may serve them locally under a lease.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.consensus.commands import Command


@dataclass(frozen=True)
class SyntheticConfig:
    local_set_size: int = 100
    locality: float = 1.0
    complex_fraction: float = 0.0
    payload_bytes: int = 16
    read_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.local_set_size < 1:
            raise ValueError("local_set_size must be >= 1")
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError("locality must be in [0, 1]")
        if not 0.0 <= self.complex_fraction <= 1.0:
            raise ValueError("complex_fraction must be in [0, 1]")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")


class SyntheticWorkload:
    """Generates commands for one cluster; deterministic per seed."""

    def __init__(self, config: SyntheticConfig, n_nodes: int, rng: random.Random) -> None:
        self.config = config
        self.n_nodes = n_nodes
        self._rng = rng
        self._seq = [0] * n_nodes

    def object_name(self, node: int, index: int) -> str:
        return f"o{node}.{index}"

    def _local_object(self, node: int) -> str:
        return self.object_name(node, self._rng.randrange(self.config.local_set_size))

    def _uniform_object(self) -> str:
        node = self._rng.randrange(self.n_nodes)
        return self.object_name(node, self._rng.randrange(self.config.local_set_size))

    def next_command(self, node: int) -> Command:
        """The next command issued by a client thread on ``node``."""
        seq = self._seq[node]
        self._seq[node] += 1
        cfg = self.config

        # Short-circuit draws: with read_fraction == 0.0 no extra RNG
        # value is consumed, so the command stream (and hence every
        # downstream decision log) is byte-identical to the seed's.
        is_read = bool(
            cfg.read_fraction and self._rng.random() < cfg.read_fraction
        )
        if is_read:
            # Reads target a single object by the simple-command
            # locality rule; lease-served reads are per-object.
            if self._rng.random() < cfg.locality:
                objects = {self._local_object(node)}
            else:
                objects = {self._uniform_object()}
        elif cfg.complex_fraction and self._rng.random() < cfg.complex_fraction:
            # Complex command: one likely-local object + one uniform.
            first = self._local_object(node)
            second = self._uniform_object()
            objects = {first, second}
        elif self._rng.random() < cfg.locality:
            objects = {self._local_object(node)}
        else:
            objects = {self._uniform_object()}

        return Command.make(
            node,
            seq,
            objects,
            payload_bytes=cfg.payload_bytes,
            is_read=is_read,
        )
