"""Simulated message-passing network.

Delivery delay for a message of ``size`` bytes from ``src`` to ``dst``:

    propagation (latency model)  +  (size + header) / bandwidth

with the bandwidth and per-message header of the paper's LAN
(:data:`BANDWIDTH`, :data:`HEADER_BYTES`).  Links are FIFO, as TCP
connections are.  The network also supports message drop probability,
partitions, and crashed receivers -- the failure-injection hooks used by
the fault-tolerance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import methodcaller
from typing import Callable, Optional

from repro.sim.event_loop import EventLoop
from repro.sim.latency import FixedLatency, LatencyModel
from repro.sim.rng import RngRegistry

BANDWIDTH = 987_500_000.0  # bytes/s per link: the paper's 7.9 Gbps EC2 LAN
HEADER_BYTES = 58  # fixed per-message framing overhead
BATCH_FACTOR = 16  # messages one header is amortised over when batching


@dataclass
class NetworkConfig:
    """Knobs for the network model.

    ``batching``: when True, framing overhead is amortised over
    :data:`BATCH_FACTOR` messages (the paper batches messages everywhere
    except the Figure 2 latency experiment).
    """

    latency: LatencyModel = field(default_factory=lambda: FixedLatency(100e-6))
    batching: bool = True
    drop_probability: float = 0.0
    # How transmission delay sizes a message: ``"estimate"`` uses the
    # field-walk approximation in :meth:`Message.size_bytes` (the seed
    # behaviour, kept as the default so recorded runs replay
    # identically); ``"codec"`` uses the real binary-codec frame size
    # from :func:`repro.runtime.codec.wire_size` -- smaller, and exactly
    # what the asyncio runtime puts on a TCP socket.
    frame_sizes: str = "estimate"

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        if self.frame_sizes not in ("estimate", "codec"):
            raise ValueError(
                f"frame_sizes must be 'estimate' or 'codec', "
                f"got {self.frame_sizes!r}"
            )


class Network:
    """Routes messages between nodes over the event loop."""

    def __init__(
        self,
        loop: EventLoop,
        n_nodes: int,
        config: NetworkConfig,
        rng: RngRegistry,
        zones: Optional[tuple[int, ...]] = None,
    ) -> None:
        self.loop = loop
        self.n_nodes = n_nodes
        self.config = config
        self.zones = zones
        self._rng = rng.stream("network")
        # Wire size charged for a message, per ``config.frame_sizes``
        # (validated by the config), resolved once rather than per send.
        self.size_of: Callable[[object], int] = methodcaller("size_bytes")
        if config.frame_sizes == "codec":
            from repro.runtime.codec import wire_size

            self.size_of = wire_size
        self._receivers: dict[int, Callable[[int, object, int], None]] = {}
        self._crashed: set[int] = set()
        self._partitions: list[tuple[frozenset[int], frozenset[int]]] = []
        self._last_delivery: dict[tuple[int, int], float] = {}
        # Optional chaos hook (see repro.chaos.injector.WireFaults): maps
        # ``(src, dst, now)`` to the delay offsets of the copies to
        # deliver -- ``[]`` drops, ``[0.0]`` is a plain delivery,
        # ``[0.0, 0.0]`` duplicates, non-zero entries add delay spikes.
        self.injector: Optional[Callable[[int, int, float], list[float]]] = None
        # Counters for the metrics layer.
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.bytes_sent = 0
        # Geo accounting (zones configured): WAN traffic is what a geo
        # deployment pays for, so the bench reports it separately.
        self.messages_cross_zone = 0
        self.bytes_cross_zone = 0

    def register(
        self, node_id: int, receiver: Callable[[int, object, int], None]
    ) -> None:
        """Attach the delivery callback for ``node_id``.

        The callback receives ``(sender, message, size_bytes)``.
        """
        if node_id in self._receivers:
            raise ValueError(f"node {node_id} already registered")
        self._receivers[node_id] = receiver

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def crash(self, node_id: int) -> None:
        """Stop delivering to and from ``node_id``."""
        self._crashed.add(node_id)

    def recover(self, node_id: int) -> None:
        self._crashed.discard(node_id)

    def partition(self, group_a: set[int], group_b: set[int]) -> None:
        """Block all traffic between the two groups (both directions)."""
        self._partitions.append((frozenset(group_a), frozenset(group_b)))

    def heal_partitions(self) -> None:
        self._partitions.clear()

    def _partitioned(self, src: int, dst: int) -> bool:
        for a, b in self._partitions:
            if (src in a and dst in b) or (src in b and dst in a):
                return True
        return False

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def transmission_delay(self, size: int) -> float:
        """Serialisation delay on the wire for ``size`` payload bytes."""
        header = HEADER_BYTES / BATCH_FACTOR if self.config.batching else HEADER_BYTES
        return (size + header) / BANDWIDTH

    def send(self, src: int, dst: int, message: object, size: int) -> None:
        """Send ``message`` (``size`` payload bytes) from ``src`` to ``dst``."""
        self.messages_sent += 1
        self.bytes_sent += size
        zones = self.zones
        if zones is not None and zones[src] != zones[dst]:
            self.messages_cross_zone += 1
            self.bytes_cross_zone += size
        crashed = self._crashed
        if src in crashed or dst in crashed:
            self.messages_dropped += 1
            return
        if self._partitions and self._partitioned(src, dst):
            self.messages_dropped += 1
            return
        drop_probability = self.config.drop_probability
        if drop_probability and self._rng.random() < drop_probability:
            self.messages_dropped += 1
            return
        if self.injector is None or src == dst:
            self._schedule_delivery(src, dst, message, size, 0.0)
            return
        offsets = self.injector(src, dst, self.loop.now)
        if not offsets:
            self.messages_dropped += 1
            return
        self.messages_duplicated += len(offsets) - 1
        for extra in offsets:
            self._schedule_delivery(src, dst, message, size, extra)

    def _schedule_delivery(
        self, src: int, dst: int, message: object, size: int, extra: float
    ) -> None:
        delay = self.config.latency.sample(src, dst, self._rng)
        delay += self.transmission_delay(size) + extra
        arrival = self.loop.now + delay
        if src != dst:
            link = (src, dst)
            last = self._last_delivery.get(link, 0.0)
            if arrival < last:
                arrival = last
            self._last_delivery[link] = arrival
        self.loop.post_at(arrival, self._deliver, src, dst, message, size)

    def _deliver(self, src: int, dst: int, message: object, size: int) -> None:
        # Re-check crash state at delivery time: the receiver may have
        # crashed while the message was in flight.
        if dst in self._crashed:
            self.messages_dropped += 1
            return
        receiver = self._receivers.get(dst)
        if receiver is None:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        receiver(src, message, size)
