"""Spans recorded from the benchmark's side of each layer boundary.

Nothing under ``src/`` is edited.  While a traced pass runs, the calls
into each layer are replaced (by attribute) with timing wrappers, and a
benchmark-owned :class:`~repro.consensus.base.EnvObserver` brackets the
message handlers by type.  Every span carries name, start, end, parent
and -- on the propose path -- the command id; spans stay in memory and
are written with the per-layer self times when the run ends.

A layer's *self time* is its spans' duration minus the part their child
spans cover, so the self times of all layers plus the named residual
(event loop, framing, sockets: ``runtime.other``) add up to the wall
time of the traced chunks exactly.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from repro.consensus.base import EnvObserver
from repro.core.delivery import DeliveryEngine
from repro.core.m2 import durability
from repro.core.protocol import M2Paxos
from repro.runtime import codec
from repro.runtime import node as runtime_node
from repro.runtime.node import RuntimeNode
from repro.sim.cpu import CpuModel
from repro.sim.event_loop import EventLoop
from repro.sim.network import Network
from repro.sim.node import SimNode
from repro.storage.base import LogStorage
from repro.workloads.client import OpenLoopClients

# (owner, attribute, span name, index of a Command argument or None)
PATCHES = (
    (codec, "decode_message", "codec.decode", None),
    (runtime_node, "decode_message", "codec.decode", None),
    (RuntimeNode, "propose", "node.propose", 1),
    (RuntimeNode, "run_event", "node.run_event", None),
    (RuntimeNode, "enqueue", "node.enqueue", None),
    (M2Paxos, "propose", "m2.propose", 1),
    (DeliveryEngine, "pump", "delivery.pump", None),
    (durability, "encode_value_binary", "storage.encode", None),
    (LogStorage, "append", "storage.append", None),
    (LogStorage, "commit", "storage.commit", None),
    (LogStorage, "_fire", "storage.commit", None),
    (EventLoop, "run", "sim.loop", None),
    (Network, "send", "sim.network", None),
    (CpuModel, "submit", "sim.cpu", None),
    (SimNode, "propose", "node.propose", 1),
    (SimNode, "run_event", "node.run_event", None),
    (OpenLoopClients, "_tick", "sim.client", None),
)
ENCODE_OWNERS = (codec, runtime_node)
"""``encode_message_into`` lives in the codec and under the name
``runtime.node`` imported it by; ``codec.encode_message`` reaches the
patched one through the codec's globals."""

MAX_SPANS_WRITTEN = 200_000


class Tracer(EnvObserver):
    """Span recorder + handler observer for one traced pass."""

    wants_handler_timing = True
    note_kinds = frozenset()
    deliver_scope = "proposer"

    def __init__(self, clock=perf_counter) -> None:
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.cids: dict[int, tuple] = {}
        self.wire_bytes = 0
        self.marks: list[tuple[int, int]] = []
        self._stack = [-1]
        self._handler_ids: dict[type, int] = {}
        self._originals: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def _open(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self._clock())
        return index

    def _close(self) -> None:
        now = self._clock()
        self.ends[self._stack.pop()] = now

    def mark(self) -> None:
        """A chunk boundary: spans and wire bytes so far."""
        self.marks.append((len(self.starts), self.wire_bytes))

    def _wrap(self, fn, name: str, cid_arg):
        name_id = self._name_id(name)
        open_span, close_span, cids = self._open, self._close, self.cids

        def traced(*args, **kwargs):
            index = open_span(name_id)
            if cid_arg is not None:
                cids[index] = args[cid_arg].cid
            try:
                return fn(*args, **kwargs)
            finally:
                close_span()

        return traced

    def _wrap_encode(self, fn):
        name_id = self._name_id("codec.encode")

        def traced_encode(out, sender, message):
            before = len(out)
            self._open(name_id)
            try:
                fn(out, sender, message)
            finally:
                self._close()
                self.wire_bytes += len(out) - before

        return traced_encode

    # ------------------------------------------------------------------
    # EnvObserver: handlers by message type
    # ------------------------------------------------------------------

    def on_handler_enter(self, node_id, sender, message) -> None:
        cls = type(message)
        name_id = self._handler_ids.get(cls)
        if name_id is None:
            name_id = self._handler_ids[cls] = self._name_id(
                f"m2.handler.{cls.__name__}"
            )
        self._open(name_id)

    def on_handler_exit(self, node_id, sender, message, cpu_seconds) -> None:
        self._close()

    def observe(self, nodes) -> None:
        for node in nodes:
            node.env.add_observer(self)

    # ------------------------------------------------------------------
    # Attribute replacement
    # ------------------------------------------------------------------

    def _replace(self, owner, attribute: str, wrapper) -> None:
        own = attribute in vars(owner)
        self._originals.append((owner, attribute, vars(owner).get(attribute), own))
        setattr(owner, attribute, wrapper)

    def __enter__(self) -> "Tracer":
        for owner, attribute, name, cid_arg in PATCHES:
            self._replace(
                owner, attribute, self._wrap(getattr(owner, attribute), name, cid_arg)
            )
        for owner in ENCODE_OWNERS:
            self._replace(
                owner,
                "encode_message_into",
                self._wrap_encode(getattr(owner, "encode_message_into")),
            )
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, original, own in reversed(self._originals):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._originals.clear()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def self_times(self, scales) -> tuple[dict, dict]:
        """``(reference seconds of self time, calls)`` by span name over
        the marked chunks; ``scales[k]`` is chunk ``k``'s wall ->
        reference factor."""
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        names, name_ids, parents = self.names, self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        for k, scale in enumerate(scales):
            for i in range(self.marks[k][0], self.marks[k + 1][0]):
                if not ends[i]:
                    continue  # cut short by an exception
                duration = (ends[i] - starts[i]) * scale
                name = names[name_ids[i]]
                seconds[name] += duration
                calls[name] += 1
                if parents[i] >= 0:
                    seconds[names[name_ids[parents[i]]]] -= duration
        return dict(seconds), dict(calls)

    def write(self, path: str, summary: dict) -> None:
        """Spans (the first :data:`MAX_SPANS_WRITTEN`) + ``summary``."""
        count = min(len(self.starts), MAX_SPANS_WRITTEN)
        origin = self.starts[0] if self.starts else 0.0
        document = {
            **summary,
            "spans_recorded": len(self.starts),
            "spans_written": count,
            "span_names": self.names,
            "span_fields": ["name", "start_s", "end_s", "parent", "cid"],
            "spans": [
                [
                    self.name_ids[i],
                    self.starts[i] - origin,
                    self.ends[i] - origin,
                    self.parents[i],
                    self.cids.get(i),
                ]
                for i in range(count)
            ],
        }
        with open(path, "w") as fh:
            json.dump(document, fh)
