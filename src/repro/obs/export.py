"""Trace exporters: JSONL structured log and Chrome trace-event JSON.

The Chrome format (one JSON object with a ``traceEvents`` array of
``ph: "X"`` complete events, timestamps in microseconds) loads directly
in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``: one
track per node, command spans on the proposer's track, handler spans
underneath.  The JSONL export is one self-describing object per line
(``kind`` field), for ad-hoc analysis with ``jq`` or pandas.
"""

from __future__ import annotations

import json
from typing import Iterator

from repro.obs.collect import ObsCollector

# Chrome trace "tid" lanes within one node's "pid" track.
_TID_COMMANDS = 0
_TID_HANDLERS = 1
_TID_WIRE = 2
_TID_FAULTS = 3

_CATEGORY_TID = {
    "command": _TID_COMMANDS,
    "handler": _TID_HANDLERS,
    "wire": _TID_WIRE,
    "fault": _TID_FAULTS,
}

_TID_LABELS = (
    (_TID_COMMANDS, "commands"),
    (_TID_HANDLERS, "handlers"),
    (_TID_WIRE, "wire"),
    (_TID_FAULTS, "faults"),
)


def chrome_trace_events(collector: ObsCollector) -> list[dict]:
    """The ``traceEvents`` array for one collected run."""
    events: list[dict] = []
    nodes = {span.node for span in collector.spans} | {
        trace.proposer for trace in collector.traces.values()
    }
    for node in sorted(nodes):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": node,
                "tid": 0,
                "args": {"name": f"node {node}"},
            }
        )
        for tid, label in _TID_LABELS:
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": node,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
    for span in collector.spans:
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": span.node,
                "tid": _CATEGORY_TID.get(span.category, _TID_HANDLERS),
                "args": span.args,
            }
        )
    return events


def to_chrome_trace(collector: ObsCollector) -> dict:
    return {
        "traceEvents": chrome_trace_events(collector),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(collector: ObsCollector, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(collector), fh)


def _cid_str(cid: tuple[int, int]) -> str:
    return f"{cid[0]}.{cid[1]}"


def jsonl_records(collector: ObsCollector) -> Iterator[dict]:
    """One record per command trace, handler stat, and gauge."""
    for trace in collector.traces.values():
        yield {
            "kind": "command",
            "cid": _cid_str(trace.cid),
            "proposer": trace.proposer,
            "path": trace.resolved_path,
            "forward_hops": trace.forward_hops,
            "epoch_bumps": trace.epoch_bumps,
            "proposed_at": trace.proposed_at,
            "quorum_at": trace.quorum_at,
            "decided_at": trace.decided_at,
            "delivered_at": trace.delivered_at,
            "latency": trace.latency,
            "decision_latency": trace.decision_latency,
        }
    for name, stats in sorted(collector.handler_stats.items()):
        yield {
            "kind": "handler",
            "message_type": name,
            "count": stats.count,
            "cpu_seconds": stats.cpu_seconds,
        }
    for obj, bumps in sorted(collector.churn.epoch_bumps.items()):
        yield {"kind": "epoch_bumps", "object": obj, "count": bumps}
    for obj, handoffs in sorted(collector.churn.owner_handoffs.items()):
        yield {"kind": "owner_handoffs", "object": obj, "count": handoffs}
    for dst, depth in sorted(collector.outbox_depth.items()):
        yield {"kind": "outbox_depth", "destination": dst, "max_depth": depth}
    for fault in collector.faults:
        yield {
            "kind": "fault",
            "node": fault.node,
            "event": fault.event,
            "at": fault.at,
            "mode": fault.mode,
            "incarnation": fault.incarnation,
        }
    yield {
        "kind": "summary",
        "path_counts": collector.path_counts(),
        "fast_ratio": collector.fast_ratio(),
        "never_delivered": collector.never_delivered(),
        "message_types": collector.message_types,
        "flush_batches": collector.flush_batches,
        "wire_messages": collector.wire_messages,
        "wire_bytes": collector.wire_bytes,
    }


def write_jsonl(collector: ObsCollector, path: str) -> None:
    with open(path, "w") as fh:
        for record in jsonl_records(collector):
            fh.write(json.dumps(record) + "\n")
