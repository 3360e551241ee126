"""Recovery driver: rebuild a protocol from snapshot + log tail.

Every durable restart -- ``Host._reboot(protocol, "durable")``, behind
``SimNode.restart`` and ``RuntimeNode.restart`` -- replays through here,
so crash-recovery is one code path under the deterministic simulator and
the asyncio runtime -- the property the chaos harness's byte-identical
prefix check verifies.
"""

from __future__ import annotations

from repro.consensus.base import Protocol, Storage


def recover_protocol(protocol: Protocol, storage: Storage) -> dict:
    """Replay ``storage``'s snapshot + tail into a fresh, bound,
    not-yet-started ``protocol``.  Returns stats for the recovery span.

    Must run inside a protocol event (the hosting node wraps it in
    ``run_event``) so re-deliveries and any sends go through the normal
    outbox/commit discipline.
    """
    recovered = storage.recover()
    stats = {
        "snapshot_bytes": len(recovered.snapshot) if recovered.snapshot else 0,
        "records": len(recovered.records),
    }
    if recovered.snapshot is not None:
        protocol.restore_snapshot(recovered.snapshot)
    for rtype, payload in recovered.records:
        protocol.apply_log_record(rtype, payload)
    return stats
