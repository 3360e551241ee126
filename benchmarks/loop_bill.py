"""What one command costs the event loop on a TCP workload: tasks,
futures, loop turns, timers and socket calls per command.

    python3 benchmarks/loop_bill.py [CHECKOUT] [--workload tcp-lat] [--seed 1]

Runs ``CHECKOUT``'s own ``perfbench`` workload in this process with
counting wrappers on ``BaseEventLoop.create_task`` / ``create_future`` /
``_run_once`` / ``call_soon`` / ``call_at`` and on ``socket.socket``'s
``recv`` / ``send`` / ``sendmsg``, and reports the counts over the
measured chunks only (``PipelineDriver`` runs at the workload's depth,
not the depth-8 warm-up) divided by the commands they decided.  Also
counted, where the checkout has them: wire frames encoded, durable-log
records appended and the two encoders that fill them (``tcp-durable``;
zero on the other workloads).  Three rows read the loop and the
collector instead: the timers still scheduled on the loop when the last
measured chunk ends (``len(loop._scheduled)``, cancelled ones included
until asyncio purges them), the cyclic GC's collections per generation
over the measured chunks, and its pause time per thousand commands (both
from ``gc.callbacks``).  Counts, not times, except that pause: they
compare two versions of the runtime and say nothing about waiting.  A
ruler for ``runtime/node.py``, the durable path and what the protocol
leaves alive, not a claim.  Standard library only.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import importlib
import io
import os
import socket
import sys
import time
from collections import Counter

COUNTED = (
    (asyncio.BaseEventLoop, "create_task", "tasks"),
    (asyncio.BaseEventLoop, "create_future", "futures"),
    (asyncio.BaseEventLoop, "_run_once", "loop_turns"),
    (asyncio.BaseEventLoop, "call_soon", "call_soon"),
    (asyncio.BaseEventLoop, "call_at", "timers"),
    (socket.socket, "recv", "sock_recv"),
    (socket.socket, "send", "sock_send"),
    (socket.socket, "sendmsg", "sock_sendmsg"),
)
PROGRAM_COUNTED = (
    ("repro.runtime.node", "encode_message_into", "wire_encodes"),
    ("repro.storage.base", "LogStorage.append", "log_records"),
    ("repro.core.m2.durability", "encode_value_binary", "log_value_encodes"),
    ("repro.core.m2.durability", "message_payload", "log_message_encodes"),
)
"""Names the program calls through (module, dotted attribute, key); one
that ``CHECKOUT`` does not have is skipped and reads zero."""
WARM_DEPTH = 8
"""``perfbench.workloads._tcp_pass`` warms up at this depth; no TCP
workload measures at it."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("checkout", nargs="?", default=os.getcwd())
    parser.add_argument("--workload", default="tcp-lat")
    parser.add_argument("--seed", default="1")
    args = parser.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    sys.path[:0] = [os.path.join(checkout, "src"), checkout]
    os.chdir(checkout)

    counts: Counter = Counter()

    def count(owner, name, key):
        original = getattr(owner, name)

        def counted(*a, **kw):
            counts[key] += 1
            return original(*a, **kw)

        setattr(owner, name, counted)

    for owner, name, key in COUNTED:
        count(owner, name, key)
    gc_started = []

    def on_gc(phase, info):
        if phase == "start":
            gc_started.append(time.perf_counter_ns())
        elif gc_started:
            counts[f"gc{info['generation']}"] += 1
            counts["gc_pause_ns"] += time.perf_counter_ns() - gc_started.pop()

    gc.callbacks.append(on_gc)

    from perfbench import run as bench_run
    from repro.runtime.driver import PipelineDriver

    for module, dotted, key in PROGRAM_COUNTED:
        *path, name = dotted.split(".")
        owner = importlib.import_module(module)
        for part in path:
            owner = getattr(owner, part)
        if hasattr(owner, name):
            count(owner, name, key)

    measured: Counter = Counter()
    commands = live_timers = 0
    run = PipelineDriver.run

    async def windowed_run(self, proposals, timeout=60.0):
        nonlocal commands, live_timers
        proposals = list(proposals)
        before = Counter(counts)
        await run(self, proposals, timeout)
        if self.depth != WARM_DEPTH:
            measured.update(counts - before)
            commands += len(proposals)
            live_timers = len(asyncio.get_running_loop()._scheduled)

    PipelineDriver.run = windowed_run
    with contextlib.redirect_stdout(io.StringIO()):
        code = bench_run.main(
            ["--workload", args.workload, "--seed", args.seed, "--seconds", "1"]
        )
    if code or not commands:
        print(f"{args.workload}: perfbench exited {code}, {commands} commands", file=sys.stderr)
        return code or 1
    print(f"{args.workload} seed {args.seed}: {commands} commands in the measured chunks")
    for _owner, _name, key in COUNTED + PROGRAM_COUNTED:
        print(f"{key:19} {measured[key] / commands:8.3f} per command")
    print(f"{'live_loop_timers':19} {live_timers:8d} at the end of the measured chunks")
    collections = " / ".join(str(measured[f"gc{g}"]) for g in range(3))
    print(f"{'gc_collections':19} {collections:>8} (gen 0 / 1 / 2) in the measured chunks")
    pause_ms = measured["gc_pause_ns"] / 1e6 / commands * 1000
    print(f"{'gc_pause_ms':19} {pause_ms:8.3f} per 1000 commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
