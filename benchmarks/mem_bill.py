"""What one command leaves alive on a TCP workload, by allocation site.

    python3 benchmarks/mem_bill.py [CHECKOUT] [--workload tcp-sat] [--seed 1] [--quick]

Runs ``CHECKOUT``'s own ``perfbench`` TCP pass twice in this process
(``--quick``: the test-sized pass), each on a fresh plan and with the
codec's decode memos emptied, and looks at it at two marks: when the
first measured chunk starts (``PipelineDriver`` at the workload's depth,
after the depth-8 ownership warm-up) and when the pass stops its
cluster, by which time every command has been delivered everywhere and
nothing has been torn down.  The first pass runs as perfbench runs it
and gives the change in resident set size between the marks.  The
second runs under ``tracemalloc`` and gives, per allocation site, the
bytes gained between the marks; the sites that gained most are printed,
then their sum and the net gain over every site, all divided by the
commands of the measured chunks.  An allocation is charged to the line
that made it; one made inside generated code (a dataclass ``__init__``,
the codec's per-class functions) is charged to that line and its
caller's.  A ruler for where per-command memory goes, not a claim:
``peak_rss_mb`` is ``benchmarks/ab_pairs.py``'s to say.  Standard
library only.
"""

from __future__ import annotations

import argparse
import gc
import linecache
import os
import sys
import tempfile
import tracemalloc
from collections import Counter

TOP = 12
WARM_DEPTH = 8
"""``perfbench.workloads._tcp_pass`` warms up at this depth; no TCP
workload measures at it."""


def rss_kb() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def site(frames) -> str:
    """Where ``frames`` (innermost first) allocated: ``file:line``, and
    the caller's too when the innermost frame is generated code."""
    names = []
    for frame in frames:
        path = frame.filename
        short = path if path.startswith("<") else os.path.relpath(path)
        if short.startswith(".."):
            short = os.path.join("...", *path.split(os.sep)[-2:])
        names.append(f"{short}:{frame.lineno}")
        if not path.startswith("<"):
            break
    return " <- ".join(names)


def by_site(snapshot) -> Counter:
    sizes: Counter = Counter()
    for trace in snapshot.traces:
        sizes[site(reversed(trace.traceback))] += trace.size
    return sizes


def source_of(key: str) -> str:
    path, _, line = key.split(" <- ")[0].rpartition(":")
    return linecache.getline(path, int(line)).strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("checkout", nargs="?", default=os.getcwd())
    parser.add_argument("--workload", default="tcp-sat")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true", help="the test-sized pass")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # perfbench pins it by re-executing itself; do it here instead,
        # so the marks stay in the process that runs the pass.
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *(argv or sys.argv[1:])],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    checkout = os.path.abspath(args.checkout)
    sys.path[:0] = [os.path.join(checkout, "src"), checkout]
    os.chdir(checkout)

    from perfbench.workloads import WORKLOADS, run_pass, tcp_plan
    from repro.runtime import codec
    from repro.runtime.cluster import LocalCluster
    from repro.runtime.driver import PipelineDriver

    workload = WORKLOADS[args.workload].sized(args.quick)
    if workload.substrate != "tcp":
        parser.error(f"{args.workload} is not a TCP workload")
    marks = []  # (rss_kb, heap snapshot or None) at the two marks of a pass

    def mark() -> None:
        gc.collect()
        traced = tracemalloc.is_tracing()
        marks.append((rss_kb(), tracemalloc.take_snapshot() if traced else None))

    run, stop = PipelineDriver.run, LocalCluster.stop

    async def marked_run(self, proposals, timeout=60.0):
        if self.depth != WARM_DEPTH and not marks:
            mark()
        return await run(self, proposals, timeout)

    async def marked_stop(self):
        if len(marks) == 1:
            mark()
        return await stop(self)

    PipelineDriver.run, LocalCluster.stop = marked_run, marked_stop
    passes = []
    for traced in (False, True):
        for name, memo in vars(codec).items():
            if name.endswith("_DECODE_CACHE"):
                memo.clear()
        plan = tcp_plan(workload, args.seed)
        marks.clear()
        if traced:
            tracemalloc.start(4)
        with tempfile.TemporaryDirectory() as storage_dir:
            result = run_pass(workload, args.seed, plan, storage_dir)
        tracemalloc.stop()
        for problem in result.problems:
            print(f"{args.workload}: FAILED: {problem}", file=sys.stderr)
        if result.problems or len(marks) != 2:
            return 1
        passes.append(list(marks))
    commands = sum(len(chunk) for chunk in plan.chunks)

    (rss0, _), (rss1, _) = passes[0]
    (_, before), (_, after) = passes[1]
    gained = by_site(after)
    gained.subtract(by_site(before))
    top = gained.most_common(TOP)
    print(f"{args.workload} seed {args.seed}: {commands} commands in the measured chunks")
    print(f"{'B/cmd':>8}  site")
    for key, size in top:
        print(f"{size / commands:8.1f}  {key}  {source_of(key)[:60]}")
    print(f"{sum(size for _key, size in top) / commands:8.1f}  top {TOP} sites")
    print(f"{sum(gained.values()) / commands:8.1f}  all sites (net)")
    print(f"{(rss1 - rss0) * 1024 / commands:8.1f}  RSS delta (the untraced pass)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
