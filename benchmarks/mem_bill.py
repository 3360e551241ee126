"""What one command leaves alive on a perfbench workload, by allocation site.

    python3 benchmarks/mem_bill.py [CHECKOUT] [--workload tcp-sat] [--seed 1] [--quick]

Runs ``CHECKOUT``'s own ``perfbench`` pass of the workload twice in
this process (``--quick``: the test-sized pass), each on a fresh plan
and with the codec's decode memos emptied, and looks at it at two
marks.  On a TCP workload they are when the first measured chunk starts
(``PipelineDriver`` at the workload's depth, after the depth-8
ownership warm-up) and when the pass stops its cluster, by which time
every command has been delivered everywhere and nothing has been torn
down.  On ``sim-contended`` they are the start of the measured window
and the end of its last chunk, before the drain.  The first pass runs
as perfbench runs it and gives the change in resident set size between
the marks.  The second runs under ``tracemalloc`` and gives, per
allocation site, the bytes gained between the marks; the sites that
gained most are printed, then their sum, the net gain over every site
and the traced heap at each mark and where perfbench reads the pass's
final RSS (``peak_rss_mb``), per node at each mark, the env timers
still armed and the deadline heap's entries by kind, and the bytes each
state structure gained between the marks and holds at the second: the
decided log, its index, the C-struct, the host's delivered log, the
deadline heap and the codec's decode memos (``sys.getsizeof`` of each
container and of the containers it holds, not of the commands they
share; a checkout with the older layout shows its own structures).  Bytes are
divided by the commands of the measured chunks (TCP) or the commands
proposed between the marks (sim).  An allocation is charged to the line that made it; one made
inside generated code (a dataclass ``__init__``, the codec's per-class
functions) is charged to that line and its caller's.  A ruler for where
per-command memory goes, not a claim: ``peak_rss_mb`` is
``benchmarks/ab_pairs.py``'s to say.  Standard library only.
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


def timers(nodes, kinds: dict) -> list[tuple[int, int, Counter]]:
    """Per node: its id, its live env timers and its deadline heap's
    entries counted by kind name."""
    rows = []
    for node in nodes:
        heap = getattr(node.protocol.state, "deadlines", ())  # none before the heap
        rows.append((node.node_id, len(node._timers), Counter(kinds[entry[1]] for entry in heap)))
    return rows


def structures(nodes, codec) -> Counter:
    """Bytes held by each state structure, summed over ``nodes``."""
    size = sys.getsizeof
    held: Counter = Counter()
    for node in nodes:
        state = node.protocol.state
        for obj in state.objects.values():
            held["decided log"] += size(obj.decided)
            if hasattr(obj, "decided_pos"):  # the older layout: a dict per object
                held["decided index"] += size(obj.decided_pos)
        index = getattr(state, "decided_index", None)
        if index is not None:
            held["decided index"] += size(index) + sum(
                size(at) for at in index.values() if type(at) is dict
            )
        if hasattr(state, "appended_cids"):
            held["appended ids"] += size(state.appended_cids)
        held["C-struct"] += size(state.cstruct)
        held["delivered log"] += size(node.delivered)
        heap = getattr(state, "deadlines", ())
        held["deadline heap"] += size(heap) + sum(size(entry) for entry in heap)
    for name, memo in vars(codec).items():
        if name.endswith("_DECODE_CACHE"):  # one per process, keyed by frame bytes
            held["codec decode memo"] += size(memo) + sum(size(key) for key in memo)
    return held


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

    from perfbench import workloads as pb
    from perfbench.workloads import WORKLOADS, run_pass, tcp_plan
    from repro.consensus.base import EnvObserver
    from repro.core.m2 import config as m2config
    from repro.runtime import codec
    from repro.runtime.cluster import LocalCluster
    from repro.runtime.driver import PipelineDriver

    workload = WORKLOADS[args.workload].sized(args.quick)
    sim = workload.substrate == "sim"
    marks = []  # (rss_kb, heap snapshot or None, traced bytes, proposed, timers, structures)
    # The deadline heap's kinds by name, as far as the checkout has them.
    kinds = {
        getattr(m2config, name): name[1:].lower()
        for name in ("_SUPERVISE", "_ROUND", "_LEARN")
        if hasattr(m2config, name)
    }

    class Proposals(EnvObserver):
        """Counts the commands proposed on the nodes it observes."""

        note_kinds = frozenset()
        wants_handler_timing = False
        deliver_scope = "proposer"
        count = 0

        def on_propose(self, node_id, command) -> None:
            self.count += 1

    counter = Proposals()

    def mark(nodes) -> None:
        gc.collect()
        traced = tracemalloc.is_tracing()
        marks.append((
            rss_kb(),
            tracemalloc.take_snapshot() if traced else None,
            tracemalloc.get_traced_memory()[0] if traced else 0,
            counter.count,
            timers(nodes, kinds),
            structures(nodes, codec),
        ))

    class SimMarks:
        """The sim pass's tracer hook: it calls ``mark`` before each
        chunk and after the last; the first and the last are marked."""

        def __init__(self) -> None:
            self.calls = 0
            self.nodes = []

        def observe(self, nodes) -> None:
            self.nodes = nodes
            for node in nodes:
                node.env.add_observer(counter)

        def mark(self) -> None:
            if self.calls in (0, workload.chunks):
                mark(self.nodes)
            self.calls += 1

    pass_heap = []  # traced heap where perfbench reads a pass's RSS: start, end
    read_rss = pb.rss_kb

    def heap_and_rss() -> int:
        if tracemalloc.is_tracing():
            gc.collect()
            pass_heap.append(tracemalloc.get_traced_memory()[0])
        return read_rss()

    pb.rss_kb = heap_and_rss
    run, stop = PipelineDriver.run, LocalCluster.stop

    async def marked_run(self, proposals, timeout=60.0):
        if self.depth != WARM_DEPTH and not marks:
            mark(self.cluster.nodes)
        return await run(self, proposals, timeout)

    async def marked_stop(self):
        if len(marks) == 1:
            mark(self.nodes)
        return await stop(self)

    if not sim:
        PipelineDriver.run, LocalCluster.stop = marked_run, marked_stop
    passes = []
    for traced in (False, True):
        for name, memo in vars(codec).items():
            if name.endswith("_DECODE_CACHE"):
                memo.clear()
        plan = None if sim else tcp_plan(workload, args.seed)
        marks.clear()
        if traced:
            tracemalloc.start(4)
        with tempfile.TemporaryDirectory() as storage_dir:
            result = run_pass(
                workload, args.seed, plan, storage_dir, tracer=SimMarks() if sim else None
            )
        tracemalloc.stop()
        for problem in result.problems:
            print(f"{args.workload}: FAILED: {problem}", file=sys.stderr)
        if result.problems or len(marks) != 2:
            return 1
        passes.append(list(marks))
    if sim:
        (*_, first, _, _), (*_, last, _, _) = passes[1]
        commands, what = last - first, "commands proposed between the marks"
    else:
        commands = sum(len(chunk) for chunk in plan.chunks)
        what = "commands in the measured chunks"

    (rss0, *_), (rss1, *_) = passes[0]
    (_, before, heap0, _, timers0, held0), (_, after, heap1, _, timers1, held1) = passes[1]
    gained = by_site(after)
    gained.subtract(by_site(before))
    top = gained.most_common(TOP)
    print(f"{args.workload} seed {args.seed}: {commands} {what}")
    print(f"{'B/cmd':>8}  site")
    for key, size in top:
        print(f"{size / commands:8.1f}  {key}  {source_of(key)[:60]}")
    print(f"{sum(size for _key, size in top) / commands:8.1f}  top {TOP} sites")
    print(f"{sum(gained.values()) / commands:8.1f}  all sites (net)")
    print(f"{(rss1 - rss0) * 1024 / commands:8.1f}  RSS delta (the untraced pass)")
    print(
        f"traced heap: {heap0 / 2**20:.1f} MB at the first mark, {heap1 / 2**20:.1f} MB"
        f" at the second, {pass_heap[-1] / 2**20:.1f} MB at the end of the pass"
    )
    print("state structures (B/cmd gained between the marks, KB held at the second):")
    for name, total in held1.items():
        print(f"{(total - held0[name]) / commands:8.1f}  {total / 1024:9.1f}  {name}")
    for which, rows in (("first", timers0), ("second", timers1)):
        print(f"timers at the {which} mark (live env timers; deadline heap entries by kind):")
        for node_id, env_timers, heap in rows:
            entries = ", ".join(f"{heap[name]} {name}" for name in kinds.values())
            print(f"  node {node_id}: {env_timers:5d} env; {entries}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
