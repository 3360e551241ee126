"""Alternating parent/change pairs of the repo's benchmark, with the verdict.

    python3 benchmarks/ab_pairs.py /path/to/parent /path/to/change --pairs 10

Each checkout runs its *own* ``perfbench/run.py`` (the command
``BENCHMARK.json`` names) once per workload per pair; pair ``i`` uses
seed ``--first-seed + i`` on both sides and alternates which side runs
first.  Per workload x end-to-end metric it prints both medians and
quartiles, wins/ties, and a verdict by the rule of the choosing-metrics
guide, section 8 (what PR 14 applied by hand):

- ``unresolved``: a side's quartile distance / median exceeds the
  metric's ``bound`` in ``BENCHMARK.json`` -- too noisy to call;
- ``gain``: the change wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the
  parent's quartile distance;
- ``regression``: the change's median is worse than the parent's by
  more than ``bound``;
- ``same``: anything else.

Standard library only; everything is written under ``--out`` (default:
nothing but stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Judge one metric from paired runs (``parent[i]`` and ``change[i]``
    are pair ``i``); ``better`` is ``"higher"`` or ``"lower"``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of runs on both sides")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    ties = sum(1 for p, c in zip(parent, change) if c == p)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = max(
        (p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
        (c_q3 - c_q1) / abs(c_med) if c_med else 0.0,
    )
    gain = sign * (c_med - p_med)  # > 0: the change's median is better
    if spread > bound:
        call = "unresolved"
    elif 10 * wins >= 9 * len(parent) and gain > p_q3 - p_q1:
        call = "gain"
    elif p_med and -gain / abs(p_med) > bound:
        call = "regression"
    else:
        call = "same"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "ratio": c_med / p_med if p_med else float("nan"),
        "wins": wins,
        "ties": ties,
        "pairs": len(parent),
        "verdict": call,
    }


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def run_once(checkout: str, workload: str, seed: int, seconds: float | None) -> dict:
    """One ``perfbench/run.py`` process in ``checkout``; its last stdout
    line is the JSON report."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} printed nothing\n{done.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of the change's BENCHMARK.json")
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--out", default=None, help="write every run's report here (JSON)")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        schema = json.load(fh)
    workloads = args.workloads or [w["name"] for w in schema["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, dict[str, list[dict]]] = {
        w: {side: [] for side in sides} for w in workloads
    }
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                report = run_once(sides[side], workload, args.first_seed + pair, args.seconds)
                runs[workload][side].append(report)
                print(f"pair {pair + 1}/{args.pairs} {workload} {side}: "
                      f"correct={report['correct']} failed={report['failed']}",
                      file=sys.stderr)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(runs, fh, indent=1)

    print(f"{'workload':14} {'metric':16} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'ratio':>6} {'wins':>5} {'ties':>4}  verdict")
    worst = 0
    for workload in workloads:
        for spec in schema["end_to_end"]:
            sample = {
                side: [r["metrics"][spec["name"]]["value"] for r in runs[workload][side]
                       if spec["name"] in r["metrics"]]
                for side in sides
            }
            if len(sample["parent"]) != args.pairs or len(sample["change"]) != args.pairs:
                print(f"{workload:14} {spec['name']:16} missing runs (a pass failed its gate)")
                worst = 1
                continue
            v = verdict(sample["parent"], sample["change"], spec["better"], spec["bound"])
            print(f"{workload:14} {spec['name']:16} {_fmt(v['parent']):>32} "
                  f"{_fmt(v['change']):>32} {v['ratio']:6.3f} {v['wins']:>2}/{v['pairs']:<2} "
                  f"{v['ties']:>4}  {v['verdict']}")
            worst = max(worst, v["verdict"] == "regression")
        failed = {side: sum(r["failed"] for r in runs[workload][side]) for side in sides}
        attempted = {side: sum(r["attempted"] for r in runs[workload][side]) for side in sides}
        print(f"{workload:14} failed operations: parent {failed['parent']}/{attempted['parent']}, "
              f"change {failed['change']}/{attempted['change']}")
        if failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"]:
            worst = 1
    return int(worst)


if __name__ == "__main__":
    sys.exit(main())
