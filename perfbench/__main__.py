"""Run every workload, each in a fresh process, and print every metric.

    PYTHONPATH=src python -m perfbench --seed 1            # all four workloads
    PYTHONPATH=src python -m perfbench --seed 1 --trace    # + per-layer metrics
    PYTHONPATH=src python -m perfbench --selfcheck         # the A/A table

``--selfcheck`` runs the whole benchmark twice on the same tree and
prints, per metric and workload, both values, their ratio and the bound:
the table a claim of "no regression" has to be read against.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_all(schema: dict, seed: int, trace: bool, quick: bool) -> dict:
    """``{workload: {metric: value}}``; each workload in its own process
    so ``peak_rss_mb`` and the import part of ``setup_s`` are its own."""
    results = {}
    for workload in schema["workloads"]:
        command = [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload["name"], "--seed", str(seed),
            "--seconds", str(schema["run_seconds"]), "--trace", str(int(trace)),
        ]
        if quick:
            command.append("--quick")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: {workload['name']} failed (exit {done.returncode})")
        verdict = json.loads(lines[-1])
        print(
            f"{workload['name']} attempted {verdict['attempted']} "
            f"failed {verdict['failed']}",
            flush=True,
        )
        results[workload["name"]] = {
            name: metric["value"] for name, metric in verdict["metrics"].items()
        }
    return results


def selfcheck(schema: dict, seed: int, quick: bool) -> int:
    first = run_all(schema, seed, False, quick)
    second = run_all(schema, seed, False, quick)
    worst = 0
    print(f"\n{'workload':14s} {'metric':16s} {'run A':>12s} {'run B':>12s} {'B/A':>7s} {'bound':>6s}")
    for spec in schema["end_to_end"]:
        for workload in first:
            a, b = first[workload][spec["name"]], second[workload][spec["name"]]
            ratio = b / a
            worse = ratio - 1 if spec["better"] == "lower" else 1 / ratio - 1
            over = worse > spec["bound"]
            worst += over
            print(
                f"{workload:14s} {spec['name']:16s} {a:12.4f} {b:12.4f} "
                f"{ratio:7.3f} {spec['bound']:6.2f}{'  OVER' if over else ''}"
            )
    return 1 if worst else 0


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--quick", action="store_true", help="tests only")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        schema = json.load(fh)
    if args.selfcheck:
        return selfcheck(schema, args.seed, args.quick)
    run_all(schema, args.seed, args.trace, args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
