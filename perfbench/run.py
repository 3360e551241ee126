"""Run one workload and print its metrics: the benchmark's one command.

    python3 perfbench/run.py --workload tcp-sat --seed 1 --seconds 20 --trace 0

Prints every metric by name with its unit, then the host fingerprint and
uncorrected wall figures, and as the last line of standard output one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Exits non-zero if any pass fails its correctness gate
or the program under test (``src/repro``) is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="1 pass of one-tenth size (tests only)"
    )
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program to measure at {src}/repro", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing decides set and dict-of-str order; pin it so a
        # pass is the same work in every process.
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *(argv or sys.argv[1:])],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    for path in (src, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench import refkernel

    # Importing the program is set-up users pay once per process.
    before = refkernel.measure()
    started = perf_counter()
    from perfbench import report

    import_wall = perf_counter() - started
    import_ref = import_wall * refkernel.REF_S / ((before + refkernel.measure()) / 2)

    schema = report.load_schema()
    if args.workload not in {w["name"] for w in schema["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else schema["run_seconds"]
    result = report.run_workload(
        args.workload, args.seed, seconds, bool(args.trace), args.quick, import_ref
    )

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    if result["correct"]:
        for spec in schema[section]:
            value = result[section][spec["name"]]
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
            print(f"{args.workload} {spec['name']} {value!r} {spec['unit']}")
    for key in ("passes", "commands_per_pass", "latency_samples", "host", "uncorrected"):
        if key in result:
            print(f"{args.workload} {key} {json.dumps(result[key])}")
    for warning in result["warnings"]:
        print(f"{args.workload} warning: {warning}")
    for problem in result["problems"]:
        print(f"{args.workload} FAILED: {problem}")
    os.makedirs(report.OUT_DIR, exist_ok=True)
    with open(os.path.join(report.OUT_DIR, f"{args.workload}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
