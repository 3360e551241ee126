"""Command-line interface: quick experiments without writing a script.

Usage::

    python -m repro run --protocol m2paxos --nodes 5 --duration 0.3
    python -m repro run --protocol epaxos --workload tpcc --remote 0.15
    python -m repro compare --nodes 5
    python -m repro trace --protocol m2paxos --out trace.json
    python -m repro top --protocol m2paxos --duration 1.0
    python -m repro top --runtime --commands 2000
    python -m repro figures fig1 [--full]
    python -m repro modelcheck [--ballots 2]
    python -m repro chaos [--smoke | --list | NAME ...]
    python -m repro perf [--smoke] [--out BENCH.json]
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import PointSpec, run_point, saturated_spec
from repro.bench.report import print_table
from repro.spec import PROTOCOLS
from repro.workloads.synthetic import SyntheticConfig
from repro.workloads.tpcc import TpccConfig


def _storage_from_args(args):
    """The :class:`~repro.storage.base.StorageConfig` the flags name, or
    None for ``--storage none`` (the default: no durability)."""
    if getattr(args, "storage", "none") == "none":
        return None
    from repro.storage.base import StorageConfig

    storage_dir = args.storage_dir
    if args.storage == "disk" and storage_dir is None:
        import tempfile

        storage_dir = tempfile.mkdtemp(prefix="repro-storage-")
        print(f"storage: disk logs under {storage_dir}")
    return StorageConfig(
        kind=args.storage,
        dir=storage_dir,
        fsync_wait=args.fsync_wait,
        snapshot_every=args.snapshot_every,
    )


def _parse_zones(text: str) -> tuple[int, ...]:
    """``"0,0,1,1,2"`` -> ``(0, 0, 1, 1, 2)`` (node -> zone map)."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"zones must be comma-separated integers, got {text!r}"
        )


def _zone_shape_from_args(args):
    """The ``(zones, zone_latency)`` pair the geo flags describe."""
    if getattr(args, "zones", None) is None:
        return None, None
    from repro.spec import ZoneLatency

    zones = _parse_zones(args.zones)
    latency = ZoneLatency(
        intra=args.zone_intra_ms * 1e-3,
        inter=args.zone_inter_ms * 1e-3,
        jitter=args.zone_jitter_ms * 1e-3,
    )
    return zones, latency


def _spec_from_args(args, protocol: str) -> PointSpec:
    zones, zone_latency = _zone_shape_from_args(args)
    spec = PointSpec(
        protocol=protocol,
        n_nodes=args.nodes,
        workload=args.workload,
        synthetic=SyntheticConfig(
            locality=args.locality,
            complex_fraction=args.complex,
            local_set_size=args.local_set,
            read_fraction=args.read_fraction,
        ),
        tpcc=TpccConfig(remote_warehouse_prob=args.remote),
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
        cores=args.cores,
        storage=_storage_from_args(args),
        zones=zones,
        zone_latency=zone_latency,
        zone_affinity=getattr(args, "zone_affinity", False),
        lease_duration=args.leases,
    )
    if args.saturate:
        spec = saturated_spec(spec)
    return spec


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=5)
    parser.add_argument("--workload", choices=("synthetic", "tpcc"), default="synthetic")
    parser.add_argument("--locality", type=float, default=1.0)
    parser.add_argument("--complex", type=float, default=0.0)
    parser.add_argument("--local-set", dest="local_set", type=int, default=100)
    parser.add_argument("--remote", type=float, default=0.0,
                        help="TPC-C remote-warehouse probability")
    parser.add_argument("--duration", type=float, default=0.3)
    parser.add_argument("--warmup", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cores", type=int, default=16)
    parser.add_argument("--saturate", action="store_true",
                        help="drive to saturation (max-throughput methodology)")
    parser.add_argument(
        "--telemetry-interval", type=float, default=None,
        help="live-telemetry sampling cadence in virtual seconds "
             "(default: duration/4)",
    )
    parser.add_argument(
        "--zones", default=None,
        help="geo deployment: comma-separated node->zone map "
             "(e.g. 0,0,1,1,2); must cover --nodes nodes",
    )
    parser.add_argument(
        "--zone-intra-ms", type=float, default=0.5,
        help="one-way latency inside a zone, milliseconds",
    )
    parser.add_argument(
        "--zone-inter-ms", type=float, default=40.0,
        help="one-way latency between zones, milliseconds",
    )
    parser.add_argument(
        "--zone-jitter-ms", type=float, default=0.0,
        help="symmetric per-message latency jitter, milliseconds",
    )
    parser.add_argument(
        "--zone-affinity", action="store_true",
        help="run the zone-aware ownership-migration policy "
             "(m2paxos only; requires --zones)",
    )
    parser.add_argument(
        "--read-fraction", dest="read_fraction", type=float, default=0.0,
        help="fraction of synthetic commands that are reads (0..1)",
    )
    parser.add_argument(
        "--leases", type=float, default=0.0,
        help="ownership-lease duration in virtual seconds; a leased "
             "owner answers reads locally with zero consensus messages "
             "(m2paxos only; 0 = off)",
    )
    _add_storage_args(parser)


def _add_storage_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--storage", choices=("none", "mem", "disk"), default="none",
        help="durable per-node log: none (default), deterministic "
             "in-memory segments, or real files + fsync",
    )
    parser.add_argument(
        "--storage-dir", default=None,
        help="root directory for --storage disk (default: a fresh tmpdir)",
    )
    parser.add_argument(
        "--fsync-wait", type=float, default=0.0,
        help="group-commit window in seconds (0 = fsync per event)",
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=0,
        help="snapshot + truncate the log every N records (0 = never)",
    )


_RUN_COLUMNS = [
    "protocol", "throughput", "p50_ms", "p95_ms", "fast%", "reads",
    "inflight", "messages", "MB",
]


def _row(protocol: str, result) -> dict:
    return {
        "protocol": protocol,
        "throughput": result.throughput,
        "p50_ms": result.latency.p50 * 1e3 if result.latency else float("nan"),
        "p95_ms": result.latency.p95 * 1e3 if result.latency else float("nan"),
        "fast%": result.fast_ratio * 100,
        "reads": result.reads_served,
        "inflight": result.inflight,
        "messages": result.messages_sent,
        "MB": result.bytes_sent / 1e6,
    }


def _path_rows(result) -> list[dict]:
    """Per-decision-path breakdown from the span layer."""
    total = sum(stats.count for stats in result.paths.values()) or 1
    rows = []
    for path, stats in sorted(result.paths.items(), key=lambda kv: -kv[1].count):
        rows.append(
            {
                "path": path,
                "count": stats.count,
                "share%": 100.0 * stats.count / total,
                "p50_ms": stats.p50 * 1e3,
                "p99_ms": stats.p99 * 1e3,
            }
        )
    return rows


_PATH_COLUMNS = ["path", "count", "share%", "p50_ms", "p99_ms"]


def _telemetry_interval(args, spec) -> float:
    if args.telemetry_interval is not None:
        return args.telemetry_interval
    return max(spec.duration / 4.0, 0.02)


def _final_frame(telemetry):
    """The last interval frame that saw decides (else the last frame)."""
    frames = list(telemetry.frames)
    if not frames:
        return None
    active = [f for f in frames if f.decides]
    return (active or frames)[-1]


def _telemetry_frame_row(protocol: str, telemetry) -> dict | None:
    from repro.obs.telemetry.top import frame_row

    frame = _final_frame(telemetry)
    if frame is None:
        return None
    row = {"protocol": protocol}
    row.update(frame_row(frame))
    return row


_TELEMETRY_COLUMNS = [
    "protocol", "t", "cps", "fast%", "p50ms", "p99ms",
    "inflight", "outbox", "fsyncs", "churn",
]


def _print_telemetry(protocol: str, result) -> None:
    telemetry = result.extra.get("telemetry")
    if telemetry is None:
        return
    row = _telemetry_frame_row(protocol, telemetry)
    if row is None:
        return
    print_table("telemetry (final interval frame)", [row], _TELEMETRY_COLUMNS)
    from repro.obs.telemetry.top import ZONE_COLUMNS, zone_rows

    frame = _final_frame(telemetry)
    zones = zone_rows(frame) if frame is not None else []
    if zones:
        print_table("per-zone (final interval frame)", zones, ZONE_COLUMNS)
    for event in telemetry.events:
        details = ", ".join(
            f"{k}={v:.3g}" for k, v in sorted(event.details.items())
        )
        print(f"health: [{event.at:.2f}] {event.kind} ({details})")


def cmd_run(args) -> int:
    spec = _spec_from_args(args, args.protocol)
    result = run_point(
        spec, telemetry_interval=_telemetry_interval(args, spec)
    )
    print_table(
        f"{args.protocol} / {args.workload} / {args.nodes} nodes",
        [_row(args.protocol, result)],
        _RUN_COLUMNS,
    )
    print_table("decision paths", _path_rows(result), _PATH_COLUMNS)
    _print_telemetry(args.protocol, result)
    return 0


def cmd_compare(args) -> int:
    rows = []
    telemetry_rows = []
    for protocol in PROTOCOLS:
        spec = _spec_from_args(args, protocol)
        result = run_point(
            spec, telemetry_interval=_telemetry_interval(args, spec)
        )
        rows.append(_row(protocol, result))
        telemetry = result.extra.get("telemetry")
        if telemetry is not None:
            telemetry_row = _telemetry_frame_row(protocol, telemetry)
            if telemetry_row is not None:
                telemetry_rows.append(telemetry_row)
    rows.sort(key=lambda row: -row["throughput"])
    print_table(
        f"all protocols / {args.workload} / {args.nodes} nodes",
        rows,
        _RUN_COLUMNS,
    )
    if telemetry_rows:
        print_table(
            "telemetry (final interval frame per protocol)",
            telemetry_rows,
            _TELEMETRY_COLUMNS,
        )
    return 0


def cmd_top(args) -> int:
    """Live refreshing telemetry table, sim or runtime."""
    if args.runtime:
        return _top_runtime(args)

    import math

    from repro.bench.harness import build_run
    from repro.obs.telemetry import Telemetry, render_screen

    spec = _spec_from_args(args, args.protocol)
    interval = args.interval
    handle = build_run(spec)
    telemetry = Telemetry(handle.cluster, interval=interval)
    telemetry.start()
    handle.start()
    total = spec.warmup + spec.duration
    for _ in range(max(1, math.ceil(total / interval))):
        handle.cluster.run_for(interval)
        print(
            render_screen(
                telemetry.frames,
                telemetry.events,
                history=args.history,
                title=f"repro top — sim {args.protocol} ({args.nodes} nodes)",
            )
        )
    telemetry.stop()
    handle.clients.stop()
    if args.jsonl:
        count = telemetry.sampler.write_jsonl(args.jsonl)
        print(f"frames: {args.jsonl} ({count} intervals)")
    return 0


def _top_runtime(args) -> int:
    """`repro top --runtime`: a real asyncio cluster under pipelined
    load, sampled on the wall clock, Prometheus endpoint per node."""
    import asyncio

    from repro.bench.harness import protocol_factory
    from repro.bench.perf import SATURATION_M2
    from repro.consensus.commands import Command
    from repro.obs.telemetry import render_screen
    from repro.runtime.cluster import LocalCluster
    from repro.runtime.driver import PipelineDriver

    async def main() -> int:
        cluster = LocalCluster(
            args.nodes, protocol_factory("m2paxos", **SATURATION_M2)
        )
        await cluster.start()
        telemetry = await cluster.start_telemetry(
            interval=args.interval, serve=True
        )
        for node in cluster.nodes:
            host, port = node.metrics_address
            print(f"node {node.node_id} metrics: http://{host}:{port}/metrics")
        driver = PipelineDriver(cluster, depth=16)
        n = args.nodes
        proposals = (
            (i % n, Command.make(i % n, i + 1, [f"top-{i % n}"]))
            for i in range(args.commands)
        )
        task = asyncio.ensure_future(driver.run(proposals, timeout=60.0))
        while not task.done():
            await asyncio.sleep(args.interval)
            print(
                render_screen(
                    telemetry.frames,
                    telemetry.events,
                    history=args.history,
                    title=f"repro top — runtime m2paxos ({n} nodes)",
                )
            )
        await task
        if args.jsonl:
            count = telemetry.sampler.write_jsonl(args.jsonl)
            print(f"frames: {args.jsonl} ({count} intervals)")
        await cluster.stop()
        return 0

    return asyncio.run(main())


def cmd_trace(args) -> int:
    """One traced run: record spans, export Chrome JSON (Perfetto)."""
    from repro.obs import write_chrome_trace, write_jsonl

    spec = _spec_from_args(args, args.protocol)
    result = run_point(spec, record_spans=True)
    obs = result.extra["obs"]
    write_chrome_trace(obs, args.out)
    print(f"chrome trace: {args.out} ({len(obs.spans)} spans; "
          f"load in https://ui.perfetto.dev)")
    if args.jsonl:
        write_jsonl(obs, args.jsonl)
        print(f"jsonl log: {args.jsonl}")
    print_table(
        f"{args.protocol} / {args.workload} / {args.nodes} nodes",
        [_row(args.protocol, result)],
        _RUN_COLUMNS,
    )
    print_table("decision paths", _path_rows(result), _PATH_COLUMNS)
    churn = obs.churn
    if churn.total_epoch_bumps or churn.total_handoffs:
        print(
            f"ownership churn: {churn.total_epoch_bumps} epoch bumps, "
            f"{churn.total_handoffs} owner handoffs "
            f"across {len(churn.epoch_bumps)} objects"
        )
    return 0


def cmd_figures(args) -> int:
    from repro.bench.figures import main as figures_main

    argv = list(args.names)
    if args.full:
        argv.append("--full")
    figures_main(argv)
    return 0


def cmd_chaos(args) -> int:
    """Run seeded fault-injection scenarios through the safety checker.

    Every scenario runs twice in this process; the delivery-history
    fingerprints must match and both runs must pass the checker.  Equal
    fingerprints show determinism under this process's
    ``PYTHONHASHSEED``, not across hash seeds.
    """
    from dataclasses import replace

    from repro.chaos import DURABLE_SMOKE, SCENARIOS, SMOKE, by_name, run_scenario

    if args.list:
        for scenario in SCENARIOS:
            print(f"{scenario.name:24s} {scenario.description}")
        return 0
    if args.names:
        scenarios = [by_name(name) for name in args.names]
    elif args.durable_smoke:
        scenarios = [by_name(name) for name in DURABLE_SMOKE]
    elif args.smoke:
        scenarios = [by_name(name) for name in SMOKE]
    else:
        scenarios = list(SCENARIOS)

    def storage_override(scenario):
        """``--storage`` reruns a scenario on a different substrate,
        keeping its snapshot/fsync/capacity knobs (disk dirs are
        per-run tmpdirs unless --storage-dir names one)."""
        if args.storage is None:
            return None
        return replace(scenario.storage, kind=args.storage, dir=args.storage_dir)

    rows = []
    failed = 0
    for scenario in scenarios:
        storage = storage_override(scenario)
        first = run_scenario(scenario, storage=storage)
        second = run_scenario(scenario, storage=storage)
        deterministic = first.fingerprint == second.fingerprint
        ok = first.ok and second.ok and deterministic
        failed += 0 if ok else 1
        rows.append(
            {
                "scenario": scenario.name,
                "status": "ok" if ok else "FAIL",
                "proposed": first.proposed,
                "delivered": first.report.delivered_union,
                "dropped": first.dropped,
                "dup": first.duplicated,
                "faults": first.faults_observed,
                "deterministic": "yes" if deterministic else "NO",
            }
        )
        if not first.ok:
            for violation in first.report.violations:
                print(f"{scenario.name}: {violation}", file=sys.stderr)
        if not deterministic:
            print(
                f"{scenario.name}: fingerprints differ across two runs "
                f"({first.fingerprint[:12]} vs {second.fingerprint[:12]})",
                file=sys.stderr,
            )
    print_table(
        f"chaos suite ({len(scenarios)} scenarios, each run twice)",
        rows,
        ["scenario", "status", "proposed", "delivered",
         "dropped", "dup", "faults", "deterministic"],
    )
    if failed:
        print(f"{failed} scenario(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_perf(args) -> int:
    """Run the seeded feature A/B benches; write one BENCH_*.json
    datapoint.  ``--smoke`` shrinks every bench for CI; the regression
    floors (telemetry tax, leased-read speedup, geo migration win) are
    fatal either way.  The hot path is ``python -m perfbench``."""
    from repro.bench.perf import (
        PerfConfig,
        check_regressions,
        run_perf,
        write_datapoint,
    )

    config = PerfConfig(seed=args.seed)
    if args.smoke:
        config = config.scaled_for_smoke()
    datapoint = run_perf(config, only=args.benches or None)
    path = write_datapoint(datapoint, args.out)

    rows = []
    results = datapoint["results"]
    if "telemetry_overhead" in results:
        telemetry = results["telemetry_overhead"]
        rows.append({"bench": "telemetry-off cmds/sec",
                     "value": telemetry["off"]["commands_per_sec"]})
        rows.append({"bench": "telemetry-on cmds/sec",
                     "value": telemetry["on"]["commands_per_sec"]})
        rows.append({"bench": "telemetry overhead ratio",
                     "value": telemetry["overhead_ratio"]})
    if "serving" in results:
        serving = results["serving"]
        for ratio, entry in serving["ratios"].items():
            rows.append({"bench": f"serving {ratio} reads leased cmds/sec",
                         "value": entry["leased"]["commands_per_sec"]})
            rows.append({"bench": f"serving {ratio} reads speedup",
                         "value": entry["speedup"]})
        rows.append({"bench": "serving read_local speedup",
                     "value": serving["read_local_speedup"]})
        rows.append({"bench": "serving runtime speedup (90% reads)",
                     "value": serving["runtime"]["speedup"]})
    if "geo" in results:
        geo = results["geo"]
        rows.append({"bench": "geo pinned remote p50 ms",
                     "value": geo["pinned"]["remote_p50_ms"]})
        rows.append({"bench": "geo affinity remote p50 ms",
                     "value": geo["zone_affinity"]["remote_p50_ms"]})
        rows.append({"bench": "geo affinity+flex remote p50 ms",
                     "value": geo["zone_affinity_flex"]["remote_p50_ms"]})
        rows.append({"bench": "geo remote p50 improvement",
                     "value": geo["remote_p50_improvement"]})
        rows.append({"bench": "geo flex remote p50 improvement",
                     "value": geo["flex_remote_p50_improvement"]})
        rows.append({"bench": "geo flex+nearest remote p50 improvement",
                     "value": geo["flex_nearest_remote_p50_improvement"]})
    print_table(f"perf ({', '.join(results) or 'none'})", rows, ["bench", "value"])
    print(f"datapoint: {path}")

    problems = check_regressions(datapoint)
    for problem in problems:
        print(f"perf regression: {problem}", file=sys.stderr)
    if problems:
        return 1
    return 0


def _quorum_from_args(args):
    """The :class:`~repro.core.quorum.QuorumSystem` spec the modelcheck
    flags name (always non-None; majority is the default)."""
    from repro.core.quorum import FlexibleQuorums, MajorityQuorums

    if args.quorum == "flexible":
        return FlexibleQuorums(prepare=args.prepare, accept=args.accept)
    return MajorityQuorums()


def cmd_modelcheck(args) -> int:
    from repro.core.modelcheck import (
        ModelChecker,
        ModelConfig,
        verify_intersections,
    )
    from repro.core.quorum import check_fast_collision_intersections

    system = _quorum_from_args(args)

    # Phase 1: exhaustive prepare x accept intersection sweep over
    # cluster sizes 3..5 (the Flexible Paxos safety condition).  Sizes
    # the spec cannot bind to (a quorum larger than n) are skipped.
    results = verify_intersections(system, n_lo=3, n_hi=5)
    failed = False
    for n, problems in sorted(results.items()):
        if problems:
            failed = True
            print(f"intersections n={n}: {len(problems)} violation(s)")
            for problem in problems[:3]:
                print(f"  {problem}")
        else:
            bound = system.build(n)
            triple = check_fast_collision_intersections(bound)
            note = (
                "" if not triple
                else " (FastPaxos triple condition fails -- informational:"
                " striped epochs rule out uncoordinated fast rounds)"
            )
            print(f"intersections n={n}: ok [{bound.describe()}]{note}")
    if failed:
        print("quorum system UNSAFE: prepare/accept quorums can miss "
              "each other", file=sys.stderr)
        return 1

    # Phase 2: BFS over the abstract GFPaxos state space under the
    # configured quorum families, when the spec binds at the model's
    # 3 acceptors (``--prepare 4 --accept 2`` does not, and is skipped).
    try:
        config = ModelConfig(
            n_ballots=args.ballots,
            max_states=args.max_states,
            quorum_system=system,
        )
        checker = ModelChecker(config)
    except ValueError as exc:
        print(f"state search skipped: {exc} (model uses 3 acceptors)")
        return 0
    try:
        states = checker.run()
    except RuntimeError:
        print(
            f"bounded: {checker.states_explored} states (cap reached), "
            f"no violation found"
        )
        return 0
    print(f"exhaustive: {states} distinct states, no violation found")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="one protocol, one datapoint")
    run_parser.add_argument("--protocol", choices=PROTOCOLS, default="m2paxos")
    _add_run_args(run_parser)
    run_parser.set_defaults(fn=cmd_run)

    compare_parser = sub.add_parser("compare", help="all protocols, same workload")
    _add_run_args(compare_parser)
    compare_parser.set_defaults(fn=cmd_compare)

    trace_parser = sub.add_parser(
        "trace", help="one traced run; export Chrome/Perfetto trace"
    )
    trace_parser.add_argument("--protocol", choices=PROTOCOLS, default="m2paxos")
    _add_run_args(trace_parser)
    trace_parser.add_argument(
        "--out", default="trace.json", help="Chrome trace-event JSON output path"
    )
    trace_parser.add_argument(
        "--jsonl", default=None, help="also write a JSONL structured log here"
    )
    trace_parser.set_defaults(fn=cmd_trace)

    top_parser = sub.add_parser(
        "top", help="live refreshing telemetry table (sim or runtime)"
    )
    top_parser.add_argument("--protocol", choices=PROTOCOLS, default="m2paxos")
    _add_run_args(top_parser)
    top_parser.add_argument(
        "--interval", type=float, default=0.1,
        help="sampling + refresh cadence in seconds (virtual for sim, "
             "wall for --runtime)",
    )
    top_parser.add_argument(
        "--history", type=int, default=10,
        help="interval rows kept on screen",
    )
    top_parser.add_argument(
        "--runtime", action="store_true",
        help="drive a real asyncio cluster under pipelined load and "
             "serve per-node Prometheus /metrics endpoints",
    )
    top_parser.add_argument(
        "--commands", type=int, default=2000,
        help="--runtime only: proposals to pump through the pipeline",
    )
    top_parser.add_argument(
        "--jsonl", default=None, help="also export interval frames as JSONL"
    )
    top_parser.set_defaults(fn=cmd_top)

    figures_parser = sub.add_parser("figures", help="regenerate paper figures")
    figures_parser.add_argument("names", nargs="*", default=["all"])
    figures_parser.add_argument("--full", action="store_true")
    figures_parser.set_defaults(fn=cmd_figures)

    chaos_parser = sub.add_parser(
        "chaos", help="seeded fault-injection scenarios + safety checker"
    )
    chaos_parser.add_argument(
        "names", nargs="*", help="scenario names (default: full suite)"
    )
    chaos_parser.add_argument(
        "--smoke", action="store_true", help="quick CI subset"
    )
    chaos_parser.add_argument(
        "--durable-smoke", action="store_true",
        help="durable-storage CI subset (run with --storage disk for "
             "real files + fsync)",
    )
    chaos_parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    chaos_parser.add_argument(
        "--storage", choices=("mem", "disk"), default=None,
        help="override each scenario's storage substrate "
             "(default: the scenario's own; a durable restart needs one)",
    )
    chaos_parser.add_argument(
        "--storage-dir", default=None,
        help="root directory for --storage disk (default: per-run tmpdir)",
    )
    chaos_parser.set_defaults(fn=cmd_chaos)

    perf_parser = sub.add_parser(
        "perf", help="seeded feature A/B benches; writes BENCH_<stamp>.json"
    )
    perf_parser.add_argument(
        "benches", nargs="*",
        help="subset to run: telemetry_overhead serving geo (default: all)",
    )
    perf_parser.add_argument("--seed", type=int, default=1)
    perf_parser.add_argument(
        "--smoke", action="store_true", help="quick CI variant"
    )
    perf_parser.add_argument(
        "--out", default=None, help="datapoint path (default BENCH_<stamp>.json)"
    )
    perf_parser.set_defaults(fn=cmd_perf)

    mc_parser = sub.add_parser("modelcheck", help="exhaustive TLA+-mirror check")
    mc_parser.add_argument("--ballots", type=int, default=1)
    mc_parser.add_argument("--max-states", type=int, default=2_000_000)
    mc_parser.add_argument(
        "--quorum", choices=("majority", "flexible"),
        default="majority",
        help="quorum system to verify: intersection sweep at n=3..5, "
             "then the BFS state search under its families where they "
             "bind to 3 acceptors",
    )
    mc_parser.add_argument(
        "--prepare", type=int, default=4,
        help="--quorum flexible: phase-1 quorum size",
    )
    mc_parser.add_argument(
        "--accept", type=int, default=2,
        help="--quorum flexible: phase-2 (fast-path) quorum size",
    )
    mc_parser.set_defaults(fn=cmd_modelcheck)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
