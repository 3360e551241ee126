"""One run of one workload: passes -> metrics.

``run_workload`` makes the passes, applies the determinism guard and
the timing rule (:mod:`perfbench.timing`) and returns every end-to-end
and per-layer metric named in ``BENCHMARK.json`` together with the host
fingerprint and the uncorrected wall figures.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import tempfile
from statistics import median

from repro.metrics.stats import percentile

from perfbench import workloads
from perfbench.refkernel import REF_S
from perfbench.timing import per_chunk_median, t_ref
from perfbench.tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
HANDLER_TYPES = ("Accept", "AckAccept", "Decide", "Prepare", "AckPrepare", "Forward")


def load_schema() -> dict:
    """``BENCHMARK.json``: the one list of metric names and units."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def host_fingerprint(storage_dir: str) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": sys.version.split()[0],
        "storage_dir": os.path.relpath(storage_dir, os.path.dirname(HERE)),
        "device_flush": "not issued (as on tmpfs); see workloads._NoDeviceFlush",
    }


def _determinism(name: str, substrate: str, passes) -> tuple[list[str], list[str]]:
    """Passes must be the same work: per-chunk delivered counts and
    per-type message counts equal.  ``(errors, warnings)`` -- the
    simulator must repeat exactly; TCP timing may move a batch boundary,
    which is recorded and does not fail the run."""
    first = passes[0]
    same = all(
        p.delivered == first.delivered and p.messages == first.messages
        for p in passes[1:]
    )
    if same:
        return [], []
    totals = [(p.delivered[-1], sum(p.messages[-1].values())) for p in passes]
    text = f"{name}: passes differ in (delivered, messages): {totals}"
    return ([text], []) if substrate == "sim" else ([], [text])


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
    import_ref_s: float = 0.0,
) -> dict:
    workload = workloads.WORKLOADS[name].sized(quick)
    n_passes = workload.passes(seconds, quick)
    plan = workloads.tcp_plan(workload, seed) if workload.substrate == "tcp" else None
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    fingerprint = host_fingerprint(scratch)

    def one_pass(tracer=None):
        storage_dir = tempfile.mkdtemp(dir=scratch)
        try:
            return workloads.run_pass(workload, seed, plan, storage_dir, tracer)
        finally:
            shutil.rmtree(storage_dir, ignore_errors=True)

    try:
        # A traced run spends its last pass traced, so it measures for
        # as long as an untraced one.
        untraced = max(n_passes - 1, 1) if trace else n_passes
        passes = [one_pass() for _ in range(untraced)]
        traced = tracer = None
        if trace:
            with Tracer() as tracer:
                traced = one_pass(tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    everything = passes + ([traced] if traced else [])
    errors, warnings = _determinism(name, workload.substrate, passes)
    problems = errors + [f"pass {i}: {p}" for i, run in enumerate(everything) for p in run.problems]
    attempted = sum(run.attempted for run in everything)
    failed = attempted if errors else sum(run.attempted for run in everything if run.problems)

    verdict = {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "warnings": warnings,
    }
    if problems:
        return verdict

    first = passes[0]
    commands = first.delivered[-1]
    pass_ref = t_ref([p.chunk_ref for p in passes])
    wall = median(sum(p.chunk_wall) for p in passes)
    kernels = [c for p in passes for c in p.timer.kernels]
    if workload.substrate == "sim":
        # Virtual time: exact for a seed, moves only with protocol behaviour.
        p50_ms = raw_p50_ms = first.virtual["p50_ms"]
        p99_ms = first.virtual["p99_ms"]
        samples = first.virtual["latency_samples"]
    else:
        latencies_ms = [
            sample * scale * 1e3
            for p in passes
            for scale, chunk in zip(p.chunk_scale, p.latencies)
            for sample in chunk
        ]
        p50_ms = percentile(latencies_ms, 50)
        p99_ms = percentile(latencies_ms, 99)
        samples = len(latencies_ms)
        raw_p50_ms = 1e3 * percentile(
            [s for p in passes for chunk in p.latencies for s in chunk], 50
        )
    host = {
        **fingerprint,
        "speed_factor": median(kernels) / REF_S,
        "speed_spread": percentile(kernels, 90) / percentile(kernels, 10),
    }
    report = {
        **verdict,
        "commands_per_pass": commands,
        "latency_samples": samples,
        "end_to_end": {
            "setup_s": import_ref_s + median(p.setup_ref for p in passes),
            "throughput_cps": commands / pass_ref,
            "latency_p50_ms": p50_ms,
            # Resident set when a pass's measured work ends (its peak:
            # logs only grow), before the correctness gate allocates its
            # own copies of every log.
            "peak_rss_mb": median(p.rss_end_kb for p in passes) / 1024,
        },
        "host": host,
        "uncorrected": {
            "setup_wall_s": median(p.timer.wall[0] for p in passes),
            "pass_wall_s": wall,
            "each_pass_wall_s": [sum(p.chunk_wall) for p in passes],
            "each_pass_ref_s": [sum(p.chunk_ref) for p in passes],
            "throughput_wall_cps": commands / wall,
            "latency_p50_wall_ms": raw_p50_ms,
        },
        # Chunk 0 of each pass is set-up; kernel readings bracket every chunk.
        "chunks": [
            {
                "wall_s": p.timer.wall,
                "kernel_s": p.timer.kernels,
                "cpu_s": p.timer.cpu,
                "rss_end_kb": p.rss_end_kb,
            }
            for p in passes
        ],
    }
    if trace:
        report["per_layer"], layers = _per_layer(
            workload, passes, traced, tracer, pass_ref, wall, p99_ms, host
        )
        tracer.write(
            os.path.join(OUT_DIR, f"{name}.trace.json"),
            {
                "workload": name,
                "seed": seed,
                "traced_commands": traced.delivered[-1],
                "traced_ref_s": sum(traced.chunk_ref),
                "self_ref_us_per_cmd": layers,
            },
        )
    return report


def _per_layer(workload, passes, traced, tracer, pass_ref, wall, p99_ms, host):
    """Every per-layer metric; layers that do no work on this workload
    report 0 (the prediction the README's interaction table makes)."""
    first = passes[0]
    commands = first.delivered[-1]
    kcmd = first.total_delivered / 1000  # stats cover warm-up and drain too
    messages = first.messages[-1]
    stats = first.stats
    sim = workload.substrate == "sim"

    seconds, calls = tracer.self_times(traced.chunk_scale)
    traced_commands = traced.delivered[-1]
    traced_ref = sum(traced.chunk_ref)
    measured = sum(seconds.values())

    def us(*names: str) -> float:
        return 1e6 * sum(seconds.get(n, 0.0) for n in names) / traced_commands

    def per_cmd(name: str) -> float:
        return calls.get(name, 0) / traced_commands

    rounds = messages.get("Accept", 0) / (
        workloads.SIM_NODES if sim else workloads.TCP_NODES
    )
    events = first.virtual.get("events", 0)
    wire_bytes = tracer.marks[-1][1] - tracer.marks[0][1]
    metrics = {
        "codec.encode_us_per_cmd": us("codec.encode"),
        "codec.decode_us_per_cmd": us("codec.decode"),
        "codec.frames_per_cmd": per_cmd("codec.encode"),
        "codec.wire_bytes_per_cmd": wire_bytes / traced_commands,
        "node.flushes_per_cmd": first.flushes[-1] / commands,
        "node.msgs_per_cmd": sum(messages.values()) / commands,
        "node.run_event_us_per_cmd": us("node.run_event", "node.enqueue", "node.propose"),
        "runtime.other_us_per_cmd": 1e6 * (traced_ref - measured) / traced_commands,
        "m2.propose_us_per_cmd": us("m2.propose"),
        "m2.cmds_per_accept_round": commands / rounds,
        "m2.fast_path_share": stats["fast_path"]
        / max(stats["fast_path"] + stats["forwarded"] + stats["acquisitions"], 1),
        "m2.forwarded_per_kcmd": stats["forwarded"] / kcmd,
        "m2.acquisitions_per_kcmd": stats["acquisitions"] / kcmd,
        "m2.accept_nacks_per_kcmd": stats["accept_nacks"] / kcmd,
        "m2.prepare_nacks_per_kcmd": stats["prepare_nacks"] / kcmd,
        "m2.gap_recoveries_per_kcmd": stats["gap_recoveries"] / kcmd,
        "delivery.pump_us_per_cmd": us("delivery.pump"),
        "delivery.pump_calls_per_cmd": per_cmd("delivery.pump"),
        "storage.append_us_per_cmd": us("storage.encode", "storage.append"),
        "storage.commit_us_per_cmd": us("storage.commit"),
        "storage.fsyncs_per_kcmd": first.fsyncs / kcmd,
        "storage.bytes_per_cmd": first.storage_bytes / commands,
        "sim.events_per_cmd": events / commands,
        "sim.events_per_wall_s": events / wall if sim else 0.0,
        "sim.loop_us_per_event": (
            1e6 * seconds.get("sim.loop", 0.0) / traced.virtual["events"] if sim else 0.0
        ),
        "sim.network_us_per_cmd": us("sim.network"),
        "sim.msgs_per_cmd": sum(messages.values()) / commands if sim else 0.0,
        "sim.virtual_throughput_cps": first.virtual.get("throughput_cps", 0.0),
        "sim.virtual_p99_ms": first.virtual.get("p99_ms", 0.0),
        "process.cpu_us_per_cmd": 1e6
        * sum(per_chunk_median([p.chunk_cpu_ref for p in passes]))
        / commands,
        "mem.rss_growth_kb_per_kcmd": (first.rss_end_kb - first.rss_start_kb) / kcmd,
        "client.latency_p99_ms": p99_ms,
        "client.raw_throughput_cps": commands / wall,
        "host.speed_factor": host["speed_factor"],
        "host.speed_spread": host["speed_spread"],
        "obs.trace_overhead": traced_ref / pass_ref,
    }
    for kind in HANDLER_TYPES:
        metrics[f"m2.handler.{kind}.us_per_cmd"] = us(f"m2.handler.{kind}")
        metrics[f"m2.handler.{kind}.calls_per_cmd"] = per_cmd(f"m2.handler.{kind}")
    layers = {name: 1e6 * value / traced_commands for name, value in seconds.items()}
    layers["runtime.other"] = metrics["runtime.other_us_per_cmd"]
    return metrics, layers
