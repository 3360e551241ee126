"""Per-figure experiment sweeps (Figures 1-8 of the paper).

Each ``figN()`` returns ``(rows, columns)`` where rows are dicts ready
for :func:`repro.bench.report.print_table`.  ``full=True`` runs the
paper's deployment sizes (up to 49 nodes -- several minutes per figure
in pure Python); the default "fast" mode uses a reduced node set with
identical mechanics, which is what the pytest benchmarks run.

Usage::

    python -m repro.bench.figures fig1          # fast mode
    python -m repro.bench.figures fig1 --full   # paper-scale sweep
    python -m repro.bench.figures all --full
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

from repro.bench.harness import BENCH_NETWORK, PointSpec, run_point, saturated_spec
from repro.bench.report import print_table
from repro.sim.cpu import CpuConfig
from repro.spec import PROTOCOLS
from repro.workloads.client import ClientConfig
from repro.workloads.synthetic import SyntheticConfig
from repro.workloads.tpcc import TpccConfig


NODES_FULL = (3, 5, 7, 11, 25, 49)
NODES_FAST = (3, 5, 11)


def _short_windows(spec: PointSpec) -> PointSpec:
    """Trim measurement windows for very large deployments, where each
    simulated second costs minutes of wall time."""
    if spec.n_nodes >= 25:
        return replace(spec, warmup=0.4, duration=0.2)
    return spec


def _max_throughput(protocol: str, n_nodes: int, **spec_kwargs) -> dict:
    spec = saturated_spec(PointSpec(protocol=protocol, n_nodes=n_nodes, **spec_kwargs))
    spec = _short_windows(spec)
    result = run_point(spec)
    return {
        "protocol": protocol,
        "nodes": n_nodes,
        "throughput": result.throughput,
        "p50_ms": result.latency.p50 * 1e3 if result.latency else float("nan"),
        "msgs": result.messages_sent,
    }


# ----------------------------------------------------------------------
# Figure 1: maximum attainable throughput vs node count, 100% locality.
# ----------------------------------------------------------------------


def fig1(full: bool = False):
    nodes = NODES_FULL if full else NODES_FAST
    rows = []
    for n in nodes:
        for protocol in PROTOCOLS:
            rows.append(_max_throughput(protocol, n))
    return rows, ["protocol", "nodes", "throughput"]


# ----------------------------------------------------------------------
# Figure 2: median latency without batching, light load.
# ----------------------------------------------------------------------


def fig2(full: bool = False):
    nodes = NODES_FULL if full else NODES_FAST
    rows = []
    for n in nodes:
        for protocol in PROTOCOLS:
            spec = PointSpec(
                protocol=protocol,
                n_nodes=n,
                network=replace(BENCH_NETWORK, batching=False),
                client=ClientConfig(
                    clients_per_node=4, think_time=0.01, max_inflight_per_node=8
                ),
                warmup=0.3,
                duration=0.5,
            )
            result = run_point(spec)
            rows.append(
                {
                    "protocol": protocol,
                    "nodes": n,
                    "p50_ms": result.latency.p50 * 1e3,
                    "p95_ms": result.latency.p95 * 1e3,
                }
            )
    return rows, ["protocol", "nodes", "p50_ms", "p95_ms"]


# ----------------------------------------------------------------------
# Figure 3: scalability at fixed per-node load (64 clients, 5 ms think).
# ----------------------------------------------------------------------


def fig3(full: bool = False):
    nodes = NODES_FULL if full else NODES_FAST
    rows = []
    for n in nodes:
        for protocol in PROTOCOLS:
            spec = PointSpec(
                protocol=protocol,
                n_nodes=n,
                client=ClientConfig(
                    clients_per_node=64, think_time=0.005, max_inflight_per_node=96
                ),
                warmup=0.5,
                duration=0.3,
            )
            spec = _short_windows(spec)
            result = run_point(spec)
            rows.append(
                {
                    "protocol": protocol,
                    "nodes": n,
                    "throughput": result.throughput,
                    "offered": 64 * n / 0.005 / 1000,  # k cmds/s, reference
                }
            )
    return rows, ["protocol", "nodes", "throughput"]


# ----------------------------------------------------------------------
# Figure 4: 11 nodes, CPU cores 4 -> 32.
# ----------------------------------------------------------------------


def fig4(full: bool = False):
    cores_sweep = (4, 8, 16, 32)
    # The core-scaling contrast needs the paper's 11-node deployment even
    # in fast mode: at smaller sizes every protocol is propose-bound and
    # gains from cores.
    n = 11
    rows = []
    for cores in cores_sweep:
        for protocol in PROTOCOLS:
            row = _max_throughput(protocol, n, cpu=CpuConfig(cores=cores))
            row["cores"] = cores
            rows.append(row)
    return rows, ["protocol", "cores", "throughput"]


# ----------------------------------------------------------------------
# Figure 5: latency vs throughput, 0% and 100% locality.
# ----------------------------------------------------------------------


def fig5(full: bool = False):
    nodes = (5, 11, 49) if full else (5, 11)
    think_sweep = (0.02, 0.008, 0.004, 0.002, 0.001)
    rows = []
    for n in nodes:
        for protocol in ("m2paxos", "epaxos"):
            for locality in (1.0, 0.0):
                for think in think_sweep:
                    spec = PointSpec(
                        protocol=protocol,
                        n_nodes=n,
                        synthetic=SyntheticConfig(locality=locality),
                        client=ClientConfig(
                            clients_per_node=32,
                            think_time=think,
                            max_inflight_per_node=64,
                        ),
                        warmup=0.4,
                        duration=0.25,
                    )
                    spec = _short_windows(spec)
                    result = run_point(spec)
                    rows.append(
                        {
                            "protocol": protocol,
                            "nodes": n,
                            "locality": locality,
                            "throughput": result.throughput,
                            "p50_ms": result.latency.p50 * 1e3
                            if result.latency
                            else float("nan"),
                        }
                    )
    return rows, ["protocol", "nodes", "locality", "throughput", "p50_ms"]


# ----------------------------------------------------------------------
# Figure 6: throughput vs fraction of non-local (remote) commands.
# ----------------------------------------------------------------------


def fig6(full: bool = False):
    nodes = (3, 11) if full else (3, 5)
    remote_sweep = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5) if full else (0.0, 0.1, 0.3)
    rows = []
    for n in nodes:
        for protocol in PROTOCOLS:
            for remote in remote_sweep:
                row = _max_throughput(
                    protocol,
                    n,
                    synthetic=SyntheticConfig(locality=1.0 - remote),
                )
                row["remote"] = remote
                rows.append(row)
    return rows, ["protocol", "nodes", "remote", "throughput"]


# ----------------------------------------------------------------------
# Figure 7: throughput vs fraction of complex commands (49 nodes).
# ----------------------------------------------------------------------


def fig7(full: bool = False):
    n = 49 if full else 11
    fractions = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0) if full else (0.0, 0.25, 0.75)
    local_sets = (10, 100, 1000)
    rows = []
    for local_set in local_sets:
        for fraction in fractions:
            row = _max_throughput(
                "m2paxos",
                n,
                synthetic=SyntheticConfig(
                    local_set_size=local_set, complex_fraction=fraction
                ),
            )
            row.update({"local_set": local_set, "complex": fraction})
            rows.append(row)
    # Baselines are insensitive to the local-set size; sweep them once.
    for protocol in ("multipaxos", "genpaxos", "epaxos"):
        for fraction in (fractions[0], fractions[-1]):
            row = _max_throughput(
                protocol,
                n,
                synthetic=SyntheticConfig(
                    local_set_size=100, complex_fraction=fraction
                ),
            )
            row.update({"local_set": 100, "complex": fraction})
            rows.append(row)
    return rows, ["protocol", "local_set", "complex", "throughput"]


# ----------------------------------------------------------------------
# Figure 8: TPC-C, up to 11 nodes, 0% / 15% remote warehouses.
# ----------------------------------------------------------------------


def fig8(full: bool = False):
    nodes = (3, 5, 7, 9, 11) if full else (3, 5)
    rows = []
    for remote in (0.0, 0.15):
        for n in nodes:
            for protocol in PROTOCOLS:
                spec = saturated_spec(
                    PointSpec(
                        protocol=protocol,
                        n_nodes=n,
                        workload="tpcc",
                        tpcc=TpccConfig(remote_warehouse_prob=remote),
                    )
                )
                result = run_point(spec)
                rows.append(
                    {
                        "protocol": protocol,
                        "nodes": n,
                        "remote_wh": remote,
                        "throughput": result.throughput,
                    }
                )
    return rows, ["protocol", "nodes", "remote_wh", "throughput"]


FIGURES = {
    "fig1": (fig1, "Fig. 1 -- max throughput vs nodes (100% locality)"),
    "fig2": (fig2, "Fig. 2 -- median latency, no batching"),
    "fig3": (fig3, "Fig. 3 -- scalability, 64 clients/node, 5 ms think"),
    "fig4": (fig4, "Fig. 4 -- throughput vs CPU cores"),
    "fig5": (fig5, "Fig. 5 -- latency vs throughput, 0%/100% locality"),
    "fig6": (fig6, "Fig. 6 -- throughput vs % non-local commands"),
    "fig7": (fig7, "Fig. 7 -- complex commands (local-set sweep)"),
    "fig8": (fig8, "Fig. 8 -- TPC-C, 0%/15% remote warehouses"),
}


def main(argv=None) -> None:
    argv = list(sys.argv[1:] if argv is None else argv)
    full = "--full" in argv
    if full:
        argv.remove("--full")
    targets = argv or ["all"]
    names = list(FIGURES) if targets == ["all"] else targets
    for name in names:
        fn, title = FIGURES[name]
        start = time.time()
        rows, columns = fn(full=full)
        print_table(f"{title} [{time.time() - start:.0f}s]", rows, columns)


if __name__ == "__main__":  # pragma: no cover
    main()
