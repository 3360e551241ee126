"""One configuration object for a whole cluster deployment.

:class:`ClusterSpec` names everything that defines a run -- protocol,
cluster size, seed, network/CPU models, protocol tunables,
and durable storage -- and both substrates consume it:

- ``Cluster(spec)`` builds a simulated cluster;
- ``LocalCluster.from_spec(spec)`` builds the asyncio/TCP cluster.

The CLI paths (``run``/``compare``/``chaos``/``perf``) all funnel their
flags through a spec, and :meth:`ClusterSpec.from_dict` is the one
validated entry point for dict/JSON-shaped configuration: every unknown
key, wrong type, or bad value raises a single :class:`ConfigError`
naming the offending key path, instead of a ``TypeError`` from some
nested dataclass constructor three frames down.

The per-layer configs it holds (:class:`~repro.sim.network.NetworkConfig`,
:class:`~repro.sim.cpu.CpuConfig`, ...) are what each layer reads; a
spec is a frozen value, so a variant is ``dataclasses.replace(spec, ...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Optional

from repro.consensus.base import Protocol
from repro.core.m2.config import M2PaxosConfig
from repro.sim.cpu import CpuConfig
from repro.sim.network import NetworkConfig
from repro.storage.base import StorageConfig

PROTOCOLS = ("m2paxos", "multipaxos", "genpaxos", "epaxos")


class ConfigError(ValueError):
    """A configuration dict did not validate.

    The message always names the bad key path (``"network.bandwith"``,
    ``"storage.kind"``), so a typo in a config file surfaces as one
    actionable line rather than a dataclass traceback.
    """


@dataclass(frozen=True)
class ZoneLatency:
    """Zone-latency shorthand: two one-way delays instead of a matrix.

    Compiles to :class:`repro.sim.latency.TopologyLatency` via
    ``from_zones`` -- ``intra`` between same-zone nodes, ``inter``
    across zones, plus an optional symmetric ``jitter`` half-width.
    All values are **seconds** of one-way delay (the CLI's ``--zone-*``
    flags take milliseconds and convert).
    """

    intra: float = 0.0005
    inter: float = 0.04
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.intra < 0 or self.inter < 0:
            raise ValueError("zone latencies must be >= 0")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")


@dataclass(frozen=True)
class ClusterSpec:
    """Everything defining one cluster deployment, for either substrate.

    ``m2`` carries the M2Paxos tunables (ignored by other protocols);
    ``None`` means the bench-tuned defaults.  ``network`` and ``cpu``
    only affect the simulator (the runtime runs on real wires and
    cores); ``storage`` applies to both substrates.
    """

    protocol: str = "m2paxos"
    n_nodes: int = 3
    seed: int = 0
    network: NetworkConfig = field(default_factory=NetworkConfig)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    m2: Optional[M2PaxosConfig] = None
    storage: Optional[StorageConfig] = None
    # Geo deployments: ``zones[i]`` is the zone (region) of node ``i``.
    # Drives the zone-latency shorthand below, cross-zone wire counters,
    # and per-zone telemetry labels.  None means single-zone (the seed).
    zones: Optional[tuple[int, ...]] = None
    # Intra/inter-zone latency shorthand; compiled into a
    # ``TopologyLatency`` matrix that *replaces* ``network.latency`` in
    # the simulator.  Requires ``zones``.
    zone_latency: Optional[ZoneLatency] = None

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(
                f"protocol: must be one of {PROTOCOLS}, got {self.protocol!r}"
            )
        if self.n_nodes < 1:
            raise ConfigError(f"n_nodes: must be >= 1, got {self.n_nodes}")
        if self.zones is not None and len(self.zones) != self.n_nodes:
            raise ConfigError(
                f"zones: must assign all {self.n_nodes} nodes, "
                f"got {len(self.zones)} entries"
            )
        if self.zone_latency is not None and self.zones is None:
            raise ConfigError("zone_latency: requires zones to be set")

    def protocol_factory(self) -> Callable[[int, int], Protocol]:
        """The ``(node_id, n_nodes) -> Protocol`` factory for this spec:
        :func:`repro.bench.harness.make_factory` over ``m2``, or over the
        bench-tuned :data:`~repro.bench.harness.BENCH_M2` when it is None."""
        from repro.bench.harness import BENCH_M2, make_factory

        return make_factory(self.protocol, BENCH_M2 if self.m2 is None else self.m2)

    # ------------------------------------------------------------------
    # Validated construction from dict-shaped config
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSpec":
        """Build a spec from a (possibly JSON-loaded) dict, validating
        every key and value; any problem raises :class:`ConfigError`
        naming the bad key path.

        Sections ``network``, ``cpu``, ``m2``, and ``storage`` are
        nested dicts of scalar fields.  Non-scalar knobs (the network's
        ``latency`` model object, M2Paxos's ``home_hint``/``policy``
        callables) cannot be expressed in a dict and are rejected --
        construct the spec directly to set those.  Only the deployment
        is read: a subclass's load fields (a ``PointSpec``'s workload)
        are unknown keys here.
        """
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a dict, got {type(data).__name__}")
        known = {f.name for f in fields(ClusterSpec)}
        for key in data:
            if key not in known:
                raise ConfigError(f"unknown key {key!r}")
        kwargs: dict[str, Any] = {}
        if "protocol" in data:
            kwargs["protocol"] = _scalar("protocol", data["protocol"], str)
        for name in ("n_nodes", "seed"):
            if name in data:
                kwargs[name] = _scalar(name, data[name], int)
        if "network" in data:
            kwargs["network"] = _section(
                "network", data["network"], NetworkConfig, excluded=("latency",)
            )
        if "cpu" in data:
            kwargs["cpu"] = _section("cpu", data["cpu"], CpuConfig)
        if "m2" in data:
            kwargs["m2"] = _section(
                "m2",
                data["m2"],
                M2PaxosConfig,
                excluded=("home_hint", "policy", "quorum"),
            )
        if "storage" in data:
            kwargs["storage"] = _section(
                "storage", data["storage"], StorageConfig
            )
        if "zones" in data:
            kwargs["zones"] = _check_value(
                "zones", data["zones"], "Optional[tuple[int, ...]]"
            )
        if "zone_latency" in data:
            kwargs["zone_latency"] = _section(
                "zone_latency", data["zone_latency"], ZoneLatency
            )
        return cls(**kwargs)


# ----------------------------------------------------------------------
# Validation helpers
# ----------------------------------------------------------------------

def _scalar(path: str, value: Any, expected: type) -> Any:
    """Type-check one scalar config value, naming its key path."""
    if expected is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)  # JSON has no int/float distinction
    if expected is int and isinstance(value, bool):
        raise ConfigError(f"{path}: expected int, got bool")
    if not isinstance(value, expected):
        raise ConfigError(
            f"{path}: expected {expected.__name__}, "
            f"got {type(value).__name__} ({value!r})"
        )
    return value


def _check_value(path: str, value: Any, annotation: str) -> Any:
    """Map a dataclass field's annotation to a scalar check."""
    base = annotation.replace("Optional[", "").rstrip("]").strip()
    if base in ("int", "float", "str", "bool"):
        if value is None and "Optional" in annotation:
            return None
        return _scalar(path, value, {"int": int, "float": float,
                                     "str": str, "bool": bool}[base])
    if base.startswith("tuple[int"):
        if value is None and "Optional" in annotation:
            return None
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(
                f"{path}: expected a list of ints, got {value!r}"
            )
        return tuple(value)
    raise ConfigError(f"{path}: cannot be set from a dict")


def _section(name: str, data: Any, cls: type, excluded: tuple = ()) -> Any:
    """Build one nested config dataclass from a dict, validating keys,
    types, and (via the dataclass's own ``__post_init__``) values."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name}: expected a dict, got {type(data).__name__}")
    spec_fields = {f.name: f for f in fields(cls) if f.name not in excluded}
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key not in spec_fields:
            if key in excluded:
                raise ConfigError(f"{name}.{key}: cannot be set from a dict")
            raise ConfigError(f"unknown key {name + '.' + key!r}")
        kwargs[key] = _check_value(
            f"{name}.{key}", value, str(spec_fields[key].type)
        )
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
