"""ClusterSpec: the one config object both substrates consume.

Covers validated construction from dicts (every error names the bad
key path), compilation down to the per-layer configs, and building a
running cluster on each substrate from one spec.
"""

import pytest

from repro.sim.cluster import Cluster
from repro.sim.cpu import CpuConfig
from repro.sim.network import NetworkConfig
from repro.spec import PROTOCOLS, ClusterSpec, ConfigError
from repro.storage.base import StorageConfig


class TestConstruction:
    def test_defaults(self):
        spec = ClusterSpec()
        assert spec.protocol == "m2paxos"
        assert spec.n_nodes == 3
        assert spec.storage is None

    def test_bad_protocol(self):
        with pytest.raises(ConfigError, match="protocol"):
            ClusterSpec(protocol="raft")

    def test_bad_n_nodes(self):
        with pytest.raises(ConfigError, match="n_nodes"):
            ClusterSpec(n_nodes=0)

    def test_with_storage_replaces_only_storage(self):
        spec = ClusterSpec(n_nodes=5)
        durable = spec.with_storage(StorageConfig(kind="mem"))
        assert durable.storage.kind == "mem"
        assert durable.n_nodes == 5
        assert spec.storage is None  # original untouched (frozen)


class TestFromDict:
    def test_empty_dict_is_defaults(self):
        spec = ClusterSpec.from_dict({})
        defaults = ClusterSpec()
        # The network default carries a LatencyModel instance without
        # structural equality, so compare the scalar fields.
        assert (spec.protocol, spec.n_nodes, spec.seed) == (
            defaults.protocol,
            defaults.n_nodes,
            defaults.seed,
        )
        assert spec.m2 is None and spec.storage is None

    def test_happy_path_full(self):
        spec = ClusterSpec.from_dict(
            {
                "protocol": "multipaxos",
                "n_nodes": 5,
                "seed": 42,
                "network": {"bandwidth": 1e9, "batching": False},
                "cpu": {"cores": 4, "speed": 2.0},
                "storage": {"kind": "mem", "snapshot_every": 100},
            }
        )
        assert spec.protocol == "multipaxos"
        assert spec.n_nodes == 5
        assert spec.network.bandwidth == 1e9
        assert spec.network.batching is False
        assert spec.cpu.cores == 4
        assert spec.storage.kind == "mem"
        assert spec.storage.snapshot_every == 100

    def test_m2_section(self):
        spec = ClusterSpec.from_dict({"m2": {"batch_wait": 0.002}})
        assert spec.m2.batch_wait == 0.002

    def test_not_a_dict(self):
        with pytest.raises(ConfigError, match="must be a dict"):
            ClusterSpec.from_dict([("n_nodes", 3)])

    @pytest.mark.parametrize(
        "key, value",
        # A typo, and the two runtime switches that no longer exist.
        [("protcol", "m2paxos"), ("codec", "json"), ("uvloop", True)],
    )
    def test_unknown_top_level_key_named(self, key, value):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            ClusterSpec.from_dict({key: value})

    def test_unknown_nested_key_named_with_path(self):
        with pytest.raises(ConfigError, match="'network.bandwith'"):
            ClusterSpec.from_dict({"network": {"bandwith": 1e9}})

    def test_non_scalar_fields_rejected_by_path(self):
        with pytest.raises(ConfigError, match="network.latency"):
            ClusterSpec.from_dict({"network": {"latency": 0.0001}})
        with pytest.raises(ConfigError, match="m2.home_hint"):
            ClusterSpec.from_dict({"m2": {"home_hint": "x"}})

    def test_scalar_type_error_names_path(self):
        with pytest.raises(ConfigError, match="n_nodes"):
            ClusterSpec.from_dict({"n_nodes": "three"})
        with pytest.raises(ConfigError, match="cpu.cores"):
            ClusterSpec.from_dict({"cpu": {"cores": "many"}})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="n_nodes"):
            ClusterSpec.from_dict({"n_nodes": True})

    def test_int_promotes_to_float(self):
        # JSON has no int/float distinction; 2 must satisfy a float field.
        spec = ClusterSpec.from_dict({"cpu": {"speed": 2}})
        assert spec.cpu.speed == 2.0

    def test_capacity_nodes_list_coerced_to_tuple(self):
        spec = ClusterSpec.from_dict(
            {"storage": {"kind": "mem", "capacity_nodes": [0, 2]}}
        )
        assert spec.storage.capacity_nodes == (0, 2)

    def test_capacity_nodes_rejects_non_ints(self):
        with pytest.raises(ConfigError, match="storage.capacity_nodes"):
            ClusterSpec.from_dict(
                {"storage": {"kind": "mem", "capacity_nodes": ["a"]}}
            )

    def test_section_post_init_error_wrapped(self):
        # StorageConfig's own __post_init__ rejects bad kinds; from_dict
        # must surface that as a ConfigError naming the section.
        with pytest.raises(ConfigError, match="storage"):
            ClusterSpec.from_dict({"storage": {"kind": "tape"}})
        with pytest.raises(ConfigError, match="cpu"):
            ClusterSpec.from_dict({"cpu": {"cores": 0}})

    def test_section_must_be_dict(self):
        with pytest.raises(ConfigError, match="network"):
            ClusterSpec.from_dict({"network": "fast"})

    def test_bad_choice_propagates_from_post_init(self):
        with pytest.raises(ConfigError, match="protocol"):
            ClusterSpec.from_dict({"protocol": "raft"})


class TestCompilation:
    def test_sim_cluster_config_carries_fields(self):
        storage = StorageConfig(kind="mem")
        spec = ClusterSpec(
            n_nodes=7,
            seed=9,
            network=NetworkConfig(bandwidth=1e9),
            cpu=CpuConfig(cores=2),
            storage=storage,
        )
        config = spec.sim_cluster_config()
        assert config.n_nodes == 7
        assert config.seed == 9
        assert config.network.bandwidth == 1e9
        assert config.cpu.cores == 2
        assert config.storage is storage

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_protocol_factory_builds_each_protocol(self, protocol):
        spec = ClusterSpec(protocol=protocol)
        proto = spec.protocol_factory()(0, 3)
        assert hasattr(proto, "bind")

    def test_m2_tunables_reach_the_protocol(self):
        from repro.core.protocol import M2PaxosConfig

        spec = ClusterSpec(m2=M2PaxosConfig(batch_wait=0.007))
        proto = spec.protocol_factory()(0, 3)
        assert proto.config.batch_wait == 0.007


class TestClusterFromSpec:
    def test_sim_cluster_runs_from_spec(self):
        from repro.consensus.commands import Command

        spec = ClusterSpec(n_nodes=3, seed=5)
        cluster = Cluster.from_spec(spec)
        for i in range(6):
            cluster.loop.schedule_at(
                0.001 * (i + 1),
                lambda i=i: cluster.propose(
                    i % 3, Command.make(i % 3, i, (f"obj-{i % 2}",))
                ),
            )
        cluster.run_until(2.0)
        cluster.check_consistency()
        assert all(len(n.delivered) == 6 for n in cluster.nodes)

    def test_storage_from_spec_is_attached(self):
        spec = ClusterSpec(storage=StorageConfig(kind="mem"))
        cluster = Cluster.from_spec(spec)
        assert all(n.env.storage.durable for n in cluster.nodes)
        cluster.close_storage()
