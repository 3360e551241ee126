"""ClusterSpec: the one config object both substrates consume.

Covers validated construction (every error names the bad field), the
protocol factory a spec names (and that no other protocol exists), and
building a running cluster from one spec, on either substrate.
"""

import asyncio
import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.bench.harness import protocol_factory
from repro.consensus.base import Env, Protocol
from repro.consensus.commands import Command
from repro.consensus.epaxos import EPaxos
from repro.consensus.multipaxos import MultiPaxos
from repro.core.protocol import M2PaxosConfig
from repro.runtime.cluster import LocalCluster
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

    def test_sections_validate_their_own_values(self):
        # Each section dataclass checks its values in __post_init__.
        with pytest.raises(ValueError, match="storage kind"):
            StorageConfig(kind="tape")
        with pytest.raises(ValueError, match="cores"):
            CpuConfig(cores=0)


class TestCompilation:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_protocol_factory_builds_each_protocol(self, protocol):
        spec = ClusterSpec(protocol=protocol)
        proto = spec.protocol_factory()(0, 3)
        assert hasattr(proto, "bind")

    @staticmethod
    def _concrete_subclasses(base):
        """Every non-abstract subclass of ``base`` defined under ``repro.``,
        after importing every module of the package."""
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith("__main__"):
                importlib.import_module(module.name)
        found, stack = set(), [base]
        while stack:
            for sub in stack.pop().__subclasses__():
                stack.append(sub)
                if sub.__module__.startswith("repro.") and not inspect.isabstract(sub):
                    found.add(sub)
        return found

    def test_every_protocol_class_is_one_a_figure_runs(self):
        """No protocol lives in ``repro`` that no figure plots: every
        concrete Protocol is built by the bench factory for a name in
        PROTOCOLS."""
        defined = self._concrete_subclasses(Protocol)
        built = {type(protocol_factory(name)(0, 3)) for name in PROTOCOLS}
        assert defined == built, sorted(cls.__qualname__ for cls in defined ^ built)

    def test_the_only_envs_are_the_two_substrates(self):
        """A protocol runs on the simulator or the TCP runtime and
        nothing else: no wrapper Env sits between a protocol and its
        substrate."""
        names = {cls.__qualname__ for cls in self._concrete_subclasses(Env)}
        assert names == {"SimEnv", "RuntimeEnv"}

    def test_m2_tunables_reach_the_protocol(self):
        spec = ClusterSpec(m2=M2PaxosConfig(batch_wait=0.007))
        proto = spec.protocol_factory()(0, 3)
        assert proto.config.batch_wait == 0.007


class TestClusterFromSpec:
    def test_cluster_carries_spec_fields_to_nodes_and_network(self):
        spec = ClusterSpec(
            n_nodes=7,
            seed=9,
            network=NetworkConfig(batching=False),
            cpu=CpuConfig(cores=2),
            storage=StorageConfig(kind="mem"),
        )
        cluster = Cluster(spec)
        assert cluster.config is spec
        assert len(cluster.nodes) == 7
        assert cluster.rng.master_seed == 9
        assert cluster.network.config.batching is False
        assert all(node.cpu.config.cores == 2 for node in cluster.nodes)
        assert all(node.env.storage.durable for node in cluster.nodes)
        cluster.close_storage()

    def test_explicit_factory_wins_over_spec_protocol(self):
        spec = ClusterSpec(protocol="epaxos", n_nodes=3)
        assert isinstance(Cluster(spec).nodes[0].protocol, EPaxos)
        cluster = Cluster(spec, lambda node_id, n: MultiPaxos())
        assert all(isinstance(n.protocol, MultiPaxos) for n in cluster.nodes)

    def test_zero_nodes_is_a_value_error(self):
        with pytest.raises(ValueError, match="n_nodes"):
            Cluster(ClusterSpec(n_nodes=0))

    def test_sim_cluster_runs_from_a_spec(self):
        spec = ClusterSpec(n_nodes=3, seed=5)
        cluster = Cluster(spec)
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
        cluster = Cluster(spec)
        assert all(n.env.storage.durable for n in cluster.nodes)
        cluster.close_storage()

    def test_local_cluster_from_spec_carries_the_spec_to_tcp_nodes(self):
        """The TCP half of "one ``ClusterSpec`` for both substrates"."""
        spec = ClusterSpec(
            n_nodes=4,
            m2=M2PaxosConfig(supervise_timeout=0.75),
            storage=StorageConfig(kind="mem"),
        )
        cluster = LocalCluster.from_spec(spec)
        assert len(cluster.nodes) == 4 and len(cluster.peers) == 4
        assert all(n.protocol.config.supervise_timeout == 0.75 for n in cluster.nodes)
        assert all(n.env.storage.durable for n in cluster.nodes)

        async def main():
            await cluster.start()
            try:
                cluster.propose(2, Command.make(2, 0, ["spec"]))
                await cluster.wait_delivered(1)
            finally:
                await cluster.stop()

        asyncio.run(main())
        assert all(
            [c.cid for c in cluster.delivered(i)] == [(2, 0)] for i in range(4)
        )
