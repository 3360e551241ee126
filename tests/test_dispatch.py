"""Dispatch-table coverage and sim-vs-runtime equivalence.

The :class:`~repro.consensus.base.Dispatcher` mixin replaced every
hand-written isinstance chain.  These tests prove (a) each protocol's
table covers every message type its module defines, so no message can
silently fall through, (b) unknown types still fail loudly, and (c) the
two drivers -- deterministic simulator and asyncio TCP runtime -- decide
the same commands in the same order for the same workload.
"""

import asyncio
from dataclasses import dataclass

import pytest

from repro.consensus import epaxos, genpaxos, multipaxos
from repro.consensus.base import Dispatcher, Message, handles
from repro.consensus.commands import Command
from repro.core import messages as m2_messages
from repro.core.protocol import M2Paxos
from repro.runtime.cluster import LocalCluster
from repro.sim.cluster import Cluster
from repro.spec import ClusterSpec


def message_types_in(module):
    """Every concrete Message subclass *defined* in ``module``."""
    return [
        obj
        for obj in vars(module).values()
        if isinstance(obj, type)
        and issubclass(obj, Message)
        and obj is not Message
        and obj.__module__ == module.__name__
    ]


# (protocol class, module whose Message subclasses it must handle)
CASES = [
    (M2Paxos, m2_messages),
    (epaxos.EPaxos, epaxos),
    (genpaxos.GenPaxos, genpaxos),
    (multipaxos.MultiPaxos, multipaxos),
]


class TestDispatchTables:
    @pytest.mark.parametrize(
        "protocol_cls,module", CASES, ids=[cls.__name__ for cls, _ in CASES]
    )
    def test_every_message_type_has_a_handler(self, protocol_cls, module):
        declared = message_types_in(module)
        assert declared, f"no Message subclasses found in {module.__name__}"
        for message_type in declared:
            handler = protocol_cls.dispatch_table.get(message_type)
            assert handler is not None, (
                f"{protocol_cls.__name__} has no handler for "
                f"{message_type.__name__}"
            )
            assert callable(handler)

    def test_unknown_message_raises(self):
        @dataclass(frozen=True)
        class Bogus(Message):
            pass

        protocol = M2Paxos()
        with pytest.raises(TypeError, match="unexpected message"):
            protocol.on_message(0, Bogus())

    def test_subclass_overrides_base_handler(self):
        @dataclass(frozen=True)
        class Ping(Message):
            pass

        class BaseProto(Dispatcher):
            @handles(Ping)
            def _on_ping(self, sender, msg):
                return "base"

        class SubProto(BaseProto):
            @handles(Ping)
            def _on_ping(self, sender, msg):
                return "sub"

        assert BaseProto.dispatch_table[Ping] is BaseProto.__dict__["_on_ping"]
        assert SubProto.dispatch_table[Ping] is SubProto.__dict__["_on_ping"]


class TestSimRuntimeEquivalence:
    """The same M2Paxos workload decides identically under both drivers."""

    N_NODES = 3
    N_COMMANDS = 5

    def commands(self):
        return [
            Command.make(0, seq, ["alpha"]) for seq in range(self.N_COMMANDS)
        ]

    def sim_orders(self):
        cluster = Cluster(
            ClusterSpec(n_nodes=self.N_NODES, seed=11),
            lambda i, n: M2Paxos(),
        )
        cluster.start()
        for command in self.commands():
            cluster.propose(0, command)
        cluster.run_for(10.0)
        cluster.check_consistency()
        return [
            tuple(c.cid for c in cluster.delivered(i))
            for i in range(self.N_NODES)
        ]

    def runtime_orders(self):
        async def scenario():
            cluster = LocalCluster(self.N_NODES, lambda i, n: M2Paxos())
            await cluster.start()
            try:
                for command in self.commands():
                    cluster.propose(0, command)
                await cluster.wait_delivered(self.N_COMMANDS)
                return [
                    tuple(c.cid for c in cluster.delivered(i))
                    for i in range(self.N_NODES)
                ]
            finally:
                await cluster.stop()

        return asyncio.run(asyncio.wait_for(scenario(), timeout=30))

    def test_same_decisions_under_both_drivers(self):
        sim = self.sim_orders()
        runtime = self.runtime_orders()
        expected = tuple((0, seq) for seq in range(self.N_COMMANDS))
        assert sim == [expected] * self.N_NODES
        assert runtime == sim
