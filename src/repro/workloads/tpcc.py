"""TPC-C command generator (Section VI-B).

As in the paper, only the *ordering* workload is reproduced: commands
carry the identifiers of the objects a TPC-C transaction would access
(warehouse, district, customer, stock rows); transaction execution
itself is out of scope ("the actual transaction processing has been
omitted").

Deployment shape follows the paper: :data:`WAREHOUSES_PER_NODE` · N
(10·N) warehouses, assigned to nodes round-robin, each with 10 districts
and 3000 customers per district and a 100k-item stock.  A warehouse is *local* to the node it
is assigned to.  ``remote_warehouse_prob`` is the Figure 8 knob: the
probability that a client targets a uniformly random warehouse instead
of a local one (0% in 8a, 15% in 8b).  Independent of it, 15% of
Payment transactions access a customer of another warehouse and ~1% of
New-Order stock lines come from a remote warehouse, per the TPC-C
specification.

Transaction mix (standard TPC-C): New-Order 45%, Payment 43%,
Order-Status 4%, Delivery 4%, Stock-Level 4%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.consensus.commands import Command

NEW_ORDER = "new_order"
PAYMENT = "payment"
ORDER_STATUS = "order_status"
DELIVERY = "delivery"
STOCK_LEVEL = "stock_level"

MIX = (
    (NEW_ORDER, 0.45),
    (PAYMENT, 0.43),
    (ORDER_STATUS, 0.04),
    (DELIVERY, 0.04),
    (STOCK_LEVEL, 0.04),
)

DISTRICTS_PER_WAREHOUSE = 10
CUSTOMERS_PER_DISTRICT = 3000
ITEMS = 100_000
WAREHOUSES_PER_NODE = 10


@dataclass(frozen=True)
class TpccConfig:
    remote_warehouse_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.remote_warehouse_prob <= 1.0:
            raise ValueError("remote_warehouse_prob must be in [0, 1]")


class TpccWorkload:
    """Generates TPC-C-shaped commands for an N-node cluster."""

    def __init__(self, config: TpccConfig, n_nodes: int, rng: random.Random) -> None:
        self.config = config
        self.n_nodes = n_nodes
        self.n_warehouses = WAREHOUSES_PER_NODE * n_nodes
        self._rng = rng
        self._seq = [0] * n_nodes

    # ------------------------------------------------------------------
    # Object naming
    # ------------------------------------------------------------------

    @staticmethod
    def warehouse(w: int) -> str:
        return f"w{w}"

    @staticmethod
    def district(w: int, d: int) -> str:
        return f"w{w}.d{d}"

    @staticmethod
    def customer(w: int, d: int, c: int) -> str:
        return f"w{w}.d{d}.c{c}"

    @staticmethod
    def stock(w: int, item: int) -> str:
        return f"w{w}.s{item}"

    def home_node(self, w: int) -> int:
        """Warehouses are assigned to nodes round-robin."""
        return w % self.n_nodes

    # ------------------------------------------------------------------
    # Transaction profiles
    # ------------------------------------------------------------------

    def _pick_profile(self) -> str:
        roll = self._rng.random()
        acc = 0.0
        for name, weight in MIX:
            acc += weight
            if roll < acc:
                return name
        return MIX[-1][0]

    def _pick_warehouse(self, node: int) -> int:
        if self._rng.random() < self.config.remote_warehouse_prob:
            return self._rng.randrange(self.n_warehouses)
        # A warehouse local to this node.
        local = [
            w for w in range(node, self.n_warehouses, self.n_nodes)
        ]
        return self._rng.choice(local)

    def _other_warehouse(self, w: int) -> int:
        other = self._rng.randrange(self.n_warehouses - 1)
        return other if other < w else other + 1

    def _new_order(self, w: int) -> set[str]:
        d = self._rng.randrange(DISTRICTS_PER_WAREHOUSE)
        objects = {self.warehouse(w), self.district(w, d)}
        n_lines = self._rng.randint(5, 15)
        for _line in range(n_lines):
            item = self._rng.randrange(ITEMS)
            supply_w = w
            if self._rng.random() < 0.01:  # 1% remote stock, per spec
                supply_w = self._other_warehouse(w)
            objects.add(self.stock(supply_w, item))
        return objects

    def _payment(self, w: int) -> set[str]:
        d = self._rng.randrange(DISTRICTS_PER_WAREHOUSE)
        customer_w, customer_d = w, d
        if self._rng.random() < 0.15:  # 15% remote customer, per spec
            customer_w = self._other_warehouse(w)
            customer_d = self._rng.randrange(DISTRICTS_PER_WAREHOUSE)
        c = self._rng.randrange(CUSTOMERS_PER_DISTRICT)
        return {
            self.warehouse(w),
            self.district(w, d),
            self.customer(customer_w, customer_d, c),
        }

    def _order_status(self, w: int) -> set[str]:
        d = self._rng.randrange(DISTRICTS_PER_WAREHOUSE)
        c = self._rng.randrange(CUSTOMERS_PER_DISTRICT)
        return {self.customer(w, d, c)}

    def _delivery(self, w: int) -> set[str]:
        objects = {self.warehouse(w)}
        for d in range(DISTRICTS_PER_WAREHOUSE):
            objects.add(self.district(w, d))
        return objects

    def _stock_level(self, w: int) -> set[str]:
        d = self._rng.randrange(DISTRICTS_PER_WAREHOUSE)
        return {self.district(w, d)}

    _PAYLOAD = {
        # Rough parameter sizes of each stored-procedure call; TPC-C
        # commands are bigger than the 16-byte synthetic payload, which
        # the paper notes lowers absolute throughput.
        NEW_ORDER: 120,
        PAYMENT: 60,
        ORDER_STATUS: 24,
        DELIVERY: 32,
        STOCK_LEVEL: 24,
    }

    def next_command(self, node: int) -> Command:
        seq = self._seq[node]
        self._seq[node] += 1
        profile = self._pick_profile()
        w = self._pick_warehouse(node)
        if profile == NEW_ORDER:
            objects = self._new_order(w)
        elif profile == PAYMENT:
            objects = self._payment(w)
        elif profile == ORDER_STATUS:
            objects = self._order_status(w)
        elif profile == DELIVERY:
            objects = self._delivery(w)
        else:
            objects = self._stock_level(w)
        return Command.make(
            node, seq, objects, payload_bytes=self._PAYLOAD[profile]
        )
