"""A replicated bank ledger on top of M2Paxos.

Run:  python examples/bank_ledger.py

Transfers are commands accessing two account objects; deposits access
one.  Generalized Consensus lets transfers on disjoint account pairs
commute (they may be delivered in different orders on different
replicas), while transfers touching a common account are delivered in
the same order everywhere -- which is exactly what a deterministic
state machine needs.  The example replays each replica's delivery log
into a balance table and shows that all replicas converge.
"""

import random

from repro import Cluster, ClusterSpec, Command, M2Paxos

N_NODES = 5
ACCOUNTS = [f"acct-{i}" for i in range(8)]
INITIAL_BALANCE = 1_000
TRANSFERS = 60


def apply_log(delivered, operations):
    """Deterministically replay a delivery log into balances."""
    balances = {account: INITIAL_BALANCE for account in ACCOUNTS}
    for command in delivered:
        kind, payload = operations[command.cid]
        if kind == "transfer":
            src, dst, amount = payload
            if balances[src] >= amount:  # same rule on every replica
                balances[src] -= amount
                balances[dst] += amount
        else:
            account, amount = payload
            balances[account] += amount
    return balances


def main() -> None:
    rng = random.Random(7)
    cluster = Cluster(
        ClusterSpec(n_nodes=N_NODES, seed=7),
        lambda node_id, n: M2Paxos(),
    )
    cluster.start()

    operations = {}
    for seq in range(TRANSFERS):
        node = rng.randrange(N_NODES)
        if rng.random() < 0.8:
            src, dst = rng.sample(ACCOUNTS, 2)
            amount = rng.randint(1, 50)
            command = Command.make(node, seq, [src, dst], payload_bytes=24)
            operations[command.cid] = ("transfer", (src, dst, amount))
        else:
            account = rng.choice(ACCOUNTS)
            amount = rng.randint(1, 100)
            command = Command.make(node, seq, [account], payload_bytes=16)
            operations[command.cid] = ("deposit", (account, amount))
        cluster.propose(node, command)
        cluster.run_for(rng.random() * 0.005)

    cluster.run_for(5.0)
    cluster.check_consistency()

    ledgers = [apply_log(cluster.delivered(i), operations) for i in range(N_NODES)]
    reference = ledgers[0]
    agree = all(ledger == reference for ledger in ledgers)

    print(f"{TRANSFERS} operations across {N_NODES} replicas")
    print(f"replica delivery logs may differ in commuting order; "
          f"balances agree: {agree}")
    total = sum(reference.values())
    print(f"total money conserved: {total} "
          f"(expected >= {len(ACCOUNTS) * INITIAL_BALANCE})")
    for account in ACCOUNTS[:4]:
        print(f"  {account}: {reference[account]}")
    assert agree, "replicas diverged!"


if __name__ == "__main__":
    main()
