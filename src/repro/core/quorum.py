"""The Paxos kernel: ballot order, quorum sizes, value selection, and
the two quorum systems a run uses.

Every protocol here is Paxos underneath, so the rules they share are
written once, in this module, for all four:

- **Ballot order** (:func:`next_ballot`): ballots are striped
  ``k * n + node``, so no two nodes ever run rounds at the same ballot.
  M2Paxos's epochs, Multi-Paxos's views, Generalized Paxos's classic
  rounds and EPaxos's recovery ballots all come from it.
- **Quorum sizes per round kind**: the classic majority
  (:func:`classic_quorum`), Fast Paxos's fast quorum
  (:func:`fast_quorum`) and the phase-1 quorum that makes its fast
  rounds recoverable (:func:`fast_recovery_quorum`), and EPaxos's fast
  quorum (:func:`epaxos_fast_quorum`).
- **Value selection after phase 1**: the classic rule
  (:func:`highest_ballot`) and the Fast Paxos rule
  (:func:`fast_paxos_value`).
- **Quorum systems** for M2Paxos: :class:`MajorityQuorums` (the default,
  both phases at the classic size) and :class:`FlexibleQuorums`
  (explicit phase-1/phase-2 sizes per *Flexible Paxos* / *Fast Flexible
  Paxos*: any ``prepare + accept > n`` split is safe, so a WAN
  deployment can shrink the accept quorum every fast-path round waits
  for by growing the prepare quorum only acquisitions pay).

Why the *pairwise* prepare∩accept condition is the load-bearing one
for M2Paxos: in Fast Paxos (SNIPPETS.md FastPaxos.tla) any two fast
quorums and any classic quorum must share an acceptor, because
distinct proposers may race values into the *same* fast round.  M2Paxos
takes its epochs from :func:`next_ballot`, so every accept round --
fast path included -- has a unique coordinator and same-round
collisions cannot exist; what safety needs is exactly the Flexible
Paxos condition that every prepare quorum intersects every accept
quorum.  :func:`check_intersections` verifies that for a bound system;
:func:`check_fast_collision_intersections` reports the stricter
FastPaxos triple condition, which Generalized Paxos's sizes must meet.
``repro modelcheck`` drives both, plus a state-space search under the
configured families (`core/modelcheck.py`).
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from itertools import combinations
from operator import itemgetter
from typing import Callable, Iterable, Optional, TypeVar

Vote = TypeVar("Vote")


# ----------------------------------------------------------------------
# Ballot order
# ----------------------------------------------------------------------


def next_ballot(floor: int, node: int, n: int) -> int:
    """``node``'s first ballot in the stripe after ``floor``'s:
    ``(floor // n + 1) * n + node``.

    Always greater than ``floor`` and congruent to ``node`` modulo
    ``n``, so two nodes never pick the same ballot.  It is not always
    the smallest such ballot: the rest of ``floor``'s stripe is
    skipped, so floor 0, node 3, n 5 gives 8, not 3.
    """
    return (floor // n + 1) * n + node


# ----------------------------------------------------------------------
# Quorum sizes per round kind
# ----------------------------------------------------------------------


def _cluster(n: int) -> int:
    if n < 1:
        raise ValueError("need at least one node")
    return n


def classic_quorum(n: int) -> int:
    """Classic (majority) quorum, both phases: ``floor(n/2) + 1``."""
    return _cluster(n) // 2 + 1


def fast_quorum(n: int) -> int:
    """Fast Paxos / Generalized Paxos fast quorum: ``floor(2n/3) + 1``."""
    return (2 * _cluster(n)) // 3 + 1


def fast_recovery_quorum(n: int) -> int:
    """Phase-1 quorum of a classic round that recovers a fast one.

    A value a fast quorum may have chosen must out-vote any rival inside
    the prepare quorum ``q``, so ``q > 2 * (n - fast_quorum(n))``
    (FastPaxos.tla's ``FastAssume`` with fast quorums of that size).
    It exceeds a bare majority from n = 7 on -- one of the larger-quorum
    costs of Generalized Paxos the paper calls out.
    """
    return max(classic_quorum(n), 2 * (n - fast_quorum(n)) + 1)


def epaxos_fast_quorum(n: int) -> int:
    """EPaxos fast quorum: ``F + floor((F+1)/2)`` where ``n = 2F + 1``.

    For n <= 5 this equals the classic majority (the 'optimized EPaxos'
    quorum), which is why EPaxos tracks M2Paxos up to 5-7 nodes in the
    paper's Figure 3 and then falls behind.
    """
    f = (_cluster(n) - 1) // 2
    return f + (f + 1) // 2


# ----------------------------------------------------------------------
# Value selection
# ----------------------------------------------------------------------


def highest_ballot(
    votes: Iterable[Vote], ballot: Callable[[Vote], int] = itemgetter(0)
) -> Optional[Vote]:
    """The classic Paxos rule: of the votes a phase-1 quorum reported,
    the one cast at the highest ballot (``ballot(vote)``, by default
    its first item); on a tie the first one seen wins.  ``None`` when
    nothing was voted, and the coordinator may propose any value."""
    return max(votes, key=ballot, default=None)


def fast_paxos_value(
    votes: Iterable[tuple[int, Vote]],
    ident: Callable[[Vote], object] = lambda value: value,
) -> Optional[Vote]:
    """The Fast Paxos rule over ``(ballot, value)`` votes: the value
    voted most often at the highest ballot present, ties going to the
    larger ``ident(value)``.  ``None`` when nothing was voted.

    It returns every value SNIPPETS.md #2's ``ValueForAccept`` forces
    -- the only value at the top ballot, or one holding a strict
    majority of the votes there -- so it agrees with ``ValueForAccept``
    whenever a value may have been fast-chosen: with
    :func:`fast_recovery_quorum` replies, such a value holds more than
    half of them.  Where ``ValueForAccept`` allows any value, this rule
    still picks one, deterministically.
    """
    top = -1
    tally: dict[object, tuple[int, Vote]] = {}
    for ballot, value in votes:
        if ballot > top:
            top, tally = ballot, {}
        if ballot == top:
            key = ident(value)
            count, _ = tally.get(key, (0, value))
            tally[key] = (count + 1, value)
    if not tally:
        return None
    _key, (_count, value) = max(
        tally.items(), key=lambda item: (item[1][0], item[0])
    )
    return value


# ----------------------------------------------------------------------
# Quorum systems
# ----------------------------------------------------------------------


class QuorumSystem(ABC):
    """A phase-1 (``prepare``) and a phase-2 (``accept``) quorum size
    for one cluster size.

    Instances are specs until :meth:`bind` gives them a cluster size
    ``n``; :meth:`build` binds and also rejects a system whose prepare
    and accept quorums can miss each other.  The bound copy is what the
    protocol queries.  Specs are cheap value objects, safe to share
    between the nodes of a cluster -- each node queries, never mutates.
    """

    n: Optional[int] = None
    prepare: int
    accept: int

    def bind(self, n: int) -> "QuorumSystem":
        """A copy bound to a cluster of ``n`` nodes, its sizes checked
        against ``n`` but not against each other."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        bound = copy.copy(self)
        bound.n = n
        bound._bind_sizes()
        return bound

    def build(self, n: int) -> "QuorumSystem":
        """:meth:`bind`, then refuse a system that violates the
        prepare/accept intersection condition.  For quorums by size that
        is ``prepare + accept > n`` (Flexible Paxos), which is
        :func:`check_intersections`'s enumeration in closed form."""
        bound = self.bind(n)
        if bound.prepare + bound.accept <= n:
            raise ValueError(
                f"{bound.describe()} violates the prepare/accept "
                f"intersection condition: {bound.prepare} + "
                f"{bound.accept} <= {n}, so some quorums are disjoint"
            )
        return bound

    @abstractmethod
    def _bind_sizes(self) -> None:
        """Set or check the sizes against ``self.n``."""

    @abstractmethod
    def describe(self) -> str: ...

    # -- membership predicates (the protocol's hot-path queries) -------

    def is_accept_quorum(self, voters: Iterable[int]) -> bool:
        """Phase-2 quorum test: do ``voters`` decide an accept round?"""
        return len(set(voters)) >= self.accept

    def is_prepare_quorum(self, voters: Iterable[int]) -> bool:
        """Phase-1 quorum test: do ``voters`` complete a prepare round?"""
        return len(set(voters)) >= self.prepare

    # -- family enumeration (modelcheck / validation) ------------------

    def accept_quorums(self) -> list[frozenset[int]]:
        """The minimal accept (classic-phase-2 / fast-path) quorums."""
        assert self.n is not None
        return [frozenset(q) for q in combinations(range(self.n), self.accept)]

    def prepare_quorums(self) -> list[frozenset[int]]:
        """The minimal prepare (classic-phase-1) quorums."""
        assert self.n is not None
        return [frozenset(q) for q in combinations(range(self.n), self.prepare)]


class MajorityQuorums(QuorumSystem):
    """The seed's system: :func:`classic_quorum` for both phases."""

    def _bind_sizes(self) -> None:
        assert self.n is not None
        self.prepare = self.accept = classic_quorum(self.n)

    def describe(self) -> str:
        if self.n is None:
            return "majority"
        return f"majority(n={self.n}, quorum={self.accept})"


class FlexibleQuorums(QuorumSystem):
    """Explicit ``(prepare, accept)`` sizes per Fast Flexible Paxos.

    ``prepare + accept > n`` is required (checked at :meth:`build`):
    every phase-1 quorum then overlaps every phase-2 quorum, which is
    the whole safety argument for coordinated rounds.  The interesting
    WAN configuration is ``accept < n//2 + 1``: the fast path waits for
    fewer, nearer acks on *every* command, paid for by larger prepare
    quorums on the rare ownership changes.
    """

    def __init__(self, prepare: int, accept: int) -> None:
        if prepare < 1 or accept < 1:
            raise ValueError("quorum sizes must be >= 1")
        self.prepare = prepare
        self.accept = accept

    def _bind_sizes(self) -> None:
        assert self.n is not None
        if self.prepare > self.n or self.accept > self.n:
            raise ValueError(
                f"quorum sizes ({self.prepare}, {self.accept}) exceed "
                f"cluster size {self.n}"
            )

    def describe(self) -> str:
        return (
            f"flexible(n={self.n}, prepare={self.prepare}, "
            f"accept={self.accept})"
        )


def check_intersections(system: QuorumSystem) -> list[str]:
    """The classic∩fast condition: every prepare (classic, phase-1)
    quorum must intersect every accept (fast-path, phase-2) quorum.

    This is exactly what M2Paxos safety rests on -- a new owner's
    prepare must see any value a phase-2 quorum may have chosen -- and
    it is the Flexible Paxos relaxation of FastPaxos.tla's assumption
    (the triple condition is only needed for *uncoordinated* fast
    rounds, which striped epochs rule out; see
    :func:`check_fast_collision_intersections`).  Returns a list of
    human-readable violations, empty when the system is safe.
    """
    problems = []
    accepts = system.accept_quorums()
    for prepare in system.prepare_quorums():
        for accept in accepts:
            if not prepare & accept:
                problems.append(
                    f"prepare quorum {sorted(prepare)} and accept quorum "
                    f"{sorted(accept)} are disjoint"
                )
    return problems


def check_fast_collision_intersections(system: QuorumSystem) -> list[str]:
    """FastPaxos.tla's full condition: every classic quorum must
    intersect every *pair* of fast quorums.

    Required only when distinct proposers can race values into the same
    fast round (classic Fast Paxos's any-value rounds, Generalized
    Paxos's fast rounds).  M2Paxos never runs such rounds, so a system
    may legitimately fail this while passing
    :func:`check_intersections`; the modelcheck CLI reports it for
    information.
    """
    problems = []
    accepts = system.accept_quorums()
    for prepare in system.prepare_quorums():
        for f1, f2 in combinations(accepts, 2):
            if not prepare & f1 & f2:
                problems.append(
                    f"classic {sorted(prepare)} ∩ fast {sorted(f1)} ∩ "
                    f"fast {sorted(f2)} is empty"
                )
                break  # one witness per classic quorum keeps output sane
    return problems
