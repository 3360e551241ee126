"""Exhaustive state-space checker mirroring the paper's TLA+ appendix.

The appendix models M2Paxos abstractly as *GFPaxos*: one MultiPaxos
incarnation per object, where an acceptor votes for a command
atomically in one instance of every object the command accesses.  The
checked property (``CorrectnessSimple``) is that any two commands
chosen on two common objects are chosen in the same relative order --
the heart of the paper's Consistency argument (claim B in Section V-C).

This module re-implements that abstract specification in Python and
explores it exhaustively with breadth-first search.  The model is
fixed at 3 acceptors, 2 objects, 2 commands and 2 instances (the module
constants below); with the default single ballot it finishes in seconds
and still covers the interesting interleavings of atomic multi-object
voting.  A two-ballot
configuration (adding JoinBallot/recovery interleavings, closer to the
appendix's reported run) is exercised by the slower benchmark-style
test and the ``python -m repro.core.modelcheck`` entry point.

The explored transition system follows the appendix's ``Spec2``:

- ``Propose(c)``       -- make a command eligible for voting;
- ``JoinBallot(a,o,b)``-- acceptor ``a`` moves object ``o`` to ballot ``b``;
- ``Vote(a,c,is)``     -- acceptor ``a`` votes for ``c`` in instance
  ``is[o]`` of every object ``o`` it accesses, subject to MultiPaxos's
  safety conditions (value proved safe at the ballot, ballot
  conservative, instances at most one past the last complete one).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional

from repro.core.quorum import (
    MajorityQuorums,
    QuorumSystem,
    check_intersections,
    highest_ballot,
)


N_ACCEPTORS = 3
OBJECTS = ("o1", "o2")
# command -> objects accessed; mirrors the appendix's model of one
# command accessing both objects and one accessing a single object.
COMMANDS = {"c1": ("o1", "o2"), "c2": ("o1",)}
N_INSTANCES = 2


@dataclass(frozen=True)
class ModelConfig:
    n_ballots: int = 1
    max_states: int = 2_000_000
    # Quorum system under test (see repro.core.quorum); None means the
    # classic-majority pair.  Vote quorums that choose a value use the
    # system's *accept* family; the "quorum reached our ballot / proved
    # safe" precondition (the abstract phase 1) uses its *prepare*
    # family -- so the BFS explores exactly the interleavings the
    # configured system admits.
    quorum_system: Optional[QuorumSystem] = None

    def bound_system(self) -> QuorumSystem:
        """The quorum system bound to :data:`N_ACCEPTORS`."""
        system = self.quorum_system or MajorityQuorums()
        if system.n is None:
            return system.build(N_ACCEPTORS)
        if system.n != N_ACCEPTORS:
            raise ValueError(
                f"quorum system is bound to n={system.n}, "
                f"model has {N_ACCEPTORS} acceptors"
            )
        return system


class Violation(Exception):
    """CorrectnessSimple does not hold in some reachable state."""


# A state is a pair of frozensets:
#   proposed: frozenset[str]
#   ballots:  tuple[tuple[int, ...], ...]        [acceptor][object] -> ballot
#   votes:    frozenset[(acceptor, object, instance, ballot, command)]
State = tuple[frozenset, tuple, frozenset]


class ModelChecker:
    """BFS over the abstract GFPaxos transition system."""

    def __init__(self, config: Optional[ModelConfig] = None) -> None:
        self.config = config or ModelConfig()
        self.states_explored = 0
        self.system = self.config.bound_system()
        # Prepare (phase-1) quorums are what the Vote precondition
        # (ProvedSafeAt) uses; fixed for the whole search, so enumerate
        # once.  Chosen values are counted with the accept predicate.
        self._prepare_quorums = self.system.prepare_quorums()

    # ------------------------------------------------------------------
    # State helpers
    # ------------------------------------------------------------------

    def initial_state(self) -> State:
        ballots = tuple(tuple(-1 for _o in OBJECTS) for _a in range(N_ACCEPTORS))
        return (frozenset(), ballots, frozenset())

    def _vote_at(self, votes, acceptor, obj, instance, ballot) -> Optional[str]:
        for (a, o, i, b, c) in votes:
            if (a, o, i, b) == (acceptor, obj, instance, ballot):
                return c
        return None

    def _chosen(self, votes, obj, instance) -> Optional[str]:
        """The command chosen at (obj, instance), if any: some *accept*
        quorum of the configured system voted for it in one ballot."""
        cfg = self.config
        for ballot in range(cfg.n_ballots):
            tally: dict[str, set[int]] = {}
            for (a, o, i, b, c) in votes:
                if (o, i, b) == (obj, instance, ballot):
                    tally.setdefault(c, set()).add(a)
            for command, voters in tally.items():
                if self.system.is_accept_quorum(voters):
                    return command
        return None

    def _next_instance(self, votes, obj) -> int:
        """First instance of ``obj`` with nothing chosen yet (1-based)."""
        for instance in range(1, N_INSTANCES + 1):
            if self._chosen(votes, obj, instance) is None:
                return instance
        return N_INSTANCES + 1

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def successors(self, state: State) -> Iterable[State]:
        proposed, ballots, votes = state
        cfg = self.config

        # Propose(c)
        for command in COMMANDS:
            if command not in proposed:
                yield (proposed | {command}, ballots, votes)

        # JoinBallot(a, o, b)
        for a in range(N_ACCEPTORS):
            for oi, obj in enumerate(OBJECTS):
                for b in range(cfg.n_ballots):
                    if ballots[a][oi] < b:
                        new_ballots = tuple(
                            tuple(
                                b if (a2 == a and o2 == oi) else ballots[a2][o2]
                                for o2 in range(len(OBJECTS))
                            )
                            for a2 in range(N_ACCEPTORS)
                        )
                        yield (proposed, new_ballots, votes)

        # Vote(a, c, is): atomic across the command's objects.
        for a in range(N_ACCEPTORS):
            for command in proposed:
                accessed = COMMANDS[command]
                choices = []
                feasible = True
                for obj in accessed:
                    oi = OBJECTS.index(obj)
                    ballot = ballots[a][oi]
                    if ballot < 0:
                        feasible = False
                        break
                    limit = min(self._next_instance(votes, obj), N_INSTANCES)
                    valid = [
                        i
                        for i in range(1, limit + 1)
                        if self._vote_ok(votes, ballots, a, obj, oi, i, command)
                    ]
                    if not valid:
                        feasible = False
                        break
                    choices.append((obj, valid))
                if not feasible:
                    continue
                for picks in product(*(valid for _obj, valid in choices)):
                    new_votes = set(votes)
                    replaced = False
                    for (obj, _valid), instance in zip(choices, picks):
                        oi = OBJECTS.index(obj)
                        ballot = ballots[a][oi]
                        existing = self._vote_at(votes, a, obj, instance, ballot)
                        if existing == command:
                            continue
                        new_votes.add((a, obj, instance, ballot, command))
                        replaced = True
                    if replaced:
                        yield (proposed, ballots, frozenset(new_votes))

    def _vote_ok(self, votes, ballots, a, obj, oi, instance, command) -> bool:
        """MultiPaxos Vote preconditions for one (object, instance)."""
        ballot = ballots[a][oi]
        existing = self._vote_at(votes, a, obj, instance, ballot)
        if existing is not None and existing != command:
            return False
        # A quorum must have reached our ballot and prove the value safe.
        quorum_found = False
        for quorum in self._prepare_quorums:
            if all(ballots[q][oi] >= ballot for q in quorum):
                safe = self._proved_safe(votes, quorum, obj, instance, ballot)
                if command in safe:
                    quorum_found = True
                    break
        if not quorum_found:
            return False
        # Conservative ballot: no other acceptor voted differently in
        # this ballot at this instance.
        for (a2, o2, i2, b2, c2) in votes:
            if (o2, i2, b2) == (obj, instance, ballot) and c2 != command:
                return False
        return True

    def _proved_safe(self, votes, quorum, obj, instance, ballot) -> set[str]:
        """ProvedSafeAt: the vote in the highest ballot below ``ballot``
        among the quorum (the kernel's classic rule), or every proposed
        command if none."""
        best = highest_ballot(
            (b, c)
            for (a, o, i, b, c) in votes
            if o == obj and i == instance and a in quorum and b < ballot
        )
        if best is not None:
            return {best[1]}
        return set(COMMANDS)

    # ------------------------------------------------------------------
    # Invariant
    # ------------------------------------------------------------------

    def check_state(self, state: State) -> None:
        """CorrectnessSimple: shared-object choices agree on order."""
        _proposed, _ballots, votes = state
        chosen: dict[str, dict[str, int]] = {}  # obj -> command -> instance
        for obj in OBJECTS:
            chosen[obj] = {}
            for instance in range(1, N_INSTANCES + 1):
                command = self._chosen(votes, obj, instance)
                if command is not None and command not in chosen[obj]:
                    chosen[obj][command] = instance
        commands = list(COMMANDS)
        for idx, c1 in enumerate(commands):
            for c2 in commands[idx + 1 :]:
                shared = set(COMMANDS[c1]) & set(COMMANDS[c2])
                orders = set()
                for obj in shared:
                    if c1 in chosen[obj] and c2 in chosen[obj]:
                        orders.add(chosen[obj][c1] < chosen[obj][c2])
                if len(orders) > 1:
                    raise Violation(
                        f"{c1} and {c2} chosen in different orders: {chosen}"
                    )

    # ------------------------------------------------------------------

    def run(self) -> int:
        """Explore exhaustively; return number of distinct states.

        Raises :class:`Violation` if CorrectnessSimple fails anywhere.
        """
        initial = self.initial_state()
        seen = {initial}
        frontier = deque([initial])
        self.check_state(initial)
        while frontier:
            state = frontier.popleft()
            self.states_explored += 1
            if self.states_explored > self.config.max_states:
                raise RuntimeError(
                    f"state cap {self.config.max_states} exceeded"
                )
            for successor in self.successors(state):
                if successor not in seen:
                    seen.add(successor)
                    self.check_state(successor)
                    frontier.append(successor)
        return len(seen)


def verify_intersections(system: QuorumSystem, n_lo: int = 3, n_hi: int = 5):
    """Exhaustively check the classic∩fast condition at each cluster
    size in ``[n_lo, n_hi]``.

    ``system`` is an unbound spec; each size gets its own bound copy and
    a full pairwise sweep of its prepare×accept families.  Returns
    ``{n: [problems]}`` -- all lists empty for a safe system.  Sizes the
    spec cannot bind to (a quorum larger than the cluster) are skipped.
    """
    results: dict[int, list[str]] = {}
    for n in range(n_lo, n_hi + 1):
        try:
            bound = system.bind(n)
        except ValueError:
            continue
        results[n] = check_intersections(bound)
    return results


def main() -> None:  # pragma: no cover - CLI entry point
    import sys

    ballots = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    cap = int(sys.argv[2]) if len(sys.argv) > 2 else 2_000_000
    config = ModelConfig(n_ballots=ballots, max_states=cap)
    checker = ModelChecker(config)
    bounds = (
        f"acceptors={N_ACCEPTORS}, objects={len(OBJECTS)}, "
        f"commands={len(COMMANDS)}, instances={N_INSTANCES}, ballots={ballots}"
    )
    try:
        states = checker.run()
    except RuntimeError:
        print(
            f"bounded exploration: {checker.states_explored} states visited "
            f"(cap {cap}), no violation of CorrectnessSimple ({bounds}); "
            f"raise the cap for exhaustive coverage"
        )
        return
    print(
        f"exhaustive exploration complete: {states} distinct states, "
        f"no violation of CorrectnessSimple ({bounds})"
    )


if __name__ == "__main__":  # pragma: no cover
    main()
