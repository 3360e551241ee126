"""Tests for the exhaustive model checker (TLA+ appendix mirror)."""

import pytest

from repro.core import modelcheck
from repro.core.modelcheck import ModelChecker, ModelConfig, Violation


class TestModelChecker:
    def test_single_ballot_exhaustive_no_violation(self):
        # 3 acceptors, 2 objects, 2 commands (one touching both objects),
        # 2 instances, fast ballot only: exhaustive, runs in < 1 s.
        checker = ModelChecker(ModelConfig(n_ballots=1))
        states = checker.run()
        assert states > 1000  # really explored something

    def test_deterministic_state_count(self):
        a = ModelChecker(ModelConfig(n_ballots=1)).run()
        b = ModelChecker(ModelConfig(n_ballots=1)).run()
        assert a == b

    def test_conservative_votes_enforced(self):
        # In any reachable state, two acceptors never vote differently
        # in the same (object, instance, ballot) -- the invariant the
        # Vote action is supposed to preserve.
        checker = ModelChecker(ModelConfig(n_ballots=1))
        initial = checker.initial_state()
        seen = {initial}
        frontier = [initial]
        scanned = 0
        while frontier and scanned < 2000:
            state = frontier.pop()
            scanned += 1
            _proposed, _ballots, votes = state
            per_cell: dict[tuple, set] = {}
            for (a, o, i, b, c) in votes:
                per_cell.setdefault((o, i, b), set()).add(c)
            assert all(len(cs) == 1 for cs in per_cell.values())
            for successor in checker.successors(state):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)

    def test_detects_seeded_violation(self, monkeypatch):
        # Feed the invariant checker a hand-built bad state: c1 before c2
        # on o1 but c2 before c1 on o2, both chosen by full quorums.  The
        # model's c2 touches o1 only, so make it touch both objects.
        monkeypatch.setattr(
            modelcheck, "COMMANDS", {"c1": ("o1", "o2"), "c2": ("o1", "o2")}
        )
        votes = set()
        for a in range(3):
            votes.add((a, "o1", 1, 0, "c1"))
            votes.add((a, "o1", 2, 0, "c2"))
            votes.add((a, "o2", 1, 0, "c2"))
            votes.add((a, "o2", 2, 0, "c1"))
        bad_state = (
            frozenset({"c1", "c2"}),
            tuple(tuple(0 for _ in range(2)) for _ in range(3)),
            frozenset(votes),
        )
        checker = ModelChecker(ModelConfig(n_ballots=1))
        with pytest.raises(Violation):
            checker.check_state(bad_state)

    def test_state_cap_enforced(self):
        checker = ModelChecker(ModelConfig(n_ballots=1, max_states=10))
        with pytest.raises(RuntimeError):
            checker.run()

    def test_next_instance_advances_past_chosen(self):
        checker = ModelChecker(ModelConfig(n_ballots=1))
        votes = frozenset((a, "o1", 1, 0, "c2") for a in range(3))
        assert checker._next_instance(votes, "o1") == 2
        assert checker._next_instance(frozenset(), "o1") == 1
