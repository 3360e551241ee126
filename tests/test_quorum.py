"""Tests for the Paxos kernel (`repro.core.quorum`).

- The quorum systems: exhaustive prepare×accept family checks at
  n = 3..5 for both shipped systems, a deliberately broken system to
  show the checkers have teeth, and a BFS model-check run under
  non-majority quorums.
- Properties over n in [1, 49]: striped ballots, Generalized Paxos's
  sizes against FastPaxos.tla's ``FastAssume`` (SNIPPETS.md #1), the
  Flexible Paxos condition, and both selection rules against their
  specifications (the highest ballot; SNIPPETS.md #2's
  ``ValueForAccept``).
"""

from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modelcheck import ModelChecker, ModelConfig, verify_intersections
from repro.core.quorum import (
    FlexibleQuorums,
    MajorityQuorums,
    check_fast_collision_intersections,
    check_intersections,
    classic_quorum,
    epaxos_fast_quorum,
    fast_paxos_value,
    fast_quorum,
    fast_recovery_quorum,
    highest_ballot,
    next_ballot,
)


class TestMajorityQuorums:
    def test_intersections_n3_to_5(self):
        results = verify_intersections(MajorityQuorums(), n_lo=3, n_hi=5)
        assert set(results) == {3, 4, 5}
        assert all(problems == [] for problems in results.values())

    def test_membership(self):
        q = MajorityQuorums().build(5)
        assert q.is_accept_quorum({0, 1, 2})
        assert not q.is_accept_quorum({0, 1})
        assert q.is_prepare_quorum({2, 3, 4})
        # Duplicate voters do not inflate the count.
        assert not q.is_accept_quorum([0, 0, 0, 1])

    def test_fast_collision_condition_is_strictly_stronger(self):
        # Plain majorities fail FastPaxos's triple condition (e.g. 2-of-3:
        # {0,1} ∩ {0,2} ∩ {1,2} = ∅) while passing the pairwise one --
        # the checker is informational for M2Paxos, whose striped epochs
        # rule out the uncoordinated same-round races the triple
        # condition guards against.
        for n in (3, 5):
            bound = MajorityQuorums().build(n)
            assert check_intersections(bound) == []
            assert check_fast_collision_intersections(bound)

    def test_fast_collision_condition_satisfiable(self):
        # A supermajority accept family (4-of-5) does satisfy the triple
        # condition: |f1 ∩ f2| >= 3, and any classic 3-of-5 set must meet
        # a 3-of-5 set (3 + 3 > 5).
        bound = FlexibleQuorums(prepare=3, accept=4).build(5)
        assert check_fast_collision_intersections(bound) == []


class TestFlexibleQuorums:
    def test_wan_config_intersections_n5(self):
        # The geo bench's config: accept=2 (intra-zone), prepare=4.
        results = verify_intersections(
            FlexibleQuorums(prepare=4, accept=2), n_lo=5, n_hi=5
        )
        assert results == {5: []}

    def test_safe_splits_all_n(self):
        # Every prepare + accept > n split binds and validates clean.
        for n in range(3, 6):
            for accept in range(1, n + 1):
                prepare = n - accept + 1
                bound = FlexibleQuorums(prepare=prepare, accept=accept).build(n)
                assert check_intersections(bound) == []

    def test_unsafe_split_rejected_at_build(self):
        # prepare + accept <= n admits disjoint quorums; build refuses.
        with pytest.raises(ValueError, match="intersection"):
            FlexibleQuorums(prepare=2, accept=2).build(5)

    def test_bind_skips_validation_but_checker_sees_it(self):
        # bind() checks sizes against n only, so a test can hold a broken
        # system and prove the checkers have teeth.
        broken = FlexibleQuorums(prepare=2, accept=2).bind(5)
        problems = check_intersections(broken)
        assert problems
        assert "disjoint" in problems[0]
        results = verify_intersections(
            FlexibleQuorums(prepare=2, accept=2), n_lo=4, n_hi=5
        )
        assert all(problems for problems in results.values())

    def test_oversized_quorum_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            FlexibleQuorums(prepare=6, accept=2).build(5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FlexibleQuorums(prepare=0, accept=2)
        with pytest.raises(ValueError):
            FlexibleQuorums(prepare=2, accept=-1)

    def test_membership(self):
        q = FlexibleQuorums(prepare=4, accept=2).build(5)
        assert q.is_accept_quorum({0, 1})
        assert not q.is_accept_quorum({3})
        assert q.is_prepare_quorum({0, 1, 2, 3})
        assert not q.is_prepare_quorum({0, 1, 2})


class TestModelCheckWithQuorumSystems:
    """BFS state-space search under non-majority quorum families."""

    def test_flexible_quorums_exhaustive_n3(self):
        config = ModelConfig(
            n_ballots=1,
            quorum_system=FlexibleQuorums(prepare=3, accept=1),
        )
        states = ModelChecker(config).run()  # raises Violation on failure
        assert states > 100

    def test_majority_state_count_is_pinned(self):
        # `python -m repro modelcheck` prints this count; pinning it
        # checks the classic selection rule against a fixed number.
        assert ModelChecker(ModelConfig(n_ballots=1)).run() == 2784

    def test_bound_system_size_mismatch_rejected(self):
        config = ModelConfig(quorum_system=MajorityQuorums().build(5))
        with pytest.raises(ValueError, match="bound to n=5"):
            ModelChecker(config)


SIZES = st.integers(min_value=1, max_value=49)


class TestBallots:
    def test_next_ballot_skips_the_rest_of_the_stripe(self):
        assert next_ballot(0, 3, 5) == 8
        assert next_ballot(7, 3, 5) == 13
        assert next_ballot(0, 0, 5) == 5

    @settings(max_examples=300, deadline=None)
    @given(n=SIZES, data=st.data())
    def test_next_ballot_is_above_floor_and_striped(self, n, data):
        floor = data.draw(st.integers(min_value=0, max_value=10_000))
        node = data.draw(st.integers(min_value=0, max_value=n - 1))
        ballot = next_ballot(floor, node, n)
        assert ballot > floor
        assert ballot % n == node


class TestSizes:
    @settings(max_examples=100, deadline=None)
    @given(n=SIZES)
    def test_generalized_paxos_sizes_satisfy_fast_assume(self, n):
        fast, recovery = fast_quorum(n), fast_recovery_quorum(n)
        assert 2 * fast > n  # two fast quorums intersect
        assert recovery + 2 * fast > 2 * n  # classic ∩ fast ∩ fast
        assert recovery >= classic_quorum(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_fast_assume_by_enumeration(self, n):
        bound = FlexibleQuorums(
            prepare=fast_recovery_quorum(n), accept=fast_quorum(n)
        ).build(n)
        assert check_fast_collision_intersections(bound) == []
        fasts = bound.accept_quorums()
        assert all(q & r for q, r in combinations(fasts, 2))

    @settings(max_examples=300, deadline=None)
    @given(n=SIZES, data=st.data())
    def test_flexible_binds_exactly_on_the_flexible_paxos_condition(self, n, data):
        prepare = data.draw(st.integers(min_value=1, max_value=n + 2))
        accept = data.draw(st.integers(min_value=1, max_value=n + 2))
        safe = prepare <= n and accept <= n and prepare + accept > n
        try:
            FlexibleQuorums(prepare, accept).build(n)
        except ValueError:
            assert not safe
        else:
            assert safe

    @pytest.mark.parametrize("n", range(1, 8))
    def test_flexible_condition_by_enumeration(self, n):
        for prepare in range(1, n + 1):
            for accept in range(1, n + 1):
                bound = FlexibleQuorums(prepare, accept).bind(n)
                disjoint = bool(check_intersections(bound))
                assert disjoint == (prepare + accept <= n)


def value_for_accept(votes):
    """SNIPPETS.md #2's ValueForAccept over ``(ballot, value)`` votes:
    the value it forces, or None where it allows any value."""
    top = max(ballot for ballot, _value in votes)
    at_top = [value for ballot, value in votes if ballot == top]
    if len(set(at_top)) == 1:
        return at_top[0]
    for value in set(at_top):
        if 2 * at_top.count(value) > len(at_top):
            return value
    return None


VOTES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=4)),
    max_size=12,
)


class TestSelection:
    @settings(max_examples=300, deadline=None)
    @given(votes=VOTES)
    def test_fast_rule_returns_what_value_for_accept_forces(self, votes):
        chosen = fast_paxos_value(votes)
        if not votes:
            assert chosen is None
            return
        forced = value_for_accept(votes)
        if forced is not None:
            assert chosen == forced
        top = max(ballot for ballot, _value in votes)
        assert (top, chosen) in votes

    @settings(max_examples=300, deadline=None)
    @given(votes=VOTES)
    def test_classic_rule_returns_the_highest_ballot(self, votes):
        best = highest_ballot(votes)
        if not votes:
            assert best is None
            return
        top = max(ballot for ballot, _value in votes)
        assert best[0] == top
        # On a tie, the first vote seen at the top ballot wins.
        assert best is next(vote for vote in votes if vote[0] == top)

    def test_fast_rule_ties_go_to_the_larger_ident(self):
        assert fast_paxos_value([(0, 1), (0, 2)]) == 2
        assert fast_paxos_value([(0, 2), (0, 1), (0, 1)]) == 1
        assert fast_paxos_value([(0, 9), (1, 1)]) == 1
        assert fast_paxos_value([(0, "a"), (0, "b")], ident=len) == "b"


TABLE_SIZES = (3, 5, 7, 11, 49)

# (protocol, round kind, quorum size or crashes as a function of n,
#  ballot rule, selection rule); the last two are given on a
#  protocol's first row only.
TABLE_ROWS = (
    ("M2Paxos", "prepare (acquisition, recovery)", classic_quorum,
     "`next_ballot` per object; scoped rounds per instance",
     "`highest_ballot` per instance"),
    ("", "accept (fast path)", classic_quorum, "", ""),
    ("", "fast path survives (crashes)", lambda n: n - classic_quorum(n), "", ""),
    ("Multi-Paxos", "view change (phase 1)", classic_quorum,
     "`next_ballot` over views; leader = view mod n",
     "`highest_ballot` per slot"),
    ("", "accept", classic_quorum, "", ""),
    ("", "leader-local path survives (crashes)", lambda n: n - classic_quorum(n), "", ""),
    ("Generalized Paxos", "fast round", fast_quorum,
     "fast rounds at 0; classic rounds `next_ballot` (one leader)",
     "`fast_paxos_value` per instance"),
    ("", "classic phase 1", fast_recovery_quorum, "", ""),
    ("", "classic phase 2", classic_quorum, "", ""),
    ("", "fast path survives (crashes)", lambda n: n - fast_quorum(n), "", ""),
    ("EPaxos", "PreAccept (fast path, leader included)", epaxos_fast_quorum,
     "leader at 0; recovery `next_ballot`",
     "committed, else `highest_ballot` over accepted, else preaccepted"),
    ("", "Accept (slow path), recovery prepare", classic_quorum, "", ""),
    ("", "fast path survives (crashes)", lambda n: n - epaxos_fast_quorum(n), "", ""),
)


def kernel_table() -> str:
    """DESIGN.md's "Quorums and ballots" table, computed from the kernel
    (``python tests/test_quorum.py`` prints it)."""
    head = ["Protocol", "Round kind", *(f"n={n}" for n in TABLE_SIZES),
            "Ballots", "Selection"]
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for protocol, kind, size, ballots, selection in TABLE_ROWS:
        cells = [protocol, kind, *(str(size(n)) for n in TABLE_SIZES),
                 ballots, selection]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def test_design_table_is_the_kernels():
    design = (Path(__file__).parent.parent / "DESIGN.md").read_text()
    assert kernel_table() in design


if __name__ == "__main__":
    print(kernel_table(), end="")
