"""The verdict rule of ``benchmarks/ab_pairs.py`` on synthetic pairs."""

import pytest

from benchmarks.ab_pairs import quartiles, verdict

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.2]


def scaled(factor, flip=()):
    """PARENT x factor, with the pairs in ``flip`` going the other way."""
    return [p / factor if i in flip else p * factor for i, p in enumerate(PARENT)]


def test_clear_gain_needs_nine_wins_and_a_gap_beyond_the_parents_quartiles():
    v = verdict(PARENT, scaled(1.3), "higher", 0.15)
    assert (v["verdict"], v["wins"], v["ties"], v["pairs"]) == ("gain", 10, 0, 10)
    assert v["ratio"] == pytest.approx(1.3)
    assert verdict(PARENT, scaled(1.3, flip={0}), "higher", 0.15)["verdict"] == "gain"
    # Eight wins of ten is not a gain, whatever the medians say.
    assert verdict(PARENT, scaled(1.3, flip={0, 1}), "higher", 0.15)["verdict"] == "same"
    # Ten wins by less than the parent's own quartile distance is not one either.
    assert verdict(PARENT, [p + 0.1 for p in PARENT], "higher", 0.15)["verdict"] == "same"


def test_direction_follows_better():
    assert verdict(PARENT, scaled(0.8), "lower", 0.15)["verdict"] == "gain"
    assert verdict(PARENT, scaled(0.8), "higher", 0.15)["verdict"] == "regression"
    assert verdict(PARENT, scaled(1.2), "lower", 0.15)["verdict"] == "regression"
    # Worse, but within the bound.
    assert verdict(PARENT, scaled(1.1), "lower", 0.15)["verdict"] == "same"


def test_ties_count_for_neither_side():
    v = verdict(PARENT, list(PARENT), "lower", 0.15)
    assert (v["verdict"], v["wins"], v["ties"]) == ("same", 0, 10)


def test_spread_beyond_the_bound_is_unresolved_not_unchanged():
    noisy = [100.0, 140.0, 70.0, 150.0, 60.0, 100.0, 130.0, 80.0, 145.0, 65.0]
    assert verdict(noisy, [x * 1.5 for x in noisy], "higher", 0.15)["verdict"] == "unresolved"
    assert verdict(PARENT, noisy, "higher", 0.15)["verdict"] == "unresolved"


def test_quartiles_and_input_checks():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "lower", 0.1)
