"""Perpendicular counting, closed orbits, conjugacy growth.

Oracles: the naive DFS path enumerator, hand-counted small paths, and the
closed forms 2(3^n - 1) (figure-8) and 3^n + 2 + (-1)^n (figure-8 traces).
"""

import math
from fractions import Fraction

import pytest

from geodlab.counting import (
    PerpQuery,
    bm_mass,
    closed_orbit_count,
    conjugacy_count,
    count_perpendiculars,
    enumerate_perpendiculars,
    skinning_mass,
    theoretical_constant,
    validate_simple_cycle,
)
from geodlab.errors import (
    BudgetError,
    DegreeMismatchError,
    NotSimpleCycleError,
    TooLargeError,
    UnsupportedError,
)
from geodlab.library import (
    biregular_two_cycles,
    dumbbell,
    figure_eight,
    petersen,
    theta,
)


def test_fig8_exact_law():
    g = figure_eight()
    series = count_perpendiculars(PerpQuery(g, "A", "A", 10))
    for n in range(1, 11):
        assert series.cumulative[n - 1] == 2 * (3 ** n - 1)


def test_fig8_per_length():
    g = figure_eight()
    series = count_perpendiculars(PerpQuery(g, "A", "A", 6))
    # 4 loops of length 1, then 3 continuations each
    assert series.counts == [4 * 3 ** (n - 1) for n in range(1, 7)]


def test_dp_matches_dfs_oracle():
    g = petersen()
    q = PerpQuery(g, "P0", "P1", 8)
    assert count_perpendiculars(q).counts == enumerate_perpendiculars(q)


def test_theta_parity():
    g = theta()
    series = count_perpendiculars(PerpQuery(g, "U", "U", 12))
    # same bipartition class: no odd-length paths
    assert all(series.counts[n - 1] == 0 for n in range(1, 13, 2))
    series2 = count_perpendiculars(PerpQuery(g, "U", "V", 12))
    assert all(series2.counts[n - 1] == 0 for n in range(2, 13, 2))


def test_budget_guard():
    g = petersen()
    with pytest.raises(BudgetError):
        count_perpendiculars(PerpQuery(g, "P0", "P1", 10), budget=100)
    with pytest.raises(BudgetError):
        enumerate_perpendiculars(PerpQuery(g, "P0", "P1", 11))


def test_weighted_counts():
    g = figure_eight().with_conductance(
        {e: 0.5 for e in figure_eight().edge_ids})
    series = count_perpendiculars(PerpQuery(g, "A", "A", 4))
    for n in range(1, 5):
        want = 4 * 3 ** (n - 1) * math.exp(0.5 * n)
        assert abs(series.weighted[n - 1] - want) < 1e-9 * want


# ---------------------------------------------------------------------------
# closed-form masses


def test_bm_mass_regular():
    assert bm_mass("regular", q=2, vol=1) == Fraction(2, 3)
    assert bm_mass("regular", q=3, vol=Fraction(5, 2)) == Fraction(15, 8)
    with pytest.raises(DegreeMismatchError):
        bm_mass("regular", q=1, vol=1)


def test_bm_mass_biregular():
    assert bm_mass("biregular", p=2, q=3, tvol=Fraction(7)) == Fraction(7)
    with pytest.raises(DegreeMismatchError):
        bm_mass("biregular", p=2, q=2, tvol=1)


def test_bm_mass_spherical_reduces_to_regular():
    # constant degree sequence: orbit point at the root gives q/(q+1)
    val = bm_mass("spherical", periods=[2], orbit=[(0, 1)])
    assert abs(val - 2 / 3) < 1e-12


def test_skinning_masses():
    assert skinning_mass("point") == 1
    assert skinning_mass("point", stab=2) == Fraction(1, 2)
    assert skinning_mass("cycle", q=2, L=3) == 1
    assert skinning_mass("horoball", q=2, vol=3) == 2
    assert skinning_mass("k-regular", q=2, k=1, nvertices=4) == Fraction(8, 3)
    val = skinning_mass("biregular-cycle", p=2, q=3, Lp=2, Lq=2)
    assert abs(val - (2 / math.sqrt(2) + 4 / math.sqrt(3))) < 1e-12
    with pytest.raises(UnsupportedError):
        skinning_mass("moebius-band")
    with pytest.raises(DegreeMismatchError):
        skinning_mass("k-regular", q=2, k=5, nvertices=1)


# ---------------------------------------------------------------------------
# theoretical constants


def test_constant_fig8():
    query = PerpQuery(figure_eight(), "A", "A", 12)
    rep = theoretical_constant(query, count_perpendiculars(query))
    assert abs(rep.constant - 2.0) < 1e-12
    assert rep.verdict == "pass"
    assert abs(rep.ratios[-1] - 1) < 0.01


def test_constant_petersen_points():
    query = PerpQuery(petersen(), "P0", "P1", 30)
    rep = theoretical_constant(query, count_perpendiculars(query))
    assert abs(rep.constant - 0.3) < 1e-12
    assert rep.verdict == "pass"
    assert abs(rep.ratios[-1] - 1) < 0.03


def test_constant_biregular_cycles():
    query = PerpQuery(biregular_two_cycles(), "C1", "C2", 30)
    rep = theoretical_constant(query, count_perpendiculars(query))
    assert abs(rep.constant - 11 / 30) < 1e-12
    sp, sq = math.sqrt(2), 4 / math.sqrt(3)
    want_odd = 2 * 6 * 2 * (sp * sq) / (5 * 48)
    assert abs(rep.constant_odd - want_odd) < 1e-12
    assert rep.verdict == "pass"
    assert abs(rep.ratios[-1] - 1) < 0.05
    assert abs(rep.ratios[-2] - 1) < 0.05


def test_counts_beyond_float_range_raise_too_large():
    # the DP count at length 1027 exceeds 2^1024
    with pytest.raises(TooLargeError):
        count_perpendiculars(PerpQuery(petersen(), "P0", "P1", 3000))
    # the counts still fit at nmax 1024, the ratio denominators do not
    query = PerpQuery(petersen(), "P0", "P1", 1024)
    series = count_perpendiculars(query)
    with pytest.raises(TooLargeError):
        theoretical_constant(query, series)
    query = PerpQuery(biregular_two_cycles(), "C1", "C2", 793)
    with pytest.raises(TooLargeError):
        theoretical_constant(query, count_perpendiculars(query))


def test_constant_rejects_conductance():
    g = figure_eight().with_conductance({"a+": 1.0})
    query = PerpQuery(g, "A", "A", 5)
    series = count_perpendiculars(query)
    with pytest.raises(UnsupportedError):
        theoretical_constant(query, series)


# ---------------------------------------------------------------------------
# closed orbits


def test_fig8_fix_closed_form():
    out = closed_orbit_count(figure_eight(), 8)
    for n in range(1, 9):
        assert out["fix"][n - 1] == 3 ** n + 2 + (-1) ** n


def test_orbit_integrality():
    out = closed_orbit_count(petersen(), 12)
    for n in range(1, 13):
        assert out["primitive"][n - 1] % n == 0
        assert out["orbits"][n - 1] >= 0


def test_orbit_horizon_cap():
    with pytest.raises(BudgetError):
        closed_orbit_count(figure_eight(), 27)


def test_weighted_traces():
    out = closed_orbit_count(figure_eight(), 6, weighted=True)
    for n in range(1, 7):
        assert abs(out["weighted"][n - 1] - out["fix"][n - 1]) < 1e-6


# ---------------------------------------------------------------------------
# conjugacy counting


def test_simple_cycle_validation():
    g = dumbbell()
    assert validate_simple_cycle(g, ["l+"]) == 1
    with pytest.raises(NotSimpleCycleError):
        validate_simple_cycle(g, [])
    with pytest.raises(NotSimpleCycleError):
        validate_simple_cycle(g, ["b+", "b-"])  # backtrack
    with pytest.raises(NotSimpleCycleError):
        validate_simple_cycle(g, ["l+", "l+"])  # proper power
    with pytest.raises(NotSimpleCycleError):
        validate_simple_cycle(g, ["b+", "m+", "b-"])  # not closed


def test_conjugacy_below_length_is_zero():
    g = dumbbell()
    out = conjugacy_count(g, "w", ["l+"], 6)
    assert out[0] == 0
    assert all(v >= 0 for v in out)


def test_conjugacy_basepoint_on_axis():
    g = dumbbell()
    out = conjugacy_count(g, "u", ["l+"], 3)
    # translation length 1, basepoint on the axis: one element at n=1
    assert out[1] == 1


def test_conjugacy_monotone():
    g = dumbbell()
    out = conjugacy_count(g, "w", ["l+"], 20)
    assert all(a <= b for a, b in zip(out, out[1:]))
