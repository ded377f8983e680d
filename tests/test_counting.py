"""Perpendicular counting, closed orbits, conjugacy growth.

Oracles: the naive DFS path enumerator of oracles.py, hand-counted small
paths, the closed forms 2(3^n - 1) (figure-8) and 3^n + 2 + (-1)^n
(figure-8 traces), and tr(B^n) by integer matrix powers of a transfer
matrix built here from the edge records (float powers of its weighted form
for the weighted traces).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from geodlab import counting
from geodlab.counting import (
    PerpQuery,
    closed_orbit_count,
    conjugacy_count,
    count_perpendiculars,
    theoretical_constant,
    validate_simple_cycle,
)
from geodlab.errors import (
    BudgetError,
    DegenerateError,
    GraphFormatError,
    NotSimpleCycleError,
    TooLargeError,
    UnsupportedError,
)
from geodlab.graphs import GraphOfGroups, load_validate, to_document
from geodlab.library import (
    BUILTIN,
    biregular_two_cycles,
    dumbbell,
    figure_eight,
    petersen,
    theta,
)
from oracles import enumerate_perpendiculars, two_vertex_segment


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


def _successors_with_backtracking(self):
    """GraphOfGroups.nb_successors without the rule that a path may not
    turn back: the mutation the negative controls below inject."""
    return [[self.edge_index[f]
             for f in self.out_edges(self.edges[eid].terminus)]
            for eid in self.edge_ids]


def _dp_matches_dfs_oracle():
    q = PerpQuery(petersen(), "P0", "P1", 8)
    return count_perpendiculars(q).counts == enumerate_perpendiculars(q)


def test_dp_matches_dfs_oracle():
    assert _dp_matches_dfs_oracle()


def test_dfs_oracle_catches_backtracking(monkeypatch):
    # negative control: a DP step that lets a path turn back
    monkeypatch.setattr(GraphOfGroups, "nb_successors",
                        _successors_with_backtracking)
    assert not _dp_matches_dfs_oracle()


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
    with pytest.raises(ValueError):
        enumerate_perpendiculars(PerpQuery(g, "P0", "P1", 11))


def test_weighted_counts():
    g = figure_eight().with_conductance(
        {e: 0.5 for e in figure_eight().edge_ids})
    series = count_perpendiculars(PerpQuery(g, "A", "A", 4))
    for n in range(1, 5):
        want = 4 * 3 ** (n - 1) * math.exp(0.5 * n)
        assert abs(series.weighted[n - 1] - want) < 1e-9 * want


# ---------------------------------------------------------------------------
# theoretical constants


def _petersen_with_rim():
    """Petersen with its outer 5-cycle o0..o4 as the cycle target "R"."""
    doc = to_document(petersen())
    doc["subgraphs"]["R"] = {
        "vertices": [f"o{i}" for i in range(5)],
        "edges": [f"r{i}{s}" for i in range(5) for s in "+-"]}
    return load_validate(doc)


@pytest.mark.parametrize("make, minus, plus, want", [
    # q = 2, Vol = 2 and 10; skinning mass 1 for a point and (1/3) L for a
    # cycle of length L, so the constant is 3/Vol, L/Vol or L L'/(3 Vol)
    (dumbbell, "X", "W", Fraction(3, 2)),
    (dumbbell, "X", "K", Fraction(1, 2)),
    (dumbbell, "K", "K", Fraction(1, 6)),
    (_petersen_with_rim, "P0", "R", Fraction(1, 2)),
    (_petersen_with_rim, "R", "R", Fraction(5, 6)),
])
def test_constant_point_and_cycle_targets(make, minus, plus, want):
    query = PerpQuery(make(), minus, plus, 8)
    rep = theoretical_constant(query, count_perpendiculars(query))
    assert abs(rep.constant - float(want)) < 1e-12


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


def test_orbit_horizon_budget():
    # 4 directed edges: the horizon is bounded by 4^2 * nmax <= budget
    out = closed_orbit_count(figure_eight(), 40, budget=4 ** 2 * 40)
    assert out["fix"][26] == 3 ** 27 + 2 - 1
    with pytest.raises(BudgetError):
        closed_orbit_count(figure_eight(), 41, budget=4 ** 2 * 40)


def test_orbits_degenerate_graph():
    with pytest.raises(DegenerateError):
        closed_orbit_count(two_vertex_segment(), 3)


def _transfer_oracle(g):
    """0/1 matrix B[e, f] = 1 when t(e) = o(f) and f is not the reverse of
    e, read off the edge records one pair at a time."""
    ids = sorted(g.edges)
    return [[int(g.edges[f].origin == g.edges[e].terminus
                 and f != g.edges[e].reverse) for f in ids] for e in ids]


def _trace_powers(B, nmax):
    """[tr(B^n) for n = 1..nmax] by integer matrix powers."""
    size, P, out = len(B), B, []
    for n in range(1, nmax + 1):
        if n > 1:
            P = [[sum(row[k] * B[k][j] for k in range(size) if row[k])
                  for j in range(size)] for row in P]
        out.append(sum(P[i][i] for i in range(size)))
    return out


def _fix_matches_oracle(g, nmax):
    """Fix_n and the primitive counts against tr(B^n) and its Mobius
    inversion, n = 1..nmax."""
    fix = _trace_powers(_transfer_oracle(g), nmax)
    primitive = [sum(_mobius(n // d) * fix[d - 1]
                     for d in range(1, n + 1) if n % d == 0)
                 for n in range(1, nmax + 1)]
    out = closed_orbit_count(g, nmax)
    return out["fix"] == fix and out["primitive"] == primitive


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_fix_matches_trace_powers(name):
    # fig8 has loops, theta multiple edges and orderchain group orders
    g = BUILTIN[name]()
    try:
        g.check_branching()
    except DegenerateError:
        pytest.skip(f"{name} has a vertex of tree-degree <= 1")
    assert _fix_matches_oracle(g, 30)


def test_trace_oracle_catches_backtracking(monkeypatch):
    # negative control: a successor rule that lets a path turn back
    monkeypatch.setattr(GraphOfGroups, "nb_successors",
                        _successors_with_backtracking)
    assert not _fix_matches_oracle(petersen(), 26)


@pytest.mark.parametrize("name", ["fig8", "theta", "orderchain"])
def test_trace_oracle_catches_a_missing_doubling(monkeypatch, name):
    # negative control: one edge of each reverse pair, counted once
    sweep = counting._sweep
    monkeypatch.setattr(counting, "_sweep", lambda succ, pred, starts, nmax: (
        sweep(succ, pred, [(e, 1) for e, _ in starts], nmax)))
    assert not _fix_matches_oracle(BUILTIN[name](), 30)


def _asymmetric_petersen():
    """Petersen with a seeded conductance on every edge, its reverse's
    drawn apart."""
    rng = np.random.default_rng(17)
    g = petersen()
    return g.with_conductance({e: float(rng.uniform(-0.5, 0.5))
                               for e in g.edge_ids})


def _weighted_traces_match_oracle(g, nmax):
    """The weighted column against tr(B_w^n), B_w[e, f] = e^{c(f)} on the
    transfer matrix built here, to 1e-12 relative."""
    ids = sorted(g.edges)
    Bw = np.array(_transfer_oracle(g), dtype=float) * np.exp(
        [g.edges[f].conductance for f in ids])[None, :]
    got = closed_orbit_count(g, nmax)["weighted"]
    P = np.eye(len(ids))
    for n in range(nmax):
        P = P @ Bw
        if abs(got[n] - np.trace(P)) > 1e-12 * np.trace(P):
            return False
    return True


def test_weighted_traces_match_dense_powers():
    assert _weighted_traces_match_oracle(_asymmetric_petersen(), 30)


def test_weighted_oracle_catches_pair_halving(monkeypatch):
    # negative control: reversal does not keep the weights, so the weighted
    # sweep may not start from one edge of each pair only
    g = _asymmetric_petersen()
    rev = [g.edge_index[g.edges[e].reverse] for e in g.edge_ids]
    sweep = counting._sweep

    def halved(succ, pred, starts, nmax, weights=None):
        if weights is not None:
            starts = [(e, 2) for e, _ in starts if e < rev[e]]
        return sweep(succ, pred, starts, nmax, weights)

    monkeypatch.setattr(counting, "_sweep", halved)
    assert not _weighted_traces_match_oracle(g, 30)


def test_petersen_orbits_to_200():
    out = closed_orbit_count(petersen(), 200)
    assert out["fix"][:26] == _trace_powers(_transfer_oracle(petersen()), 26)
    for n in range(1, 201):
        assert out["primitive"][n - 1] % n == 0
        assert out["orbits"][n - 1] * n == out["primitive"][n - 1] >= 0


def test_orbit_counts_beyond_float_range_raise_too_large():
    # Fix_n = 3^n + 2 + (-1)^n on the figure eight passes 2^1024 at n = 647
    assert len(closed_orbit_count(figure_eight(), 646)["fix"]) == 646
    with pytest.raises(TooLargeError):
        closed_orbit_count(figure_eight(), 647)
    # a weighted trace can leave the float range before the counts do
    g = petersen().with_conductance({e: 50.0 for e in petersen().edge_ids})
    with pytest.raises(TooLargeError):
        closed_orbit_count(g, 20)


def test_orbit_counts_check_the_float_range_as_they_add():
    # Fix_n ~ 3^n: a horizon of 10^6 passes the edge budget (4^2 * 10^6)
    # but must stop near n = 647, not hold 10^6 ever larger integers
    with pytest.raises(TooLargeError):
        closed_orbit_count(figure_eight(), 10 ** 6)


def _dead_end_graph():
    """Figure eight at v with an edge to w, whose vertex group of order 3
    makes its tree-degree 3: a path into w stops there, and a path out of w
    grows as 3^n without ever coming back to its first edge."""
    edges = []
    for name, u, v in [("a", "w", "v"), ("l", "v", "v"), ("m", "v", "v")]:
        edges += [{"id": name + "+", "from": u, "to": v,
                   "reverse": name + "-"},
                  {"id": name + "-", "from": v, "to": u,
                   "reverse": name + "+"}]
    return load_validate({"vertices": [{"id": "v"}, {"id": "w", "order": 3}],
                          "edges": edges})


def test_orbits_past_a_dead_end():
    g = _dead_end_graph()
    assert _fix_matches_oracle(g, 26)
    # the run from a+ (first in edge order) never returns to a+: its mass
    # is dropped, so the float check on the loops ends the count quickly
    with pytest.raises(TooLargeError):
        closed_orbit_count(g, 2 * 10 ** 5)


def _mobius(n):
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def test_primitive_counts_are_the_mobius_inversion():
    out = closed_orbit_count(petersen(), 60)
    fix = out["fix"]
    for n in range(1, 61):
        assert out["primitive"][n - 1] == sum(
            _mobius(n // d) * fix[d - 1]
            for d in range(1, n + 1) if n % d == 0)


def test_weighted_traces():
    out = closed_orbit_count(figure_eight(), 6)
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


def test_conjugacy_ignores_conductances():
    g = dumbbell()
    plain = conjugacy_count(g, "w", ["l+"], 12)
    weighted = conjugacy_count(g.with_conductance({"b+": 0.3, "b-": 0.3}),
                               "w", ["l+"], 12)
    assert plain == [0, 0, 0, 1, 1, 3, 3, 5, 5, 7, 7, 13, 13]
    assert weighted == plain


@pytest.mark.parametrize("basepoint, cycle", [("zz", ["l+"]),
                                              ("w", ["X"]),
                                              ("w", ["l+", "X"])])
def test_conjugacy_unknown_ids(basepoint, cycle):
    with pytest.raises(GraphFormatError) as info:
        conjugacy_count(dumbbell(), basepoint, cycle, 5)
    assert info.value.code == "dangling-reference"


def test_conjugacy_monotone():
    g = dumbbell()
    out = conjugacy_count(g, "w", ["l+"], 20)
    assert all(a <= b for a, b in zip(out, out[1:]))
