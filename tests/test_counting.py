"""Perpendicular counting, closed orbits, conjugacy growth.

Oracles: the naive DFS path enumerator of oracles.py, hand-counted small
paths, the closed forms 2(3^n - 1) (figure-8) and 3^n + 2 + (-1)^n
(figure-8 traces), tr(B^n) by integer matrix powers of Bass's edge matrix
built by oracles.py from the edge records (float powers of its weighted
form for the weighted traces), the regular and biregular closed-form
counting constants of oracles.py for the Perron constants, and, for the
graphs of groups orderchain and the order-3 lollipop of oracles.py, two
covers of each with trivial groups.
"""

import itertools
import math
from fractions import Fraction
from pathlib import Path
import types

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
from geodlab.graphs import GraphOfGroups, load_validate
from geodlab.library import (
    BUILTIN,
    biregular_two_cycles,
    dumbbell,
    figure_eight,
    order_two_chain,
    petersen,
    theta,
)
from oracles import (
    bass_matrix,
    biregular_constants,
    enumerate_perpendiculars,
    graph_of_groups,
    lollipop,
    order_three_lollipop,
    order_three_pair,
    per_start_sweep,
    regular_constant,
    to_document,
    two_vertex_segment,
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


def _successors_with_backtracking(self):
    """GraphOfGroups.nb_successors without the rule that a path may not
    turn back, one way to each successor: the mutation the negative
    controls below inject."""
    return [[(self.edge_index[f], 1)
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


# ---------------------------------------------------------------------------
# graphs of groups against their covers


def _orderchain_cover(parallel):
    """A degree-2 cover of orderchain with trivial groups.  u, v and the
    edge u-v of order 2 lift once; w, x and the trivial edges lift twice,
    the loop at x to a loop at x1 and one at x2, or to two edges x1-x2.
    W1 and W2 are the lifts of w, U the lift of u."""
    pairs = [("e", "u", "v"), ("b11", "u", "w1"), ("b12", "u", "w2"),
             ("b21", "v", "w1"), ("b22", "v", "w2"), ("c1", "w1", "x1"),
             ("c2", "w2", "x2")]
    pairs += ([("m1", "x1", "x2"), ("m2", "x1", "x2")] if parallel
              else [("m1", "x1", "x1"), ("m2", "x2", "x2")])
    return graph_of_groups(
        {v: 1 for v in ("u", "v", "w1", "w2", "x1", "x2")}, pairs,
        {"W1": ["w1"], "W2": ["w2"], "U": ["u"]})


def _lollipop_cover(cycle):
    """A degree-3 cover of the order-3 lollipop with trivial groups.  a
    lifts once, with the three lifts of the edge t to b1, b2 and b3; the
    loop at b lifts to a loop at each b_i, or to the cycle b1-b2-b3.  A is
    the lift of a, B1, B2 and B3 those of b."""
    pairs = [("t1", "a", "b1"), ("t2", "a", "b2"), ("t3", "a", "b3")]
    pairs += ([("l1", "b1", "b2"), ("l2", "b2", "b3"), ("l3", "b3", "b1")]
              if cycle else [("l1", "b1", "b1"), ("l2", "b2", "b2"),
                             ("l3", "b3", "b3")])
    return graph_of_groups(
        {v: 1 for v in ("a", "b1", "b2", "b3")}, pairs,
        {"A": ["a"], "B1": ["b1"], "B2": ["b2"], "B3": ["b3"]})


def _cover_cases():
    """(name, graph of groups, its two covers, pairs): for each (Y-, Y+)
    on the graph, one lift of Y- on a cover and the lifts of Y+, whose
    counts add up.  On orderchain X = {w} and U = {u} of order 2, on the
    lollipop A = {a} of order 3 and B = {b}."""
    doc = to_document(order_two_chain())
    doc["subgraphs"]["U"] = {"vertices": ["u"], "edges": []}
    lifts_b = ["B1", "B2", "B3"]
    return [
        ("orderchain", load_validate(doc),
         [_orderchain_cover(parallel) for parallel in (False, True)],
         [("X", "X", "W1", ["W1", "W2"]), ("U", "X", "U", ["W1", "W2"]),
          ("U", "U", "U", ["U"]), ("X", "U", "W1", ["U"])]),
        ("lollipop", order_three_lollipop(),
         [_lollipop_cover(cycle) for cycle in (False, True)],
         [("B", "B", "B1", lifts_b), ("A", "B", "A", lifts_b),
          ("A", "A", "A", ["A"]), ("B", "A", "B1", ["A"])])]


def _cover_misses(nmax=40):
    """The (graph, cover, Y-, Y+) where count perp on the graph of groups
    differs from the DFS oracle on the cover (to length 10) or from the
    count on the cover (to ``nmax``)."""
    misses = []
    for name, g, covers, pairs in _cover_cases():
        for k, cover in enumerate(covers):
            for minus, plus, cminus, lifts in pairs:
                got = count_perpendiculars(
                    PerpQuery(g, minus, plus, nmax)).counts
                want = [sum(col) for col in zip(*(count_perpendiculars(
                    PerpQuery(cover, cminus, lift, nmax)).counts
                    for lift in lifts))]
                dfs = [sum(col) for col in zip(*(enumerate_perpendiculars(
                    PerpQuery(cover, cminus, lift, 10)) for lift in lifts))]
                if got != want or got[:10] != dfs:
                    misses.append((name, k, minus, plus))
    return misses


def test_graphs_of_groups_match_both_covers():
    assert _cover_misses() == []
    series = count_perpendiculars(PerpQuery(order_two_chain(), "X", "X", 8))
    assert series.counts == [0, 2, 6, 4, 18, 36, 54, 140]


@pytest.mark.parametrize("rule", ["quotient_only_rule",
                                  "merged_repeats_rule"])
def test_covers_catch_a_rule_without_multiplicities(request, rule):
    # negative control: every pair misses on both covers
    request.getfixturevalue(rule)
    assert len(_cover_misses(12)) == 2 * 8


def test_covers_catch_a_start_mass_of_one(monkeypatch):
    # negative control: one start per exit edge, not i(e); only the starts
    # at u of order 2 and at a of order 3, whose exits have i > 1, miss
    exits = GraphOfGroups.exits
    monkeypatch.setattr(GraphOfGroups, "exits", lambda self, name: [
        (e, 1) for e, _ in exits(self, name)])
    assert {(name, minus, plus) for name, _, minus, plus
            in _cover_misses(12)} == {
        ("orderchain", "U", "X"), ("orderchain", "U", "U"),
        ("lollipop", "A", "B"), ("lollipop", "A", "A")}


def test_theta_parity():
    g = theta()
    series = count_perpendiculars(PerpQuery(g, "U", "U", 12))
    # same bipartition class: no odd-length paths
    assert all(series.counts[n - 1] == 0 for n in range(1, 13, 2))
    series2 = count_perpendiculars(PerpQuery(g, "U", "V", 12))
    assert all(series2.counts[n - 1] == 0 for n in range(2, 13, 2))


def test_budget_guard(monkeypatch):
    # 30 directed edges with 2 successor ways each: 60 * 10 entry steps
    g = petersen()
    monkeypatch.setenv("GEODLAB_BUDGET", "599")
    with pytest.raises(BudgetError):
        count_perpendiculars(PerpQuery(g, "P0", "P1", 10))
    monkeypatch.setenv("GEODLAB_BUDGET", "600")
    assert count_perpendiculars(PerpQuery(g, "P0", "P1", 10)).counts
    with pytest.raises(ValueError):
        enumerate_perpendiculars(PerpQuery(g, "P0", "P1", 11))


def test_weighted_counts():
    g = figure_eight().with_conductance(
        {e: 0.5 for e in figure_eight().edge_ids})
    series = count_perpendiculars(PerpQuery(g, "A", "A", 4))
    for n in range(1, 5):
        want = 4 * 3 ** (n - 1) * math.exp(0.5 * n)
        assert abs(series.weighted[n - 1] - want) < 1e-9 * want


def test_weighted_masses_stay_floats_past_a_leaf():
    # the triangle T = abc with a pendant edge to d: the perpendiculars
    # from d end on d -> a, the reverse of T's one exit, which no step
    # reaches, as d has tree degree 1; no mass arrives after length 1
    g = graph_of_groups({v: 1 for v in "abcd"}, [
        ("ab", "a", "b"), ("bc", "b", "c"), ("ca", "c", "a"),
        ("ad", "a", "d")], {"D": ["d"]})
    g.subgraphs["T"] = {"vertices": ["a", "b", "c"],
                        "edges": [e for e in g.edge_ids if "d" not in e]}
    g = g.with_conductance({e: 0.25 for e in g.edge_ids})
    weighted = count_perpendiculars(PerpQuery(g, "D", "T", 4)).weighted
    assert weighted == [math.exp(0.25), 0.0, 0.0, 0.0]
    assert all(type(x) is float for x in weighted)


# ---------------------------------------------------------------------------
# theoretical constants


def _petersen_with_rim():
    """Petersen with its outer 5-cycle o0..o4 as the cycle target "R"."""
    doc = to_document(petersen())
    doc["subgraphs"]["R"] = {
        "vertices": [f"o{i}" for i in range(5)],
        "edges": [f"r{i}{s}" for i in range(5) for s in "+-"]}
    return load_validate(doc)


def _subdivided_theta():
    """theta with each edge pair subdivided into three: u and v joined by
    three paths of length 3, so every closed path has a length divisible
    by 6."""
    doc = to_document(theta())
    doc["edges"] = []
    for name in "abc":
        path = ["u", f"{name}1", f"{name}2", "v"]
        doc["vertices"] += [{"id": v} for v in path[1:3]]
        for k in range(3):
            eid = f"{name}{k}"
            doc["edges"] += [
                {"id": eid + "+", "from": path[k], "to": path[k + 1],
                 "reverse": eid + "-"},
                {"id": eid + "-", "from": path[k + 1], "to": path[k],
                 "reverse": eid + "+"}]
    return load_validate(doc)


def _mutant(old, new):
    """geodlab.counting with its one occurrence of ``old`` replaced by
    ``new``: the mutation a negative control injects."""
    path = Path(counting.__file__)
    source = path.read_text()
    assert source.count(old) == 1
    mod = types.ModuleType("geodlab.counting_mutant")
    mod.__package__ = "geodlab"
    exec(compile(source.replace(old, new), str(path), "exec"), mod.__dict__)
    return mod


def _constants(constant_of, g, minus, plus):
    query = PerpQuery(g, minus, plus, 8)
    return constant_of(query, count_perpendiculars(query)).constants


def _closed_form_misses(constant_of):
    """The (graph, Y-, Y+) whose constants are off the closed forms by more
    than 1e-9: every pair of the aperiodic regular graphs, one constant,
    and of the biregular graph, where class 0 holds the odd lengths."""
    misses = []
    for make in (figure_eight, petersen, dumbbell, _petersen_with_rim,
                 biregular_two_cycles):
        g = make()
        for minus, plus in itertools.product(g.subgraphs, repeat=2):
            if make is biregular_two_cycles:
                even, odd = biregular_constants(g, minus, plus)
                want = [odd, even]
            else:
                want = [float(regular_constant(g, minus, plus))]
            got = _constants(constant_of, g, minus, plus)
            if len(got) != len(want) or not all(
                    math.isclose(x, y, rel_tol=1e-9)
                    for x, y in zip(got, want)):
                misses.append((make.__name__, minus, plus))
    return misses


def _sweep_misses(constant_of):
    """The corpus pairs (the cycles left out: they do not grow) whose last
    ratio at length 200 is off 1 by more than 1e-6 in a residue class with
    perpendiculars, or is not nan in one without."""
    misses = []
    for name, make in sorted(BUILTIN.items()):
        if name.startswith("cycle"):
            continue
        g = make()
        for minus, plus in itertools.product(g.subgraphs, repeat=2):
            query = PerpQuery(g, minus, plus, 200)
            series = count_perpendiculars(query)
            rep = constant_of(query, series)
            d = rep.period
            for n in range(201 - d, 201):
                ratio = rep.ratios[n - 1]
                empty = not any(series.counts[n - 1::-d])
                if not (math.isnan(ratio) if empty
                        else abs(ratio - 1) <= 1e-6):
                    misses.append((name, minus, plus, n))
    return misses


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
    g = make()
    assert regular_constant(g, minus, plus) == want
    (got,) = _constants(theoretical_constant, g, minus, plus)
    assert abs(got - float(want)) < 1e-9


def test_constant_fig8():
    query = PerpQuery(figure_eight(), "A", "A", 12)
    rep = theoretical_constant(query, count_perpendiculars(query))
    assert rep.growth == 3.0 and rep.period == 1
    assert abs(rep.constants[0] - 2.0) < 1e-9
    assert rep.verdict == "pass"
    assert abs(rep.ratios[-1] - 1) < 0.01


def test_constant_petersen_points():
    query = PerpQuery(petersen(), "P0", "P1", 30)
    rep = theoretical_constant(query, count_perpendiculars(query))
    assert abs(rep.constants[0] - 0.3) < 1e-9
    assert rep.verdict == "pass"
    assert abs(rep.ratios[-1] - 1) < 0.03


def test_constant_biregular_cycles():
    query = PerpQuery(biregular_two_cycles(), "C1", "C2", 30)
    rep = theoretical_constant(query, count_perpendiculars(query))
    assert rep.period == 2
    odd, even = rep.constants
    assert abs(even - 11 / 30) < 1e-9
    sp, sq = math.sqrt(2), 4 / math.sqrt(3)
    assert abs(odd - 2 * 6 * 2 * (sp * sq) / (5 * 48)) < 1e-9
    assert rep.verdict == "pass"
    assert abs(rep.ratios[-1] - 1) < 0.05
    assert abs(rep.ratios[-2] - 1) < 0.05


def test_constants_match_the_closed_forms():
    assert _closed_form_misses(theoretical_constant) == []


def test_every_growing_corpus_pair_converges():
    assert _sweep_misses(theoretical_constant) == []
    for name in ("cycle3", "cycle4"):
        query = PerpQuery(BUILTIN[name](), "C", "C", 20)
        with pytest.raises(UnsupportedError):
            theoretical_constant(query, count_perpendiculars(query))


def test_sweep_catches_r_in_place_of_l():
    # negative control: the right Perron vector on the last edges too
    mutant = _mutant("l_cls[cls[i]] += l[i]", "l_cls[cls[i]] += r[i]")
    misses = _sweep_misses(mutant.theoretical_constant)
    assert {m[0] for m in misses} >= {"biregular23", "orderchain"}


def test_checks_catch_a_dropped_period_factor():
    # negative control: the constants without their factor d
    mutant = _mutant("pref = d * rho", "pref = rho")
    assert {m[0] for m in _sweep_misses(mutant.theoretical_constant)} == {
        "biregular23", "theta"}
    assert {m[0] for m in _closed_form_misses(mutant.theoretical_constant)
            } == {"biregular_two_cycles"}


def test_period_of_the_subdivided_theta():
    g = _subdivided_theta()
    fix = closed_orbit_count(g, 36)["fix"]
    d, cls = counting._period(g.nb_successors())
    assert d == math.gcd(*(n for n, f in enumerate(fix, 1) if f)) == 6
    # every step moves on by one class
    assert all(cls[j] == (cls[i] + 1) % d
               for i, row in enumerate(g.nb_successors()) for j, _ in row)
    query = PerpQuery(g, "U", "V", 200)
    rep = theoretical_constant(query, count_perpendiculars(query))
    assert rep.period == 6
    # the paths from u to v have the lengths 3 mod 6
    assert [c > 0 for c in rep.constants] == [False] * 2 + [True] + [False] * 3
    assert abs(rep.ratios[195 - 1] - 1) < 1e-9


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


def test_orbit_horizon_budget(monkeypatch):
    # 4 directed edges with 3 successor ways each: the horizon is
    # bounded by 4 * 12 * nmax <= budget
    monkeypatch.setenv("GEODLAB_BUDGET", str(4 * 12 * 40))
    out = closed_orbit_count(figure_eight(), 40)
    assert out["fix"][26] == 3 ** 27 + 2 - 1
    with pytest.raises(BudgetError):
        closed_orbit_count(figure_eight(), 41)


def test_orbits_degenerate_graph():
    with pytest.raises(DegenerateError):
        closed_orbit_count(two_vertex_segment(), 3)


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
    fix = _trace_powers(bass_matrix(g), nmax)
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
    monkeypatch.setattr(counting, "_sweep", lambda succ, starts, nmax: (
        sweep(succ, [(e, 1) for e, _ in starts], nmax)))
    try:
        caught = not _fix_matches_oracle(BUILTIN[name](), 30)
    except AssertionError:
        # orderchain's halved Fix_4 = 3 already fails the integrality check
        # of the Mobius inversion: primitive_4 = 3 - 1 is not divisible by 4
        caught = name == "orderchain"
    assert caught


def _packed_sweep_misses():
    """The (graph, nmax) at which the exact sweep, all starts packed into
    one integer per edge, differs from one sweep per start edge over
    ``bass_matrix``, with every edge a start of multiplicity 1 and the
    reverse pairs' first edges of multiplicity 2, up to nmax 60: on every
    builtin, the order-3 pair and the lollipop of order 10^3, whose row
    into a holds one pair of 999 ways."""
    misses = []
    graphs = [(name, BUILTIN[name]()) for name in sorted(BUILTIN)]
    graphs += [("pair", order_three_pair()), ("heavy", lollipop(10 ** 3))]
    for name, g in graphs:
        succ = g.nb_successors()
        rev = [g.edge_index[g.edges[e].reverse] for e in g.edge_ids]
        for starts in ([(e, 1) for e in range(len(succ))],
                       [(e, 2) for e in range(len(succ)) if e < rev[e]]):
            want = per_start_sweep(g, starts, 60)
            misses += [(name, nmax) for nmax in (1, 2, 7, 60)
                       if counting._sweep(succ, starts, nmax)
                       != want[:nmax]]
    return misses


def test_packed_sweep_is_the_per_start_sweep():
    assert _packed_sweep_misses() == []


def test_sweep_check_sees_a_slot_too_narrow(monkeypatch):
    # negative control: half the bits, so a large mass carries into the
    # next start's slot; the cycles, whose masses stay 1, pass, and so does
    # the heavy lollipop, whose 999 ways come at most every second step,
    # so its masses stay near 999^(n/2), inside half of its L^n bound
    bits = counting._slot_bits
    monkeypatch.setattr(counting, "_slot_bits",
                        lambda succ, nmax: bits(succ, nmax) // 2)
    assert {name for name, _ in _packed_sweep_misses()} == (
        set(BUILTIN) - {"cycle3", "cycle4"} | {"pair"})


def test_sweep_check_sees_slots_sized_by_pairs(monkeypatch):
    # negative control: slots sized as if every m were 1, so by the pairs
    # of the longest row and not its ways; the heavy row's one pair of 999
    # ways overflows its slot
    bits = counting._slot_bits
    monkeypatch.setattr(counting, "_slot_bits", lambda succ, nmax: bits(
        [[(f, 1) for f, _ in row] for row in succ], nmax))
    assert "heavy" in {name for name, _ in _packed_sweep_misses()}


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
    Bw = np.array(bass_matrix(g), dtype=float) * np.exp(
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

    def halved(succ, starts, nmax, weights=None):
        if weights is not None:
            starts = [(e, 2) for e, _ in starts if e < rev[e]]
        return sweep(succ, starts, nmax, weights)

    monkeypatch.setattr(counting, "_sweep", halved)
    assert not _weighted_traces_match_oracle(g, 30)


def test_petersen_orbits_to_200():
    out = closed_orbit_count(petersen(), 200)
    assert out["fix"][:26] == _trace_powers(bass_matrix(petersen()), 26)
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
    # Fix_n ~ 3^n: a horizon of 10^6 passes the budget (4 * 12 * 10^6)
    # but must stop near n = 647, not hold 10^6 ever larger integers
    with pytest.raises(TooLargeError):
        closed_orbit_count(figure_eight(), 10 ** 6)


def _dead_end_graph():
    """Figure eight at v with an edge to w, whose vertex group of order 3
    makes its tree-degree 3: the quotient graph has a dead end at w, but
    in the tree a path into w turns back along one of the two other lifts
    of the edge."""
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
    # every edge comes back to itself, so the float check on the counts
    # ends the long horizon quickly
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
