"""Thermodynamic formalism on subshifts of finite type.

Closed-form oracles: full shifts with one-step potentials are Bernoulli
(p_b proportional to e^{c_b}, pressure log sum e^{c_b}); the golden-mean
shift has pressure log((1+sqrt 5)/2) with explicit Perron data.  From
oracles.py: the literal enumeration of periodic Gibbs ratios and the
brute-force variational fit.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geodlab import shift
from geodlab.errors import ReducibleError
from geodlab.library import (
    BUILTIN,
    figure_eight,
    order_two_chain,
    petersen,
    theta,
)
from geodlab.shift import (
    GIBBS_GROWTH,
    EdgeShift,
    MarkovMeasure,
    correlation_decay,
    equilibrium_measure,
    pressure,
    weak_gibbs_audit,
)
from oracles import (
    brute_force_equilibrium,
    dense,
    gibbs_audit_reference,
    order_three_lollipop,
    order_three_pair,
    periodic_gibbs_ratios,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def _rows(A):
    """The successor rows of a 0/1 transition matrix: a pair (b, 1) for
    each 1 at column b."""
    return [[(b, 1) for b in np.flatnonzero(row)] for row in A]


def _irreducible_misses():
    """The random 0/1 transition matrices, 1 to 5 letters, on which
    is_irreducible and networkx's strong connectivity disagree.  networkx
    calls one letter without a transition strongly connected; a shift
    with no transition has no Perron data, so it is reducible."""
    rng = np.random.default_rng(8)
    misses = []
    for _ in range(300):
        k = int(rng.integers(1, 6))
        A = (rng.random((k, k)) < 0.35).astype(int)
        connected = nx.is_strongly_connected(nx.from_numpy_array(
            A, create_using=nx.DiGraph))
        if (EdgeShift(range(k), _rows(A)).is_irreducible()
                != (A.any() and connected)):
            misses.append(A.tolist())
    return misses


def test_irreducible_is_strong_connectivity():
    assert _irreducible_misses() == []


def test_irreducible_check_sees_one_step_reach(monkeypatch):
    # negative control: a search that stops after one step
    monkeypatch.setattr(shift, "_reached",
                        lambda start, arcs: {start} | {w for u, w in arcs
                                                       if u == start})
    assert _irreducible_misses()


def test_pressure_full_shift():
    assert abs(pressure(EdgeShift.full_shift(2)) - math.log(2)) < 1e-12
    assert abs(pressure(EdgeShift.full_shift(3)) - math.log(3)) < 1e-12


def test_pressure_golden_mean():
    assert abs(pressure(EdgeShift.golden_mean()) - math.log(GOLDEN)) < 1e-10


def test_pressure_graph_shifts():
    # (q+1)-regular graph: NB growth rate is exactly log q
    assert abs(pressure(EdgeShift.from_graph(figure_eight()))
               - math.log(3)) < 1e-10
    assert abs(pressure(EdgeShift.from_graph(petersen()))
               - math.log(2)) < 1e-10


# graphs of groups whose Bass-Serre tree is (q+1)-regular, with their q
GROUP_GRAPHS = [(order_two_chain, 2), (order_three_lollipop, 2),
                (order_three_pair, 4)]


def _pressure_misses():
    """The graphs of GROUP_GRAPHS whose pressure is not log q to 1e-10, or
    whose edge step is reducible."""
    misses = []
    for make, q in GROUP_GRAPHS:
        g = make()
        assert {g.tree_degree(v) for v in g.vertex_ids} == {q + 1}
        try:
            got = pressure(EdgeShift.from_graph(g))
        except ReducibleError:
            got = math.nan
        if not abs(got - math.log(q)) < 1e-10:
            misses.append(make.__name__)
    return misses


def test_pressure_is_log_q_on_graphs_of_groups():
    assert _pressure_misses() == []


@pytest.mark.parametrize("rule", ["quotient_only_rule",
                                  "merged_repeats_rule"])
def test_pressure_check_catches_a_rule_without_multiplicities(request, rule):
    # negative control: every graph of groups misses log q
    request.getfixturevalue(rule)
    assert len(_pressure_misses()) == len(GROUP_GRAPHS)


def test_pressure_weighted_full_shift():
    # Bernoulli closed form: P = log(e^{c_0} + e^{c_1})
    c = [0.3, -0.7]
    s = EdgeShift.full_shift(2, c)
    assert abs(pressure(s) - math.log(sum(map(math.exp, c)))) < 1e-12


def test_equilibrium_is_stationary():
    s = EdgeShift.golden_mean()
    m = equilibrium_measure(s)
    p, P = np.asarray(m.p), dense(s.succ, m.P)
    assert np.abs(P.sum(axis=1) - 1).max() < 1e-12
    assert np.abs(p @ P - p).max() < 1e-12
    assert abs(p.sum() - 1) < 1e-12


def test_equilibrium_golden_closed_form():
    m = equilibrium_measure(EdgeShift.golden_mean())
    phi2 = GOLDEN ** 2
    assert abs(m.p[0] - phi2 / (phi2 + 1)) < 1e-10
    assert abs(m.p[1] - 1 / (phi2 + 1)) < 1e-10


def test_equilibrium_bernoulli_closed_form():
    c = [0.5, -0.25, 0.0]
    m = equilibrium_measure(EdgeShift.full_shift(3, c))
    w = np.exp(c)
    w /= w.sum()
    assert np.abs(np.asarray(m.p) - w).max() < 1e-10
    assert np.abs(dense(m.shift.succ, m.P) - w[None, :]).max() < 1e-10


def test_variational_identity():
    c = [0.1, -0.4]
    m = equilibrium_measure(EdgeShift.golden_mean(c))
    assert abs(m.entropy + m.phi_integral - m.pressure) < 1e-12


def _orderchain_measure(conductance):
    """The equilibrium state of orderchain's edge shift, under a seeded
    potential when asked."""
    rng = np.random.default_rng(11)
    g = order_two_chain()
    if conductance:
        g = g.with_conductance({e: float(rng.uniform(-0.5, 0.5))
                                for e in g.edge_ids})
    return equilibrium_measure(EdgeShift.from_graph(g))


@pytest.mark.parametrize("conductance", [False, True])
def test_variational_identity_on_a_graph_of_groups(conductance):
    m = _orderchain_measure(conductance)
    assert abs(m.entropy + m.phi_integral - m.pressure) < 1e-12
    # the chain with the ways to one successor added up is stationary
    P = dense(m.shift.succ, m.P)
    assert np.abs(P.sum(axis=1) - 1).max() < 1e-12
    assert np.abs(np.asarray(m.p) @ P - m.p).max() < 1e-10


def test_variational_identity_sees_merged_repeats():
    # negative control: the entropy of the chain whose rows merge the ways
    # to one successor misses the identity by sum p_a P_ab log m_ab
    m = _orderchain_measure(True)
    P = dense(m.shift.succ, m.P)
    merged = -sum(pa * x * math.log(x) for pa, row in zip(m.p, P)
                  for x in row if x > 0)
    assert abs(merged + m.phi_integral - m.pressure) > 1e-3


def test_spectral_rate_adds_the_ways():
    # the dense chain of the spectral oracle adds repeated successors: its
    # top eigenvalue is 1 and the rate is the next modulus
    m = _orderchain_measure(True)
    f = [1.0] + [0.0] * (m.shift.n_letters() - 1)
    rate = correlation_decay(m, f, f, 4)["spectral_rate"]
    eigs = np.sort(np.abs(np.linalg.eigvals(dense(m.shift.succ, m.P))))
    assert abs(eigs[-1] - 1) < 1e-12
    assert abs(rate - eigs[-2]) < 1e-12


# the cylinder [w] has mass p(w_0) prod_i P[w_i, w_(i+1)]


def test_cylinder_full_shift():
    m = equilibrium_measure(EdgeShift.full_shift(2))
    P = dense(m.shift.succ, m.P)
    assert abs(m.p[0] * P[0, 1] * P[1, 0] - 0.125) < 1e-12


def test_cylinder_golden():
    m = equilibrium_measure(EdgeShift.golden_mean())
    P = dense(m.shift.succ, m.P)
    # p_0 * P_01 * P_10 with P_01 = 1/phi^2, P_10 = 1
    want = (GOLDEN ** 2 / (GOLDEN ** 2 + 1)) / GOLDEN ** 2
    assert abs(m.p[0] * P[0, 1] * P[1, 0] - want) < 1e-10


def test_cylinder_inadmissible():
    # 1 -> 1 is forbidden in the golden-mean shift: [1, 1] has no mass
    m = equilibrium_measure(EdgeShift.golden_mean())
    assert dense(m.shift.succ, m.P)[1, 1] == 0


def test_admissible_predicate():
    # 0 may follow either letter, 1 only 0
    assert EdgeShift.golden_mean().succ == [[(0, 1), (1, 1)], [(0, 1)]]
    assert EdgeShift.full_shift(3).succ == [[(0, 1), (1, 1), (2, 1)]] * 3


# ---------------------------------------------------------------------------
# weak-Gibbs audit against the literal cylinder enumeration


def test_gibbs_audit_full_shift_sharp():
    m = equilibrium_measure(EdgeShift.full_shift(2))
    audit = weak_gibbs_audit(m, 6)
    assert audit["passes"]
    assert abs(audit["C"] - 1.0) < 1e-9


def test_gibbs_audit_fig8():
    m = equilibrium_measure(EdgeShift.from_graph(figure_eight()))
    audit = weak_gibbs_audit(m, 6)
    assert audit["passes"]
    assert abs(audit["C"] - 1.0) < 1e-9
    for lo, hi in audit["per_letter"].values():
        assert abs(lo - 0.75) < 1e-9 and abs(hi - 0.75) < 1e-9


def _three_letter_measure():
    rng = np.random.default_rng(11)
    A = np.array([[1, 1, 0], [1, 1, 1], [1, 0, 1]])
    pot = rng.normal(scale=0.5, size=3)
    return equilibrium_measure(EdgeShift(list(range(3)), _rows(A), pot))


def _ratios_outside_audit(audit, m):
    """The literal periodic Gibbs ratios of m outside the audit's range."""
    lo = min(l for l, _ in audit["per_letter"].values())
    hi = max(h for _, h in audit["per_letter"].values())
    return [r for n in range(1, 9) for r in periodic_gibbs_ratios(m, n)
            if not lo - 1e-9 <= r <= hi + 1e-9]


def test_gibbs_audit_bounds_literal_ratios():
    m = _three_letter_measure()
    assert _ratios_outside_audit(weak_gibbs_audit(m, 8), m) == []


def test_literal_ratios_catch_an_audit_off_by_a_factor():
    # negative control: an audit that adds 0.5 to the pressure rates every
    # word of length n e^{n/2} too high
    m = _three_letter_measure()
    wrong = MarkovMeasure(m.shift, m.p, m.P, m.entropy, m.phi_integral,
                          m.pressure + 0.5)
    assert _ratios_outside_audit(weak_gibbs_audit(wrong, 8), m)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_gibbs_audit_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    while True:
        A = (rng.random((k, k)) < 0.7).astype(float)
        s = EdgeShift(list(range(k)), _rows(A), rng.normal(scale=0.4, size=k))
        if s.is_irreducible():
            break
    m = equilibrium_measure(s)
    audit = weak_gibbs_audit(m, 7)
    ratios = [r for n in range(1, 8) for r in periodic_gibbs_ratios(m, n)]
    assert audit["passes"]
    assert max(ratios) <= audit["C"] + 1e-9


@pytest.mark.parametrize("name", sorted(set(BUILTIN) - {"cycle3", "cycle4"}))
def test_gibbs_audit_passes_on_the_corpus(name):
    # the cycles are left out: their non-backtracking shift is reducible
    m = equilibrium_measure(EdgeShift.from_graph(BUILTIN[name]()))
    for maxlen in (8, 12):
        assert weak_gibbs_audit(m, maxlen)["passes"], maxlen


def _golden_controls():
    """The golden-mean measure, the same with its pressure 0.5 too high,
    and with uniform transitions.  The first scales the Gibbs ratio of a
    period-n word by e^(n/2); under the second the words 0^n and (01)^(n/2)
    drift apart by 2^(n/2).  Either spread grows without bound."""
    m = equilibrium_measure(EdgeShift.golden_mean())
    shifted = MarkovMeasure(m.shift, m.p, m.P, m.entropy, m.phi_integral,
                            m.pressure + 0.5)
    uniform = MarkovMeasure(m.shift, m.p,
                            [[1 / len(row)] * len(row) for row in m.shift.succ],
                            m.entropy, m.phi_integral, m.pressure)
    return m, shifted, uniform


def test_gibbs_audit_fails_where_the_spread_grows():
    m, shifted, uniform = _golden_controls()
    assert weak_gibbs_audit(m, 12)["passes"]
    for wrong in (shifted, uniform):
        audit = weak_gibbs_audit(wrong, 12)
        assert not audit["passes"]
        assert math.isfinite(audit["C"])
        assert audit["C"] > GIBBS_GROWTH * audit["C_half"]


def test_gibbs_audit_below_two_compares_with_spread_one():
    # no period <= maxlen // 2 = 0: C_half is 1, so C itself is bounded
    m, shifted, _ = _golden_controls()
    for measure in (m, shifted):
        audit = weak_gibbs_audit(measure, 1)
        assert audit["C_half"] == 1.0 and audit["passes"]
    # no period 1 on the Petersen graph (girth 5): C is infinite
    audit = weak_gibbs_audit(equilibrium_measure(
        EdgeShift.from_graph(petersen())), 1)
    assert audit["C"] == math.inf and not audit["passes"]


def _gibbs_measures():
    """(name, measure): the builtins whose shift is irreducible, the golden
    mean and full-shift presets, the golden controls, theta with a
    conductance on every edge, and seeded random SFTs with potentials."""
    out = [(name, equilibrium_measure(EdgeShift.from_graph(BUILTIN[name]())))
           for name in sorted(set(BUILTIN) - {"cycle3", "cycle4"})]
    out += [("full2", equilibrium_measure(EdgeShift.full_shift(2))),
            ("full3", equilibrium_measure(EdgeShift.full_shift(
                3, [0.3, -0.2, 0.5])))]
    out += zip(("golden", "shifted", "uniform"), _golden_controls())
    g = theta()
    out.append(("weighted theta", equilibrium_measure(EdgeShift.from_graph(
        g.with_conductance({e: 0.1 * k - 0.2
                            for k, e in enumerate(g.edge_ids)})))))
    rng = np.random.default_rng(23)
    while len(out) < 20:
        k = int(rng.integers(3, 7))
        A = (rng.random((k, k)) < 0.5).astype(float)
        s = EdgeShift(list(range(k)), _rows(A), rng.normal(scale=0.5, size=k))
        if s.is_irreducible():
            out.append((f"random {len(out)}", equilibrium_measure(s)))
    return out


def test_gibbs_audit_is_the_array_program_bit_for_bit():
    misses = []
    for name, m in _gibbs_measures():
        for maxlen in range(1, 13):
            audit = weak_gibbs_audit(m, maxlen)
            got = (audit["per_letter"], audit["C"], audit["C_half"])
            if repr(got) != repr(gibbs_audit_reference(m, maxlen)):
                misses.append((name, maxlen))
    assert misses == []


def test_gibbs_audit_in_blocks_of_start_letters_is_the_same(monkeypatch):
    # every measure above fits one block; 21 cells make blocks of one to
    # three letters on six letters or more, and of four and then one on
    # the random five-letter shifts
    want = [repr(weak_gibbs_audit(m, maxlen)) for _, m in _gibbs_measures()
            for maxlen in (1, 12)]
    monkeypatch.setattr(shift, "GIBBS_CELLS", 21)
    assert [repr(weak_gibbs_audit(m, maxlen)) for _, m in _gibbs_measures()
            for maxlen in (1, 12)] == want


# ---------------------------------------------------------------------------
# correlation decay


def test_correlation_decay_golden():
    m = equilibrium_measure(EdgeShift.golden_mean())
    f = [1.0, 0.0]
    out = correlation_decay(m, f, f, 30)
    assert abs(out["cov"][-1]) < 1e-10
    # second eigenvalue of P is -1/phi^2
    assert abs(out["spectral_rate"] - 1 / GOLDEN ** 2) < 1e-10
    assert abs(out["fitted_rate"] - out["spectral_rate"]) < 0.05


def test_correlation_constant_observable():
    m = equilibrium_measure(EdgeShift.full_shift(2))
    out = correlation_decay(m, [1.0, 1.0], [1.0, 1.0], 10)
    assert max(abs(c) for c in out["cov"]) < 1e-12


# ---------------------------------------------------------------------------
# brute-force variational oracle


@pytest.fixture(scope="module")
def golden_fit():
    """A golden-mean shift with a random potential and its brute-force
    variational fit."""
    rng = np.random.default_rng(3)
    A = np.array([[1, 1], [1, 0]], dtype=float)
    s = EdgeShift([0, 1], _rows(A), rng.normal(scale=0.5, size=2))
    return s, brute_force_equilibrium(s, n_starts=8, seed=1)


def _matches_brute_force(m, bf):
    return (abs(bf.pressure - m.pressure) < 1e-6
            and 0.5 * np.abs(np.asarray(bf.p) - np.asarray(m.p)).sum() < 1e-4)


def test_brute_force_matches_spectral(golden_fit):
    s, bf = golden_fit
    assert _matches_brute_force(equilibrium_measure(s), bf)


def test_brute_force_catches_a_dropped_potential(golden_fit):
    # negative control: the equilibrium state of the shift without its
    # potential
    s, bf = golden_fit
    no_potential = equilibrium_measure(EdgeShift(s.letters, s.succ))
    assert not _matches_brute_force(no_potential, bf)


def test_brute_force_caps_letters():
    with pytest.raises(ValueError):
        brute_force_equilibrium(EdgeShift.full_shift(5))


def test_reducible_rejected():
    s = EdgeShift([0, 1], [[(0, 1), (1, 1)], [(1, 1)]])
    with pytest.raises(ReducibleError):
        equilibrium_measure(s)
    # e^-1000 underflows to 0: no step enters that edge
    g = petersen().with_conductance({"r0+": -1000.0})
    with pytest.raises(ReducibleError):
        pressure(EdgeShift.from_graph(g))


@pytest.mark.parametrize("verb", [pressure, equilibrium_measure])
def test_letter_without_transitions_is_reducible(verb):
    # one letter and no transition: no Perron data, and no ways to divide
    # the budget by
    s = EdgeShift([0], [[]])
    assert not s.is_irreducible()
    with pytest.raises(ReducibleError):
        verb(s)
