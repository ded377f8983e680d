"""Acceptance suite: one test per headline criterion, each printing a
single PASS/FAIL line (written straight to the terminal so the summary is
visible even under output capture).
"""

import math
import random
import sys
import time
from fractions import Fraction

import numpy as np

from geodlab.bt import (
    BTMatrix,
    covolume_suite,
    farey_count,
    hecke_index,
    horoball_height,
    patterson_point_ball,
    patterson_total,
    transform_check,
    translation_length,
    vertex_distance,
)
from geodlab.counting import (
    PerpQuery,
    closed_orbit_count,
    conjugacy_count,
    count_perpendiculars,
    theoretical_constant,
)
from geodlab.ffield import (
    FqPoly,
    QuadIrr,
    RatFunc,
    mertens_sum,
    parse_poly,
    prime_sieves,
)
from geodlab.library import (
    biregular_two_cycles,
    dumbbell,
    figure_eight,
    petersen,
    theta,
)
from geodlab.shift import (
    EdgeShift,
    equilibrium_measure,
    pressure,
    weak_gibbs_audit,
)
from geodlab.walks import (
    green_ratio_check,
    nbrw_exact,
    nbrw_sample,
    tree_harmonic_measure,
)
from oracles import (
    brute_force_equilibrium,
    mertens_closed_form,
    vertex_distance_smith,
)


# collected by conftest.py and echoed in the terminal summary, where
# pytest's output capture cannot swallow them
RESULT_LINES = []


def report(num, ok, desc):
    line = f"[acceptance {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}"
    RESULT_LINES.append(line)
    print(line)
    sys.stdout.flush()
    assert ok, line


def test_01_figure_eight_exact_law():
    t0 = time.time()
    series = count_perpendiculars(PerpQuery(figure_eight(), "A", "A", 15))
    ok = all(series.cumulative[n - 1] == 2 * (3 ** n - 1)
             for n in range(1, 16))
    elapsed = time.time() - t0
    report(1, ok and elapsed < 0.1,
           f"figure-8 cumulative = 2(3^n-1) for n<=15 ({elapsed:.3f}s)")


def test_02_regular_counting_constant():
    t0 = time.time()
    series = count_perpendiculars(PerpQuery(petersen(), "P0", "P1", 30))
    ratio = series.cumulative[29] / (0.3 * 2 ** 30)
    elapsed = time.time() - t0
    ok = abs(ratio - 1) < 0.03 and elapsed < 1
    report(2, ok, f"Petersen N(30) 2^-30 = {0.3 * ratio:.5f} "
                  f"(target 0.3, off by {abs(ratio - 1):.2%}, {elapsed:.2f}s)")


def test_03_biregular_cycles():
    t0 = time.time()
    query = PerpQuery(biregular_two_cycles(), "C1", "C2", 30)
    rep = theoretical_constant(query, count_perpendiculars(query))
    # period 2, rho = sqrt(pq): the last odd-length and even-length ratios
    # against the constants of their residue classes
    ok = (rep.period == 2 and abs(rep.growth - math.sqrt(6)) < 1e-9
          and rep.verdict == "pass"
          and abs(rep.ratios[-1] - 1) < 0.05
          and abs(rep.ratios[-2] - 1) < 0.05)
    elapsed = time.time() - t0
    ok = ok and elapsed < 5
    report(3, ok, f"biregular (2,3) odd/even cumulative within 5% of "
                  f"C_parity (sqrt pq)^len: ratios {rep.ratios[-2]:.4f}, "
                  f"{rep.ratios[-1]:.4f} ({elapsed:.2f}s)")


def test_04_polynomial_mertens():
    t0 = time.time()
    ok = True
    for q in (2, 3, 5):
        for n in range(1, 6):
            ok = ok and mertens_sum(q, n, budget=10 ** 8) == \
                mertens_closed_form(q, n)
            monic = [*prime_sieves(q, n)][-1].phi_sum()
            ok = ok and monic == q ** (2 * n) * (q - 1) // q
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    report(4, ok, f"Mertens sums exact for q in (2,3,5), n<=5, plus monic "
                  f"per-degree identity ({elapsed:.2f}s)")


def test_05_pressure_critical_exponent():
    # cycle graphs are excluded: their NB dynamics splits into the two
    # orientations, so the shift is reducible by construction
    regular = {figure_eight(): 3, theta(): 2, petersen(): 2}
    ok = all(abs(pressure(EdgeShift.from_graph(g)) - math.log(q)) < 1e-10
             for g, q in regular.items())
    golden = pressure(EdgeShift.golden_mean())
    ok = ok and abs(golden - math.log((1 + math.sqrt(5)) / 2)) < 1e-10
    report(5, ok, "delta_0 = log q on all regular corpus graphs; "
                  "golden-mean pressure to 1e-10")


def test_06_variational_and_weak_gibbs():
    rng = np.random.default_rng(2024)
    ok = True
    for trial in range(25):
        k = int(rng.integers(2, 5))
        while True:
            A = (rng.random((k, k)) < 0.75).astype(float)
            s = EdgeShift(list(range(k)), [np.flatnonzero(r) for r in A],
                          rng.normal(scale=0.5, size=k))
            if s.is_irreducible():
                break
        m = equilibrium_measure(s)
        ok = ok and abs(m.entropy + m.phi_integral - m.pressure) < 1e-8
        audit = weak_gibbs_audit(m, 12)
        ok = ok and audit["passes"] and math.isfinite(audit["C"])
        bf = brute_force_equilibrium(s, n_starts=8, seed=trial)
        ok = ok and abs(bf.pressure - m.pressure) < 1e-6
        tv = 0.5 * np.abs(np.asarray(bf.p) - np.asarray(m.p)).sum()
        ok = ok and tv < 1e-4
    report(6, ok, "25 random SFTs: variational identity 1e-8, weak-Gibbs "
                  "ratios bounded to length 12, brute-force oracle agrees")


def test_07_nbrw_convergence():
    exact = nbrw_exact(petersen(), "P0", 60)
    ok = exact["tv_to_target"] < 1e-3
    mc = nbrw_sample(petersen(), "P0", 60, 10 ** 5, 17)
    e = np.asarray(exact["vertex_dist"])
    sigma = np.sqrt(e * (1 - e) / 10 ** 5)
    ok = ok and (np.abs(np.asarray(mc["empirical"]) - e)
                 <= 3 * sigma + 1e-12).all()
    report(7, ok, f"Petersen NBRW: TV at n=60 = {exact['tv_to_target']:.2e} "
                  "< 1e-3; 1e5-path Monte Carlo within 3 sigma per vertex")


def test_08_harmonic_measure():
    t0 = time.time()
    ok = True
    for depth, target in ((1, 1 / 3), (2, 1 / 6)):
        out = tree_harmonic_measure(2, depth, 10 ** 6, depth)
        ok = ok and abs(out["target"] - target) < 1e-15
        ok = ok and all(abs(est - target) <= 3 * out["sigma"]
                        for est in out["estimates"])
    elapsed = time.time() - t0
    ok = ok and elapsed < 30
    report(8, ok, f"tree harmonic measure: shadows 1/3 and 1/6 within "
                  f"3 sigma at 1e6 paths ({elapsed:.1f}s)")


def test_09_green_ratio():
    out = green_ratio_check(2, 1, 2, 20000, 5)
    ok = abs(out["ratio"] - 2.0) <= 3 * out["sigma"]
    report(9, ok, f"Green ratio d=1 vs d=2: {out['ratio']:.4f} within "
                  f"3 sigma of 2")


def test_10_closed_orbits():
    out = closed_orbit_count(petersen(), 24)
    B = petersen().nb_transfer()
    M = np.array(B, dtype=object)
    P = np.eye(len(M), dtype=object)
    ok = True
    for n in range(1, 25):
        P = P @ M
        ok = ok and out["fix"][n - 1] == int(np.trace(P))
    cum = sum(out["orbits"][:24])
    target = 2 * 2 ** 24 / 24
    ok = ok and abs(cum / target - 1) < 0.15
    report(10, ok, f"Petersen: Fix_n = tr(B^n) exactly to n=24; cumulative "
                   f"prime orbits off closed form by {abs(cum/target-1):.1%}")


def test_11_conjugacy_counting():
    out = conjugacy_count(dumbbell(), "w", ["l+"], 34)
    val = out[34] / 2 ** 16
    ok = abs(val - 0.5) < 0.05
    report(11, ok, f"dumbbell loop class: N(34)/q^16 = {val:.4f} "
                   "within 10% of 1/2")


def test_12_bruhat_tits_identities():
    rng = random.Random(99)

    def rand_poly(q, max_deg):
        deg = rng.randrange(max_deg + 1)
        return FqPoly(q, [rng.randrange(q) for _ in range(deg + 1)])

    ok = True
    checked = 0
    while checked < 200:
        q = rng.choice((2, 3, 5))
        try:
            g = BTMatrix(*(rand_poly(q, 3) for _ in range(4)))
        except Exception:
            continue
        ok = ok and vertex_distance(g) == vertex_distance_smith(g)
        checked += 1
    q3 = 3
    Y, one, zero = FqPoly.x(q3), FqPoly.one(q3), FqPoly.zero(q3)
    ok = ok and horoball_height(BTMatrix(zero, one, -one, zero))[0] == 0
    ok = ok and horoball_height(BTMatrix(one, zero, Y, one))[0] == 2
    g = BTMatrix(RatFunc(one), RatFunc(zero), RatFunc(one, Y), RatFunc(one))
    ok = ok and horoball_height(g)[0] == -2
    ok = ok and translation_length(BTMatrix(one, Y, zero, one)) == 0
    ok = ok and translation_length(BTMatrix(Y, one, one, zero)) == 2
    ok = ok and translation_length(BTMatrix(Y * Y, one, one, zero)) == 4
    ok = ok and all(covolume_suite(q)["agree"] for q in (2, 3, 5))
    for q, text in ((2, "Y"), (3, "Y^2+Y"), (3, "Y^2+1")):
        value, count = hecke_index(q, parse_poly(q, text))
        ok = ok and value == count
    report(12, ok, "200 random distances == Smith oracle; horoball/"
                   "translation worked examples; covolume and Hecke "
                   "identities exact")


def test_13_patterson_masses():
    ok = all(patterson_total(q) == Fraction(q + 1, q) for q in (2, 3, 5))
    for q in (2, 3, 5):
        whole = patterson_point_ball(q, RatFunc.const(q, 0), 0)
        parts = sum(patterson_point_ball(q, RatFunc.const(q, c), 1)
                    for c in range(q))
        ok = ok and whole == parts == 1
    report(13, ok, "Patterson total mass (q+1)/q and ball sigma-additivity "
                   "exact for q in (2,3,5)")


def test_14_norm_form_transformation():
    rng = random.Random(5)

    def random_gl2(q):
        Y, one, zero = FqPoly.x(q), FqPoly.one(q), FqPoly.zero(q)
        g = BTMatrix(one, zero, zero, one)
        for _ in range(rng.randrange(2, 5)):
            kind = rng.randrange(3)
            if kind == 0:
                f = FqPoly(q, [rng.randrange(q) for _ in
                               range(rng.randrange(1, 3))])
                step = BTMatrix(one, f, zero, one)
            elif kind == 1:
                f = FqPoly(q, [rng.randrange(q) for _ in
                               range(rng.randrange(1, 3))])
                step = BTMatrix(one, zero, f, one)
            else:
                step = BTMatrix(zero, one, one, zero)
            g = g @ step
        return g

    alphas = [
        QuadIrr(FqPoly.one(3), FqPoly.zero(3), -parse_poly(3, "Y^2+Y")),
        QuadIrr(FqPoly.one(3), FqPoly.zero(3), -parse_poly(3, "Y^2+1")),
        QuadIrr(FqPoly.one(5), FqPoly.zero(5), -parse_poly(5, "Y^2+2")),
    ]
    ok = True
    for alpha in alphas:
        for _ in range(20):
            ok = ok and transform_check(alpha, random_gl2(alpha.q), grid=5)
    report(14, ok, "norm-form transformation law exact on 5x5 grids, "
                   "20 random unimodular g per quadratic irrational")


def test_15_farey_equidistribution():
    out = farey_count(2, 8, hist_depth=1)
    counts = list(out["histogram"].values())
    mean = sum(counts) / len(counts)
    ok = len(counts) == 2 and all(abs(c / mean - 1) < 0.02 for c in counts)
    report(15, ok, f"Farey q=2, t=8: depth-1 ball histogram {counts} "
                   "uniform within 2%")
