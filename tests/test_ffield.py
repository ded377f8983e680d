"""Tests for polynomial / Laurent-series / continued-fraction arithmetic
over F_q(Y).  Derived values are frozen from independent brute-force
oracles computed inline.
"""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

from geodlab.errors import (
    CharTwoError,
    NotIrrationalError,
    NotSplitError,
)
from geodlab import ffield
from geodlab.ffield import (
    FqPoly,
    LaurentSeries,
    QuadIrr,
    RatFunc,
    cf_expand,
    euler_phi,
    factor,
    laurent_expand,
    mertens_sum,
    monic_irreducibles,
    monic_phi_sum,
    parse_poly,
    parse_ratfunc,
    poly_range,
    prime_sieves,
)
from oracles import (
    convergents,
    mertens_closed_form,
    orbit_bfs,
    quad_invariants,
)


def poly_strategy(q, max_deg=6):
    return st.lists(st.integers(0, q - 1), min_size=0, max_size=max_deg + 1)


# ---------------------------------------------------------------------------
# FqPoly ring arithmetic


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2, 3, 5]), a=poly_strategy(5), b=poly_strategy(5),
       c=poly_strategy(5))
def test_ring_axioms(q, a, b, c):
    fa = FqPoly(q, [x % q for x in a])
    fb = FqPoly(q, [x % q for x in b])
    fc = FqPoly(q, [x % q for x in c])
    assert fa + fb == fb + fa
    assert (fa + fb) + fc == fa + (fb + fc)
    assert fa * fb == fb * fa
    assert fa * (fb + fc) == fa * fb + fa * fc
    assert fa + FqPoly.zero(q) == fa
    assert fa * FqPoly.one(q) == fa


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2, 3, 5]), a=poly_strategy(5), b=poly_strategy(4))
def test_divmod_invariant(q, a, b):
    fa = FqPoly(q, [x % q for x in a])
    fb = FqPoly(q, [x % q for x in b])
    if fb.is_zero():
        return
    quo, rem = divmod(fa, fb)
    assert quo * fb + rem == fa
    assert rem.is_zero() or rem.degree < fb.degree


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([2, 3]), a=poly_strategy(5), b=poly_strategy(5))
def test_gcd_divides(q, a, b):
    fa = FqPoly(q, [x % q for x in a])
    fb = FqPoly(q, [x % q for x in b])
    g = fa.gcd(fb)
    if g.is_zero():
        assert fa.is_zero() and fb.is_zero()
        return
    assert g.lc == 1
    assert (fa % g).is_zero()
    assert (fb % g).is_zero()


def _assert_canonical(f, q):
    """Reduced mod q, trimmed, and equal (coefficients and hash) to the
    checked constructor's result on the same coefficients."""
    assert all(0 <= c < q for c in f.coeffs)
    assert not f.coeffs or f.coeffs[-1] != 0
    g = FqPoly(q, f.coeffs)
    assert f.q == g.q == q and f.coeffs == g.coeffs and hash(f) == hash(g)


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from([2, 3, 5, 7]),
       a=st.lists(st.integers(-20, 20), max_size=8),
       b=st.lists(st.integers(-20, 20), max_size=6))
def test_trusted_results_are_canonical(q, a, b):
    fa, fb = FqPoly(q, a), FqPoly(q, b)
    results = [fa + fb, fa - fb, fb - fa, -fa, fa * fb, fa.gcd(fb),
               fa.monic(), fb.monic(), fa + 3, fa * 3]
    if not fb.is_zero():
        quo, rem = divmod(fa, fb)
        assert fa == fb * quo + rem
        assert rem.is_zero() or rem.degree < fb.degree
        results += [quo, rem, fa // fb, fa % fb]
    for f in results:
        _assert_canonical(f, q)


def test_poly_range_is_canonical():
    for q in (2, 3, 5, 7):
        for f in poly_range(q, 0, 2 * q ** 3):
            _assert_canonical(f, q)


def test_factor_reconstructs():
    for q in (2, 3):
        for f in poly_range(q, q ** 4, 2 * q ** 4):
            if f.degree < 1:
                continue
            fac = factor(f)
            prod = FqPoly.one(q)
            for p, mult in fac.items():
                assert p.lc == 1
                prod = prod * p ** mult
            assert prod == f


def test_factor_primes_are_irreducible():
    for q in (2, 3):
        irr = set(monic_irreducibles(q, 4))
        for f in poly_range(q, q ** 4, 2 * q ** 4):
            if f.degree < 1:
                continue
            for p in factor(f):
                assert p in irr


@pytest.mark.parametrize("q, dmax", [(2, 6), (3, 4), (5, 3)])
def test_prime_sieve_matches_trial_division(q, dmax):
    for d, sieve in enumerate(prime_sieves(q, dmax), 1):
        assert sieve.d == d
        for i, f in enumerate(poly_range(q, q ** d, 2 * q ** d)):
            primes = sieve.primes(i)
            assert len(primes) == len(set(primes))
            assert set(primes) == set(factor(f)), str(f)


def test_poly_range_base_q_order():
    q = 3
    assert [str(f) for f in poly_range(q, 0, 6)] == [
        "0", "1", "2", "Y", "Y+1", "Y+2"]
    # monic of degree 2, then all of degree 1 (leading coefficient outer)
    monic = list(poly_range(q, q ** 2, 2 * q ** 2))
    assert [str(f) for f in monic[:4]] == ["Y^2", "Y^2+1", "Y^2+2", "Y^2+Y"]
    assert len(monic) == 9
    assert all(f.lc == 1 and f.degree == 2 for f in monic)
    deg1 = [str(f) for f in poly_range(q, q, q ** 2)]
    assert deg1 == ["Y", "Y+1", "Y+2", "2Y", "2Y+1", "2Y+2"]
    assert list(poly_range(q, 5, 5)) == []


# ---------------------------------------------------------------------------
# Euler phi and Mertens sums


def _phi_oracle(f):
    """Count residues of degree < deg f coprime to f (brute force)."""
    q = f.q
    return sum(1 for d in range(f.degree)
               for g in poly_range(q, q ** d, q ** (d + 1))
               if f.gcd(g).is_constant())


def test_phi_matches_unit_count():
    for text, q in [("Y", 2), ("Y^2+Y", 2), ("Y^3+Y+1", 2),
                    ("Y^2", 3), ("Y^2+1", 3), ("Y^2+Y", 5)]:
        f = parse_poly(q, text)
        assert euler_phi(f) == _phi_oracle(f)


def test_phi_multiplicative():
    a = parse_poly(3, "Y")
    b = parse_poly(3, "Y^2+1")  # irreducible over F_3, coprime to Y
    assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_phi_prime_power():
    p = parse_poly(2, "Y^2+Y+1")
    # phi(p^2) = |p|^2 - |p| = 16 - 4
    assert euler_phi(p * p) == 12


def _mertens_mismatches():
    cases = [(q, n) for q in (2, 3) for n in (1, 2, 3)] + [(2, 12)]
    return [(q, n) for q, n in cases
            if mertens_sum(q, n) != mertens_closed_form(q, n)]


def test_mertens_exact_small():
    assert _mertens_mismatches() == []


def test_mertens_closed_form_catches_a_dropped_factor(sieve_forgets_y):
    # negative control: phi from a prime sieve that forgets one prime
    assert _mertens_mismatches()


def test_mertens_closed_form_value():
    # q(q-1)(q^{2n}-1)/(q+1) at q=2, n=2 is 2*1*15/3 = 10
    assert mertens_closed_form(2, 2) == 10


def test_monic_phi_per_degree():
    for q in (2, 3, 5):
        for n in (1, 2, 3):
            assert monic_phi_sum(q, n) == q ** (2 * n) - q ** (2 * n - 1)


# ---------------------------------------------------------------------------
# Laurent series


def test_expansion_reconstructs_fraction():
    for q, text in [(2, "(Y+1)/(Y^2+Y+1)"), (3, "(Y^2+2)/(Y^3+Y+1)"),
                    (5, "1/(Y+3)")]:
        x = parse_ratfunc(q, text)
        s = laurent_expand(x, 12)
        assert s.val == x.valuation()
        # multiply back by the denominator and compare with the numerator
        t = s
        prod = laurent_expand(RatFuncWrap(x.den, q), 12) * t
        num = laurent_expand(RatFuncWrap(x.num, q), 12)
        lo = max(prod.val, num.val)
        hi = min(prod.val + prod.prec, num.val + num.prec)
        for k in range(lo, hi):
            assert prod.coefficient(k) == num.coefficient(k)


class RatFuncWrap:
    """Tiny adapter: polynomial viewed as a rational function for expansion."""

    def __new__(cls, poly, q):
        from geodlab.ffield import RatFunc
        return RatFunc(poly, FqPoly.one(q))


def test_series_inverse():
    x = parse_ratfunc(3, "(Y^2+1)/(Y^3+2Y+2)")
    s = laurent_expand(x, 10)
    prod = s * s.inverse()
    assert prod.coefficient(0) == 1
    for k in range(1, 8):
        assert prod.coefficient(k) == 0


def test_series_sqrt_squares_back():
    x = parse_ratfunc(3, "(Y^2+Y+1)/(Y^2)")  # even valuation, square lead
    s = laurent_expand(x, 12)
    r = s.sqrt()
    sq = r * r
    for k in range(s.val, s.val + 8):
        assert sq.coefficient(k) == s.coefficient(k)


def test_sqrt_odd_valuation_rejected():
    s = laurent_expand(parse_ratfunc(3, "1/Y"), 8)
    with pytest.raises(NotSplitError):
        s.sqrt()


# ---------------------------------------------------------------------------
# quadratic irrationals


def _sqrt_quad(q, disc_text):
    return QuadIrr(FqPoly.one(q), FqPoly.zero(q),
                   -parse_poly(q, disc_text))


def test_quad_expansion_is_a_root():
    al = _sqrt_quad(3, "Y^2+Y")
    s = al.expand(20)
    sq = s * s
    d = laurent_expand(parse_ratfunc(3, "Y^2+Y"), 20)
    for k in range(sq.val, sq.val + 12):
        assert sq.coefficient(k) == d.coefficient(k)


def test_quad_conjugate_differs_at_separation():
    al = _sqrt_quad(3, "Y^2+Y")
    co = al.conj()
    k = al.sep_valuation()
    assert al.expand(8).coefficient(k) != co.expand(8).coefficient(k)


def test_quad_trace_norm():
    al = _sqrt_quad(3, "Y^2+Y")
    tr, nm, co, h = quad_invariants(al)
    assert tr.is_zero()
    # norm = -D
    assert nm == parse_ratfunc(3, "2Y^2+2Y")
    assert h == Fraction(1, 3)


@pytest.mark.parametrize("factor_text", ["Y^2", "1/Y^2"])
def test_quad_invariants_catch_a_wrong_formula(monkeypatch, factor_text):
    # route 2 reads the norm: scaling the norm of sqrt(Y^2+Y) by Y^2 or by
    # Y^-2 claims a separation one coefficient too early or too late
    al = _sqrt_quad(3, "Y^2+Y")
    norm, wrong = QuadIrr.norm, parse_ratfunc(3, factor_text)
    monkeypatch.setattr(QuadIrr, "norm", lambda self: norm(self) * wrong)
    with pytest.raises(AssertionError, match="complexity mismatch"):
        quad_invariants(al)


def test_quad_valuation_matches_expansion():
    for triple in [("1", "0", "2Y^2+2Y"), ("Y", "2Y", "2"),
                   ("Y^2+Y+2", "Y^2+Y", "Y^2+Y"), ("1", "Y", "Y+1")]:
        A, B, C = (parse_poly(3, t) for t in triple)
        for al in (QuadIrr(A, B, C, 0), QuadIrr(A, B, C, 1)):
            assert al.valuation() == al.expand(4).val


def test_quad_char_two_rejected():
    with pytest.raises(CharTwoError):
        _sqrt_quad(2, "Y^2+Y")


def test_quad_square_disc_rejected():
    with pytest.raises(NotIrrationalError):
        _sqrt_quad(3, "Y^2")


def test_apply_homography_roundtrip():
    q = 3
    al = _sqrt_quad(q, "Y^2+Y")
    one, zero = FqPoly.one(q), FqPoly.zero(q)
    y = FqPoly(q, (0, 1))
    # g = [[Y, 1], [1, 0]], then its inverse brings the orbit point back
    img = al.apply_homography(y, one, one, zero)
    back = img.apply_homography(zero, one, one, -y)
    assert back.key() == al.key()


def _series(f, prec):
    if f.is_zero():
        return LaurentSeries.exact_zero(f.q)
    return laurent_expand(RatFunc(f), prec)


def _agree(got, want, upto):
    """True iff two series agree on their common known window, which must
    reach past the coefficient of Y^-upto."""
    hi = min(got.val + got.prec, want.val + want.prec)
    assert hi > upto, "window too short to decide"
    return all(got.coefficient(j) == want.coefficient(j)
               for j in range(min(got.val, want.val), hi))


def _random_edges(alpha, count, seed):
    """(alpha, g, g alpha) for random g whose determinant is not a unit."""
    q, rng, edges = alpha.q, random.Random(seed), []
    while len(edges) < count:
        g = tuple(FqPoly(q, [rng.randrange(q) for _ in range(3)])
                  for _ in range(4))
        det = g[0] * g[3] - g[1] * g[2]
        if det.degree < 1:
            continue
        try:
            edges.append((alpha, g, alpha.apply_homography(*g)))
        except ValueError:  # the image's leading coefficient vanishes
            continue
    return edges


def _sign_mismatches(edges, prec=40):
    """Edges whose image expansion differs from the series image
    (a beta + b)/(c beta + d) of the source expansion."""
    bad = 0
    for beta, g, img in edges:
        a, b, c, d = (_series(e, prec) for e in g)
        x = beta.expand(prec)
        want = (a * x + b) / (c * x + d)
        if not _agree(img.expand(prec), want, img.sep_valuation()):
            bad += 1
    return bad


def _eps1(beta, g):
    """+1 iff lc(det) r(D) is the canonical root r(D2) of D2 = det^2 D."""
    q = beta.q
    lc_det = (g[0] * g[3] - g[1] * g[2]).lc
    r = ffield.sqrt_mod(beta.disc.lc, q)
    r2 = ffield.sqrt_mod(lc_det * lc_det * beta.disc.lc, q)
    return 1 if lc_det * r % q == r2 else -1


@pytest.mark.parametrize("q, disc, word_len", [(3, "Y^2+Y", 5),
                                               (5, "Y^4+Y+1", 4)])
def test_sign_transport_matches_series_image(q, disc, word_len):
    al = _sqrt_quad(q, disc)
    edges = orbit_bfs(al, word_len)[1] + _random_edges(al, 40, seed=q)
    assert len(edges) > 150
    assert _sign_mismatches(edges) == 0
    # negative control: a rule that drops the det factor eps1 is caught
    flipped = [(beta, g, img if _eps1(beta, g) > 0 else img.conj())
               for beta, g, img in edges]
    assert _sign_mismatches(flipped) > 0


def _cancelling(beta):
    """True iff the leading terms of -B + s sqrt(D) cancel."""
    D = beta.disc
    r = ffield.sqrt_mod(D.lc, beta.q)
    return (beta.B.degree == D.degree // 2
            and (beta.sign * r - beta.B.lc) % beta.q == 0)


@pytest.mark.parametrize("q, disc", [(3, "Y^2+Y"), (5, "Y^2+2"),
                                     (7, "Y^2+3"), (5, "Y^4+Y+1")])
def test_expand_is_a_root_where_numerator_cancels(q, disc):
    al = _sqrt_quad(q, disc)
    edges = orbit_bfs(al, 3)[1] + _random_edges(al, 200, seed=1)
    points = [img for _, _, img in edges if _cancelling(img)]
    assert len(points) >= 3
    for beta in points:
        n = 24
        x = beta.expand(n)
        assert x.prec == n
        # A x^2 + B x = -C on the known window
        lhs = _series(beta.A, n) * x * x + _series(beta.B, n) * x
        assert _agree(lhs, _series(-beta.C, 3 * n), beta.sep_valuation())
        # the conjugate agrees strictly above Y^-k and differs at it
        k = beta.sep_valuation()
        y = beta.conj().expand(n)
        assert all(x.coefficient(j) == y.coefficient(j)
                   for j in range(min(x.val, y.val), k))
        assert x.coefficient(k) != y.coefficient(k)


@pytest.mark.parametrize("triple", [("1", "0", "2Y^2+2Y"),
                                    ("Y", "2Y", "2"),
                                    ("Y^2+Y+2", "Y^2+Y", "Y^2+Y"),
                                    ("Y^2+Y", "2Y^3+2Y^2", "Y^4+Y^3+2")])
def test_branch_zero_has_the_smaller_residue(triple):
    q = 3
    A, B, C = (parse_poly(q, t) for t in triple)
    b0, b1 = QuadIrr(A, B, C, 0), QuadIrr(A, B, C, 1)
    assert b0.sign == -b1.sign and b1 == b0.conj()
    k = b0.sep_valuation()
    assert b0.expand(12).coefficient(k) < b1.expand(12).coefficient(k)


def test_exact_paths_never_retry():
    al = _sqrt_quad(5, "Y^4+Y+1")
    edges = orbit_bfs(al, 2)[1]
    assert len(edges) == 30
    for _, _, img in edges:
        img.expand(16)
        cf_expand(img)


# ---------------------------------------------------------------------------
# continued fractions


def test_cf_rational_terminates():
    x = parse_ratfunc(2, "(Y+1)/(Y^2+Y+1)")
    cf = cf_expand(x)
    assert list(cf.period) == []
    # reconstruct from the quotients bottom-up
    value = None
    for a in reversed(cf.preperiod):
        from geodlab.ffield import RatFunc
        ra = RatFunc(a, FqPoly.one(2))
        value = ra if value is None else ra + value.inverse()
    assert value == x


def test_cf_quadratic_periodic():
    al = _sqrt_quad(3, "Y^2+Y")
    cf = cf_expand(al)
    assert len(cf.period) >= 1
    assert [str(a) for a in cf.preperiod] == ["Y+2"]
    assert [str(a) for a in cf.period] == ["Y+2", "2Y+1"]


@pytest.mark.parametrize("q, disc, preperiod, period", [
    (3, "Y^2+1", ["Y"], ["2Y"]),
    (5, "Y^2+2", ["Y"], ["Y", "2Y"]),
    (7, "2Y^2+1", ["3Y"], ["6Y"]),
    (5, "Y^4+Y+1", ["Y^2"],
     ["2Y+3", "3Y+1", "4Y", "2Y+1", "4Y", "3Y+1", "2Y+3", "2Y^2"]),
    (3, "Y^4+Y^3+2", ["Y^2+2Y+1"], ["Y", "Y", "2Y^2+Y+2"]),
    (7, "Y^6+Y+3", ["Y^3"],
     ["2Y^2+Y+4", "4Y+5", "6Y+6", "6Y+5", "6Y+1", "6Y+6", "Y+5", "5Y+4",
      "Y+5", "6Y+6", "6Y+1", "6Y+5", "6Y+6", "4Y+5", "2Y^2+Y+4", "2Y^3"]),
])
def test_cf_periods_pinned(q, disc, preperiod, period):
    cf = cf_expand(_sqrt_quad(q, disc))
    assert [str(a) for a in cf.preperiod] == preperiod
    assert [str(a) for a in cf.period] == period


@pytest.mark.parametrize("q, triple, branch, preperiod, period", [
    (3, ("1", "0", "2Y^2+2Y"), 1, ["2Y+1"], ["2Y+1", "Y+2"]),
    (3, ("Y", "2Y", "2"), 0, ["0", "2Y+2"], ["Y+2", "2Y+1"]),
    (3, ("Y^2+Y", "2Y^3+2Y^2", "Y^4+Y^3+2"), 1,
     ["2Y", "2Y+1"], ["2Y+1", "Y+2"]),
    (5, ("Y^4+4Y^2+Y+1", "2Y", "4"), 0, ["0", "Y^2+Y"],
     ["2Y+3", "3Y+1", "4Y", "2Y+1", "4Y", "3Y+1", "2Y+3", "2Y^2"]),
    (5, ("Y^4+Y+1", "2Y^5+2Y^2+2Y", "Y^6+Y^3+Y^2+4"), 1, ["4Y", "4Y^2"],
     ["3Y+2", "2Y+4", "Y", "3Y+4", "Y", "2Y+4", "3Y+2", "3Y^2"]),
])
def test_cf_periods_of_orbit_points(q, triple, branch, preperiod, period):
    cf = cf_expand(QuadIrr(*(parse_poly(q, t) for t in triple), branch))
    assert [str(a) for a in cf.preperiod] == preperiod
    assert [str(a) for a in cf.period] == period


def test_cf_convergent_quality():
    al = _sqrt_quad(3, "Y^2+Y")
    s = al.expand(40)
    for p, qd in convergents(cf_expand(al), 5):
        from geodlab.ffield import RatFunc
        approx = laurent_expand(RatFunc(p, qd), 40)
        diff_val = None
        for k in range(s.val, s.val + 30):
            if s.coefficient(k) != approx.coefficient(k):
                diff_val = k
                break
        # |alpha - p/q| < |q|^{-2}  <=>  first mismatch beyond 2 deg q
        assert diff_val is None or diff_val > 2 * qd.degree


# ---------------------------------------------------------------------------
# parsing


def test_parse_rejects_bad_q():
    with pytest.raises(ValueError):
        parse_poly(4, "Y")
    with pytest.raises(ValueError):
        parse_poly(103, "Y")


def test_parse_roundtrip():
    f = parse_poly(5, "3Y^4+Y+2")
    assert parse_poly(5, str(f)) == f

