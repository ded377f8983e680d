"""Tree geometry over F_q((1/Y)): distances, horoballs, translation
lengths, boundary measures, covolumes, Hecke indices, Farey counting.

The Smith-elimination routine and the displacement minimiser in
oracles.py serve as independent oracles for the closed-form distance and
translation length.
"""

import random
from fractions import Fraction

import pytest

import geodlab.bt
from geodlab.bt import (
    BTMatrix,
    covolume_suite,
    farey_count,
    hecke_index,
    horoball_ball_mass,
    horoball_height,
    patterson_point_ball,
    patterson_total,
    quad_orbit_experiment,
    translation_length,
    vertex_distance,
    zeta_minus_one,
)
from geodlab.errors import (
    BudgetError,
    DegenerateError,
    DetNotUnitError,
    FixesInfinityError,
    NotIrrationalError,
    NotSplitError,
    PrecisionCapError,
    UsageError,
)
from geodlab.ffield import (
    FqPoly,
    QuadIrr,
    RatFunc,
    parse_poly,
    poly_range,
    sqrt_mod,
)
from oracles import (
    conj,
    farey_psi_oracle,
    hecke_index_oracle,
    matrix_inverse,
    norm_form,
    orbit_bfs,
    orbit_generators,
    quad_series,
    relative_height,
    series,
    trace_norm,
    transform_check,
    translation_length_oracle,
    vertex_distance_smith,
)


def _rand_poly(rng, q, max_deg):
    deg = rng.randrange(max_deg + 1)
    return FqPoly(q, [rng.randrange(q) for _ in range(deg + 1)])


def _rand_matrix(rng, q, max_deg=3):
    while True:
        entries = [_rand_poly(rng, q, max_deg) for _ in range(4)]
        try:
            num = BTMatrix(*entries)
        except DegenerateError:
            continue
        den = _rand_poly(rng, q, max_deg)
        if den.is_zero():
            den = FqPoly.one(q)
        d = RatFunc(den)
        return BTMatrix(num.a / d, num.b / d, num.c / d, num.d / d)


# ---------------------------------------------------------------------------
# vertex distances


def test_distance_simple_cases():
    q = 3
    Y, one, zero = FqPoly.x(q), FqPoly.one(q), FqPoly.zero(q)
    assert vertex_distance(BTMatrix(one, zero, zero, one)) == 0
    assert vertex_distance(BTMatrix(Y, zero, zero, one)) == 1
    assert vertex_distance(BTMatrix(Y * Y, one, zero, one)) == 2


def _smith_mismatches(distance):
    """The random matrices on which ``distance`` and Smith elimination
    disagree."""
    rng = random.Random(7)
    matrices = [_rand_matrix(rng, q) for q in (2, 3, 5) for _ in range(70)]
    return [g for g in matrices if distance(g) != vertex_distance_smith(g)]


def test_distance_matches_smith_oracle():
    assert _smith_mismatches(vertex_distance) == []


def test_smith_oracle_catches_a_dropped_factor():
    # negative control: the distance without the factor 2 on the minimal
    # entry valuation
    def half_distance(g):
        return abs(g.det().valuation() - g.min_entry_valuation())

    assert _smith_mismatches(half_distance)


def test_distance_symmetry_inverse():
    rng = random.Random(11)
    for _ in range(30):
        g = _rand_matrix(rng, 3)
        assert vertex_distance(g) == vertex_distance(matrix_inverse(g))


def test_singular_matrix_rejected():
    q = 2
    one, zero = FqPoly.one(q), FqPoly.zero(q)
    with pytest.raises(DegenerateError):
        BTMatrix(one, one, one, one)
    with pytest.raises(DegenerateError):
        BTMatrix(zero, zero, zero, zero)


# ---------------------------------------------------------------------------
# horoballs and translation lengths


def test_horoball_heights():
    q = 3
    Y, one, zero = FqPoly.x(q), FqPoly.one(q), FqPoly.zero(q)
    # inversion: c a unit, height 0
    h, center = horoball_height(BTMatrix(zero, one, -one, zero))
    assert h == 0 and center.is_zero()
    # c = Y: the image horoball is two levels higher
    h, center = horoball_height(BTMatrix(one, zero, Y, one))
    assert h == 2
    assert center == RatFunc(one, Y)
    # c = 1/Y: two levels lower
    g = BTMatrix(RatFunc(one), RatFunc(zero), RatFunc(one, Y), RatFunc(one))
    assert horoball_height(g)[0] == -2


def test_horoball_guards():
    q = 3
    Y, one, zero = FqPoly.x(q), FqPoly.one(q), FqPoly.zero(q)
    with pytest.raises(FixesInfinityError):
        horoball_height(BTMatrix(one, Y, zero, one))
    with pytest.raises(DetNotUnitError):
        horoball_height(BTMatrix(Y, zero, one, one))


def test_translation_lengths():
    q = 3
    Y, one, zero = FqPoly.x(q), FqPoly.one(q), FqPoly.zero(q)
    assert translation_length(BTMatrix(one, Y, zero, one)) == 0
    assert translation_length(BTMatrix(Y, one, one, zero)) == 2
    assert translation_length(BTMatrix(Y * Y, one, one, zero)) == 4
    # elliptic (zero trace) fixes a vertex
    assert translation_length(BTMatrix(zero, one, -one, zero)) == 0


def _displacement_mismatches(length, matrices):
    """The matrices on which ``length`` and the displacement oracle
    disagree.  The oracle tries 49 (m, n) pairs times 47 centres each."""
    out = []
    for g in matrices:
        best, points = translation_length_oracle(g)
        assert points == 2303
        if length(g) != best:
            out.append(g)
    return out


def test_translation_length_matches_displacement_oracle():
    q = 3
    Y, one, zero = FqPoly.x(q), FqPoly.one(q), FqPoly.zero(q)
    matrices = [BTMatrix(one, Y, zero, one),
                BTMatrix(Y, one, one, zero),
                BTMatrix(Y * Y, one, one, zero),
                BTMatrix(zero, one, -one, zero),
                BTMatrix(Y, one, one, zero) @ BTMatrix(one, one, zero, one)]
    assert _displacement_mismatches(translation_length, matrices) == []


def test_displacement_oracle_catches_a_dropped_factor():
    # negative control: the translation length without the factor 2
    q = 3
    Y, one, zero = FqPoly.x(q), FqPoly.one(q), FqPoly.zero(q)
    assert _displacement_mismatches(lambda g: translation_length(g) // 2,
                                    [BTMatrix(Y, one, one, zero)])


def test_translation_length_det_guard():
    q = 3
    Y, one, zero = FqPoly.x(q), FqPoly.one(q), FqPoly.zero(q)
    with pytest.raises(DetNotUnitError):
        translation_length(BTMatrix(Y, zero, zero, one))


def test_translation_length_conjugation_invariant():
    q = 3
    Y, one, zero = FqPoly.x(q), FqPoly.one(q), FqPoly.zero(q)
    g = BTMatrix(Y, one, one, zero)
    h = BTMatrix(one, Y, zero, one)
    conjugate = h @ g @ matrix_inverse(h)
    assert translation_length(conjugate) == translation_length(g)


# ---------------------------------------------------------------------------
# boundary measures


def test_patterson_total():
    for q in (2, 3, 5):
        assert patterson_total(q) == Fraction(q + 1, q)


def test_patterson_ball_additivity():
    # O_v is the disjoint union of q depth-1 balls around the residues
    for q in (2, 3):
        whole = patterson_point_ball(q, RatFunc.const(q, 0), 0)
        parts = sum(patterson_point_ball(q, RatFunc.const(q, c), 1)
                    for c in range(q))
        assert whole == parts == 1


def test_patterson_outer_shells():
    q = 3
    # ball of radius q around 0 adds the shell |z| = q with density q^{-2}
    val = patterson_point_ball(q, RatFunc.const(q, 0), -1)
    assert val == 1 + Fraction(q - 1, q) * Fraction(1, q ** 2) * q


def test_patterson_ball_closed_form_is_the_shell_sum():
    # the ball of radius q^K around 0 is O_v plus the shells |z| = q^k,
    # k = 1..K, each of Haar mass q^k - q^(k-1) at density q^(-2k)
    for q in (2, 3, 5):
        for K in range(1, 21):
            shells = 1 + sum((Fraction(q) ** k - Fraction(q) ** (k - 1))
                             * Fraction(q) ** (-2 * k)
                             for k in range(1, K + 1))
            assert patterson_point_ball(q, RatFunc.const(q, 0), -K) == shells


def test_patterson_small_ball_off_center():
    q = 3
    Y = FqPoly.x(q)
    # ball of radius q^{-1} inside the sphere |z| = q: density q^{-2}
    assert patterson_point_ball(q, RatFunc(Y), 1) == Fraction(1, q ** 3)


def test_horoball_ball_mass():
    assert horoball_ball_mass(2, 3) == Fraction(1, 8)
    assert horoball_ball_mass(3, 0) == 1


# ---------------------------------------------------------------------------
# relative heights, norm forms


def _sqrt_quad(q, disc_text):
    return QuadIrr(FqPoly.one(q), FqPoly.zero(q), -parse_poly(q, disc_text))


def test_relative_height_values():
    al = _sqrt_quad(3, "Y^2+Y")
    Y, one, zero = FqPoly.x(3), FqPoly.one(3), FqPoly.zero(3)
    # inversion-shift moves the axis one step away
    assert relative_height(al, al.apply_homography(Y, one, one, zero)) == 3
    # a shear keeps the axis at distance zero
    assert relative_height(al, al.apply_homography(one, Y, zero, one)) == 1
    with pytest.raises(ValueError):
        relative_height(al, conj(al))


def test_norm_form_values():
    al = _sqrt_quad(3, "Y^2+Y")
    Y, one, zero = FqPoly.x(3), FqPoly.one(3), FqPoly.zero(3)
    assert norm_form(al, one, zero) == 1
    # Q(0, 1) = |n(alpha)| = |Y^2 + Y| = q^2
    assert norm_form(al, zero, one) == 9
    assert norm_form(al, Y, one) == 3
    with pytest.raises(ValueError):
        norm_form(al, zero, zero)


def test_norm_form_transforms():
    al = _sqrt_quad(3, "Y^2+Y")
    Y, one, zero = FqPoly.x(3), FqPoly.one(3), FqPoly.zero(3)
    assert transform_check(al, BTMatrix(one, Y, zero, one))
    assert transform_check(al, BTMatrix(Y, one, one, zero))
    assert transform_check(al, BTMatrix(one, one, zero, one)
                           @ BTMatrix(zero, one, -one, zero))


def _norm_form_mismatches(points, rng, count, form=norm_form):
    """(alpha, x, y) of ``count`` random draws where ``form`` is not the
    RatFunc value |x^2 - xy tr(alpha) + y^2 n(alpha)|."""
    bad = []
    for _ in range(count):
        alpha = rng.choice(points)
        q = alpha.q
        x, y = _rand_poly(rng, q, 4), _rand_poly(rng, q, 4)
        if x.is_zero() and y.is_zero():
            continue
        tr, nm = trace_norm(alpha)
        want = (RatFunc(x * x) - RatFunc(x * y) * tr
                + RatFunc(y * y) * nm).abs_v()
        if form(alpha, x, y) != want:
            bad.append((alpha, x, y))
    return bad


@pytest.mark.parametrize("q", [3, 5, 7])
def test_norm_form_matches_the_ratfunc_value(q):
    points = _random_points(q, 20, seed=10 + q)
    assert _norm_form_mismatches(points, random.Random(q), 150) == []


def test_norm_form_check_sees_a_dropped_leading_coefficient():
    # negative control: |A x^2 + B xy + C y^2| without the division by |A|
    def undivided(alpha, x, y):
        return norm_form(alpha, x, y) * alpha.q ** alpha.A.degree

    points = _random_points(5, 20, seed=15)
    assert any(p.A.degree > 0 for p in points)
    assert _norm_form_mismatches(points, random.Random(5), 150, undivided)


def _orbit_points(al, word_len):
    """The BFS orbit of al, with the conjugate of every point."""
    points, _ = orbit_bfs(al, word_len)
    return [p for beta in points.values() for p in (beta, conj(beta))]


# ---------------------------------------------------------------------------
# covolumes and Hecke indices


def test_zeta_minus_one():
    assert zeta_minus_one(2) == Fraction(1, 3)
    assert zeta_minus_one(3) == Fraction(1, 16)


def test_covolume_identities():
    wants = {2: Fraction(2, 3), 3: Fraction(1, 8), 5: Fraction(1, 48)}
    for q, want in wants.items():
        out = covolume_suite(q)
        assert out["agree"]
        assert out["closed_form"] == want
        assert out["nagao_series"] == want


def test_covolume_ideal():
    out = covolume_suite(2, ideal=parse_poly(2, "Y^2+Y"))
    assert out["ideal_covol"] == Fraction(4, 2)


def test_hecke_index_cross_checked():
    cases = [
        (2, "Y", 3),
        (3, "Y", 4),
        (3, "Y^2+Y", 16),      # two split primes: 3*(4/3) each
        (3, "Y^2+1", 10),      # inert prime of norm 9
        (2, "Y^2", 6),         # ramified square: 4 * 3/2
    ]
    for q, text, want in cases:
        value, count = hecke_index(q, parse_poly(q, text))
        assert value == want
        assert count == want


def _hecke_mismatches():
    """The monic ideals of degree 1-3 at q = 2 and 3 and of degree 4 at
    q = 2 whose class-counted index disagrees with the pair loop."""
    cases = [(q, d) for q in (2, 3) for d in (1, 2, 3)] + [(2, 4)]
    return [(q, str(I)) for q, d in cases
            for I in poly_range(q, q ** d, 2 * q ** d)
            if hecke_index(q, I)[1] != hecke_index_oracle(q, I)]


def test_hecke_classes_match_the_pair_loop():
    assert _hecke_mismatches() == []


def test_hecke_pair_loop_sees_a_dropped_zero_residue(monkeypatch):
    # negative control: a class count that leaves out the residue 0
    monkeypatch.setattr(geodlab.bt, "poly_range",
                        lambda q, start, stop: poly_range(q, start + 1, stop))
    assert _hecke_mismatches()


def test_hecke_index_guards():
    with pytest.raises(DegenerateError):
        hecke_index(2, FqPoly.one(2))
    with pytest.raises(BudgetError):
        hecke_index(2, parse_poly(2, "Y^5+Y+1"))
    # Y^5+Y+1 = (Y^2+Y+1)(Y^3+Y^2+1): index 32 * (5/4) * (9/8) = 45
    value, count = hecke_index(2, parse_poly(2, "Y^5+Y+1"),
                               cross_check=False)
    assert count is None and value == 45


# ---------------------------------------------------------------------------
# Farey counting


def _psi_mismatches():
    cases = [(2, t) for t in range(1, 6)] + [(3, 3)]
    return [(q, t) for q, t in cases
            if farey_count(q, t)["psi"] != farey_psi_oracle(q, t)]


def test_farey_psi_matches_oracle():
    assert _psi_mismatches() == []


def test_farey_psi_oracle_catches_a_dropped_factor(sieve_forgets_y):
    # negative control: a prime sieve that forgets one prime
    assert _psi_mismatches()


def test_farey_psi_values():
    # q = 2: 3, 11, 43, 171, 683, ... (growth ratio -> q^2 = 4)
    vals = [farey_count(2, t)["psi"] for t in range(1, 6)]
    assert vals == [3, 11, 43, 171, 683]
    assert farey_count(2, 8)["psi"] == 43691
    ratios = [b / a for a, b in zip(vals, vals[1:])]
    assert abs(ratios[-1] - 4) < 0.02


def test_farey_histogram_uniform():
    # depth-1 balls of O_v carry equal numbers of Farey points
    out = farey_count(2, 5, hist_depth=1)
    assert out["histogram"] == {(0,): 683, (1,): 683}
    out3 = farey_count(3, 3, hist_depth=1)
    assert set(out3["histogram"].values()) == {547}
    assert len(out3["histogram"]) == 3


def test_farey_budget():
    with pytest.raises(BudgetError):
        farey_count(2, 30)


def test_farey_rejects_empty_and_deep_balls():
    for t, depth in ((0, 1), (-1, 1), (3, 0), (3, -2)):
        with pytest.raises(UsageError):
            farey_count(2, t, depth)
    with pytest.raises(PrecisionCapError):
        farey_count(2, 1, 300)


def _farey_reference(q, t, depth):
    """Each Farey point of farey_count(q, t, ...) in enumeration order, as
    (deg Q, first depth Laurent coefficients): a gcd per residue, a RatFunc
    and a series expansion per point."""
    points = [(0, (c,) + (0,) * (depth - 1)) for c in range(q)]
    for d in range(1, t + 1):
        for Q in poly_range(q, q ** d, 2 * q ** d):
            for P0 in poly_range(q, 1, q ** d):
                if P0.gcd(Q).degree != 0:
                    continue
                for a in range(q):
                    x = RatFunc(FqPoly.const(q, a) * Q + P0, Q)
                    s = series(x, depth + 2)
                    points.append(
                        (d, tuple(s.coefficient(k) for k in range(depth))))
    return points


def _check_farey_against_reference(q, tmax, dmax):
    points = _farey_reference(q, tmax, dmax)
    for t in range(1, tmax + 1):
        for depth in range(1, dmax + 1):
            histogram = {}
            for d, key in points:
                if d <= t:
                    key = key[:depth]
                    histogram[key] = histogram.get(key, 0) + 1
            out = farey_count(q, t, depth)
            assert out["points"] == sum(histogram.values()), (q, t, depth)
            # same bins, counts and first-seen order
            assert list(out["histogram"].items()) == \
                list(histogram.items()), (q, t, depth)


@pytest.mark.parametrize("q, tmax, dmax", [(2, 6, 4), (3, 3, 3), (5, 2, 2)])
def test_farey_histogram_matches_reference(q, tmax, dmax):
    _check_farey_against_reference(q, tmax, dmax)


def test_farey_reference_catches_a_dropped_factor(sieve_forgets_y):
    # a prime sieve that forgets one prime counts non-units as units
    with pytest.raises(AssertionError):
        _check_farey_against_reference(2, 3, 2)


def test_farey_reference_catches_first_order_inclusion_exclusion(
        monkeypatch):
    # negative control: inclusion-exclusion over 1 and the primes alone
    # takes the multiples of each product of two primes off twice
    from geodlab import bt

    def first_order(primes):
        return [((), 0, 1)] + [((p,), k, -1) for p, k in primes]

    monkeypatch.setattr(bt, "_signed_divisors", first_order)
    with pytest.raises(AssertionError):
        _check_farey_against_reference(3, 3, 3)


# ---------------------------------------------------------------------------
# orbit experiment


def test_orbit_experiment_complexity():
    al = _sqrt_quad(3, "Y^2+Y")
    out = quad_orbit_experiment(al, mode="complexity", word_len=3)
    assert out["orbit_size"] == 43
    assert out["cumulative"] == [(Fraction(1, 3), 11), (Fraction(1), 20),
                                 (Fraction(3), 41), (Fraction(27), 43)]


def test_orbit_experiment_relative():
    al = _sqrt_quad(3, "Y^2+Y")
    out = quad_orbit_experiment(al, mode="relative", word_len=3)
    # alpha's own triple is left out: 42 of the 43 points, every relative
    # height a power of q
    assert out["orbit_size"] == 43
    assert out["cumulative"] == [(Fraction(1), 16), (Fraction(3), 29),
                                 (Fraction(9), 40), (Fraction(81), 42)]


# the starting points of the move and relative-height checks: BFS orbits
# for q = 3, 5, 7
ORBITS = [(3, "Y^2+Y", 4), (5, "Y^4+Y+1", 3), (7, "Y^2+3", 3)]


def _random_points(q, count, seed):
    """QuadIrr of random triples of degree <= 3, neither primitive nor
    monic in general, on a random branch."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        A, B, C = (_rand_poly(rng, q, 3) for _ in range(3))
        if A.is_zero():
            continue
        try:
            out.append(QuadIrr(A, B, C, rng.randrange(2)))
        except (NotIrrationalError, NotSplitError):
            continue
    return out


def _move_mismatches(points):
    """(point, generator index) where a BFS move of quad_orbit_experiment
    and apply_homography by the same generator disagree on the triple or
    the sign, or where the move's r is not r(B^2 - 4AC) of its triple."""
    bad = []
    for beta in points:
        q = beta.q
        moves = geodlab.bt._orbit_moves(q)
        for i, (move, g) in enumerate(zip(moves, orbit_generators(q))):
            A, B, C, sign, r = move(geodlab.bt._state(beta))
            want = beta.apply_homography(*g)
            A, B, C = (FqPoly(q, f) for f in (A, B, C))
            if ((A.coeffs, B.coeffs, C.coeffs, sign) != want.key()
                    or r != sqrt_mod((B * B - 4 * A * C).lc, q)):
                bad.append((beta, i))
    return bad


@pytest.mark.parametrize("q, disc, word_len", ORBITS)
def test_moves_match_apply_homography(q, disc, word_len):
    points, _ = orbit_bfs(_sqrt_quad(q, disc), word_len)
    starts = list(points.values()) + _random_points(q, 30, seed=q)
    assert len(starts) > 60
    assert _move_mismatches(starts) == []


def test_move_check_sees_a_flipped_inversion_sign(monkeypatch):
    starts = _random_points(5, 10, seed=1)
    moves = geodlab.bt._orbit_moves

    def flipped(q):
        out = moves(q)
        invert = out[2]
        out[2] = lambda p: (lambda A, B, C, s, r: (A, B, C, -s, r))(
            *invert(p))
        return out

    monkeypatch.setattr(geodlab.bt, "_orbit_moves", flipped)
    bad = _move_mismatches(starts)
    # the inversion is generator 2, and only it is caught
    assert {i for _, i in bad} == {2} and len(bad) == len(starts)


def _orbit_mismatches(q, disc, word_len, mode):
    """What differs between quad_orbit_experiment and the all-moves BFS of
    orbit_bfs from the root of disc: the points in the order met, then the
    bins, each point binned by Fraction(q) ** sep_valuation() or by its
    relative_height."""
    al = _sqrt_quad(q, disc)
    got = [p[:4] for p in geodlab.bt._orbit(al, word_len)]
    points = orbit_bfs(al, word_len)[0]
    if got != list(points):
        return "points"
    bins = {}
    for beta in points.values():
        if mode == "complexity":
            value = Fraction(q) ** beta.sep_valuation()
        elif (beta.A, beta.B, beta.C) == (al.A, al.B, al.C):
            continue
        else:
            value = relative_height(al, beta)
        bins[value] = bins.get(value, 0) + 1
    out = quad_orbit_experiment(al, mode=mode, word_len=word_len)
    if (out["bins"], out["orbit_size"]) != (bins, len(points)):
        return "bins"
    return None


@pytest.mark.parametrize("mode", ["complexity", "relative"])
@pytest.mark.parametrize("q, disc, word_len", ORBITS)
def test_orbit_matches_the_all_moves_bfs(q, disc, word_len, mode):
    assert _orbit_mismatches(q, disc, word_len, mode) is None


def test_orbit_check_sees_a_wrong_undo_table(monkeypatch):
    # negative control: shear(Y) paired with shear(-1), and shear(1) with
    # shear(-Y), so a point skips a move that does not lead back
    monkeypatch.setattr(geodlab.bt, "_UNDO", (4, 3, 2, 1, 0))
    for q, disc, word_len in ORBITS:
        assert _orbit_mismatches(q, disc, word_len, "complexity") == "points"


# 64-coefficient series expansions of the points the relative-height
# oracle has seen, keyed by (q, triple, sign)
_EXPANSIONS = {}


def _expansion(x):
    key = (x.q, x.key())
    if key not in _EXPANSIONS:
        _EXPANSIONS[key] = quad_series(x, 64)
    return _EXPANSIONS[key]


def _crossratio_oracle(a, b, c, d):
    """|[a, b, c, d]| = |c - a| |d - b| / (|c - b| |d - a|) from series
    differences; a difference whose every known digit vanishes raises
    ArithmeticError."""
    a, b, c, d = map(_expansion, (a, b, c, d))
    return ((c - a).abs_v() * (d - b).abs_v()
            / ((c - b).abs_v() * (d - a).abs_v()))


def _relative_height_mismatches(pairs, height=relative_height):
    """The pairs (alpha, beta) where ``height`` is not the larger of the
    two crossratios |[a, b, b^s, a^s]| and |[a, b^s, b, a^s]|."""
    bad = []
    for alpha, beta in pairs:
        asig, bsig = conj(alpha), conj(beta)
        want = max(_crossratio_oracle(alpha, beta, bsig, asig),
                   _crossratio_oracle(alpha, bsig, beta, asig))
        if height(alpha, beta) != want:
            bad.append((alpha, beta))
    return bad


def _other_points(alpha, word_len):
    """_orbit_points without alpha and its conjugate."""
    return [p for p in _orbit_points(alpha, word_len)
            if (p.A, p.B, p.C) != (alpha.A, alpha.B, alpha.C)]


@pytest.mark.parametrize("q, disc, word_len", ORBITS)
def test_relative_height_is_the_larger_crossratio(q, disc, word_len):
    al = _sqrt_quad(q, disc)
    betas = _other_points(al, word_len - 1)
    assert len(betas) > 20
    assert _relative_height_mismatches([(al, b) for b in betas]) == []


def _random_pairs(q, count):
    """``count`` pairs of _random_points with distinct triples."""
    points = _random_points(q, 2 * count, seed=100 + q)
    return [(a, b) for a, b in zip(points[::2], points[1::2])
            if (a.A, a.B, a.C) != (b.A, b.B, b.C)]


def _same_field(a, b):
    """Whether D_a D_b is a square in F_q[Y]: a and b lie in one quadratic
    field."""
    F = a.disc * b.disc
    root = series(F, F.degree // 2 + 1).sqrt().polynomial_part()
    return root * root == F


@pytest.mark.parametrize("q", [3, 5, 7])
def test_relative_height_across_quadratic_fields(q):
    pairs = _random_pairs(q, 80)
    # most pairs lie in different quadratic fields: D_a D_b is no square
    cross = [(a, b) for a, b in pairs if not _same_field(a, b)]
    assert len(cross) > len(pairs) // 2
    assert _relative_height_mismatches(pairs) == []


def test_relative_height_check_sees_a_dropped_factor():
    # negative control: deg sqrt(D_a) in place of (deg D_a + deg D_b)/2,
    # the height without the factor |sqrt(D_b)|
    def one_sided(alpha, beta):
        P = 2 * (alpha.A * beta.C + beta.A * alpha.C) - alpha.B * beta.B
        e = P.degree - alpha.disc.degree // 2
        return Fraction(alpha.q) ** max(0, e)

    assert _relative_height_mismatches(_random_pairs(5, 80), one_sided)


def test_orbit_budget_guards(monkeypatch):
    al = _sqrt_quad(3, "Y^2+Y")
    with pytest.raises(BudgetError):
        quad_orbit_experiment(al, word_len=13)
    monkeypatch.setattr(geodlab.bt, "MAX_ORBIT", 10)
    with pytest.raises(BudgetError):
        quad_orbit_experiment(al, word_len=4)
