"""Valuative geometry of the (q+1)-regular tree of PGL_2 over F_q((1/Y))
and its arithmetic: vertex distances, horoball heights, translation
lengths, boundary measures, relative heights, covolumes, Hecke indices,
and Farey counting.

Distances, heights and measures are all expressed through the valuation
v = v_infinity on F_q(Y); everything is exact (Fractions / big integers).
"""

from fractions import Fraction
import math

from .errors import (
    BudgetError,
    DegenerateError,
    DetNotUnitError,
    FixesInfinityError,
    PrecisionCapError,
    UnsupportedError,
    UsageError,
    budget,
    charge,
)
from .ffield import (
    FqPoly,
    RatFunc,
    PREC_CAP,
    euler_phi,
    factor,
    poly_index,
    poly_range,
    prime_sieves,
    sqrt_mod,
    _divide_at_infinity,
    _poly_at,
)

HECKE_CHECK_DEG = 4  # the cross-check takes a gcd for each of q^deg residues
MAX_ORBIT = 4000  # the most points quad_orbit_experiment's search keeps


class BTMatrix:
    """2x2 matrix over F_q(Y) acting on the tree and its boundary."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        raw = (a, b, c, d)
        q = next(x.q for x in raw if isinstance(x, (FqPoly, RatFunc)))
        entries = []
        for x in raw:
            if isinstance(x, FqPoly):
                x = RatFunc(x)
            elif isinstance(x, int):
                x = RatFunc.const(q, x)
            entries.append(x)
        self.a, self.b, self.c, self.d = entries
        if self.det().is_zero():
            raise DegenerateError("singular matrix")

    @property
    def q(self):
        return self.a.q

    def det(self):
        return self.a * self.d - self.b * self.c

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __matmul__(self, other):
        return BTMatrix(self.a * other.a + self.b * other.c,
                        self.a * other.b + self.b * other.d,
                        self.c * other.a + self.d * other.c,
                        self.c * other.b + self.d * other.d)

    def trace(self):
        return self.a + self.d

    def min_entry_valuation(self):
        return min(x.valuation() for x in self.entries() if not x.is_zero())


def vertex_distance(g):
    """d(*, g*) = |v(det g) - 2 min entry valuation|.

    This is the gap between the two elementary divisors of g over the
    valuation ring (unimodular row/column operations over O_v preserve the
    minimal entry valuation and the determinant valuation).
    """
    return abs(g.det().valuation() - 2 * g.min_entry_valuation())


def horoball_height(g):
    """Height and center of the image of the horoball at infinity.

    Requires unit determinant and a matrix not fixing infinity; returns
    (height = -2 v(c), center = a/c).
    """
    if g.det().valuation() != 0:
        raise DetNotUnitError("determinant must be a v-unit")
    if g.c.is_zero():
        raise FixesInfinityError("matrix fixes the point at infinity")
    return -2 * g.c.valuation(), g.a / g.c


def translation_length(g):
    """Translation length on the tree: 2 max(0, -v(tr)) for unit det."""
    if g.det().valuation() != 0:
        raise DetNotUnitError("determinant must be a v-unit")
    tr = g.trace()
    if tr.is_zero():
        return 0
    v = tr.valuation()
    return max(0, -2 * v)


# ---------------------------------------------------------------------------
# boundary measures


def patterson_point_ball(q, center, n):
    """Mass of the ball B(center, q^{-n}) under the density
    max(1, |z|)^{-2} dHaar (the sphere measure seen from the base vertex).

    center: RatFunc; returns an exact Fraction.
    """
    abs_c = center.abs_v()
    radius = Fraction(q) ** (-n)
    if radius >= abs_c:
        # ball centered at 0 of the same radius (ultrametric)
        if radius <= 1:
            return radius  # inside O_v, density 1
        # O_v plus the shells 1 < |z| = q^k <= radius = q^K, each of Haar
        # mass q^k - q^(k-1) at density q^(-2k): a geometric sum
        return 1 + (1 - Fraction(q) ** n) / q
    # ball inside a single sphere |z| = |center|
    if abs_c <= 1:
        return radius
    return radius / abs_c ** 2


def patterson_total(q):
    """Total boundary mass (q+1)/q, with the shell-sum cross-check."""
    closed = Fraction(q + 1, q)
    shells = Fraction(1) + sum(
        (Fraction(q) ** k - Fraction(q) ** (k - 1)) * Fraction(q) ** (-2 * k)
        for k in range(1, 60))
    # geometric tail beyond the partial sum
    tail = Fraction(q - 1, q) * Fraction(q) ** (-60) / (1 - Fraction(1, q))
    assert closed - shells == tail
    return closed


def horoball_ball_mass(q, n):
    """Skinning measure of the horoball at infinity is plain Haar."""
    return Fraction(q) ** (-n)


# ---------------------------------------------------------------------------
# covolumes, Hecke indices, Farey counting


def zeta_minus_one(q):
    """zeta_{F_q(Y)}(-1) = 1/((q-1)(q^2-1))."""
    return Fraction(1, (q - 1) * (q * q - 1))


def covolume_suite(q, ideal=None):
    """Covolume identities for the modular group over F_q[Y].

    nagao_series sums the reciprocals of the projective stabiliser orders
    along the quotient ray: 1/(q(q^2-1)) + sum_{n>=0} 1/((q-1) q^{n+2}),
    in exact rationals via the geometric series; it must equal
    via_zeta = 2 zeta_K(-1) = 2/((q-1)(q^2-1)).  ideal_covol(I) is the Haar
    covolume of K_v / I for a fractional ideal I = (f): N(I)/q at genus 0.
    """
    order_m1 = q * (q * q - 1)
    # sum_{n>=0} 1/((q-1) q^{n+2}) = 1/((q-1) q^2) * q/(q-1) = 1/(q(q-1)^2)
    series = Fraction(1, order_m1) + Fraction(1, q * (q - 1) ** 2)
    via_zeta = 2 * zeta_minus_one(q)
    closed = Fraction(2, (q - 1) * (q * q - 1))
    out = {"nagao_series": series, "via_zeta": via_zeta, "closed_form": closed,
           "agree": series == via_zeta == closed}
    if ideal is not None:
        if ideal.is_zero():
            raise DegenerateError("the zero ideal has no covolume")
        norm = q ** ideal.degree
        out["ideal_covol"] = Fraction(norm, q)
    return out


def hecke_index(q, ideal, cross_check=True):
    """[GL_2(R) : G_I] = N(I) prod_{p | I} (1 + 1/N(p)) for the subgroup of
    matrices with lower-left entry in I = (ideal).

    The cross-check counts the projective line over R/I: unimodular pairs
    (a, b) modulo units, which is in bijection with the coset space.  (a, b)
    is unimodular mod I exactly when gcd(a, I) and gcd(b, I) are coprime, so
    one gcd per residue sorts the q^deg I residues into classes by their
    gcd with I, and the count sums n_g n_h over the coprime class pairs
    (g, h): q^deg I gcds and then one per pair of monic divisors of I.
    """
    if ideal.is_zero() or ideal.degree == 0:
        raise DegenerateError("ideal must be proper and nonzero")
    primes = factor(ideal)  # its charge comes before q^deg I is formed
    norm = q ** ideal.degree
    value = Fraction(norm)
    for p in primes:
        np_ = q ** p.degree
        value *= Fraction(np_ + 1, np_)
    assert value.denominator == 1
    value = int(value)
    if not cross_check:
        return value, None
    if ideal.degree > HECKE_CHECK_DEG:
        raise BudgetError("enumeration cross-check capped at degree "
                          f"{HECKE_CHECK_DEG}")
    classes = {}
    for a in poly_range(q, 0, norm):
        g = a.gcd(ideal)
        classes[g] = classes.get(g, 0) + 1
    count = sum(na * nb for g, na in classes.items()
                for h, nb in classes.items() if g.gcd(h).degree == 0)
    units = euler_phi(ideal)
    assert count % units == 0
    return value, count // units


def _laurent_head(top, s, Q, n):
    """Coefficients of Y^-1, ..., Y^-n in P/Q for the monic Q of degree d,
    where P has the base-q digits of ``top`` as its coefficients of Y^s,
    ..., Y^(d-1) and zeros below."""
    digits = []
    for _ in range(Q.degree - s):
        top, c = divmod(top, Q.q)
        digits.append(c)
    return tuple(_divide_at_infinity(digits[::-1], Q, n))


def _signed_divisors(primes):
    """(factors, degree, mu) of each squarefree product of the distinct
    primes, given as (index, degree) pairs: the indices of its prime
    factors, its degree and its Moebius sign."""
    out = [((), 0, 1)]
    for p, e in primes:
        out += [(f + (p,), k + e, -mu) for f, k, mu in out]
    return out


def farey_count(q, t, hist_depth=1):
    """Count of Farey classes of height at most q^t and the ball histogram.

    Psi(t) counts coprime pairs (P, Q), deg Q <= t, modulo the shear
    P -> P + kQ: one class per unit Q, and phi_q(Q) classes per Q of
    positive degree, so Psi(t) = (q-1) + sum_{0 < deg Q <= t} phi_q(Q).
    The q scalar multiples of a monic Q have the same phi_q(Q), and each of
    its units P0 gives q points P/Q below, as do the q constants, so Psi(t)
    is (q-1)/q times the number of points.

    The histogram enumerates the rational points P/Q inside O_v (canonical
    form: Q monic, gcd(P, Q) = 1, deg P <= deg Q) and bins them by the
    first hist_depth coefficients of their Laurent expansion (the depth-d
    balls of O_v).  Returns dict with "psi", "points", "histogram".

    Write P = aQ + P0, deg P0 < deg Q = d, n = hist_depth - 1 and
    s = max(0, d - n).  The bin of P/Q is (a,) and the coefficients of
    Y^-1 .. Y^-n of P0/Q, which depend only on the block index(P0) // q^s
    (see poly_range).  Its units are the sum over the squarefree g | Q
    (prime_sieves) of mu(g) times the multiples g H, deg H < d - deg g, in
    it: q^(s - deg g) in each block if deg g <= s, else at most one, in the
    block of its top digits (two differ from Y^s up), kept per g.
    """
    if t < 1 or hist_depth < 1:
        raise UsageError(f"need t >= 1 and depth >= 1, got t={t}, "
                         f"depth={hist_depth}")
    # q >= 2: an exponent past the budget's bit length is over it too
    charge("q^(t+1) * q^min(depth-1, t) (denominator, block) pairs",
           q ** min(t + 1 + min(hist_depth - 1, t),
                    budget(10 ** 7).bit_length()), 10 ** 7)
    if hist_depth > PREC_CAP:
        raise PrecisionCapError(
            f"requested depth {hist_depth} exceeds cap {PREC_CAP}")
    n = hist_depth - 1
    # integer points: the constants
    histogram = {(cst,) + (0,) * n: 1 for cst in range(q)}
    npoints = q
    for table in prime_sieves(q, t):
        d = table.d
        s = max(0, d - n)
        block = q ** s
        tops = {}  # factors of g -> the block of each g H
        for i, Q in enumerate(poly_range(q, q ** d, 2 * q ** d)):
            base, extra = 0, {}
            for f, k, mu in _signed_divisors(table.primes(i)):
                if k <= s:
                    base += mu * q ** (s - k)
                    continue
                if f not in tops:
                    polys = [_poly_at(q, p) for p in f]
                    g = math.prod(polys[1:], start=polys[0])
                    tops[f] = [poly_index(g * H) // block
                               for H in poly_range(q, 0, q ** (d - k))]
                for top in tops[f]:
                    extra[top] = extra.get(top, 0) + mu
            for top in range(q ** d // block):
                units = base + extra.get(top, 0)
                if units:
                    head = _laurent_head(top, s, Q, n)
                    for a in range(q):
                        key = (a,) + head
                        histogram[key] = histogram.get(key, 0) + units
                    npoints += q * units
    return {"psi": (q - 1) * npoints // q, "points": npoints,
            "histogram": histogram}


# ---------------------------------------------------------------------------
# orbit experiments on quadratic irrationals


# The BFS moves in order: the shears by Y and 1, the inversion and the
# inverse shears.  _UNDO[i] is the move that undoes move i.
_UNDO = (3, 4, 2, 0, 1)


def _axpy(q, f, c, k, g):
    """f + c Y^k g over F_q, f and g and the result coefficient tuples."""
    out = list(f) + [0] * (len(g) + k - len(f))
    for i, x in enumerate(g, k):
        out[i] = (out[i] + c * x) % q
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _state(alpha):
    """The point alpha as the BFS holds it: (A, B, C, s, r), the
    coefficient tuples of its canonical triple, its sign and r(D) =
    sqrt_mod(lc D), the smaller square root of lc D in F_q."""
    return (alpha.A.coeffs, alpha.B.coeffs, alpha.C.coeffs, alpha.sign,
            sqrt_mod(alpha.disc.lc, alpha.q))


def _orbit_moves(q):
    """The BFS moves, each a map of _state tuples.

    A shear by t = c Y^k maps (A, B, C) to (A, B - 2At, C - Bt + At^2) and
    keeps s and D.  The inversion maps (A, B, C) to (C, B, A) u, u =
    1/lc(C) (C != 0, as D is no square), and D to u^2 D.  As in
    ``QuadIrr.apply_homography`` with det = -1, lead = -u r(D) is a root of
    lc(u^2 D): s stays exactly when lead is the smaller one, r(u^2 D)."""
    inverse = [0] + [pow(c, -1, q) for c in range(1, q)]

    def shear(c, k):
        def move(p):
            A, B, C, s, r = p
            return (A, _axpy(q, B, -2 * c, k, A),
                    _axpy(q, _axpy(q, C, -c, k, B), c * c, 2 * k, A), s, r)
        return move

    def invert(p):
        A, B, C, s, r = p
        u = inverse[C[-1]]
        lead = -u * r % q
        root = min(lead, q - lead)
        return (tuple([x * u % q for x in C]), tuple([x * u % q for x in B]),
                tuple([x * u % q for x in A]), s if lead == root else -s,
                root)

    return [shear(1, 1), shear(1, 0), invert, shear(-1, 1), shear(-1, 0)]


def _orbit(alpha0, word_len):
    """The _state of every point the BFS from alpha0 meets over the words
    of length at most word_len, in the order met.  A point never takes the
    move that undoes the one that first reached it: that image is the
    point it came from, which is met already.  BudgetError past MAX_ORBIT
    points."""
    moves = list(enumerate(_orbit_moves(alpha0.q)))
    after = [[(i, m) for i, m in moves if i != _UNDO[last]]
             for last in range(len(moves))]
    start = _state(alpha0)
    seen, points = {start}, [start]
    frontier = [(start, moves)]
    for _ in range(word_len):
        nxt = []
        for beta, steps in frontier:
            for i, move in steps:
                img = move(beta)
                if img not in seen:
                    seen.add(img)
                    points.append(img)
                    nxt.append((img, after[i]))
                    if len(points) > MAX_ORBIT:
                        raise BudgetError("orbit cap exceeded")
        frontier = nxt
        if not frontier:
            break
    return points


def quad_orbit_experiment(alpha0, mode="complexity", word_len=6):
    """Enumerate part of the modular orbit of a quadratic irrational and
    bin it by complexity.

    BFS over generator words (shears by Y and 1, inversion, and inverse
    shears) up to length word_len, deduplicating by the canonical
    (A, B, C, sign) form (see _orbit).  mode "complexity" bins by h(beta)
    = q^(deg A - deg D / 2).  mode "relative" bins every beta but alpha0's
    own triple by the relative height h_{alpha0}(beta) = q^max(0, deg P -
    deg D), the larger of |[a, b, b^s, a^s]| and |[a, b^s, b, a^s]|, with
    P = 2 A_0 C + 2 A C_0 - B_0 B the polar invariant of the two forms.
    Returns {"orbit_size", "bins": {value: count}, "cumulative":
    [(threshold, N(threshold))]}.

    The work is charged against the budget (10^7) in coefficient
    operations before the BFS: 5 moves per point at deg D + 1 each, for at
    most min(MAX_ORBIT, 1 + 5 (4^word_len - 1) / 3) points (each point but
    alpha0 takes 4 moves that may find a new one), and in mode "relative"
    (deg D + 1)^2 more per point for its polar invariant.  D, and so its
    degree, is the same at every point of the orbit.
    """
    if mode not in ("complexity", "relative"):
        raise UnsupportedError(f"unknown mode {mode!r}")
    if word_len < 0:
        raise UsageError(f"word length must be at least 0, got {word_len}")
    if word_len > 12:
        raise BudgetError("orbit word length capped at 12")
    q, deg = alpha0.q, alpha0.disc.degree
    points = min(MAX_ORBIT, 1 + 5 * (4 ** word_len - 1) // 3)
    work = points * 5 * (deg + 1)
    if mode == "relative":
        work += points * (deg + 1) ** 2
    charge(f"coefficient operations of up to {points} orbit points of a "
           f"discriminant of degree {deg}", work, 10 ** 7)
    orbit = _orbit(alpha0, word_len)

    # h(beta) = q^(deg A - deg D / 2) and D has one degree on the orbit;
    # the bins count exponents of q, each turned into a Fraction once
    exponents = {}
    if mode == "complexity":
        base = alpha0.sep_valuation() - alpha0.A.degree
        for point in orbit:
            e = base + len(point[0]) - 1
            exponents[e] = exponents.get(e, 0) + 1
    else:
        own = (alpha0.A.coeffs, alpha0.B.coeffs, alpha0.C.coeffs)
        for point in orbit:
            if point[:3] == own:
                continue
            A, B, C = (FqPoly._raw(q, f) for f in point[:3])
            P = 2 * (alpha0.A * C + A * alpha0.C) - alpha0.B * B
            e = max(0, P.degree - deg)
            exponents[e] = exponents.get(e, 0) + 1
    bins = {Fraction(q) ** e: n for e, n in sorted(exponents.items())}

    cumulative = []
    run = 0
    for s, n in bins.items():
        run += n
        cumulative.append((s, run))
    return {"orbit_size": len(orbit), "bins": bins, "cumulative": cumulative}
