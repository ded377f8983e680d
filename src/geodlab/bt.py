"""Valuative geometry of the (q+1)-regular tree of PGL_2 over F_q((1/Y))
and its arithmetic: vertex distances, horoball heights, translation
lengths, boundary measures, relative heights, norm forms, covolumes,
Hecke indices, and Farey counting.

Distances, heights and measures are all expressed through the valuation
v = v_infinity on F_q(Y); everything is exact (Fractions / big integers).
"""

from fractions import Fraction
from itertools import chain, islice

from .errors import (
    BudgetError,
    DegenerateError,
    DetNotUnitError,
    FixesInfinityError,
    PrecisionCapError,
    UnsupportedError,
    UsageError,
)
from .ffield import (
    FqPoly,
    QuadIrr,
    RatFunc,
    PREC_CAP,
    euler_phi,
    factor,
    multiple_indices,
    poly_range,
    prime_sieves,
    _divide_at_infinity,
)

HECKE_CHECK_DEG = 4  # the cross-check takes a gcd for each of q^deg residues


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

    def inverse(self):
        det = self.det()
        return BTMatrix(self.d / det, -self.b / det,
                        -self.c / det, self.a / det)

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
# relative heights, norm forms


def relative_height(alpha, beta):
    """h_alpha(beta) = max(|[a, b, b^s, a^s]|, |[a, b^s, b, a^s]|), a power
    of q equal to q^(distance between the two translation axes).

    With a = (-B_a + s_a sqrt(D_a))/(2A_a) and b likewise, the two norms
    (b - a)(b^s - a^s) and (b - a^s)(b^s - a) are (P +- R)/(2 A_a A_b),
    where R = s_a s_b sqrt(D_a) sqrt(D_b) and P = 2 A_a C_b + 2 A_b C_a -
    B_a B_b is the polar invariant of the two forms.  The crossratios are
    these norms times h(a) h(b) = |A_a A_b| / |R|, and in odd
    characteristic max(|P + R|, |P - R|) = max(|P|, |R|), so h_alpha(beta)
    is q^max(0, deg P - (deg D_a + deg D_b)/2): the tree's
    cosh d = |P| / sqrt(D_a D_b).  It holds for any two points over one q,
    in one quadratic field or not.
    """
    if (alpha.A, alpha.B, alpha.C) == (beta.A, beta.B, beta.C):
        raise DegenerateError("beta lies in {alpha, alpha^sigma}")
    P = 2 * (alpha.A * beta.C + beta.A * alpha.C) - alpha.B * beta.B
    e = P.degree - (alpha.disc.degree + beta.disc.degree) // 2
    return Fraction(alpha.q) ** max(0, e)


def norm_form(alpha, x, y):
    """Q_alpha(x, y) = |x^2 - xy tr(alpha) + y^2 n(alpha)|_v for FqPoly x, y:
    |A x^2 + B xy + C y^2| / |A|.  The form has no zero but (0, 0), since
    alpha is irrational."""
    if x.is_zero() and y.is_zero():
        raise DegenerateError("(x, y) must be nonzero")
    form = alpha.A * x * x + alpha.B * x * y + alpha.C * y * y
    return Fraction(alpha.q) ** (form.degree - alpha.A.degree)


def transform_check(alpha, g, grid=5):
    """Verify Q_{g alpha}(x,y) = (h(alpha)/h(g alpha)) Q_alpha(g^{-1}(x,y))
    exactly on a grid of polynomial vectors (x, y).

    g: BTMatrix with entries polynomial and constant nonzero determinant
    (an element of GL_2(F_q[Y]), so |det| = 1 and the adjugate can replace
    the inverse inside the absolute values).
    """
    det = g.det()
    if not (det.is_polynomial() and det.num.is_constant()):
        raise UnsupportedError("g must lie in GL_2(F_q[Y])")
    for e in g.entries():
        if not e.is_polynomial():
            raise UnsupportedError("g must have polynomial entries")
    q = alpha.q
    ga = alpha.apply_homography(g.a.num, g.b.num, g.c.num, g.d.num)
    h_ratio = alpha.complexity() / ga.complexity()
    # adjugate: g^{-1} up to the unit determinant
    A, B, C, D = g.a.num, g.b.num, g.c.num, g.d.num
    # the zero polynomial, then the monic ones by degree
    monics = chain.from_iterable(poly_range(q, q ** d, 2 * q ** d)
                                 for d in range(grid))
    polys = [FqPoly.zero(q)] + list(islice(monics, grid - 1))
    checked = 0
    for xv in polys:
        for yv in polys:
            if xv.is_zero() and yv.is_zero():
                continue
            # (x', y') = adj(g) (x, y)
            xp = D * xv - B * yv
            yp = -C * xv + A * yv
            if xp.is_zero() and yp.is_zero():
                continue
            lhs = norm_form(ga, xv, yv)
            rhs = h_ratio * norm_form(alpha, xp, yp)
            if lhs != rhs:
                return False
            checked += 1
    return checked > 0


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
    norm = q ** ideal.degree
    value = Fraction(norm)
    for p in factor(ideal):
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


def farey_count(q, t, hist_depth=1, budget=10 ** 7):
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

    Write P = aQ + P0 with deg P0 < deg Q = d and n = hist_depth - 1.
    The prime factors of each Q come from the prime sieve of degree d
    (prime_sieves), and the units P0 mod Q from a sieve over the base-q
    indices of the residues (see poly_range): the non-units are the
    multiples pR, p a prime factor of Q, deg R < d - deg p.  The bin of
    P/Q is (a,) followed by the coefficients of Y^-1 .. Y^-n of P0/Q, and
    these depend only on the coefficients of P0 from Y^s up,
    s = max(0, d - n), that is on index(P0) // q^s.  So each block of q^s
    consecutive indices adds its unit count to one bin per a.
    """
    if q ** (t + 1) > budget:
        raise BudgetError("Farey enumeration budget exceeded")
    if t < 1 or hist_depth < 1:
        raise UsageError(f"need t >= 1 and depth >= 1, got t={t}, "
                         f"depth={hist_depth}")
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
        multiples = {}  # p -> indices of p R, 0 < index(R) < q^(d - deg p)
        for i, Q in enumerate(poly_range(q, q ** d, 2 * q ** d)):
            sieve = bytearray(b"\x01") * q ** d
            sieve[0] = 0
            for p in table.primes(i):
                if p not in multiples:
                    multiples[p] = multiple_indices(p, d - p.degree,
                                                    False)[1:]
                for j in multiples[p]:
                    sieve[j] = 0
            for top in range(q ** d // block):
                units = sieve.count(1, top * block, (top + 1) * block)
                if not units:
                    continue
                head = _laurent_head(top, s, Q, n)
                for a in range(q):
                    key = (a,) + head
                    histogram[key] = histogram.get(key, 0) + units
                npoints += q * units
    return {"psi": (q - 1) * npoints // q, "points": npoints,
            "histogram": histogram}


# ---------------------------------------------------------------------------
# orbit experiments on quadratic irrationals


def _orbit_generators(q):
    """The BFS moves: the shears by Y and 1, the inversion, and the inverse
    shears, each a map QuadIrr -> QuadIrr."""
    Y, one = FqPoly.x(q), FqPoly.one(q)
    return [lambda b: b.shear(Y), lambda b: b.shear(one), QuadIrr.invert,
            lambda b: b.shear(-Y), lambda b: b.shear(-one)]


def quad_orbit_experiment(alpha0, mode="complexity", word_len=6,
                          max_orbit=4000):
    """Enumerate part of the modular orbit of a quadratic irrational and
    bin it by complexity.

    BFS over generator words (shears by Y and 1, inversion, and inverse
    shears) up to length word_len, deduplicating by the canonical
    (A, B, C, sign) form.  mode "complexity" bins by h(beta); mode
    "relative" bins by h_{alpha0}(beta).  Returns {"orbit_size", "bins": {value: count},
    "cumulative": [(threshold, N(threshold))]}.
    """
    if mode not in ("complexity", "relative"):
        raise UnsupportedError(f"unknown mode {mode!r}")
    if word_len < 0:
        raise UsageError(f"word length must be at least 0, got {word_len}")
    if word_len > 12:
        raise BudgetError("orbit word length capped at 12")
    moves = _orbit_generators(alpha0.q)
    seen = {alpha0.key(): alpha0}
    frontier = [alpha0]
    for _ in range(word_len):
        nxt = []
        for beta in frontier:
            for move in moves:
                img = move(beta)
                if img.key() not in seen:
                    seen[img.key()] = img
                    nxt.append(img)
                    if len(seen) > max_orbit:
                        raise BudgetError("orbit cap exceeded")
        frontier = nxt
        if not frontier:
            break

    bins = {}
    for beta in seen.values():
        if mode == "complexity":
            val = beta.complexity()
        elif (beta.A, beta.B, beta.C) == (alpha0.A, alpha0.B, alpha0.C):
            continue
        else:
            val = relative_height(alpha0, beta)
        bins[val] = bins.get(val, 0) + 1

    thresholds = sorted(bins)
    cumulative = []
    run = 0
    for s in thresholds:
        run += bins[s]
        cumulative.append((s, run))
    return {"orbit_size": len(seen), "bins": bins, "cumulative": cumulative}
