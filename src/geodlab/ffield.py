"""Exact arithmetic over F_q: polynomials, rational functions, quadratic
irrationals and their continued fractions.

Conventions.  The valuation is the one at infinity: v(P/Q) = deg Q - deg P,
so v(Y) = -1 and the uniformiser is 1/Y.  No Laurent series is kept: the
digits of a fraction in F_q((1/Y)) come from one long division at infinity
(_divide_at_infinity), and a quadratic irrational is its exact triple
(A, B, C) and sign, whose sqrt(D) enters only through its polynomial part
(_poly_sqrt_floor).
"""

from array import array
from fractions import Fraction
from itertools import repeat
import math

from .errors import (
    BudgetError,
    CharTwoError,
    NotIrrationalError,
    NotSplitError,
    PrecisionCapError,
    UsageError,
    budget,
    charge,
)

PREC_CAP = 256
MAX_Q = 101
MAX_DEGREE = 10 ** 6  # the largest exponent parse_poly accepts
MAX_CF_STEPS = 4096  # cf_expand looks this far for a period

_SMALL_PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97, 101}


def _check_q(q):
    if q not in _SMALL_PRIMES:
        raise ValueError(f"q must be a prime <= {MAX_Q}, got {q}")


def sqrt_mod(a, q):
    """Square root of a in F_q by exhaustive search, or None."""
    _check_q(q)
    a %= q
    for r in range(q):
        if r * r % q == a:
            return r
    return None


class FqPoly:
    """Polynomial over F_q, little-endian coefficient tuple, no leading zero."""

    __slots__ = ("q", "coeffs")

    def __init__(self, q, coeffs=()):
        _check_q(q)
        c = [x % q for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.q = q
        self.coeffs = tuple(c)

    @classmethod
    def _raw(cls, q, coeffs):
        """Trusted constructor: ``coeffs`` is a tuple already reduced mod
        the prime q, with no trailing zero."""
        self = object.__new__(cls)
        self.q = q
        self.coeffs = coeffs
        return self

    @classmethod
    def zero(cls, q):
        return cls(q, ())

    @classmethod
    def one(cls, q):
        return cls(q, (1,))

    @classmethod
    def const(cls, q, a):
        return cls(q, (a,))

    @classmethod
    def x(cls, q):
        """The indeterminate Y."""
        return cls(q, (0, 1))

    @classmethod
    def monomial(cls, q, a, k):
        return cls(q, (0,) * k + (a,))

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lc(self):
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def monic(self):
        if self.is_zero() or self.lc == 1:
            return self
        return _scaled(self, pow(self.lc, -1, self.q))

    def __hash__(self):
        return hash((self.q, self.coeffs))

    def __eq__(self, other):
        if isinstance(other, int):
            other = FqPoly.const(self.q, other)
        if not isinstance(other, FqPoly):
            return NotImplemented
        return self.q == other.q and self.coeffs == other.coeffs

    def _coerce(self, other):
        if isinstance(other, int):
            return FqPoly.const(self.q, other)
        if isinstance(other, FqPoly):
            if other.q != self.q:
                raise ValueError("mixed characteristics")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] = (out[i] + x) % self.q
        while out and out[-1] == 0:
            out.pop()
        return FqPoly._raw(self.q, tuple(out))

    __radd__ = __add__

    def __neg__(self):
        q = self.q
        return FqPoly._raw(q, tuple([q - x if x else 0 for x in self.coeffs]))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return FqPoly.zero(self.q)
        a, b = self.coeffs, other.coeffs
        q = self.q
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        # over a field lc(a) lc(b) != 0, so the product needs no trimming
        return FqPoly._raw(q, tuple([c % q for c in out]))

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = self.q
        rem = list(self.coeffs)
        db = other.degree
        inv_lc = pow(other.lc, -1, q)
        quo = [0] * max(0, len(rem) - db)
        while len(rem) - 1 >= db and rem:
            if rem[-1] == 0:
                rem.pop()
                continue
            k = len(rem) - 1 - db
            c = rem[-1] * inv_lc % q
            quo[k] = c
            for j, y in enumerate(other.coeffs):
                rem[k + j] = (rem[k + j] - c * y) % q
            rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
        # quo[-1] is the first quotient digit found, hence nonzero
        return FqPoly._raw(q, tuple(quo)), FqPoly._raw(q, tuple(rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n):
        out = FqPoly.one(self.q)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def gcd(self, other):
        a, b = self, self._coerce(other)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def __repr__(self):
        return f"FqPoly(q={self.q}, {self})"

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("Y" if c == 1 else f"{c}Y")
            else:
                terms.append(f"Y^{k}" if c == 1 else f"{c}Y^{k}")
        return "+".join(terms)


def _scaled(f, u):
    """u f for a unit u of F_q, reduced mod q: a coefficient-wise product
    that needs no trimming."""
    q = f.q
    return FqPoly._raw(q, tuple([c * u % q for c in f.coeffs]))


def poly_range(q, start, stop):
    """Polynomials over F_q whose little-endian coefficients are the base-q
    digits of start, start + 1, ..., stop - 1, in that order.

    [0, q^d) gives the residues of degree < d, [q^d, 2 q^d) the monic
    polynomials of degree d and [q^d, q^(d+1)) all those of degree d.
    """
    _check_q(q)
    for t in range(start, stop):
        coeffs = []
        while t:
            t, c = divmod(t, q)
            coeffs.append(c)
        yield FqPoly._raw(q, tuple(coeffs))


def factor(f):
    """Factor a nonzero polynomial into monic irreducibles: dict {p: mult},
    by trial division with every monic polynomial by ascending degree d up
    to deg g / 2 of the cofactor g left.  Each monic that divides g is
    prime, as its own factors were divided out at lower degrees.  The
    q^(deg f // 2) trial divisors are charged to the budget (10^7) first."""
    if f.is_zero():
        raise ValueError("cannot factor 0")
    # q >= 2: an exponent past the budget's bit length is over it too
    charge("q^(deg f // 2) trial divisors",
           f.q ** min(f.degree // 2, budget(10 ** 7).bit_length()), 10 ** 7)
    g = f.monic()
    out = {}
    d = 1
    while g.degree > 0:
        if 2 * d > g.degree:
            out[g] = out.get(g, 0) + 1
            break
        for p in poly_range(f.q, f.q ** d, 2 * f.q ** d):
            while (g % p).is_zero():
                out[p] = out.get(p, 0) + 1
                g = g // p
        d += 1
    return out


def euler_phi(f):
    """|(F_q[Y]/f)^x| for nonzero f; invariant under scalar multiples."""
    if f.is_zero():
        raise UsageError("euler_phi needs a nonzero polynomial")
    if f.degree == 0:
        return 1
    q = f.q
    out = 1
    for p, m in factor(f).items():
        n = q ** p.degree
        out *= n ** (m - 1) * (n - 1)
    return out


def poly_index(f):
    """The integer whose base-q digits are f's coefficients: the inverse of
    poly_range."""
    n = 0
    for c in reversed(f.coeffs):
        n = n * f.q + c
    return n


def _poly_at(q, i):
    """The polynomial of index i (see poly_range)."""
    return next(poly_range(q, i, i + 1))


def multiple_indices(F, j, monic):
    """poly_index(F G) for every G of degree < j, or with ``monic`` every
    monic G of degree j, in the order of poly_index(G).

    By Horner's rule on G = Y G' + c: F G = Y F G' + c F.  With
    x = poly_index(F G'), Y F G' has index q x, and c F reaches only its
    low digits, those of Y r for r = x mod q^deg F.  So poly_index(F G) is
    q x + poly_index(Y r + c F) - q r, and one table of these last
    differences, q^(deg F + 1) of them, makes each product a lookup and an
    add.
    """
    q, f = F.q, F.degree
    w = q ** f
    # delta[r][c] = poly_index(Y r + c F) - poly_index(Y r), digit by digit
    columns = []
    for c in range(q):
        col = [c * F.coeffs[0] % q]
        for i in range(1, f + 1):
            a, s = c * F.coeffs[i], q ** i
            col = [v + ((b + a) % q - b) * s for b in range(q) for v in col]
        columns.append(col)
    delta = list(zip(*columns))
    level = [poly_index(F)] if monic else [0]
    for _ in range(j):
        level = [q * x + e for x in level for e in delta[x % w]]
    return level


class PrimeSieve:
    """The distinct monic prime factors of each monic polynomial of degree d
    over F_q, the one of index q^d + i at offset i.

    The factors of offset i form a chain of marks: head[i] is its first
    mark, or -1 when the polynomial is itself prime, and mark m names the
    prime of index prime[m] and degree degree[m] and the next mark nxt[m]
    (-1 ends the chain).
    """

    __slots__ = ("q", "d", "head", "nxt", "prime", "degree")

    def __init__(self, q, d):
        size = q ** d
        # a polynomial of degree d has at most d distinct prime factors
        code = "i" if (d + 1) * size < 2 ** 31 else "q"
        self.q, self.d = q, d
        self.head = array(code, [-1]) * size
        self.nxt, self.prime = array(code), array(code)
        self.degree = bytearray()

    def _mark(self, indices, primes, k):
        """Mark the polynomial of each index in ``indices`` with the prime
        of degree k in the same place of ``primes``."""
        head, nxt, size = self.head, self.nxt, self.q ** self.d
        m = len(nxt)
        for i in indices:
            i -= size
            nxt.append(head[i])
            head[i] = m
            m += 1
        self.prime.extend(primes)
        self.degree.extend(repeat(k, m - len(self.degree)))

    def primes(self, i):
        """The distinct monic prime factors of the monic of offset i."""
        m = self.head[i]
        if m < 0:
            return [_poly_at(self.q, self.q ** self.d + i)]
        out = []
        while m >= 0:
            out.append(_poly_at(self.q, self.prime[m]))
            m = self.nxt[m]
        return out

    def phi_sum(self):
        """Sum of euler_phi over the monic polynomials of degree d:
        phi(f) = q^d prod_{p | f} (N(p) - 1)/N(p), N(p) = q^deg p."""
        head, nxt, degree = self.head, self.nxt, self.degree
        norm = [self.q ** k for k in range(self.d + 1)]
        total = 0
        for m in head:
            if m < 0:
                total += norm[-1] - 1
                continue
            phi = norm[-1]
            while m >= 0:
                n = norm[degree[m]]
                phi = phi // n * (n - 1)
                m = nxt[m]
            total += phi
        return total


def prime_sieves(q, max_degree):
    """Yield the PrimeSieve of each degree d = 1, ..., max_degree.

    Each prime p of degree k < d marks the multiples p R, R monic of degree
    d - k; a monic that no prime marks is itself prime.  multiple_indices
    builds a table of q^(deg F + 1) entries for a fixed factor F, so a
    prime with 2k <= d is that factor for its q^(d-k) multiples.  Each
    larger prime has fewer multiples than its table has entries; those
    come instead from each monic R of degree d - k < d/2 as the factor:
    R G for every monic G of degree k, kept where G is prime.
    """
    _check_q(q)
    found = {}  # k -> offsets g < q^k of the primes q^k + g of degree k
    for d in range(1, max_degree + 1):
        sieve = PrimeSieve(q, d)
        for k in range(1, d // 2 + 1):
            for g in found[k]:
                p = q ** k + g
                products = multiple_indices(_poly_at(q, p), d - k, True)
                sieve._mark(products, repeat(p, len(products)), k)
        for k in range(d // 2 + 1, d):
            offsets = found[k]
            primes = [q ** k + g for g in offsets]
            for r in range(q ** (d - k), 2 * q ** (d - k)):
                products = multiple_indices(_poly_at(q, r), k, True)
                sieve._mark([products[g] for g in offsets], primes, k)
        found[d] = [i for i, m in enumerate(sieve.head) if m < 0]
        yield sieve


def mertens_sum(q, n):
    """Sum of euler_phi over all nonzero f with 0 < deg f <= n.

    Each monic polynomial has q-1 scalar multiples with equal phi, and phi
    comes from one prime sieve per degree; the sum equals
    q(q-1)(q^{2n}-1)/(q+1) exactly.
    """
    _check_q(q)
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    # q >= 2: an exponent past the budget's bit length is over it too
    charge("q^(n+1) polynomials",
           q ** min(n + 1, budget(10 ** 7).bit_length()), 10 ** 7)
    return (q - 1) * sum(sieve.phi_sum() for sieve in prime_sieves(q, n))


class RatFunc:
    """Reduced fraction of FqPoly with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = FqPoly.one(num.q)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num, den = num // g, den // g
        inv = pow(den.lc, -1, num.q)
        self.num = num * inv
        self.den = den * inv

    @classmethod
    def const(cls, q, a):
        return cls(FqPoly.const(q, a))

    @classmethod
    def x(cls, q):
        return cls(FqPoly.x(q))

    @property
    def q(self):
        return self.num.q

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.degree == 0

    def valuation(self):
        """v_infinity = deg den - deg num; +infinity for 0."""
        if self.is_zero():
            return math.inf
        return self.den.degree - self.num.degree

    def abs_v(self):
        """|x|_v = q^{-v} as an exact Fraction."""
        if self.is_zero():
            return Fraction(0)
        return Fraction(self.q) ** (-self.valuation())

    def _coerce(self, other):
        if isinstance(other, int):
            return RatFunc.const(self.q, other)
        if isinstance(other, FqPoly):
            return RatFunc(other)
        if isinstance(other, RatFunc):
            return other
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other / self

    def __repr__(self):
        return f"RatFunc({self})"

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"


def _divide_at_infinity(num_desc, Q, count):
    """The first ``count`` digits of num / Q by synthetic division at
    infinity, num given by its coefficients in descending order from Y^k
    (leading zeros allowed): the coefficients of Y^(k - deg Q),
    Y^(k - deg Q - 1), ... in the Laurent expansion of num / Q.  Only the
    top ``count`` coefficients of num and Q reach them: count^2 work."""
    q = Q.q
    rem = list(num_desc[:count]) + [0] * (2 * count)
    inv_lc = pow(Q.lc, -1, q)
    qdesc = Q.coeffs[:-count - 1:-1]
    out = []
    for i in range(count):
        c = rem[i] * inv_lc % q
        out.append(c)
        if c:
            for j, y in enumerate(qdesc):
                rem[i + j] = (rem[i + j] - c * y) % q
    return out


def laurent_expand(x, prec):
    """(v, digits): the valuation of a RatFunc x and the coefficients of
    Y^-v, ..., Y^-(v + prec - 1), prec <= PREC_CAP; (inf, []) for 0."""
    if prec < 1:
        raise UsageError(f"prec must be >= 1, got {prec}")
    if prec > PREC_CAP:
        raise PrecisionCapError(
            f"requested precision {prec} exceeds cap {PREC_CAP}")
    if x.is_zero():
        return math.inf, []
    return x.valuation(), _divide_at_infinity(x.num.coeffs[::-1], x.den, prec)


def _poly_sqrt_floor(F):
    """S with |sqrt(F) - S| < 1 for F of degree 2m with a square lc: the
    terms of degree 0..m of the root led by s_m = sqrt_mod(lc F).  S^2 and
    F agree from Y^m up, so their coefficients of Y^(2m-k) give, k = 1..m,

        s_(m-k) = (f_(2m-k) - sum_{i=1}^{k-1} s_(m-i) s_(m-k+i)) / (2 s_m).

    S * S == F exactly when F is a square."""
    q, f = F.q, F.coeffs
    m = F.degree // 2
    s = [0] * (m + 1)
    s[m] = sqrt_mod(F.lc, q)
    inv = pow(2 * s[m], -1, q)
    for k in range(1, m + 1):
        acc = f[2 * m - k] - sum(s[m - i] * s[m - k + i] for i in range(1, k))
        s[m - k] = acc * inv % q
    return FqPoly._raw(q, tuple(s))


def _canonical_triple(A, B, C):
    """(A, B, C) divided by their monic gcd and scaled to make A monic."""
    g = A.gcd(B.gcd(C)) if not (B.is_zero() and C.is_zero()) else A.monic()
    if g.degree > 0:
        A, B, C = A // g, B // g, C // g
    u = pow(A.lc, -1, A.q)
    return _scaled(A, u), _scaled(B, u), _scaled(C, u)


class QuadIrr:
    """Quadratic irrational over F_q(Y): the root

        alpha = (-B + s sqrt(D)) / (2A),   D = B^2 - 4AC,

    of A x^2 + B x + C, with sign s = ``self.sign`` in {1, -1}.

    The triple is canonical (common factor removed, A monic).  D has even
    degree and a square leading coefficient, and sqrt(D) is its root in
    F_q((1/Y)) whose leading coefficient r(D) = sqrt_mod(lc D) is the
    smaller residue root.  The conjugate root has -s.

    The constructor's ``branch`` names the root by its expansion: the two
    roots agree up to their coefficient of Y^-k, k = sep_valuation(), and
    branch 0 is the one whose coefficient there is the smaller residue.  It
    is turned into s once, from the coefficient of -B/(2A) at Y^-k.

    ``disc`` holds D; every way to make a QuadIrr sets it once.
    """

    __slots__ = ("A", "B", "C", "disc", "sign")

    def __init__(self, A, B, C, branch=0):
        q = A.q
        if q == 2:
            raise CharTwoError("quadratic irrationals need odd q")
        if A.is_zero():
            raise ValueError("leading coefficient A must be nonzero")
        A, B, C = _canonical_triple(A, B, C)
        D = B * B - 4 * A * C
        r = sqrt_mod(D.lc, q)
        split = D.degree % 2 == 0 and r is not None
        S = _poly_sqrt_floor(D) if split else None
        if D.is_zero() or split and S * S == D:
            raise NotIrrationalError("discriminant is a square in F_q(Y)")
        if not split:
            raise NotSplitError("discriminant has no square root in F_q((1/Y))")
        self.A, self.B, self.C, self.disc = A, B, C, D
        # at Y^-k, k = sep_valuation(), the roots are b +- r(D)/2, b digit
        # j = deg B - deg D/2 of -B/(2A), whose digits start at Y^(deg B -
        # deg A); b = 0 when j < 0, B = 0 included
        j = B.degree - D.degree // 2
        b = (_divide_at_infinity((-B).coeffs[::-1], _scaled(A, 2), j + 1)[j]
             if j >= 0 else 0)
        half_r = r * pow(2, -1, q)
        plus_smaller = (b + half_r) % q < (b - half_r) % q
        self.sign = 1 if plus_smaller == ((branch & 1) == 0) else -1

    @classmethod
    def _raw(cls, A, B, C, D, sign):
        """Trusted constructor: (A, B, C) canonical, D = B^2 - 4AC."""
        self = object.__new__(cls)
        self.A, self.B, self.C, self.disc, self.sign = A, B, C, D, sign
        return self

    @property
    def q(self):
        return self.A.q

    def key(self):
        return (self.A.coeffs, self.B.coeffs, self.C.coeffs, self.sign)

    def __eq__(self, other):
        return isinstance(other, QuadIrr) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def sep_valuation(self):
        """Exact v(alpha - alpha^sigma) = v(sqrt(D)) - v(A)."""
        return (-self.disc.degree // 2) - (-self.A.degree)

    def apply_homography(self, a, b, c, d):
        """Image under z -> (az+b)/(cz+d) with FqPoly entries, det != 0.

        The image of alpha - alpha^sigma = s sqrt(D)/A is
        det (alpha - alpha^sigma) / ((c alpha + d)(c alpha^sigma + d))
        = s det sqrt(D) / A2.  The canonical image triple is (A2, B2, C2)
        u/g, with g their monic gcd and u = 1/lc(A2), so its root is
        (-B' + s (u det/g) sqrt(D)) / (2A').  (u det/g) sqrt(D) is a square
        root of D' with leading coefficient u lc(det) r(D): it is sqrt(D')
        or -sqrt(D'), and s' = s exactly in the first case.
        """
        q = self.q
        det = a * d - b * c
        if det.is_zero():
            raise ValueError("singular homography")
        # substitute the inverse map z = (d z' - b)/(-c z' + a) into
        # A z^2 + B z + C = 0
        A, B, C = self.A, self.B, self.C
        A2 = A * d * d - B * d * c + C * c * c
        B2 = -2 * A * b * d + B * (a * d + b * c) - 2 * C * a * c
        C2 = A * b * b - B * a * b + C * a * a
        if A2.is_zero():
            raise ValueError("image has infinite leading root")
        lead = pow(A2.lc, -1, q) * det.lc * sqrt_mod(self.disc.lc, q) % q
        A2, B2, C2 = _canonical_triple(A2, B2, C2)
        return QuadIrr._raw(A2, B2, C2, B2 * B2 - 4 * A2 * C2,
                            self._sign_under(lead))

    def _sign_under(self, lead):
        """The sign of an image whose root is (-B' + s R)/(2A') for the
        square root R of D' with leading coefficient ``lead``: s' = s
        exactly when R = sqrt(D'), that is when lead is the canonical root
        r(D') = sqrt_mod(lead^2)."""
        if lead == sqrt_mod(lead * lead, self.q):
            return self.sign
        return -self.sign

    def __repr__(self):
        return (f"QuadIrr(({self.A})x^2+({self.B})x+({self.C}), "
                f"sign={self.sign:+d})")


class CFExpansion:
    """Artin continued fraction: polynomial partial quotients.

    ``period`` empty for rational input; otherwise minimal up to rotation.
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod, period=()):
        self.preperiod = tuple(preperiod)
        self.period = tuple(period)


def cf_expand(x):
    """Continued fraction of a RatFunc (finite) or QuadIrr (eventually
    periodic).  Each complete quotient of a QuadIrr costs about (deg D)^2
    coefficient products, and their sum must stay within the budget
    (10^7)."""
    if isinstance(x, RatFunc):
        quotients = []
        P, Q = x.num, x.den
        while not Q.is_zero():
            a, r = divmod(P, Q)
            quotients.append(a)
            P, Q = Q, r
        return CFExpansion(quotients, ())
    if not isinstance(x, QuadIrr):
        raise TypeError("cf_expand takes RatFunc or QuadIrr")

    D = x.disc
    # complete quotients (P_i + sqrt(D))/Q_i with exact polynomial
    # bookkeeping, from x = (-sB + sqrt(D))/(2sA).  sqrt(D) = S + eps with S
    # a polynomial and |eps| < 1 <= |Q|, so the polynomial part of
    # (P + sqrt(D))/Q is the polynomial quotient (P + S) // Q.
    S = _poly_sqrt_floor(D)
    P, Q = x.sign * -x.B, x.sign * 2 * x.A
    seen = {}
    quotients = []
    i = spent = 0
    while True:
        key = (P.coeffs, Q.coeffs)
        if key in seen:
            start = seen[key]
            return CFExpansion(quotients[:start], quotients[start:])
        seen[key] = i
        spent += D.degree ** 2
        charge(f"(deg D)^2 coefficient products of {i + 1} complete "
               f"quotients of a discriminant of degree {D.degree}", spent,
               10 ** 7)
        a = (P + S) // Q
        quotients.append(a)
        P = a * Q - P
        num = D - P * P
        Q_next, rem = divmod(num, Q)
        assert rem.is_zero(), "complete quotient bookkeeping broke"
        Q = Q_next
        i += 1
        if i > MAX_CF_STEPS:
            raise BudgetError(f"no period within {MAX_CF_STEPS} steps")


def parse_poly(q, text):
    """Parse "2Y^3+Y+1" style polynomial text over F_q; malformed text is a
    UsageError."""
    text = text.replace(" ", "").replace("**", "^").replace("*", "")
    if not text:
        raise UsageError("empty polynomial")
    text = text.replace("-", "+-")
    out = FqPoly.zero(q)
    for term in text.split("+"):
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        try:
            if "Y" in term:
                head, _, exp = term.partition("Y")
                c = int(head) if head else 1
                k = int(exp[1:]) if exp.startswith("^") else (1 if not exp else int(exp))
            else:
                c, k = int(term), 0
        except ValueError:
            raise UsageError(f"cannot parse the term {term!r} of {text!r}") from None
        if k > MAX_DEGREE:
            raise UsageError(f"exponent {k} exceeds {MAX_DEGREE}")
        if neg:
            c = -c
        out = out + FqPoly.monomial(q, c, k)
    return out


def parse_ratfunc(q, text):
    """Parse "P/Q" (or a bare polynomial) over F_q."""
    if "/" in text:
        p_txt, _, q_txt = text.partition("/")
        num = parse_poly(q, p_txt.strip("()"))
        den = parse_poly(q, q_txt.strip("()"))
        if den.is_zero():
            raise UsageError(f"zero denominator in {text!r}")
        return RatFunc(num, den)
    return RatFunc(parse_poly(q, text))
