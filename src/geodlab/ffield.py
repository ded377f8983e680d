"""Exact arithmetic over F_q: polynomials, rational functions, truncated
Laurent series in 1/Y, quadratic irrationals and their continued fractions.

Conventions.  The valuation is the one at infinity: v(P/Q) = deg Q - deg P,
so v(Y) = -1 and the uniformiser is 1/Y.  A Laurent series is stored as a
window of known coefficients starting at its valuation; extending precision
never rewrites previously reported coefficients.
"""

from array import array
from fractions import Fraction
from itertools import repeat
import math

from .errors import (
    CharTwoError,
    NotIrrationalError,
    NotSplitError,
    PrecisionCapError,
    PrecisionError,
    TooLargeError,
    UsageError,
)

PREC_CAP = 256
MAX_Q = 101
MAX_DEGREE = 10 ** 6  # the largest exponent parse_poly accepts

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

    def is_constant(self):
        return len(self.coeffs) <= 1

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


_IRRED_CACHE = {}


def monic_irreducibles(q, max_degree):
    """Monic irreducible polynomials of degree <= max_degree, by trial division."""
    known = _IRRED_CACHE.setdefault(q, [])
    have = max((p.degree for p in known), default=0)
    for d in range(have + 1, max_degree + 1):
        for f in poly_range(q, q ** d, 2 * q ** d):
            if not any((f % p).is_zero() for p in known
                       if 2 * p.degree <= d):
                known.append(f)
    return [p for p in known if p.degree <= max_degree]


_FACTOR_CACHE = {}


def factor(f):
    """Factor a nonzero polynomial into monic irreducibles: dict {p: mult}."""
    if f.is_zero():
        raise ValueError("cannot factor 0")
    key = (f.q, f.monic().coeffs)
    hit = _FACTOR_CACHE.get(key)
    if hit is not None:
        return dict(hit)
    g = f.monic()
    out = {}
    d = 1
    while g.degree > 0:
        if 2 * d > g.degree:
            out[g] = out.get(g, 0) + 1
            break
        for p in monic_irreducibles(f.q, d):
            if p.degree != d:
                continue
            while (g % p).is_zero():
                out[p] = out.get(p, 0) + 1
                g = g // p
        d += 1
    _FACTOR_CACHE[key] = dict(out)
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


def monic_phi_sum(q, n):
    """Sum of euler_phi over monic polynomials of exact degree n (sieved)."""
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    for sieve in prime_sieves(q, n):
        pass
    return sieve.phi_sum()


def mertens_sum(q, n, budget=10 ** 7):
    """Sum of euler_phi over all nonzero f with 0 < deg f <= n.

    Each monic polynomial has q-1 scalar multiples with equal phi, and phi
    comes from one prime sieve per degree; the sum equals
    q(q-1)(q^{2n}-1)/(q+1) exactly.
    """
    _check_q(q)
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    if q ** (n + 1) > budget:
        raise TooLargeError(f"enumeration budget exceeded: q^(n+1)={q ** (n + 1)}")
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

    def inverse(self):
        return RatFunc(self.den, self.num)

    def __repr__(self):
        return f"RatFunc({self})"

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"


class LaurentSeries:
    """Truncated element of F_q((1/Y)) with exact valuation.

    ``coeffs[i]`` is the coefficient of Y^{-(val+i)}; the first coefficient
    is nonzero unless the series is exactly zero (val None, empty coeffs).
    """

    __slots__ = ("q", "val", "coeffs")

    def __init__(self, q, val, coeffs):
        _check_q(q)
        c = [x % q for x in coeffs]
        # normalize: leading zeros shift the valuation
        while c and c[0] == 0:
            c.pop(0)
            val += 1
        if not c:
            raise PrecisionError("all known coefficients vanish")
        self.q = q
        self.val = val
        self.coeffs = tuple(c)

    @classmethod
    def exact_zero(cls, q):
        s = object.__new__(cls)
        s.q, s.val, s.coeffs = q, None, ()
        return s

    def is_zero(self):
        return self.val is None

    @property
    def prec(self):
        return len(self.coeffs)

    def valuation(self):
        return math.inf if self.is_zero() else self.val

    def abs_v(self):
        if self.is_zero():
            return Fraction(0)
        return Fraction(self.q) ** (-self.val)

    def coefficient(self, k):
        """Coefficient of Y^{-k}; raises if k beyond the known window."""
        if self.is_zero():
            return 0
        if k < self.val:
            return 0
        if k >= self.val + self.prec:
            raise PrecisionError(f"coefficient {k} beyond known precision")
        return self.coeffs[k - self.val]

    def _binop_prec(self, other):
        if other.q != self.q:
            raise ValueError("mixed characteristics")

    def __add__(self, other):
        self._binop_prec(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        val = min(self.val, other.val)
        # known window: positions strictly below both unknown frontiers
        hi = min(self.val + self.prec, other.val + other.prec)
        n = hi - val
        if n <= 0:
            raise PrecisionError("no overlapping known window")
        out = [0] * n
        for i in range(n):
            k = val + i
            if self.val <= k < self.val + self.prec:
                out[i] += self.coeffs[k - self.val]
            if other.val <= k < other.val + other.prec:
                out[i] += other.coeffs[k - other.val]
        return LaurentSeries(self.q, val, out)

    def __neg__(self):
        if self.is_zero():
            return self
        return LaurentSeries(self.q, self.val, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._binop_prec(other)
        if self.is_zero() or other.is_zero():
            return LaurentSeries.exact_zero(self.q)
        n = min(self.prec, other.prec)
        out = [0] * n
        for i, x in enumerate(self.coeffs[:n]):
            if x:
                for j, y in enumerate(other.coeffs[:n - i]):
                    out[i + j] += x * y
        return LaurentSeries(self.q, self.val + other.val, out)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError
        q, n = self.q, self.prec
        a0inv = pow(self.coeffs[0], -1, q)
        # invert the unit part 1 + u with u = tail/lead
        inv = [a0inv] + [0] * (n - 1)
        for k in range(1, n):
            s = 0
            for j in range(1, k + 1):
                if j < len(self.coeffs):
                    s += self.coeffs[j] * inv[k - j]
            inv[k] = (-a0inv * s) % q
        return LaurentSeries(q, -self.val, inv)

    def __truediv__(self, other):
        return self * other.inverse()

    def sqrt(self):
        """Square root; requires q odd, even valuation, square leading coeff."""
        if self.is_zero():
            return self
        q = self.q
        if q == 2:
            raise CharTwoError("square roots need odd characteristic")
        if self.val % 2 != 0:
            raise NotSplitError("odd valuation has no square root")
        r0 = sqrt_mod(self.coeffs[0], q)
        if r0 is None:
            raise NotSplitError("leading coefficient is not a square")
        n = self.prec
        inv_lead = pow(self.coeffs[0], -1, q)
        u = [c * inv_lead % q for c in self.coeffs]  # u0 = 1
        r = [1] + [0] * (n - 1)
        inv2 = pow(2, -1, q)
        for k in range(1, n):
            s = sum(r[i] * r[k - i] for i in range(1, k))
            r[k] = (u[k] - s) * inv2 % q
        return LaurentSeries(q, self.val // 2, [r0 * c for c in r])

    def polynomial_part(self):
        """The polynomial of terms with nonnegative Y-exponent (needs prec)."""
        if self.is_zero():
            return FqPoly.zero(self.q)
        if self.val > 0:
            return FqPoly.zero(self.q)
        if self.val + self.prec <= 0:
            raise PrecisionError("polynomial part not fully known")
        # exponent of Y at offset i is -(val+i); keep -(val+i) >= 0
        coeffs = [0] * (-self.val + 1)
        for i, c in enumerate(self.coeffs):
            k = self.val + i
            if k > 0:
                break
            coeffs[-k] = c
        return FqPoly(self.q, coeffs)

    def __repr__(self):
        if self.is_zero():
            return "LaurentSeries(0)"
        terms = []
        for i, c in enumerate(self.coeffs[:6]):
            if c:
                k = self.val + i
                if k == 0:
                    terms.append(str(c))
                else:
                    terms.append(f"{c}*Y^{-k}")
        return ("LaurentSeries(" + " + ".join(terms)
                + f" + O(Y^{-(self.val + self.prec)}))")


def _divide_at_infinity(num_desc, Q, count):
    """The first ``count`` digits of num / Q by synthetic division at
    infinity, num given by its coefficients in descending order from Y^k
    (leading zeros allowed): the coefficients of Y^(k - deg Q),
    Y^(k - deg Q - 1), ... in the Laurent expansion of num / Q."""
    q = Q.q
    rem = list(num_desc) + [0] * (count + Q.degree + 1)
    inv_lc = pow(Q.lc, -1, q)
    qdesc = Q.coeffs[::-1]
    out = []
    for i in range(count):
        c = rem[i] * inv_lc % q
        out.append(c)
        if c:
            for j, y in enumerate(qdesc):
                rem[i + j] = (rem[i + j] - c * y) % q
    return out


def _rat_to_series(x, prec):
    """Exact Laurent expansion of a rational function by long division."""
    if x.is_zero():
        return LaurentSeries.exact_zero(x.q)
    return LaurentSeries(x.q, x.valuation(),
                         _divide_at_infinity(x.num.coeffs[::-1], x.den, prec))


def laurent_expand(x, prec):
    """Expand a RatFunc or QuadIrr to at least ``prec`` known coefficients,
    at most PREC_CAP."""
    if prec < 1:
        raise UsageError(f"prec must be >= 1, got {prec}")
    if prec > PREC_CAP:
        raise PrecisionCapError(
            f"requested precision {prec} exceeds cap {PREC_CAP}")
    if isinstance(x, FqPoly):
        x = RatFunc(x)
    if isinstance(x, RatFunc):
        return _rat_to_series(x, prec)
    if isinstance(x, QuadIrr):
        return x.expand(prec)
    raise TypeError(f"cannot expand {type(x).__name__}")


def _poly_sqrt_floor(F):
    """S with |sqrt(F) - S| < 1, the polynomial part of the series root of
    F (even degree, square lc); S * S == F exactly when F is a square."""
    return _rat_to_series(RatFunc(F), F.degree // 2 + 1).sqrt().polynomial_part()


def _surd_valuation(U, W, D):
    """Exact v(U + W sqrt(D)) for polynomials U, W, not both zero, and a
    non-square D, lc sqrt(D) = r(D) = sqrt_mod(lc D).  The smaller of
    v(U) = -deg U and v(W sqrt(D)) = -(deg W + deg(D)/2) unless they tie and
    lc U + lc W r(D) = 0; then U - W sqrt(D) keeps its leading term 2 lc U,
    and the norm U^2 - W^2 D of the two gives the valuation."""
    if W.is_zero():
        return -U.degree
    dw = W.degree + D.degree // 2
    if U.degree != dw:
        return -max(U.degree, dw)
    q = U.q
    if (U.lc + W.lc * sqrt_mod(D.lc, q)) % q:
        return -dw
    return dw - (U * U - W * W * D).degree


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
    degree and a square leading coefficient, and sqrt(D) is the series root
    that ``LaurentSeries.sqrt`` returns, whose leading coefficient r(D) =
    sqrt_mod(lc D) is the smaller residue root.  The conjugate root has -s.

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
        if D.is_zero() or split and _poly_sqrt_floor(D) ** 2 == D:
            raise NotIrrationalError("discriminant is a square in F_q(Y)")
        if not split:
            raise NotSplitError("discriminant has no square root in F_q((1/Y))")
        self.A, self.B, self.C, self.disc = A, B, C, D
        # at Y^-k the roots are b +- r(D)/2: sqrt(D)/(2A) starts there
        k = self.sep_valuation()
        b = _rat_to_series(RatFunc(-B, 2 * A),
                           max(1, B.degree - D.degree // 2 + 1)).coefficient(k)
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

    def conj(self):
        return QuadIrr._raw(self.A, self.B, self.C, self.disc, -self.sign)

    def trace(self):
        return RatFunc(-self.B, self.A)

    def norm(self):
        return RatFunc(self.C, self.A)

    def key(self):
        return (self.A.coeffs, self.B.coeffs, self.C.coeffs, self.sign)

    def __eq__(self, other):
        return isinstance(other, QuadIrr) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def valuation(self):
        """Exact v(alpha) = v(-B + s sqrt(D)) - v(2A)."""
        return (_surd_valuation(-self.B, FqPoly.const(self.q, self.sign),
                                self.disc) + self.A.degree)

    def sep_valuation(self):
        """Exact v(alpha - alpha^sigma) = v(sqrt(D)) - v(A)."""
        return (-self.disc.degree // 2) - (-self.A.degree)

    def expand(self, prec):
        """The first ``prec`` Laurent coefficients of alpha, from one
        expansion at the precision that the numerator's exact valuation
        fixes."""
        A, B = self.A, self.B
        D = self.disc
        # the numerator -B + s sqrt(D) is needed below Y^-end
        end = _surd_valuation(-B, FqPoly.const(self.q, self.sign), D) + prec
        num = _rat_to_series(RatFunc(D), end + D.degree // 2).sqrt()
        if self.sign < 0:
            num = -num
        if not B.is_zero():
            num = _rat_to_series(RatFunc(-B), end + B.degree) + num
        return num / _rat_to_series(RatFunc(2 * A), prec)

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

    def shear(self, t):
        """alpha + t, the image under z -> z + t for t in F_q[Y].

        The triple becomes (A, B - 2At, C - (B - At) t): it stays primitive
        with A monic, and D and the sign do not change.
        """
        At = self.A * t
        B1 = self.B - At
        return QuadIrr._raw(self.A, B1 - At, self.C - B1 * t, self.disc,
                            self.sign)

    def invert(self):
        """1/alpha, the image under z -> 1/z.

        The triple becomes (C, B, A) u with u = 1/lc(C); C != 0 because D
        is not a square.  D' = u^2 D, and the sign follows apply_homography's
        rule with det = -1: lead = -u r(D).
        """
        q = self.q
        u = pow(self.C.lc, -1, q)
        lead = -u * sqrt_mod(self.disc.lc, q) % q
        return QuadIrr._raw(_scaled(self.C, u), _scaled(self.B, u),
                            _scaled(self.A, u), _scaled(self.disc, u * u % q),
                            self._sign_under(lead))

    def complexity(self):
        """h(alpha) = 1/|alpha - alpha^sigma| as an exact Fraction."""
        return Fraction(self.q) ** self.sep_valuation()

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
    """Continued fraction of a RatFunc (finite) or QuadIrr (eventually periodic)."""
    if isinstance(x, (FqPoly, RatFunc)):
        if isinstance(x, FqPoly):
            x = RatFunc(x)
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
    i = 0
    while True:
        key = (P.coeffs, Q.coeffs)
        if key in seen:
            start = seen[key]
            return CFExpansion(quotients[:start], quotients[start:])
        seen[key] = i
        a = (P + S) // Q
        quotients.append(a)
        P = a * Q - P
        num = D - P * P
        Q_next, rem = divmod(num, Q)
        assert rem.is_zero(), "complete quotient bookkeeping broke"
        Q = Q_next
        i += 1
        if i > 4096:
            raise AssertionError("period not detected within 4096 steps")


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
