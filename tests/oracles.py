"""Reference oracles and small helpers for the test suite.

Each oracle recomputes a quantity that geodlab computes, by another route:
FqPoly/RatFunc/poly_range arithmetic, plain Python, numpy or scipy.  None
calls the function it checks or a private helper of that function's module,
and test_oracles.py keeps the geodlab imports below to a fixed list; the
Laurent expansions of Series use their own inverse and square root.  The
objects handed in (matrices, graphs, queries, measures) are read through
their public fields only.  The helpers build inputs instead: orbit_bfs
walks a quadratic irrational's orbit with its own apply_homography.
relative_height (the orbit experiment's relative mode bins by its
exponent), norm_form, transform_check (acceptance 14, through the
irrational's own apply_homography and sep_valuation), matrix_inverse and
to_document serve only the tests, so they live here and not in the
package.
"""

import copy
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from geodlab.ffield import FqPoly, RatFunc, poly_range
from geodlab.graphs import load_validate


def dense(cols, vals=None):
    """The square array with the sum of vals[i][k] (1.0 when vals is None)
    over the k with cols[i][k] = j at row i, column j: a sparse operator
    stored by rows, such as EdgeShift.succ with MarkovMeasure.P, made dense
    for the oracles.  A column repeated in a row adds up, as the ways of a
    graph of groups do."""
    M = np.zeros((len(cols), len(cols)))
    for i, row in enumerate(cols):
        for k, j in enumerate(row):
            M[i, j] += 1.0 if vals is None else vals[i][k]
    return M


# ---------------------------------------------------------------------------
# the tree of PGL_2 over F_q((1/Y))


def vertex_distance_smith(g):
    """d(o, g o) by Smith elimination over the valuation ring O_v.

    Pivots on an entry of least valuation and clears its row and column
    with multipliers in O_v; the distance is the gap between the two
    diagonal elementary divisors.
    """
    m = [[g.a, g.b], [g.c, g.d]]
    i0, j0 = min(((i, j) for i in range(2) for j in range(2)
                  if not m[i][j].is_zero()),
                 key=lambda t: m[t[0]][t[1]].valuation())
    if i0 == 1:
        m[0], m[1] = m[1], m[0]
    if j0 == 1:
        for row in m:
            row[0], row[1] = row[1], row[0]
    p = m[0][0]
    # clear the column: row1 -= (m10/p) row0, a multiplier in O_v
    f = m[1][0] / p
    m[1][0] = m[1][0] - f * m[0][0]
    m[1][1] = m[1][1] - f * m[0][1]
    # clear the row: col1 -= (m01/p) col0
    f = m[0][1] / p
    m[0][1] = m[0][1] - f * m[0][0]
    m[1][1] = m[1][1] - f * m[1][0]
    assert m[1][0].is_zero() and m[0][1].is_zero()
    return abs(m[0][0].valuation() - m[1][1].valuation())


def translation_length_oracle(g, radius=3, max_center_deg=3):
    """(min of d(x, g x) over the vertices x = B o near o, vertices tried).

    B = [[Y^-m, u], [0, Y^-n]] for -radius <= m, n <= radius, with the
    centres u: 0, the monic polynomials of degree <= max_center_deg and
    c/Y^k for 1 <= k <= radius, c != 0.  d(x, g x) = d(o, B^-1 g B o) is the
    gap between the elementary divisors of B^-1 g B.  A scalar factor moves
    both divisors by the same valuation (Serre, Trees, II.1), so the gap is
    that of M = adj(Bs) G Bs, with Bs = Y^radius B and G = L g polynomial:
    |2 max deg M_ij - deg det M|, where det M = det(Bs)^2 det G.
    """
    q = g.a.q
    Y = FqPoly.x(q)
    K = radius
    entries = (g.a, g.b, g.c, g.d)
    L = FqPoly.one(q)
    for x in entries:
        L = L * x.den
    a, b, c, d = (x.num * (L // x.den) for x in entries)
    deg_det_g = (a * d - b * c).degree
    # U = Y^K u
    centers = [FqPoly.zero(q)]
    centers += [f * Y ** K for k in range(max_center_deg + 1)
                for f in poly_range(q, q ** k, 2 * q ** k)]
    centers += [FqPoly.const(q, s) * Y ** (K - k)
                for k in range(1, radius + 1) for s in range(1, q)]
    best, points = None, 0
    for n in range(-radius, radius + 1):
        D = Y ** (K - n)
        # second column of G Bs for each centre
        cols = [(U, a * U + b * D, c * U + d * D) for U in centers]
        for m in range(-radius, radius + 1):
            A = Y ** (K - m)
            g11, g21 = a * A, c * A
            deg_det = 2 * (2 * K - m - n) + deg_det_g
            for U, g12, g22 in cols:
                # adj(Bs) = [[D, -U], [0, A]]
                M = (D * g11 - U * g21, D * g12 - U * g22, A * g21, A * g22)
                dist = abs(2 * max(x.degree for x in M) - deg_det)
                if best is None or dist < best:
                    best = dist
                points += 1
    return best, points


def farey_psi_oracle(q, t):
    """Psi(t) by enumerating the canonical shear representatives."""
    total = q - 1  # unit denominators: one class each
    for d in range(1, t + 1):
        for Q in poly_range(q, q ** d, q ** (d + 1)):
            for P in poly_range(q, 0, q ** d):
                g = P.gcd(Q) if not P.is_zero() else Q.monic()
                if g.degree == 0:
                    total += 1
    return total


def hecke_index_oracle(q, ideal):
    """[GL_2(R) : G_I] as the size of the projective line over R/I: the
    pairs (a, b) of residues with gcd(a, b, I) = 1, two gcds for each of
    the q^(2 deg I) pairs, divided by the number of unit residues."""
    residues = list(poly_range(q, 0, q ** ideal.degree))
    units = sum(1 for a in residues if a.gcd(ideal).degree == 0)
    count = 0
    for a in residues:
        for b in residues:
            g = a.gcd(b)
            g = g.gcd(ideal) if not g.is_zero() else ideal.monic()
            if g.degree == 0:
                count += 1
    assert count % units == 0
    return count // units


# ---------------------------------------------------------------------------
# F_q[Y] and quadratic irrationals


def mertens_closed_form(q, n):
    """Sum of euler_phi over the nonzero f with 0 < deg f <= n:
    q(q-1)(q^{2n}-1)/(q+1)."""
    total = q * (q - 1) * (q ** (2 * n) - 1)
    assert total % (q + 1) == 0
    return total // (q + 1)


class Series:
    """A truncated element of F_q((1/Y)): coeffs[i] is the coefficient of
    Y^-(val + i), and the first is nonzero; Series(q, None) is the exact
    zero.  A sum knows the coefficients below both frontiers, a product as
    many as the shorter factor.  A window whose every known coefficient
    vanishes raises ArithmeticError."""

    def __init__(self, q, val, coeffs=()):
        c = [x % q for x in coeffs]
        if val is not None:
            lead = next((i for i, x in enumerate(c) if x), None)
            if lead is None:
                raise ArithmeticError("every known coefficient vanishes")
            val, c = val + lead, c[lead:]
        self.q, self.val, self.coeffs = q, val, tuple(c)

    def is_zero(self):
        return self.val is None

    @property
    def prec(self):
        return len(self.coeffs)

    def abs_v(self):
        return Fraction(0) if self.is_zero() else Fraction(self.q) ** -self.val

    def coefficient(self, k):
        """The coefficient of Y^-k, which must be known."""
        if self.is_zero() or k < self.val:
            return 0
        if k >= self.val + self.prec:
            raise ArithmeticError(f"coefficient {k} beyond known precision")
        return self.coeffs[k - self.val]

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        val = min(self.val, other.val)
        hi = min(self.val + self.prec, other.val + other.prec)
        return Series(self.q, val, [self.coefficient(k) + other.coefficient(k)
                                    for k in range(val, hi)])

    def __neg__(self):
        return self * Series(self.q, 0, [-1] + [0] * self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return Series(self.q, None)
        n = min(self.prec, other.prec)
        out = [0] * n
        for i, x in enumerate(self.coeffs[:n]):
            for j, y in enumerate(other.coeffs[:n - i]):
                out[i + j] += x * y
        return Series(self.q, self.val + other.val, out)

    def inverse(self):
        """1/x from inv_0 = 1/a_0 and sum_{j<=k} a_j inv_(k-j) = 0."""
        q, a = self.q, self.coeffs
        a0inv = pow(a[0], -1, q)
        inv = [a0inv]
        for k in range(1, self.prec):
            inv.append(-a0inv * sum(a[j] * inv[k - j]
                                    for j in range(1, k + 1)) % q)
        return Series(q, -self.val, inv)

    def __truediv__(self, other):
        return self * other.inverse()

    def sqrt(self):
        """The square root whose leading coefficient is the smaller residue
        root of a_0, from r_0 = that root and sum_{i<=k} r_i r_(k-i) = a_k."""
        q, a = self.q, self.coeffs
        if self.val % 2:
            raise ValueError("odd valuation has no square root")
        r0 = next(r for r in range(q) if r * r % q == a[0])
        inv = pow(2 * r0, -1, q)
        r = [r0]
        for k in range(1, self.prec):
            s = sum(r[i] * r[k - i] for i in range(1, k))
            r.append((a[k] - s) * inv % q)
        return Series(q, self.val // 2, r)

    def polynomial_part(self):
        """The terms of nonnegative Y-exponent, which must all be known."""
        if self.is_zero() or self.val > 0:
            return FqPoly(self.q)
        if self.val + self.prec <= 0:
            raise ArithmeticError("polynomial part not fully known")
        return FqPoly(self.q, self.coeffs[-self.val::-1])


def series(x, prec):
    """The first ``prec`` coefficients of an FqPoly or RatFunc: those of a
    polynomial then zeros, or the numerator times the inverse of the
    denominator."""
    if isinstance(x, RatFunc):
        return series(x.num, prec) * series(x.den, prec).inverse()
    if x.is_zero():
        return Series(x.q, None)
    return Series(x.q, -x.degree, (list(x.coeffs[::-1]) + [0] * prec)[:prec])


def quad_series(alpha, prec):
    """The first ``prec`` coefficients of alpha = N/(2A), N = -B + s
    sqrt(D), sqrt(D) the series root led by the smaller residue root.  N
    N^sigma = B^2 - D = 4AC and v(N^sigma) >= -max(deg B, deg D/2) bound
    v(N) above, however much the leading terms of N cancel."""
    A, B, C, D = alpha.A, alpha.B, alpha.C, alpha.disc
    half = D.degree // 2
    n = max(max(B.degree, half) - A.degree - C.degree + half, 0) + prec
    num = series(D, n).sqrt() * series(FqPoly(D.q, [alpha.sign]), n)
    return (series(-B, n + B.degree + D.degree) + num) / series(A + A, prec)


def conj(alpha):
    """The Galois conjugate alpha^sigma of a quadratic irrational: the same
    A, B, C and discriminant with the other sign of the square root."""
    beta = copy.copy(alpha)
    beta.sign = -alpha.sign
    return beta


def trace_norm(alpha):
    """(alpha + alpha^sigma, alpha alpha^sigma) = (-B/A, C/A)."""
    return RatFunc(-alpha.B, alpha.A), RatFunc(alpha.C, alpha.A)


def quad_invariants(alpha):
    """(trace, norm, conjugate, complexity h) with h found two ways.

    h = |tr^2 - 4n|^{-1/2} from the trace and norm, and the Laurent
    expansions of the two roots must first differ at the same power of Y.
    """
    (tr, nm), sigma = trace_norm(alpha), conj(alpha)
    v = (tr * tr - 4 * nm).valuation()
    assert v % 2 == 0
    k = v // 2
    h_formula = Fraction(alpha.q) ** k
    lead = min(quad_series(alpha, 1).val, quad_series(sigma, 1).val)
    prec = max(1, k - lead + 1)
    x, y = quad_series(alpha, prec), quad_series(sigma, prec)
    window = range(min(x.val, y.val), min(x.val + x.prec, y.val + y.prec))
    k_series = next((j for j in window
                     if x.coefficient(j) != y.coefficient(j)), None)
    if k_series != k:
        found = "nowhere" if k_series is None else f"at Y^{-k_series}"
        raise AssertionError(
            f"complexity mismatch: the formula gives {h_formula}, so the roots "
            f"first differ at Y^{-k}; the expansions differ first {found}")
    return tr, nm, sigma, h_formula


def convergents(cf, n):
    """(p_k, q_k) for k < n, as FqPoly pairs, of a CFExpansion."""
    qs = list(cf.preperiod[:n])
    while len(qs) < n and cf.period:
        qs.extend(cf.period[:n - len(qs)])
    if not qs:
        return []
    q = qs[0].q
    p_prev, p_cur = FqPoly.one(q), qs[0]
    q_prev, q_cur = FqPoly.zero(q), FqPoly.one(q)
    out = [(p_cur, q_cur)]
    for a in qs[1:]:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        out.append((p_cur, q_cur))
    return out


def orbit_generators(q):
    """The generators of the quad-orbit BFS as the entries (a, b, c, d) of
    z -> (az + b)/(cz + d): the shears by Y and 1, the inversion, and the
    inverse shears, in that order."""
    Y, one, zero = FqPoly.x(q), FqPoly.one(q), FqPoly.zero(q)
    return [(one, Y, zero, one), (one, one, zero, one), (zero, one, one, zero),
            (one, -Y, zero, one), (one, -one, zero, one)]


def orbit_bfs(alpha, word_len):
    """(points, edges) of the BFS from alpha over the words of length at
    most word_len in orbit_generators, each step taken by the general
    ``apply_homography``.  points maps each canonical key to its point, in
    the order the BFS meets them; edges lists (beta, g, g beta) for every
    step."""
    gens = orbit_generators(alpha.q)
    points, frontier, edges = {alpha.key(): alpha}, [alpha], []
    for _ in range(word_len):
        nxt = []
        for beta in frontier:
            for g in gens:
                img = beta.apply_homography(*g)
                edges.append((beta, g, img))
                if points.setdefault(img.key(), img) is img:
                    nxt.append(img)
        frontier = nxt
    return points, edges


def matrix_inverse(g):
    """g^-1 for a BTMatrix g, as the matrix of g's own class."""
    det = g.det()
    return type(g)(g.d / det, -g.b / det, -g.c / det, g.a / det)


def relative_height(alpha, beta):
    """h_alpha(beta) = max(|[a, b, b^s, a^s]|, |[a, b^s, b, a^s]|), a power
    of q equal to q^(distance between the two translation axes), read off
    the two forms.

    With a = (-B_a + s_a sqrt(D_a))/(2A_a) and b likewise, the two norms
    (b - a)(b^s - a^s) and (b - a^s)(b^s - a) are (P +- R)/(2 A_a A_b),
    where R = s_a s_b sqrt(D_a) sqrt(D_b) and P = 2 A_a C_b + 2 A_b C_a -
    B_a B_b is the polar invariant of the two forms.  The crossratios are
    these norms times h(a) h(b) = |A_a A_b| / |R|, and in odd
    characteristic max(|P + R|, |P - R|) = max(|P|, |R|), so h_alpha(beta)
    is q^max(0, deg P - (deg D_a + deg D_b)/2): the tree's
    cosh d = |P| / sqrt(D_a D_b).  It holds for any two points over one q,
    in one quadratic field or not.  ValueError when beta has alpha's
    triple, that is beta in {alpha, alpha^sigma}.
    """
    if (alpha.A, alpha.B, alpha.C) == (beta.A, beta.B, beta.C):
        raise ValueError("beta lies in {alpha, alpha^sigma}")
    P = 2 * (alpha.A * beta.C + beta.A * alpha.C) - alpha.B * beta.B
    e = P.degree - (alpha.disc.degree + beta.disc.degree) // 2
    return Fraction(alpha.q) ** max(0, e)


def norm_form(alpha, x, y):
    """Q_alpha(x, y) = |x^2 - xy tr(alpha) + y^2 n(alpha)|_v for FqPoly x, y:
    |A x^2 + B xy + C y^2| / |A|.  The form has no zero but (0, 0), since
    alpha is irrational; ValueError there."""
    if x.is_zero() and y.is_zero():
        raise ValueError("(x, y) must be nonzero")
    form = alpha.A * x * x + alpha.B * x * y + alpha.C * y * y
    return Fraction(alpha.q) ** (form.degree - alpha.A.degree)


def transform_check(alpha, g, grid=5):
    """Whether Q_{g alpha}(x,y) = (h(alpha)/h(g alpha)) Q_alpha(g^{-1}(x,y))
    holds exactly on a grid of polynomial vectors (x, y), with g alpha and
    the complexities h from alpha's own apply_homography and complexity.

    g: BTMatrix with polynomial entries and constant nonzero determinant
    (an element of GL_2(F_q[Y]), so |det| = 1 and the adjugate can replace
    the inverse inside the absolute values); ValueError otherwise.
    """
    det = g.det()
    if not (det.is_polynomial() and det.num.degree <= 0):
        raise ValueError("g must lie in GL_2(F_q[Y])")
    if not all(e.is_polynomial() for e in g.entries()):
        raise ValueError("g must have polynomial entries")
    q = alpha.q
    ga = alpha.apply_homography(g.a.num, g.b.num, g.c.num, g.d.num)
    h_ratio = Fraction(q) ** (alpha.sep_valuation() - ga.sep_valuation())
    # adjugate: g^{-1} up to the unit determinant
    A, B, C, D = g.a.num, g.b.num, g.c.num, g.d.num
    # the zero polynomial, then the monic ones by degree
    monics = itertools.chain.from_iterable(
        poly_range(q, q ** d, 2 * q ** d) for d in range(grid))
    polys = [FqPoly.zero(q)] + list(itertools.islice(monics, grid - 1))
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
            if norm_form(ga, xv, yv) != h_ratio * norm_form(alpha, xp, yp):
                return False
            checked += 1
    return checked > 0


# ---------------------------------------------------------------------------
# graphs and counting


def two_vertex_segment():
    """A single edge pair between two vertices (degenerate for NB walks)."""
    return load_validate({
        "vertices": [{"id": "u"}, {"id": "v"}],
        "edges": [{"id": "e+", "from": "u", "to": "v", "reverse": "e-"},
                  {"id": "e-", "from": "v", "to": "u", "reverse": "e+"}]})


def graph_of_groups(orders, pairs, subgraphs=None):
    """A graph of groups from the vertex orders {v: |G_v|}, the edge pairs
    (name, u, v) or (name, u, v, |G_e|), each giving name+ from u to v and
    name- back, and point-like subgraphs {name: vertices}, with no edges."""
    edges = []
    for name, u, v, *order in pairs:
        for s, a, b, r in (("+", u, v, "-"), ("-", v, u, "+")):
            edges.append({"id": name + s, "from": a, "to": b,
                          "reverse": name + r, "order": (order or [1])[0]})
    return load_validate({
        "vertices": [{"id": v, "order": k} for v, k in orders.items()],
        "edges": edges,
        "subgraphs": {name: {"vertices": vs, "edges": []}
                      for name, vs in (subgraphs or {}).items()}})


def order_three_lollipop():
    """An order-3 vertex a joined by a trivial edge to b, which has a loop:
    tree degree 3 at both, a 3-regular tree.  A = {a}, B = {b}."""
    return graph_of_groups({"a": 3, "b": 1},
                           [("t", "a", "b"), ("l", "b", "b")],
                           {"A": ["a"], "B": ["b"]})


def order_three_pair():
    """Two order-3 vertices joined by a trivial edge, each with a loop of
    order 3: tree degree 3 + 2 at both, a 5-regular tree.  After the edge
    a path goes on along it in 2 ways and along each loop edge in 1.
    A = {a}, B = {b}."""
    return graph_of_groups({"a": 3, "b": 3}, [
        ("t", "a", "b"), ("la", "a", "a", 3), ("lb", "b", "b", 3)],
        {"A": ["a"], "B": ["b"]})


def to_document(g):
    """The schema document of a GraphOfGroups, the inverse of load_validate,
    read from its public records."""
    return {
        "vertices": [{"id": v.id, "order": v.order}
                     for v in (g.vertices[i] for i in g.vertex_ids)],
        "edges": [{"id": e.id, "from": e.origin, "to": e.terminus,
                   "reverse": e.reverse, "order": e.order,
                   "conductance": e.conductance}
                  for e in (g.edges[i] for i in g.edge_ids)],
        "subgraphs": g.subgraphs,
    }


def entry_sums(targets, sources, coeffs, x, size):
    """out[t] for t < size: the terms coeffs[k] * x[sources[k]] (or
    x[sources[k]] when coeffs is None) of the entries k with targets[k] = t
    added one by one into out[t], in the order of the lists, from the first
    term; 0 where there is none."""
    out = [None] * size
    for k, (t, s) in enumerate(zip(targets, sources)):
        term = x[s] if coeffs is None else coeffs[k] * x[s]
        out[t] = term if out[t] is None else out[t] + term
    return [0 if v is None else v for v in out]


def bass_matrix(g):
    """Bass's edge matrix of a graph of groups as a list of integer rows,
    in sorted edge order: B[e][f] = i(f) - [f = reverse of e] when t(e) =
    o(f), with i(f) = |G_o(f)| / |G_f|, else 0, read off the vertex and
    edge records one pair at a time."""
    ids = sorted(g.edges)

    def ways(e, f):
        if g.edges[f].origin != g.edges[e].terminus:
            return 0
        index = g.vertices[g.edges[f].origin].order // g.edges[f].order
        return index - (f == g.edges[e].reverse)

    return [[ways(e, f) for f in ids] for e in ids]


def per_start_sweep(succ, starts, nmax):
    """For n = 1..nmax, the sum over (e, mult) in ``starts`` of mult times
    the number of non-backtracking paths of n steps from e back to e over
    the successor lists ``succ``: one exact big-integer sweep per start."""
    total = [0] * nmax
    for e, mult in starts:
        w = [0] * len(succ)
        w[e] = 1
        for n in range(nmax):
            nxt = [0] * len(w)
            for i, mass in enumerate(w):
                for j in succ[i]:
                    nxt[j] += mass
            w = nxt
            total[n] += mult * w[e]
    return total


def enumerate_perpendiculars(query):
    """Per-length counts of the perpendiculars of length <= nmax, listed
    one by one by depth-first search.  Capped at 32 edges and nmax 10."""
    g = query.graph
    if g.edge_count() > 32 or query.nmax > 10:
        raise ValueError("naive enumeration is capped at 32 edges, nmax 10")
    minus, plus = g.subgraph(query.minus), g.subgraph(query.plus)
    # the first edge leaves a vertex of Y- by an edge not in Y-, the last
    # arrives at a vertex of Y+ by an edge not in Y+
    start = [eid for eid, e in g.edges.items()
             if e.origin in minus["vertices"] and eid not in minus["edges"]]
    end = {eid for eid, e in g.edges.items()
           if e.terminus in plus["vertices"] and eid not in plus["edges"]}
    counts = [0] * query.nmax

    def rec(eid, length):
        if eid in end:
            counts[length - 1] += 1
        if length == query.nmax:
            return
        e = g.edges[eid]
        for f in g.out_edges(e.terminus):
            if f != e.reverse:
                rec(f, length + 1)

    for eid in start:
        rec(eid, 1)
    return counts


def _point_or_cycle(g, name):
    """(vertices, is_cycle) of a subgraph that is a point (one vertex, no
    edges) or a simple cycle (as many edge pairs as vertices)."""
    sub = g.subgraph(name)
    verts, edges = sub["vertices"], sub["edges"]
    is_point = len(verts) == 1 and not edges
    if not is_point and len(edges) != 2 * len(verts):
        raise ValueError(f"subgraph {name!r} is neither a point nor a cycle")
    return verts, not is_point


def trivial_orders(g):
    """Whether every vertex and edge group of the graph is trivial."""
    return (all(v.order == 1 for v in g.vertices.values())
            and all(e.order == 1 for e in g.edges.values()))


def regular_constant(g, minus, plus):
    """The closed-form counting constant q/(q-1) s- s+ / ||m|| of a
    (q+1)-regular graph with trivial orders and point or cycle targets:
    ||m|| = (q/(q+1)) Vol, and the skinning mass is 1 for a point and
    ((q-1)/(q+1)) L for a cycle of length L (sphere measures normalised to
    probability).  Exact; the cumulative count at length n is about the
    constant times q^n when the edge step is aperiodic."""
    degrees = {len(g.out_edges(v)) for v in g.vertices}
    if len(degrees) != 1 or not trivial_orders(g):
        raise ValueError("regular constant needs one degree, trivial orders")
    q = degrees.pop() - 1

    def mass(name):
        verts, is_cycle = _point_or_cycle(g, name)
        return Fraction(q - 1, q + 1) * len(verts) if is_cycle else 1

    return (Fraction(q, q - 1) * mass(minus) * mass(plus)
            / (Fraction(q, q + 1) * len(g.vertices)))


def biregular_constants(g, minus, plus):
    """(even, odd): the closed-form constants of the cumulative counts of
    even and of odd length, about the constant times sqrt(pq)^n, on a
    (p+1, q+1)-biregular bipartite graph with trivial orders and two cycle
    targets.  A cycle vertex of degree d+1 weighs (d-1)/sqrt(d) under the
    deg/sqrt(deg-1) sphere normalisation, the pairs within one degree class
    give the even constant and the pairs across the classes the odd one,
    each times 2pq / ((pq-1) ||m||) with ||m|| the number of directed
    edges."""
    p, q = sorted({len(g.out_edges(v)) - 1 for v in g.vertices})

    def sigma(name):
        verts, is_cycle = _point_or_cycle(g, name)
        if not is_cycle:
            raise ValueError("biregular constants need two cycle targets")
        out = {p: 0.0, q: 0.0}
        for v in verts:
            d = len(g.out_edges(v)) - 1
            out[d] += (d - 1) / d ** 0.5
        return out

    sm, sp = sigma(minus), sigma(plus)
    pref = 2 * p * q / ((p * q - 1) * g.edge_count())
    return (pref * (sm[p] * sp[p] + sm[q] * sp[q]),
            pref * (sm[p] * sp[q] + sm[q] * sp[p]))


def nbrw_law_reference(graph, start, ns):
    """{n: (vertex law, target law, total variation)} after n steps of the
    non-backtracking walk from the subgraph ``start``, for each n in
    ``ns``: the array code walks.nbrw_exact ran before it stopped at the
    law's exact cycle.  It steps all max(ns) - 1 times with np.bincount
    over the merged rows of ``graph.nb_successors()`` (a run of m equal
    entries in a row of L is one entry, m / L) and sums with np.sum."""
    col, prob, row = [], [], []
    for i, succ in enumerate(graph.nb_successors()):
        for j, run in itertools.groupby(succ):
            col.append(j)
            prob.append(len(list(run)) / len(succ))
            row.append(i)
    col, prob, row = np.array(col), np.array(prob), np.array(row)
    term = [graph.vertex_index[graph.edges[e].terminus]
            for e in graph.edge_ids]
    vset = list(graph.subgraph(start)["vertices"])
    exits = {v: [] for v in vset}
    for eid, m in graph.exits(start):
        exits[graph.edges[eid].origin].append((graph.edge_index[eid], m))
    vweights = np.array([1.0 / graph.vertices[v].order for v in vset])
    vweights /= vweights.sum()
    dist = np.zeros(graph.edge_count())
    for v, pv in zip(vset, vweights):
        tot = sum(w for _, w in exits[v])
        for j, w in exits[v]:
            dist[j] += pv * w / tot
    w = np.array([1.0 / graph.vertices[v].order for v in graph.vertex_ids])
    target = w / w.sum()
    out = {}
    for n in range(1, max(ns) + 1):
        if n > 1:
            dist = np.bincount(col, weights=dist[row] * prob,
                               minlength=len(dist))
        if n in ns:
            vdist = np.bincount(term, weights=dist,
                                minlength=graph.vertex_count())
            out[n] = (vdist, target, 0.5 * float(abs(vdist - target).sum()))
    return out


def nbrw_global_search(P, start, n, reps, philox_seed):
    """Final edges of ``reps`` non-backtracking walks of n edges with
    transition matrix P and start law ``start``, one binary search per path
    and step over the keys of every nonzero of P.

    Draws as walks.nbrw_sample does: the start edges through rng.choice,
    then one uniform per path and step, from the Philox stream seeded with
    ``philox_seed``.  Row i's keys are i plus the running sums of its
    positive entries, the last one set to exactly i + 1; the first key
    above state + u picks the successor, clamped to the row's last one.
    """
    rng = np.random.Generator(np.random.Philox(philox_seed))
    keys, succ = [], []
    for i, row in enumerate(P):
        (cols,) = np.nonzero(row)
        c = np.cumsum(row[cols])
        c[-1] = 1.0
        keys.append(i + c)
        succ.append(cols)
    last = np.cumsum([len(c) for c in succ]) - 1
    keys, succ = np.concatenate(keys), np.concatenate(succ)
    state = rng.choice(len(P), size=reps, p=start)
    for _ in range(n - 1):
        pos = np.searchsorted(keys, state + rng.random(reps), side="right")
        state = succ[np.minimum(pos, last[state])]
    return state


def nbrw_sample_reference(kernel, start, n, reps, philox_seed):
    """Vertex tallies of ``reps`` non-backtracking walks of n edges over the
    unmerged rows of ``kernel`` (an NBRWKernel), drawn as
    walks.nbrw_sample does from the Philox stream seeded with
    ``philox_seed``, but all paths at once and the stream read in order:
    the start edges through rng.choice with the law ``start``, then one
    uniform per path and step.  Three arrays of ``reps`` entries."""
    rng = np.random.Generator(np.random.Philox(philox_seed))
    state = rng.choice(len(start), size=reps, p=start)
    u = np.empty(reps)
    pick, base = np.empty(reps, dtype=np.intp), u.view(np.intp)
    for _ in range(n - 1):
        rng.random(out=u)
        u *= np.take(kernel.length, state, out=pick, mode="wrap")
        np.copyto(pick, u, casting="unsafe")
        pick += np.take(kernel.offset, state, out=base, mode="wrap")
        np.take(kernel.entries, pick, out=state, mode="wrap")
    np.take(kernel.term, state, out=pick, mode="wrap")
    return np.bincount(pick, minlength=len(kernel.graph.vertex_ids))


def _tree_returns(rng, q, size):
    """Last-exit draws of ``size`` walks, one uniform each: True with
    probability 1/q, a return to the parent."""
    return rng.random(size) < 1.0 / q


def _tree_steps(rng, q, size):
    """One uniform step draw per walk: 0 is the parent, s >= 1 the child
    s - 1; at the root s is the child."""
    return np.minimum((rng.random(size) * (q + 1)).astype(np.int64), q)


def tree_harmonic_reference(q, depth, reps, philox_seed):
    """Shadow tallies of ``reps`` simple walks from the root of the
    (q+1)-regular tree, drawn as walks.tree_harmonic_measure does, from the
    Philox stream seeded with ``philox_seed``: batches of 200,000, int64
    states updated by nested np.where, returns picked by index arrays, the
    escaped walks of a batch concatenated and counted once."""
    rng = np.random.Generator(np.random.Philox(philox_seed))
    n_shadows = (q + 1) * q ** (depth - 1)
    tallies = np.zeros(n_shadows, dtype=np.int64)
    batch = min(reps, 200_000)
    done = 0
    while done < reps:
        b = min(batch, reps - done)
        level = np.zeros(b, dtype=np.int64)
        node = np.zeros(b, dtype=np.int64)
        escaped = []
        while node.size:
            s = _tree_steps(rng, q, node.size)
            at_root = level == 0
            back = (s == 0) & ~at_root
            node = np.where(back, node // q,
                            np.where(at_root, s, node * q + s - 1))
            level += np.where(back, -1, 1)
            edge = np.flatnonzero(level == depth)
            ret = edge[_tree_returns(rng, q, edge.size)]
            level[ret] -= 1
            node[ret] //= q
            inside = level < depth
            escaped.append(node[~inside])
            node, level = node[inside], level[inside]
        tallies += np.bincount(np.concatenate(escaped), minlength=n_shadows)
        done += b
    return tallies


def green_ratio_reference(q, d_xy, d_xz, reps, philox_seed):
    """(ratio, stderr) of the Green-kernel ratio G(x,y)/G(x,z) from
    ``reps`` walks drawn as walks.green_ratio_check does, from the Philox
    stream seeded with ``philox_seed``: batches of 100,000, one visit
    count per walk for all reps, the variances by np.var and the
    covariance by np.cov."""
    rng = np.random.Generator(np.random.Philox(philox_seed))
    dmax = max(d_xy, d_xz)
    visits_y = np.full(reps, d_xy == 0, dtype=np.int64)
    visits_z = np.full(reps, d_xz == 0, dtype=np.int64)
    batch = min(reps, 100_000)
    done = 0
    while done < reps:
        b = min(batch, reps - done)
        walk = np.arange(done, done + b)
        dist = np.zeros(b, dtype=np.int64)
        ray = np.zeros(b, dtype=np.int64)
        while walk.size:
            s = _tree_steps(rng, q, walk.size)
            at_root = dist == 0
            back = (s == 0) & ~at_root
            along = (ray == dist) & (s == np.where(at_root, 0, 1))
            dist += np.where(back, -1, 1)
            ray = np.where(back, np.minimum(ray, dist),
                           np.where(along, dist, ray))
            edge = np.flatnonzero(dist > dmax)
            ret = edge[_tree_returns(rng, q, edge.size)]
            dist[ret] -= 1
            ray[ret] = np.minimum(ray[ret], dist[ret])
            inside = dist <= dmax
            walk, dist, ray = walk[inside], dist[inside], ray[inside]
            on = ray == dist
            visits_y[walk] += on & (dist == d_xy)
            visits_z[walk] += on & (dist == d_xz)
        done += b
    my, mz = visits_y.mean(), visits_z.mean()
    ratio = my / mz
    var_y = visits_y.var() / reps
    var_z = visits_z.var() / reps
    cov = np.cov(visits_y, visits_z)[0, 1] / reps
    sigma = ratio * np.sqrt(max(var_y / my ** 2 + var_z / mz ** 2
                                - 2 * cov / (my * mz), 0.0))
    return float(ratio), float(sigma)


def laplacian_factors(graph):
    """(D, Dstar, degc) for the conductance Laplacian Delta = Dstar D of a
    graph with reversible conductances.

    D is the discrete differential (edges x vertices):
    (D f)(e) = sqrt(p(e)) (f(t(e)) - f(o(e))), p(e) = e^{c(e)}/deg_c(o(e)),
    with deg_c(x) = sum_{o(e)=x} i(e) e^{c(e)}, and Dstar its adjoint
    (vertices x edges):
    (Dstar phi)(x) = sum_{o(e)=x} (i(e)/2) (sqrt(p(ebar)) phi(ebar)
                                            - sqrt(p(e)) phi(e)).
    """
    vindex = {v: i for i, v in enumerate(graph.vertex_ids)}
    eindex = {e: k for k, e in enumerate(graph.edge_ids)}

    def index_i(e):
        return graph.vertices[e.origin].order // e.order

    degc = {v: 0.0 for v in graph.vertex_ids}
    for e in graph.edges.values():
        degc[e.origin] += index_i(e) * np.exp(e.conductance)
    p = {eid: np.exp(e.conductance) / degc[e.origin]
         for eid, e in graph.edges.items()}
    D = np.zeros((len(eindex), len(vindex)))
    Dstar = np.zeros((len(vindex), len(eindex)))
    for eid, e in graph.edges.items():
        k, kbar = eindex[eid], eindex[e.reverse]
        D[k, vindex[e.terminus]] += np.sqrt(p[eid])
        D[k, vindex[e.origin]] -= np.sqrt(p[eid])
        Dstar[vindex[e.origin], kbar] += index_i(e) / 2 * np.sqrt(p[e.reverse])
        Dstar[vindex[e.origin], k] -= index_i(e) / 2 * np.sqrt(p[eid])
    return D, Dstar, degc


def vol_inner(graph, f, g):
    """<f, g> for the volume form: sum (1/|G_x|) f(x) g(x)."""
    return float(sum(f[i] * g[i] / graph.vertices[v].order
                     for i, v in enumerate(graph.vertex_ids)))


def is_reversible(graph):
    """Every edge has the conductance of its reverse."""
    return all(e.conductance == graph.edges[e.reverse].conductance
               for e in graph.edges.values())


# ---------------------------------------------------------------------------
# subshifts of finite type


def periodic_gibbs_ratios(m, length):
    """Every Gibbs ratio m(C_n(w)) / e^{S_n phi - n P} of a periodic word w
    of exact length ``length``, by literal enumeration of the words."""
    if length > 12:
        raise ValueError("enumeration capped at length 12")
    k = len(m.p)
    P = dense(m.shift.succ, m.P)
    out = []

    def rec(word):
        if len(word) == length:
            if P[word[-1], word[0]] <= 0:
                return
            logm = np.log(m.p[word[0]])
            for a, b in zip(word, word[1:]):
                logm += np.log(P[a, b])
            s = sum(m.shift.potential[a] for a in word)
            out.append(float(np.exp(logm - s + length * m.pressure)))
            return
        for b in range(k):
            if P[word[-1], b] > 0:
                rec(word + [b])

    for a in range(k):
        if m.p[a] > 0:
            rec([a])
    return out


def gibbs_audit_reference(m, maxlen):
    """(per_letter, C, C_half) of shift.weak_gibbs_audit by the numpy
    program it ran before it went over Python columns: one start letter at
    a time, each step a gather over a predecessor table padded to the
    largest in-degree, with -inf (max) and inf (min) in the padding."""
    n_letters = len(m.p)
    pot = m.shift.potential
    pred = [[] for _ in range(n_letters)]
    for a, (row, prow) in enumerate(zip(m.shift.succ, m.P)):
        for b, x in zip(row, prow):
            if x > 0:
                pred[b].append((a, math.log(x) - pot[a] + m.pressure))
    k = max(1, *map(len, pred))
    src = np.full((k, n_letters), n_letters)
    W_max = np.full((k, n_letters), -np.inf)
    W_min = np.full((k, n_letters), np.inf)
    for b, col in enumerate(pred):
        for i, (a, w) in enumerate(col):
            src[i, b] = a
            W_max[i, b] = W_min[i, b] = w
    closing = [-c + m.pressure for c in pot]

    per_letter, half = {}, []
    for a in range(n_letters):
        log_pa = math.log(m.p[a])
        lo, hi = math.inf, -math.inf
        mx = np.full(n_letters + 1, -np.inf)
        mn = np.full(n_letters + 1, np.inf)
        mx[a] = mn[a] = 0.0
        for n in range(1, maxlen + 1):
            for b, _ in pred[a]:
                if math.isfinite(mx[b]):
                    hi = max(hi, float(mx[b] + closing[b] + log_pa))
                if math.isfinite(mn[b]):
                    lo = min(lo, float(mn[b] + closing[b] + log_pa))
            if n == maxlen // 2:
                half.append((math.exp(lo), math.exp(hi)))
            mx[:n_letters] = np.max(mx[src] + W_max, axis=0)
            mn[:n_letters] = np.min(mn[src] + W_min, axis=0)
        per_letter[m.shift.letters[a]] = (math.exp(lo), math.exp(hi))

    def spread(extremes, empty):
        spreads = [hi / lo for lo, hi in extremes
                   if math.isfinite(lo) and math.isfinite(hi) and lo > 0]
        return max(spreads) if spreads else empty

    return per_letter, spread(per_letter.values(), math.inf), spread(half, 1.0)


def brute_force_equilibrium(shift, n_starts=32, seed=12345):
    """The variational principle by brute force: maximise h + int phi over
    the stochastic matrices compatible with the SFT, from random starts.

    Rows are softmaxes over the allowed entries, and the objective
    h(p) + p.phi (p the stationary vector) is ascended with scipy's L-BFGS
    using an analytic gradient through the stationary distribution (the
    fundamental-matrix formula).  Returns the stationary vector p of the
    best chain and the maximum, the pressure, as a namespace.
    """
    from scipy.optimize import minimize

    A = dense(shift.succ)
    k = len(A)
    if k > 4:
        raise ValueError("brute-force oracle capped at 4 letters")
    if not (np.linalg.matrix_power(np.eye(k) + (A > 0), k - 1) > 0).all():
        raise ValueError("transition structure is not strongly connected")
    allowed = [np.nonzero(A[a] > 0)[0] for a in range(k)]
    offsets = np.concatenate([[0], np.cumsum([len(s) for s in allowed])])
    dim = int(offsets[-1])
    phi = np.asarray(shift.potential)

    def unpack(theta):
        P = np.zeros((k, k))
        for a in range(k):
            t = theta[offsets[a]:offsets[a + 1]]
            w = np.exp(t - t.max())
            P[a, allowed[a]] = w / w.sum()
        return P

    def stationary(P):
        # solve p(I - P) = 0, sum p = 1
        M = np.vstack([(np.eye(k) - P).T, np.ones(k)])
        b = np.zeros(k + 1)
        b[-1] = 1.0
        p, *_ = np.linalg.lstsq(M, b, rcond=None)
        return np.clip(p, 1e-300, None)

    def objective_grad(theta):
        P = unpack(theta)
        p = stationary(P)
        with np.errstate(divide="ignore"):
            U = np.where(P > 0, -np.log(np.where(P > 0, P, 1.0)), 0.0)
        # objective = sum_a p_a sum_b P_ab (-log P_ab) + sum_a p_a phi_a
        obj = float((p[:, None] * P * U).sum() + p @ phi)
        gvec = (P * U).sum(axis=1) + phi
        # d obj = the direct term + (d p) . gvec with d p = p dP Z, Z the
        # fundamental matrix of the chain; d(-P log P)/dP = -(log P + 1)
        Z = np.linalg.inv(np.eye(k) - P + np.outer(np.ones(k), p))
        Zg = Z @ gvec
        grad = np.zeros(dim)
        for a in range(k):
            cols = allowed[a]
            d = p[a] * ((U[a, cols] - 1.0) + Zg[cols])
            row = P[a, cols]
            # chain rule through the softmax
            grad[offsets[a]:offsets[a + 1]] = row * (d - (row @ d))
        return -obj, -grad

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_starts):
        res = minimize(objective_grad, rng.normal(size=dim), jac=True,
                       method="L-BFGS-B",
                       options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-10})
        if best is None or -res.fun > best[0]:
            best = (-res.fun, res.x)
    p = stationary(unpack(best[1]))
    return SimpleNamespace(p=p / p.sum(), pressure=float(best[0]))
