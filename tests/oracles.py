"""Reference oracles and small helpers for the test suite.

Each oracle recomputes a quantity that geodlab computes, by another route:
FqPoly/RatFunc/poly_range arithmetic, plain Python, numpy or scipy.  None
calls the function it checks or a private helper of that function's module,
and test_oracles.py keeps the geodlab imports below to a fixed list.  The
objects handed in (matrices, graphs, queries, measures) are read through
their public fields only.  The helpers build inputs instead: orbit_bfs
walks a quadratic irrational's orbit with its own apply_homography.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from geodlab.ffield import FqPoly, poly_range
from geodlab.graphs import load_validate


def dense(cols, vals=None):
    """The square array with vals[i][k] (1.0 when vals is None) at row i,
    column cols[i][k]: a sparse operator stored by rows, such as
    EdgeShift.succ with MarkovMeasure.P, made dense for the oracles."""
    M = np.zeros((len(cols), len(cols)))
    for i, row in enumerate(cols):
        for k, j in enumerate(row):
            M[i, j] = 1.0 if vals is None else vals[i][k]
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


def quad_invariants(alpha):
    """(trace, norm, conjugate, complexity h) with h found two ways.

    h = |tr^2 - 4n|^{-1/2} from the trace and norm, and the Laurent
    expansions of the two roots must first differ at the same power of Y.
    """
    tr, nm, conj = alpha.trace(), alpha.norm(), alpha.conj()
    v = (tr * tr - 4 * nm).valuation()
    assert v % 2 == 0
    k = v // 2
    h_formula = Fraction(alpha.q) ** k
    prec = max(1, k - min(alpha.valuation(), conj.valuation()) + 1)
    x, y = alpha.expand(prec), conj.expand(prec)
    window = range(min(x.val, y.val), min(x.val + x.prec, y.val + y.prec))
    k_series = next((j for j in window
                     if x.coefficient(j) != y.coefficient(j)), None)
    if k_series != k:
        found = "nowhere" if k_series is None else f"at Y^{-k_series}"
        raise AssertionError(
            f"complexity mismatch: the formula gives {h_formula}, so the roots "
            f"first differ at Y^{-k}; the expansions differ first {found}")
    return tr, nm, conj, h_formula


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


# ---------------------------------------------------------------------------
# graphs and counting


def two_vertex_segment():
    """A single edge pair between two vertices (degenerate for NB walks)."""
    return load_validate({
        "vertices": [{"id": "u"}, {"id": "v"}],
        "edges": [{"id": "e+", "from": "u", "to": "v", "reverse": "e-"},
                  {"id": "e-", "from": "v", "to": "u", "reverse": "e+"}]})


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


def regular_constant(g, minus, plus):
    """The closed-form counting constant q/(q-1) s- s+ / ||m|| of a
    (q+1)-regular graph with trivial orders and point or cycle targets:
    ||m|| = (q/(q+1)) Vol, and the skinning mass is 1 for a point and
    ((q-1)/(q+1)) L for a cycle of length L (sphere measures normalised to
    probability).  Exact; the cumulative count at length n is about the
    constant times q^n when the edge step is aperiodic."""
    degrees = {len(g.out_edges(v)) for v in g.vertices}
    if len(degrees) != 1 or not g.trivial_orders():
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
