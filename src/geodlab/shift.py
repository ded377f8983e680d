"""Subshifts of finite type on directed edges: pressure, equilibrium
measures, weak-Gibbs audits and correlation decay.

The potential is always a 1-step function: phi(x) = c(x_0) depends on the
first letter only, so equilibrium states are Markov measures and the whole
thermodynamic apparatus reduces to Perron-Frobenius data of the weighted
transfer matrix B[a,b] = m(a,b) e^{c(b)}, with m(a,b) ways from a to b.

A shift is stored as successor rows, the pairs (b, m(a,b)) in row a, and
every step over B runs over them in pure Python, in a fixed order (the
linear ones through ``graphs.ScatterAdd``, one entry per pair):
pressure, the equilibrium chain and the Gibbs audit start without numpy,
and no result depends on a BLAS kernel.  The power iteration, like every
step over the rows, is charged to the budget (10^8, ``errors.budget``) in
ways, the sum of m over the pairs.  The spectral rate of
``correlation_decay`` is 1 on a periodic shift, and on the shift of a
regular graph with no potential it comes from the Ihara-Bass identity,
by Lanczos in pure Python; numpy is imported only for the other shifts,
whose rate comes from a dense LAPACK eigensolve.
"""

import itertools
import math
import operator

from .errors import BudgetError, ReducibleError, TooLargeError, budget, charge
from .graphs import ScatterAdd, _entries, _reached, _ways, _weighted, fold_sum
from .seeding import derive_seed

POWER_TOL = 1e-12
GIBBS_GROWTH = 4.0  # the spread may grow this much from maxlen // 2 to maxlen
# path weights the Gibbs audit holds at once, (letters) * (start letters)
GIBBS_CELLS = 2 ** 18
# Lanczos of the Ihara-Bass rate: the seed of its start vector, the
# residual (times q + 1) at which it has found an invariant subspace, and
# the halvings of a Gershgorin interval per extreme eigenvalue
LANCZOS_SEED = 0x1A2B
LANCZOS_BREAKDOWN = 1e-12
LANCZOS_BISECTIONS = 64


class EdgeShift:
    """SFT with letters = directed edges (or abstract letters) and a
    1-step potential given per letter."""

    def __init__(self, letters, succ, potential=None):
        """succ[a]: the pairs (b, m) of the letters b allowed after letter
        a, in m >= 1 ways from a to b; potential: per-letter c."""
        self.letters = list(letters)
        n = len(self.letters)
        self.potential = ([0.0] * n if potential is None
                          else [float(c) for c in potential])
        succ = [sorted((int(b), int(m)) for b, m in row) for row in succ]
        if (len(succ) != n or len(self.potential) != n
                or any(not 0 <= b < n or m < 1 for row in succ
                       for b, m in row)):
            raise ValueError("successor lists or potential do not match "
                             "the letters")
        try:
            self.weights = [math.exp(c) for c in self.potential]
        except OverflowError as exc:
            raise TooLargeError(
                "a weight exp(potential) exceeds the float range") from exc
        # B[a, b] = m weights[b] > 0 exactly for (b, m) in succ[a]: a weight
        # that underflows to 0 takes its letter's transitions out
        self.succ = [[(b, m) for b, m in row if self.weights[b] > 0]
                     for row in succ]
        self._graph = None  # the graph of ``from_graph``

    @classmethod
    def from_graph(cls, g):
        """Shift of the non-backtracking edge dynamics of a graph."""
        g.check_branching()
        shift = cls(list(g.edge_ids), g.nb_successors(),
                    [g.edges[e].conductance for e in g.edge_ids])
        shift._graph = g
        return shift

    @classmethod
    def full_shift(cls, k, potential=None):
        return cls(list(range(k)), [[(b, 1) for b in range(k)]] * k,
                   potential)

    @classmethod
    def golden_mean(cls, potential=None):
        return cls([0, 1], [[(0, 1), (1, 1)], [(0, 1)]], potential)

    def n_letters(self):
        return len(self.letters)

    def is_irreducible(self):
        return _strongly_connected(self.succ)


def _strongly_connected(succ):
    """Some transition exists, and every letter is reached from letter 0
    and reaches it (never with no letters: letter 0 always reaches
    itself).  A letter alone with no transition has no Perron data."""
    arcs = [(a, b) for a, row in enumerate(succ) for b, _ in row]
    return (bool(arcs) and len(_reached(0, arcs)) == len(succ)
            == len(_reached(0, [(b, a) for a, b in arcs])))


def _period(succ):
    """(d, cls): the period d of an irreducible step over the successor
    rows ``succ`` and the cyclic class of each letter, numbered so that
    every step goes from class c to class c + 1 mod d.  With levels from
    one breadth-first search, d is the gcd of level(i) + 1 - level(j) over
    the steps i -> j."""
    level, todo = {0: 0}, [0]
    for i in todo:
        for j, _ in succ[i]:
            if j not in level:
                level[j] = level[i] + 1
                todo.append(j)
    d = 0
    for i, row in enumerate(succ):
        for j, _ in row:
            d = math.gcd(d, level[i] + 1 - level[j])
    return d, [level[i] % d for i in range(len(succ))]


def _dot(x, y):
    return fold_sum(a * b for a, b in zip(x, y))


def _perron(shift):
    """(rho, right, left) Perron data of B by power iteration over the
    successor rows, at most the budget (10^8) // (successor ways)
    iterations per vector; BudgetError past them.

    Iterates on B + I so periodic (e.g. bipartite) transition structures
    still converge; rho(B + I) = rho(B) + 1 with the same eigenvectors.
    B v pulls m wt[b] v[b] over the pairs (b, m) of each row a, v B pushes
    m v[a] into each b and then weights it by wt[b]: both ``ScatterAdd``
    plans, which add in ascending entry order, b along a row and a down a
    column.
    """
    succ, wt = shift.succ, shift.weights
    n = len(succ)
    total = budget(10 ** 8)
    cap = total // _ways(succ)
    rows, cols, ways = _entries(succ)
    pull = ScatterAdd(rows, cols, _weighted(wt, cols, ways), n)
    push = ScatterAdd(cols, rows, ways, n)

    def right_step(v):  # (B + I) v
        return list(map(operator.add, v, pull(v)))

    def left_step(v):  # v (B + I)
        return [x + w * y for x, w, y in zip(v, wt, push(v))]

    def iterate(step):
        v = [1.0 / n] * n
        for _ in range(cap):
            w = step(v)
            s = fold_sum(w)
            if s <= 0:
                raise ReducibleError("transfer matrix lost all mass")
            w = [x / s for x in w]
            if (max(abs(x - y) for x, y in zip(w, v))
                    <= POWER_TOL * max(1.0, max(map(abs, v)))):
                return w
            v = w
        raise BudgetError(f"the power iteration did not converge within "
                          f"{cap} iterations, the budget {total} over the "
                          "successor ways")

    right, left = iterate(right_step), iterate(left_step)
    # one Rayleigh polish for the eigenvalue
    return _dot(left, pull(right)) / _dot(left, right), right, left


def pressure(shift):
    """Gurevic pressure = log Perron radius of the weighted transfer matrix.

    This is also the critical exponent of the conductance-weighted
    non-backtracking path count when the shift comes from a graph.  The
    power iteration runs under the budget (``_perron``).
    """
    if not shift.is_irreducible():
        raise ReducibleError("transition structure is not strongly connected")
    rho, _, _ = _perron(shift)
    return math.log(rho)


class MarkovMeasure:
    """Stationary Markov chain on the letters of an SFT."""

    __slots__ = ("shift", "p", "P", "entropy", "phi_integral", "pressure")

    def __init__(self, shift, p, P, entropy, phi_integral, pressure):
        self.shift = shift
        self.p = p
        self.P = P
        self.entropy = entropy
        self.phi_integral = phi_integral
        self.pressure = pressure


def _chain_entropy(p, P, succ):
    """-sum of p_a x' log x' over the ways of every row a, x' = x / m for a
    pair (b, m) of probability x: one term per way, in row order."""
    return -fold_sum(itertools.chain.from_iterable(
        itertools.repeat(pa * (x / m) * math.log(x / m), m)
        for pa, row, prow in zip(p, succ, P)
        for (_, m), x in zip(row, prow) if x > 0))


def equilibrium_measure(shift):
    """The Parry-type equilibrium chain: P[a,b] = B[a,b] r(b) / (rho r(a)),
    with the power iteration under the budget (``_perron``).

    ``P[a]`` lists the transition probabilities to the pairs of
    ``shift.succ[a]``, in that order, each the sum over its m ways: the
    entropy and the Gibbs audit see the ways of a graph of groups apart,
    each with probability P[a, b] / m."""
    if not shift.is_irreducible():
        raise ReducibleError("transition structure is not strongly connected")
    rho, r, l = _perron(shift)
    wt = shift.weights
    P = []
    for a, row in enumerate(shift.succ):
        prow = [m * wt[b] * r[b] / (rho * r[a]) for b, m in row]
        tot = fold_sum(prow)  # kill rounding drift
        P.append([x / tot for x in prow])
    p = [x * y for x, y in zip(l, r)]
    tot = fold_sum(p)
    p = [x / tot for x in p]
    return MarkovMeasure(shift, p, P, _chain_entropy(p, P, shift.succ),
                         _dot(p, shift.potential), math.log(rho))


def weak_gibbs_audit(m, maxlen):
    """Extremes of the Gibbs ratio m(C_n(x)) / e^{S_n phi - n P} over
    periodic points of period <= maxlen, reported per starting letter.

    For a periodic word w of length n (closure w_{n-1} -> w_0 admissible)
    the cylinder mass is p(w_0) prod_{i<n-1} P[w_i, w_{i+1}], so the
    log-ratio is

        log p(w_0) + sum_{i<n-1} log P[w_i, w_{i+1}]
                   - sum_{i<n} c(w_i) + n * pressure.

    The extremes over all periodic words are computed with a max-plus /
    min-plus dynamic program on the edge weights
    W[a,b] = log P[a,b] - c(a) + pressure (the closing step contributes
    only -c(last) + pressure plus the admissibility constraint), which
    yields exactly the same extremes as full enumeration without touching
    k^n words.  The program runs for a block of start letters at once over
    columns: column b holds, per start letter, the extreme weight of the
    paths of the current length that end at b, and the next column b is
    the elementwise max (min) over the steps s -> b of column s plus
    W[s, b]: (start letters) * (predecessor entries) additions per length.
    A block holds GIBBS_CELLS // (letters) start letters, at least one, so
    the columns hold at most GIBBS_CELLS weights, or one per letter.

    Returns {"per_letter": {letter: (lo, hi)}, "C": max per-letter spread
    hi/lo, "C_half": the same spread over the periods <= maxlen // 2,
    "passes": bool}.  A spread of 1 means the ratios are constant (exact
    Gibbs property).  The audit passes when the spread stays bounded
    (bounded distortion, Bowen): C is finite and at most GIBBS_GROWTH
    times C_half.  C_half is 1 when no period <= maxlen // 2 closes up,
    always so for maxlen < 2; a wrong pressure or wrong transitions make
    the spread grow exponentially with the period instead.
    """
    if maxlen > 16:
        raise BudgetError("weak-Gibbs audit capped at maxlen 16")
    n_letters = m.shift.n_letters()
    pot = m.shift.potential
    # the admissible steps a -> b (P[a, b] > 0) into each letter b, each
    # way of probability P[a, b] / ways
    pred = [[] for _ in range(n_letters)]
    for a, (row, prow) in enumerate(zip(m.shift.succ, m.P)):
        for (b, ways), x in zip(row, prow):
            if x > 0:
                pred[b].append((a, math.log(x / ways) - pot[a] + m.pressure))
    closing = [-c + m.pressure for c in pot]  # indexed by the last letter
    log_p = [math.log(x) for x in m.p]
    lo, hi, half = [], [], []
    block = max(1, GIBBS_CELLS // n_letters)
    for first in range(0, n_letters, block):
        starts = range(first, min(first + block, n_letters))
        extremes = _log_ratio_extremes(pred, closing, log_p, starts, maxlen)
        lo += extremes[0]
        hi += extremes[1]
        half += extremes[2]
    per_letter = {letter: (math.exp(x), math.exp(y))
                  for letter, x, y in zip(m.shift.letters, lo, hi)}
    C = _spread(per_letter.values(), math.inf)
    C_half = _spread(half, 1.0)
    return {"per_letter": per_letter, "C": C, "C_half": C_half,
            "passes": math.isfinite(C) and C <= GIBBS_GROWTH * C_half}


def _log_ratio_extremes(pred, closing, log_p, starts, maxlen):
    """(lo, hi, half) for the letters ``starts``: the least and the largest
    log Gibbs ratio of the periodic words from each of period <= maxlen
    (inf and -inf for none), and the (lo, hi) ratios, exponentiated, over
    the periods <= maxlen // 2 (no pairs for maxlen < 2)."""
    # the min-plus program runs as the max-plus one on negated weights:
    # rounding to nearest commutes with negation, so -max(-x - w) is the
    # float min(x + w), up to the sign of a zero, which the sums with the
    # closing weights below drop (no closing weight is -0.0)
    neg_pred = [[(a, -w) for a, w in steps] for steps in pred]
    # hi_cols[b][i], lo_cols[b][i]: the largest weight of the paths of the
    # current length from starts[i] to b and the negated smallest, -inf
    # for none
    hi_cols = [[-math.inf] * len(starts) for _ in pred]
    for i, a in enumerate(starts):
        hi_cols[a][i] = 0.0
    lo_cols = [list(col) for col in hi_cols]
    lo, hi, half = [math.inf] * len(starts), [-math.inf] * len(starts), []
    for n in range(1, maxlen + 1):
        # paths of length n-1 from a; close up over admissible b -> a
        for i, a in enumerate(starts):
            for b, _ in pred[a]:
                x = hi_cols[b][i]
                if math.isfinite(x):
                    hi[i] = max(hi[i], x + closing[b] + log_p[a])
                x = -lo_cols[b][i]
                if math.isfinite(x):
                    lo[i] = min(lo[i], x + closing[b] + log_p[a])
        if n == maxlen // 2:
            half = [(math.exp(x), math.exp(y)) for x, y in zip(lo, hi)]
        if n < maxlen:
            hi_cols = _max_plus_step(hi_cols, pred)
            lo_cols = _max_plus_step(lo_cols, neg_pred)
    return lo, hi, half


def _max_plus_step(cols, pred):
    """The columns one step on: column b is the elementwise max over the
    steps (s, w) in pred[b] of column s plus w, -inf where there is none."""
    out = []
    for steps in pred:
        if not steps:
            out.append([-math.inf] * len(cols[0]))
            continue
        (s, w), *rest = steps
        col = [x + w for x in cols[s]]
        for s, w in rest:
            col = [y if y >= x + w else x + w for y, x in zip(col, cols[s])]
        out.append(col)
    return out


def _spread(extremes, empty):
    """The largest hi/lo over the (lo, hi) of the letters with a periodic
    word; ``empty`` when no letter has one."""
    spreads = [hi / lo for lo, hi in extremes
               if math.isfinite(lo) and math.isfinite(hi) and lo > 0]
    return max(spreads) if spreads else empty


def correlation_decay(m, f, g, nmax):
    """cov_n = E[f(x_0) g(x_n)] - E f E g under the stationary chain, with a
    fitted exponential decay rate and the spectral rate |lambda_2| of P,
    the second largest modulus of its eigenvalues (``_spectral_rate``).

    The chain steps over the rows of ``m.P``, a pull through one
    ``ScatterAdd`` plan, and the rate is the closed-form least-squares
    slope, both summed in a fixed order.  The nmax steps take at most
    (successor ways) * nmax products, at most the budget (10^8); the
    spectral rate is charged apart, before it is computed."""
    p, P, succ = m.p, m.P, m.shift.succ
    charge("(successor ways) * nmax products", _ways(succ) * nmax, 10 ** 8)
    rho2 = _spectral_rate(m)
    f = [float(x) for x in f]
    vec = [float(x) for x in g]
    mean_fg = _dot(p, f) * _dot(p, vec)
    covs = [_dot(p, [x * y for x, y in zip(f, vec)]) - mean_fg]
    # the pull adds from the first term where _dot adds from 0: that moves
    # at most the sign of a zero, which the _dot of the covariance drops
    rows, cols, _ = _entries(succ)
    chain = ScatterAdd(rows, cols, [x for prow in P for x in prow], len(P))
    for _ in range(nmax):
        vec = chain(vec)
        covs.append(_dot(p, [x * y for x, y in zip(f, vec)]) - mean_fg)

    # fit |cov_n| ~ K * r^n over the indices where it is meaningfully nonzero
    idx = [n for n in range(1, len(covs)) if abs(covs[n]) > 1e-13]
    if len(idx) >= 2:
        logs = [math.log(abs(covs[n])) for n in idx]
        x_bar, y_bar = sum(idx) / len(idx), fold_sum(logs) / len(logs)
        slope = (fold_sum((x - x_bar) * (y - y_bar)
                          for x, y in zip(idx, logs))
                 / fold_sum((x - x_bar) ** 2 for x in idx))
        rate = math.exp(slope)
    else:
        rate = 0.0
    return {"cov": covs, "fitted_rate": rate, "spectral_rate": rho2}


def _spectral_rate(m):
    """|lambda_2| of the chain P of m, the equilibrium chain of its shift.

    An irreducible chain of period d > 1 has the d eigenvalues of modulus 1
    (the d-th roots of unity), so the rate is 1.  A shift of a graph with
    no potential whose vertices all have tree degree q + 1 has P = B / q,
    and its rate comes from the Ihara-Bass identity in pure Python
    (``_ihara_bass_rate``).  Every other shift, a weighted or non-regular
    graph or a preset, builds the dense P for LAPACK's ``eigvals``, the
    one numpy import of the shift verbs: (letters)^3 steps, charged to the
    budget (10^8) before the array is allocated."""
    shift = m.shift
    if _period(shift.succ)[0] > 1:
        return 1.0
    g = shift._graph
    if g is not None and not any(shift.potential):
        degrees = {g.tree_degree(v) for v in g.vertex_ids}
        if len(degrees) == 1:
            return _ihara_bass_rate(g, degrees.pop() - 1)
    k = len(m.P)
    charge("(letters)^3 eigensolver steps", k ** 3, 10 ** 8)
    import numpy as np

    dense = np.zeros((k, k))
    for a, (row, prow) in enumerate(zip(shift.succ, m.P)):
        np.add.at(dense, (a, [b for b, _ in row]), prow)
    eigs = np.sort(np.abs(np.linalg.eigvals(dense)))[::-1]
    return float(eigs[1]) if k > 1 else 0.0


def _ihara_bass_rate(g, q):
    """|lambda_2(B)| / q for a graph whose tree degrees are all q + 1.

    With m undirected edges, V vertices and A[v, x] the sum of i(f) over
    the edges f from v to x, the Ihara-Bass identity (Ihara 1966; Bass,
    Int. J. Math. 3, 1992) reads

        det(mu I - B) = (mu^2 - 1)^(m - V) prod_lambda (mu^2 - lambda mu + q)

    over the eigenvalues lambda of A.  The factor of lambda = q + 1 is
    (mu - 1)(mu - q): B has the Perron root q and the eigenvalue 1.  The
    roots of the other factors have modulus sqrt(q) >= 1 when lambda^2 <=
    4q, else the larger has (|lambda| + sqrt(lambda^2 - 4q)) / 2.  So the
    rate is that modulus over q for the largest |lambda| once one q + 1 is
    taken out (``_outer_eigenvalue``), and 1 / q for one vertex (q >= 1:
    ``from_graph`` checks that every tree degree is at least 2).  Beyond
    2 sqrt(q) the rate is rounded once, from the integers of |lambda|.

    The work, two passes of at most V - 1 Lanczos steps of (directed
    edges) + V products and LANCZOS_BISECTIONS pivots each, is charged to
    the budget (10^8) first."""
    n = g.vertex_count()
    charge(f"2 (vertices - 1) (directed edges + vertices + "
           f"{LANCZOS_BISECTIONS}) Lanczos products",
           2 * (n - 1) * (g.edge_count() + n + LANCZOS_BISECTIONS), 10 ** 8)
    if n == 1:
        return 1 / q
    lam = _outer_eigenvalue(g, q)
    if lam is None:
        return math.sqrt(1 / q)
    num, den = lam
    return (num + math.isqrt(num * num - 4 * q * den * den)) / (2 * q * den)


def _outer_eigenvalue(g, q):
    """The largest |lambda| over the eigenvalues of A once one q + 1 is
    taken out, as integers (num, den) of num / den, when it exceeds
    2 sqrt(q); None when none does.

    A = D C with D = diag(|G_v|) and C[v, x] the sum of 1 / |G_f| over the
    edges f from v to x, symmetric as |G_f| = |G_(reverse f)|: A is similar
    to the symmetric S = D^(1/2) C D^(1/2), whose Perron vector u, for
    q + 1, is 1 / sqrt(|G_v|).  Lanczos runs on S from a fixed
    pseudorandom start kept orthogonal to u (``_lanczos``) and gives the
    tridiagonal T.  Without reorthogonalization the extreme eigenvalues of
    T still converge to those of S on the complement of u (lost
    orthogonality only repeats converged ones), and bisection on T
    brackets them (``_tridiagonal_ends``).  For an end beyond 2 sqrt(q), a
    second pass forms its Ritz vector x from the same Lanczos vectors, and
    lambda is the Rayleigh quotient x S x / x x in integers, off by the
    square of the residual of x.  A float lambda would not do: the
    condition number of the rate grows without bound as lambda nears
    2 sqrt(q)."""
    n = g.vertex_count()
    order = [g.vertices[v].order for v in g.vertex_ids]
    edges = [g.edges[e] for e in g.edge_ids]
    rows = [g.vertex_index[e.origin] for e in edges]
    cols = [g.vertex_index[e.terminus] for e in edges]
    coeffs = [math.sqrt(order[a] * order[b]) / e.order
              for a, b, e in zip(rows, cols, edges)]
    pull = ScatterAdd(rows, cols, None if all(c == 1 for c in coeffs)
                      else coeffs, n)
    u = _unit([1 / math.sqrt(k) for k in order])
    start = [derive_seed(LANCZOS_SEED, i) / 2.0 ** 64 - 0.5
             for i in range(n)]
    alphas, betas = [], []
    for _, alpha, beta in _lanczos(pull, u, start, n - 1, q + 1):
        alphas.append(alpha)
        betas.append(beta)
    betas.pop()  # the residual past the last step
    shifts = [x for x in _tridiagonal_ends(alphas, betas) if x * x > 4 * q]
    if not shifts:
        return None
    weights = [_inverse_iteration(alphas, betas, x) for x in shifts]
    ritz = [[0.0] * n for _ in shifts]
    for j, (v, _, _) in enumerate(_lanczos(pull, u, start, len(alphas),
                                           q + 1)):
        ritz = [[a + s[j] * b for a, b in zip(x, v)]
                for x, s in zip(ritz, weights)]
    # x S x = z C z and x x = z D^-1 z for z = D^(1/2) x, here in integers
    # times the lcm of the orders
    lcm = math.lcm(*order, *(e.order for e in edges))
    quotients = []
    for x in ritz:
        z = [a * math.sqrt(k) for a, k in zip(x, order)]
        scale = 2.0 ** 62 / max(map(abs, z))
        z = [round(a * scale) for a in z]
        quotients.append((abs(sum(z[a] * z[b] * (lcm // e.order)
                                  for a, b, e in zip(rows, cols, edges))),
                          sum(a * a * (lcm // k) for a, k in zip(z, order))))
    num, den = max(quotients, key=lambda nd: nd[0] / nd[1])
    return (num, den) if num * num > 4 * q * den * den else None


def _unit(v):
    norm = math.sqrt(_dot(v, v))
    return [x / norm for x in v]


def _lanczos(pull, u, start, steps, scale):
    """(v_j, alpha_j, beta_(j+1)) of at most ``steps`` Lanczos steps of the
    symmetric step ``pull`` from ``start``, each new vector kept orthogonal
    to the unit vector u; the last when beta_(j+1) <= LANCZOS_BREAKDOWN *
    scale, an invariant subspace.  The same arguments give the same
    floats, so a second pass sees the vectors of the first."""
    def deflate(w):
        c = _dot(w, u)
        return [x - c * y for x, y in zip(w, u)]

    v = _unit(deflate(start))
    prev, beta = [0.0] * len(v), 0.0
    for _ in range(steps):
        w = pull(v)
        alpha = _dot(w, v)
        w = deflate([x - alpha * y - beta * z
                     for x, y, z in zip(w, v, prev)])
        beta = math.sqrt(_dot(w, w))
        yield v, alpha, beta
        if beta <= LANCZOS_BREAKDOWN * scale:
            return
        prev, v = v, [x / beta for x in w]


def _pivots(alphas, betas, x):
    """The pivots of T - x I = L D L^T for the symmetric tridiagonal T of
    the diagonal ``alphas`` and the off-diagonal ``betas``, a zero pivot
    taken as -1e-300.  Their negatives count the eigenvalues below x
    (Sturm)."""
    d, out = 1.0, []
    for a, b in zip(alphas, [0.0] + betas):
        d = a - x - b * b / d
        if d == 0.0:
            d = -1e-300
        out.append(d)
    return out


def _tridiagonal_ends(alphas, betas):
    """The shifts just below the least and just above the largest
    eigenvalue of T, each bracketed by LANCZOS_BISECTIONS halvings of an
    interval 1 wider on each side than its Gershgorin interval: T - x I is
    positive definite at the first and negative definite at the second."""
    off = [0.0] + betas + [0.0]
    radius = 1 + max(abs(a) + off[i] + off[i + 1]
                     for i, a in enumerate(alphas))
    k = len(alphas)

    def edge(side):
        lo, hi = -radius, radius
        for _ in range(LANCZOS_BISECTIONS):
            mid = (lo + hi) / 2
            if side(sum(d < 0 for d in _pivots(alphas, betas, mid))):
                hi = mid
            else:
                lo = mid
        return lo, hi

    return edge(lambda c: c > 0)[0], edge(lambda c: c == k)[1]


def _inverse_iteration(alphas, betas, x):
    """The eigenvector of T for its eigenvalue next to x, a definite shift
    from ``_tridiagonal_ends``: two solves of (T - x I) y = b through its
    L D L^T factors, from b = 1, each scaled to a largest entry of 1."""
    d = _pivots(alphas, betas, x)
    ratios = [b / p for b, p in zip(betas, d)]  # the entries of L
    y = [1.0] * len(alphas)
    for _ in range(2):
        for i, r in enumerate(ratios):  # L c = b
            y[i + 1] -= r * y[i]
        y = [c / p for c, p in zip(y, d)]
        for i in range(len(ratios) - 1, -1, -1):  # L^T y = D^-1 c
            y[i] -= ratios[i] * y[i + 1]
        top = max(map(abs, y))
        y = [c / top for c in y]
    return y
