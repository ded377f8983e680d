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
ways, the sum of m over the pairs.  numpy is imported only by the spectral
oracle of ``correlation_decay`` (a dense LAPACK eigensolve).
"""

import itertools
import math
import operator

from .errors import BudgetError, ReducibleError, TooLargeError, budget, charge
from .graphs import ScatterAdd, _entries, _reached, _ways, _weighted, fold_sum

POWER_TOL = 1e-12
GIBBS_GROWTH = 4.0  # the spread may grow this much from maxlen // 2 to maxlen
# path weights the Gibbs audit holds at once, (letters) * (start letters)
GIBBS_CELLS = 2 ** 18


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

    @classmethod
    def from_graph(cls, g):
        """Shift of the non-backtracking edge dynamics of a graph."""
        g.check_branching()
        return cls(list(g.edge_ids), g.nb_successors(),
                   [g.edges[e].conductance for e in g.edge_ids])

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
    fitted exponential decay rate and the spectral oracle log(rho2/rho).

    The chain steps over the rows of ``m.P``, a pull through one
    ``ScatterAdd`` plan, and the rate is the closed-form least-squares
    slope, both summed in a fixed order; only the spectral oracle builds
    the dense P, for LAPACK's eigensolver.  The nmax steps take at most
    (successor ways) * nmax products, at most the budget (10^8)."""
    p, P, succ = m.p, m.P, m.shift.succ
    charge("(successor ways) * nmax products", _ways(succ) * nmax, 10 ** 8)
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

    # spectral oracle: second modulus eigenvalue of P (dense solve)
    import numpy as np

    dense = np.zeros((len(P), len(P)))
    for a, (row, prow) in enumerate(zip(succ, P)):
        np.add.at(dense, (a, [b for b, _ in row]), prow)
    eigs = np.sort(np.abs(np.linalg.eigvals(dense)))[::-1]
    rho2 = float(eigs[1]) if len(eigs) > 1 else 0.0

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
