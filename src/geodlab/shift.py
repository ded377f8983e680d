"""Subshifts of finite type on directed edges: pressure, equilibrium
measures, weak-Gibbs audits and correlation decay.

The potential is always a 1-step function: phi(x) = c(x_0) depends on the
first letter only, so equilibrium states are Markov measures and the whole
thermodynamic apparatus reduces to Perron-Frobenius data of the weighted
transfer matrix B[a,b] = e^{c(b)} [a -> b allowed].

A shift is stored as successor lists, and every step over B runs over them
in pure Python, in a fixed order: pressure and the equilibrium chain start
without numpy, and no result depends on a BLAS kernel.  numpy is imported
only by the Gibbs audit's max-plus DP and by the spectral oracle of
``correlation_decay`` (a dense LAPACK eigensolve).
"""

import math

from .errors import (
    BudgetError,
    NoConvergenceError,
    ReducibleError,
    TooLargeError,
)

POWER_TOL = 1e-12
POWER_CAP = 10 ** 6
GIBBS_GROWTH = 4.0  # the spread may grow this much from maxlen // 2 to maxlen


class EdgeShift:
    """SFT with letters = directed edges (or abstract letters) and a
    1-step potential given per letter."""

    def __init__(self, letters, succ, potential=None):
        """succ[a]: the indices b of the letters allowed after letter a;
        potential: per-letter c."""
        self.letters = list(letters)
        n = len(self.letters)
        self.potential = ([0.0] * n if potential is None
                          else [float(c) for c in potential])
        succ = [sorted({int(b) for b in row}) for row in succ]
        if (len(succ) != n or len(self.potential) != n
                or any(not 0 <= b < n for row in succ for b in row)):
            raise ValueError("successor lists or potential do not match "
                             "the letters")
        try:
            self.weights = [math.exp(c) for c in self.potential]
        except OverflowError as exc:
            raise TooLargeError(
                "a weight exp(potential) exceeds the float range") from exc
        # B[a, b] = weights[b] > 0 exactly for b in succ[a]: a weight that
        # underflows to 0 takes its letter's transitions out
        self.succ = [[b for b in row if self.weights[b] > 0] for row in succ]

    @classmethod
    def from_graph(cls, g):
        """Shift of the non-backtracking edge dynamics of a graph."""
        g.check_branching()
        return cls(list(g.edge_ids), g.nb_successors(),
                   [g.edges[e].conductance for e in g.edge_ids])

    @classmethod
    def full_shift(cls, k, potential=None):
        return cls(list(range(k)), [range(k)] * k, potential)

    @classmethod
    def golden_mean(cls, potential=None):
        return cls([0, 1], [[0, 1], [0]], potential)

    def n_letters(self):
        return len(self.letters)

    def is_irreducible(self):
        return _strongly_connected(self.succ)


def _predecessors(succ):
    """pred[b]: the letters a with b in succ[a], ascending."""
    pred = [[] for _ in succ]
    for a, row in enumerate(succ):
        for b in row:
            pred[b].append(a)
    return pred


def _strongly_connected(succ):
    if not succ:
        return False

    def reach(adj):
        seen, stack = {0}, [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen)

    return reach(succ) == len(succ) == reach(_predecessors(succ))


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def _perron(shift, tol=POWER_TOL, cap=POWER_CAP):
    """(rho, right, left) Perron data of B by power iteration over the
    successor lists.

    Iterates on B + I so periodic (e.g. bipartite) transition structures
    still converge; rho(B + I) = rho(B) + 1 with the same eigenvectors.
    """
    succ, wt = shift.succ, shift.weights
    pred = _predecessors(succ)
    n = len(succ)

    def right_step(v):  # (B + I) v
        return [v[a] + sum(wt[b] * v[b] for b in row)
                for a, row in enumerate(succ)]

    def left_step(v):  # v (B + I)
        return [v[b] + wt[b] * sum(v[a] for a in row)
                for b, row in enumerate(pred)]

    def iterate(step):
        v = [1.0 / n] * n
        for _ in range(cap):
            w = step(v)
            s = sum(w)
            if s <= 0:
                raise ReducibleError("transfer matrix lost all mass")
            w = [x / s for x in w]
            if (max(abs(x - y) for x, y in zip(w, v))
                    <= tol * max(1.0, max(map(abs, v)))):
                return w
            v = w
        raise NoConvergenceError(
            f"power iteration did not converge within {cap} iterations")

    right, left = iterate(right_step), iterate(left_step)
    # one Rayleigh polish for the eigenvalue
    Br = [sum(wt[b] * right[b] for b in row) for row in succ]
    return _dot(left, Br) / _dot(left, right), right, left


def pressure(shift):
    """Gurevic pressure = log Perron radius of the weighted transfer matrix.

    This is also the critical exponent of the conductance-weighted
    non-backtracking path count when the shift comes from a graph.
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


def _chain_entropy(p, P):
    return -sum(pa * x * math.log(x) for pa, row in zip(p, P)
                for x in row if x > 0)


def equilibrium_measure(shift):
    """The Parry-type equilibrium chain: P[a,b] = B[a,b] r(b) / (rho r(a)).

    ``P[a]`` lists the transition probabilities to the letters of
    ``shift.succ[a]``, in that order."""
    if not shift.is_irreducible():
        raise ReducibleError("transition structure is not strongly connected")
    rho, r, l = _perron(shift)
    wt = shift.weights
    P = []
    for a, row in enumerate(shift.succ):
        prow = [wt[b] * r[b] / (rho * r[a]) for b in row]
        tot = sum(prow)  # kill rounding drift
        P.append([x / tot for x in prow])
    p = [x * y for x, y in zip(l, r)]
    tot = sum(p)
    p = [x / tot for x in p]
    return MarkovMeasure(shift, p, P, _chain_entropy(p, P),
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
    k^n words.  Each DP step gathers over a predecessor table padded to the
    largest in-degree k: E * k work per step.

    Returns {"per_letter": {letter: (lo, hi)}, "C": max per-letter spread
    hi/lo, "C_half": the same spread over the periods <= maxlen // 2,
    "passes": bool}.  A spread of 1 means the ratios are constant (exact
    Gibbs property).  The audit passes when the spread stays bounded
    (bounded distortion, Bowen): C is finite and at most GIBBS_GROWTH
    times C_half.  C_half is 1 when no period <= maxlen // 2 closes up,
    always so for maxlen < 2; a wrong pressure or wrong transitions make
    the spread grow exponentially with the period instead.
    """
    import numpy as np

    if maxlen > 16:
        raise BudgetError("weak-Gibbs audit capped at maxlen 16")
    n_letters = m.shift.n_letters()
    pot = m.shift.potential
    # the admissible steps a -> b (P[a, b] > 0) into each letter b
    pred = [[] for _ in range(n_letters)]
    for a, (row, prow) in enumerate(zip(m.shift.succ, m.P)):
        for b, x in zip(row, prow):
            if x > 0:
                pred[b].append((a, math.log(x) - pot[a] + m.pressure))
    # column b of the table holds the predecessors of b; the padding points
    # at slot n_letters, which holds -inf in mx and inf in mn
    k = max(1, *map(len, pred))
    src = np.full((k, n_letters), n_letters)
    W_max = np.full((k, n_letters), -np.inf)
    W_min = np.full((k, n_letters), np.inf)
    for b, col in enumerate(pred):
        for i, (a, w) in enumerate(col):
            src[i, b] = a
            W_max[i, b] = W_min[i, b] = w
    closing = [-c + m.pressure for c in pot]  # indexed by the last letter

    per_letter, half = {}, []
    for a in range(n_letters):
        log_pa = math.log(m.p[a])
        lo, hi = math.inf, -math.inf
        mx = np.full(n_letters + 1, -np.inf)
        mn = np.full(n_letters + 1, np.inf)
        mx[a] = 0.0
        mn[a] = 0.0
        for n in range(1, maxlen + 1):
            # paths of length n-1 from a; close up over admissible b -> a
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
    C = _spread(per_letter.values(), math.inf)
    C_half = _spread(half, 1.0)
    return {"per_letter": per_letter, "C": C, "C_half": C_half,
            "passes": math.isfinite(C) and C <= GIBBS_GROWTH * C_half}


def _spread(extremes, empty):
    """The largest hi/lo over the (lo, hi) of the letters with a periodic
    word; ``empty`` when no letter has one."""
    spreads = [hi / lo for lo, hi in extremes
               if math.isfinite(lo) and math.isfinite(hi) and lo > 0]
    return max(spreads) if spreads else empty


def correlation_decay(m, f, g, nmax):
    """cov_n = E[f(x_0) g(x_n)] - E f E g under the stationary chain, with a
    fitted exponential decay rate and the spectral oracle log(rho2/rho).

    The chain steps over the rows of ``m.P`` and the rate is the
    closed-form least-squares slope, both summed in a fixed order; only the
    spectral oracle builds the dense P, for LAPACK's eigensolver."""
    p, P, succ = m.p, m.P, m.shift.succ
    f = [float(x) for x in f]
    vec = [float(x) for x in g]
    mean_fg = _dot(p, f) * _dot(p, vec)
    covs = [_dot(p, [x * y for x, y in zip(f, vec)]) - mean_fg]
    for _ in range(nmax):
        vec = [_dot(prow, [vec[b] for b in row]) for row, prow in zip(succ, P)]
        covs.append(_dot(p, [x * y for x, y in zip(f, vec)]) - mean_fg)

    # spectral oracle: second modulus eigenvalue of P (dense solve)
    import numpy as np

    dense = np.zeros((len(P), len(P)))
    for a, (row, prow) in enumerate(zip(succ, P)):
        dense[a, row] = prow
    eigs = np.sort(np.abs(np.linalg.eigvals(dense)))[::-1]
    rho2 = float(eigs[1]) if len(eigs) > 1 else 0.0

    # fit |cov_n| ~ K * r^n over the indices where it is meaningfully nonzero
    idx = [n for n in range(1, len(covs)) if abs(covs[n]) > 1e-13]
    if len(idx) >= 2:
        logs = [math.log(abs(covs[n])) for n in idx]
        x_bar, y_bar = sum(idx) / len(idx), sum(logs) / len(logs)
        slope = (sum((x - x_bar) * (y - y_bar) for x, y in zip(idx, logs))
                 / sum((x - x_bar) ** 2 for x in idx))
        rate = math.exp(slope)
    else:
        rate = 0.0
    return {"cov": covs, "fitted_rate": rate, "spectral_rate": rho2}
