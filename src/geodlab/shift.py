"""Subshifts of finite type on directed edges: pressure, equilibrium
measures, weak-Gibbs audits and correlation decay.

The potential is always a 1-step function: phi(x) = c(x_0) depends on the
first letter only, so equilibrium states are Markov measures and the whole
thermodynamic apparatus reduces to Perron-Frobenius data of the weighted
transfer matrix B[a,b] = e^{c(b)} [a -> b allowed].

numpy is imported inside the functions that use it: the CLI imports this
module for every verb, and the exact verbs must start without numpy.
"""

from .errors import (
    BudgetError,
    NoConvergenceError,
    ReducibleError,
)

POWER_TOL = 1e-12
POWER_CAP = 10 ** 6


class EdgeShift:
    """SFT with letters = directed edges (or abstract letters) and a
    1-step potential given per letter."""

    def __init__(self, letters, transitions, potential=None):
        """transitions: 0/1 matrix A[a,b]; potential: per-letter array c."""
        import numpy as np

        self.letters = list(letters)
        self.A = np.asarray(transitions, dtype=float)
        n = len(self.letters)
        if self.A.shape != (n, n):
            raise ValueError("transition matrix shape mismatch")
        self.potential = (np.zeros(n) if potential is None
                          else np.asarray(potential, dtype=float))
        # B[a,b] = e^{c(b)} when a -> b is allowed
        self.B = self.A * np.exp(self.potential)[None, :]

    @classmethod
    def from_graph(cls, g):
        """Shift of the non-backtracking edge dynamics of a graph."""
        B = g.nb_transfer()
        A = (B > 0).astype(float)
        c = g.conductance_vector()
        return cls(list(g.edge_ids), A, c)

    @classmethod
    def full_shift(cls, k, potential=None):
        return cls(list(range(k)), [[1.0] * k] * k, potential)

    @classmethod
    def golden_mean(cls, potential=None):
        return cls([0, 1], [[1.0, 1.0], [1.0, 0.0]], potential)

    def n_letters(self):
        return len(self.letters)

    def is_irreducible(self):
        return _strongly_connected(self.A)

    def admissible(self, word):
        """word: sequence of letter indices."""
        return all(self.A[a, b] > 0 for a, b in zip(word, word[1:]))


def _strongly_connected(A):
    n = A.shape[0]
    if n == 0:
        return False

    def reach(M):
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in M[v].nonzero()[0]:
                if w not in seen:
                    seen.add(int(w))
                    stack.append(int(w))
        return seen

    return len(reach(A)) == n and len(reach(A.T)) == n


def _perron(B, tol=POWER_TOL, cap=POWER_CAP):
    """(rho, right, left) Perron data by power iteration.

    Iterates on B + I so periodic (e.g. bipartite) transition structures
    still converge; rho(B + I) = rho(B) + 1 with the same eigenvectors.
    """
    import numpy as np

    n = B.shape[0]
    M = B + np.eye(n)

    def iterate(mat):
        v = np.ones(n)
        v /= v.sum()
        lam = 0.0
        for _ in range(cap):
            w = mat @ v
            s = w.sum()
            if s <= 0:
                raise ReducibleError("transfer matrix lost all mass")
            w /= s
            if np.abs(w - v).max() <= tol * max(1.0, np.abs(v).max()):
                return s, w
            lam, v = s, w
        raise NoConvergenceError(
            f"power iteration did not converge within {cap} iterations")

    rho_r, right = iterate(M)
    rho_l, left = iterate(M.T)
    rho = (rho_r + rho_l) / 2 - 1.0
    # one Rayleigh polish for the eigenvalue
    rho = float(left @ B @ right / (left @ right))
    return rho, right, left


def pressure(shift):
    """Gurevic pressure = log Perron radius of the weighted transfer matrix.

    This is also the critical exponent of the conductance-weighted
    non-backtracking path count when the shift comes from a graph.
    """
    import numpy as np

    if not shift.is_irreducible():
        raise ReducibleError("transition structure is not strongly connected")
    rho, _, _ = _perron(shift.B)
    return float(np.log(rho))


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
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(P > 0, np.log(np.where(P > 0, P, 1.0)), 0.0)
    return float(-(p[:, None] * P * logs).sum())


def equilibrium_measure(shift):
    """The Parry-type equilibrium chain: P[a,b] = B[a,b] r(b) / (rho r(a))."""
    import numpy as np

    if not shift.is_irreducible():
        raise ReducibleError("transition structure is not strongly connected")
    rho, r, l = _perron(shift.B)
    P = shift.B * r[None, :] / (rho * r[:, None])
    P = P / P.sum(axis=1, keepdims=True)  # kill rounding drift
    p = l * r
    p = p / p.sum()
    h = _chain_entropy(p, P)
    phi_int = float(p @ shift.potential)
    return MarkovMeasure(shift, p, P, h, phi_int, float(np.log(rho)))


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
    k^n words.

    Returns {"per_letter": {letter: (lo, hi)}, "C": max per-letter spread
    hi/lo, "passes": bool}.  A spread of 1 means the ratios are constant
    (exact Gibbs property).
    """
    import numpy as np

    if maxlen > 16:
        raise BudgetError("weak-Gibbs audit capped at maxlen 16")
    n_letters = m.shift.n_letters()
    with np.errstate(divide="ignore"):
        W = np.where(m.P > 0, np.log(np.where(m.P > 0, m.P, 1.0)), -np.inf)
    W = W - m.shift.potential[:, None] + m.pressure
    W_min = np.where(np.isneginf(W), np.inf, W)
    closing = -m.shift.potential + m.pressure  # indexed by the last letter
    adm = m.P > 0

    per_letter = {}
    for a in range(n_letters):
        lo, hi = np.inf, -np.inf
        mx = np.full(n_letters, -np.inf)
        mn = np.full(n_letters, np.inf)
        mx[a] = 0.0
        mn[a] = 0.0
        for n in range(1, maxlen + 1):
            # paths of length n-1 from a; close up over admissible b -> a
            for b in range(n_letters):
                if not adm[b, a]:
                    continue
                if np.isfinite(mx[b]):
                    hi = max(hi, mx[b] + closing[b] + np.log(m.p[a]))
                if np.isfinite(mn[b]):
                    lo = min(lo, mn[b] + closing[b] + np.log(m.p[a]))
            mx = np.max(mx[:, None] + W, axis=0)
            mn = np.min(mn[:, None] + W_min, axis=0)
        per_letter[m.shift.letters[a]] = (float(np.exp(lo)), float(np.exp(hi)))
    spreads = [hi / lo for lo, hi in per_letter.values()
               if np.isfinite(lo) and np.isfinite(hi) and lo > 0]
    C = float(max(spreads)) if spreads else float("inf")
    return {"per_letter": per_letter, "C": C,
            "passes": bool(np.isfinite(C) and C >= 1.0)}


def correlation_decay(m, f, g, nmax):
    """cov_n = E[f(x_0) g(x_n)] - E f E g under the stationary chain, with a
    fitted exponential decay rate and the spectral oracle log(rho2/rho)."""
    import numpy as np

    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    p, P = m.p, m.P
    mean_f = float(p @ f)
    mean_g = float(p @ g)
    covs = []
    vec = g.copy()
    covs.append(float(p @ (f * vec)) - mean_f * mean_g)
    for _ in range(nmax):
        vec = P @ vec
        covs.append(float(p @ (f * vec)) - mean_f * mean_g)

    # spectral oracle: second modulus eigenvalue of P (dense solve)
    eigs = np.sort(np.abs(np.linalg.eigvals(P)))[::-1]
    rho2 = float(eigs[1]) if len(eigs) > 1 else 0.0

    # fit |cov_n| ~ K * r^n over the indices where it is meaningfully nonzero
    mags = np.abs(np.array(covs))
    idx = np.nonzero(mags > 1e-13)[0]
    idx = idx[idx >= 1]
    if len(idx) >= 2:
        slope = np.polyfit(idx, np.log(mags[idx]), 1)[0]
        rate = float(np.exp(slope))
    else:
        rate = 0.0
    return {"cov": covs, "fitted_rate": rate, "spectral_rate": rho2}
