"""Output checks for the benchmark's geodlab invocations.

Each check pairs a verifier with a corruption.  The verifier raises
CheckFailed when an output is wrong; the corruption alters a correct output
in the way the verifier exists to catch, which is the check's negative
control (``run.py --controls``).  The oracles here are computed from the
generated inputs with numpy and scipy; none of them imports geodlab.
"""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import stats

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())

# Family-wise false-alarm rate of all Monte-Carlo gates in one workload run.
MC_ALPHA = 1e-6


class CheckFailed(Exception):
    pass


class Check:
    def __init__(self, name, verify, corrupt):
        self.name = name
        self.verify = verify
        self.corrupt = corrupt


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def close(a, b, rel=1e-9, abs_=0.0):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


# ---------------------------------------------------------------------------
# CSV helpers


def rows(text, header):
    lines = text.splitlines()
    require(lines and lines[0] == header,
            f"header {lines[0] if lines else None!r} != {header!r}")
    return [line.split(",") for line in lines[1:]]


def edit_cell(text, row, col, fn):
    """Apply fn to one cell (row 0 is the first data row)."""
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = fn(cells[col])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def plus_one(cell):
    return str(int(cell) + 1)


def scale(factor):
    return lambda cell: "%.17g" % (float(cell) * factor)


# ---------------------------------------------------------------------------
# byte-identical outputs of seed-independent invocations


def golden(key):
    def verify(text):
        digest = hashlib.sha256(text.encode()).hexdigest()
        require(digest == GOLDEN[key], f"stdout digest {digest[:12]} differs "
                f"from the recorded {GOLDEN[key][:12]}")

    return Check("golden", verify, lambda t: t.replace("\n", "\r\n", 1))


# ---------------------------------------------------------------------------
# F_q[Y] closed forms


def farey(q, t, depth):
    def verify(text):
        r = rows(text, "kind,ball,count")
        require(r[0][0] == "psi" and r[1][0] == "points", "psi/points rows")
        psi = (q - 1) + q * (q - 1) * (q ** (2 * t) - 1) // (q + 1)
        points = q + (q - 1) * sum(q ** (2 * d) for d in range(1, t + 1))
        require(int(r[0][2]) == psi, f"psi {r[0][2]} != {psi}")
        require(int(r[1][2]) == points, f"points {r[1][2]} != {points}")
        balls = [x for x in r[2:] if x[0] == "ball"]
        require(len(balls) == len(r) - 2 and len(balls) <= q ** depth,
                "ball rows")
        require(all(len(b[1].split(".")) == depth for b in balls),
                "ball key depth")
        require(sum(int(b[2]) for b in balls) == points,
                "ball counts do not sum to points")

    return Check("farey-closed-form", verify,
                 lambda t: edit_cell(t, 0, 2, plus_one))


def mertens(q, n):
    def verify(text):
        r = rows(text, "q,n,sum")
        want = q * (q - 1) * (q ** (2 * n) - 1) // (q + 1)
        require(r == [[str(q), str(n), str(want)]], f"mertens {r} != {want}")

    return Check("mertens-closed-form", verify,
                 lambda t: edit_cell(t, 0, 2, plus_one))


def hecke(q, ideal_text, prime_degrees):
    """Index N(I) prod (1 + 1/N(p)) over the distinct primes p | I."""
    deg = 4
    want = Fraction(q ** deg)
    for d in prime_degrees:
        want *= Fraction(q ** d + 1, q ** d)

    def verify(text):
        r = rows(text, "ideal,index,enumeration")
        require(len(r) == 1 and r[0][0] == ideal_text, f"ideal row {r}")
        require(int(r[0][1]) == want, f"index {r[0][1]} != {want}")
        require(r[0][2] == r[0][1], "enumeration disagrees with the index")

    return Check("hecke-index", verify, lambda t: edit_cell(
        edit_cell(t, 0, 1, plus_one), 0, 2, plus_one))


def quad_orbit(mode):
    """The cumulative counts end at the orbit size (minus alpha0's own
    triple in relative mode)."""
    def verify(text):
        r = rows(text, "threshold,cumulative")
        require(r[-1][0] == "__orbit_size__", "orbit size row")
        size, cum = int(r[-1][1]), [int(x[1]) for x in r[:-1]]
        require(cum == sorted(cum) and cum[0] > 0, "cumulative not monotone")
        drop = size - cum[-1]
        require(drop == 0 if mode == "complexity" else drop in (1, 2),
                f"cumulative total {cum[-1]} vs orbit size {size}")

    return Check("orbit-total", verify, lambda t: edit_cell(
        t, len(t.splitlines()) - 2, 1, plus_one))


# ---------------------------------------------------------------------------
# graph oracles


class GraphOracle:
    """Non-backtracking structure of a generated graph (trivial orders).

    Directed edges are indexed in ascending id order, as geodlab indexes
    them, so ``A`` is geodlab's non-backtracking transfer matrix.
    """

    def __init__(self, doc):
        self.doc = doc
        vids = sorted(v["id"] for v in doc["vertices"])
        self.vindex = {v: i for i, v in enumerate(vids)}
        self.vids = vids
        order = sorted(doc["edges"], key=lambda e: e["id"])
        self.eindex = {e["id"]: i for i, e in enumerate(order)}
        self.origin = np.array([self.vindex[e["from"]] for e in order])
        self.terminus = np.array([self.vindex[e["to"]] for e in order])
        self.reverse = np.array([self.eindex[e["reverse"]] for e in order])
        self.cond = np.array([e.get("conductance", 0.0) for e in order])
        m = len(order)
        self.A = np.zeros((m, m), dtype=np.int64)
        for i in range(m):
            for j in np.nonzero(self.origin == self.terminus[i])[0]:
                if j != self.reverse[i]:
                    self.A[i, j] = 1
        self.src, self.dst = np.nonzero(self.A)
        self.q = int(self.A[0].sum())

    def sub_edges(self, name, at):
        """Start (``at="origin"``) or end edges of a named subgraph."""
        sub = self.doc["subgraphs"][name]
        vset = {self.vindex[v] for v in sub["vertices"]}
        eset = {self.eindex[e] for e in sub["edges"]}
        ends = self.origin if at == "origin" else self.terminus
        return [i for i in range(len(ends))
                if ends[i] in vset and i not in eset]

    def perp_counts(self, start, end, nmax):
        """u^T A^(n-1) v for n = 1..nmax with exact integers."""
        w = np.zeros(len(self.A), dtype=object)
        w[start] = 1
        out = []
        for _ in range(nmax):
            out.append(int(w[end].sum()))
            nxt = np.zeros(len(w), dtype=object)
            np.add.at(nxt, self.dst, w[self.src])
            w = nxt
        return out

    def perp_weighted(self, start, end, nmax):
        wexp = np.exp(self.cond)
        w = np.zeros(len(self.A))
        w[start] = wexp[start]
        out = []
        for _ in range(nmax):
            out.append(float(w[end].sum()))
            w = (w @ self.A) * wexp
        return out

    def traces(self, nmax):
        """tr(A^n) for n = 1..nmax, in int64 only when it cannot overflow."""
        exact_in_int64 = len(self.A) * self.q ** nmax < 2 ** 62
        A = self.A if exact_in_int64 else self.A.astype(object)
        P = A.copy()
        out = []
        for n in range(1, nmax + 1):
            if n > 1:
                P = P @ A
            out.append(int(np.trace(P)))
        return out

    def nb_matrix(self):
        return self.A * np.exp(self.cond)[None, :]


def mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def perp_exact(g, minus, plus, nmax):
    start, end = g.sub_edges(minus, "origin"), g.sub_edges(plus, "terminus")
    nv = len(g.vids)
    q = g.q
    const = Fraction(q + 1, (q - 1) * nv)  # point targets, regular graph

    def verify(text):
        r = rows(text, "n,count,weighted,cumulative,theory_ratio")
        want = g.perp_counts(start, end, nmax)
        require(len(r) == nmax, "row count")
        cum = 0
        for n, (row, c) in enumerate(zip(r, want), start=1):
            cum += c
            require(row[:2] == [str(n), str(c)], f"count at n={n}")
            require(float(row[2]) == float(c), f"weighted at n={n}")
            require(row[3] == str(cum), f"cumulative at n={n}")
            ratio = cum / (float(const) * q ** n)
            require(close(float(row[4]), ratio, 1e-12), f"ratio at n={n}")

    return Check("perp-uBv", verify,
                 lambda t: edit_cell(t, nmax // 2, 1, plus_one))


def perp_weighted(g, minus, plus, nmax):
    start, end = g.sub_edges(minus, "origin"), g.sub_edges(plus, "terminus")

    def verify(text):
        r = rows(text, "n,count,weighted,cumulative,theory_ratio")
        want = g.perp_weighted(start, end, nmax)
        require(len(r) == nmax, "row count")
        for n, (row, w) in enumerate(zip(r, want), start=1):
            require(row[0] == str(n) and row[1] == "0" and row[3] == "0",
                    f"weighted row {n} has exact counts")
            require(close(float(row[2]), w, 1e-9), f"weighted mass at n={n}")
            require(row[4] == "nan", f"theory ratio at n={n}")

    return Check("perp-weighted-uBv", verify,
                 lambda t: edit_cell(t, nmax // 2, 2, scale(1 + 1e-6)))


def orbits(g, nmax):
    def verify(text):
        r = rows(text, "n,fix,primitive,orbits,weighted")
        fix = g.traces(nmax)
        require(len(r) == nmax, "row count")
        for n, row in enumerate(r, start=1):
            prim = sum(mobius(n // d) * fix[d - 1]
                       for d in range(1, n + 1) if n % d == 0)
            require(row[:3] == [str(n), str(fix[n - 1]), str(prim)],
                    f"fix/primitive at n={n}")
            require(int(row[3]) * n == prim, f"orbits*n != primitive at n={n}")
            require(close(float(row[4]), fix[n - 1], 1e-12),
                    f"weighted trace at n={n}")

    return Check("orbits-trace", verify,
                 lambda t: edit_cell(t, nmax - 2, 1, plus_one))


def conjugacy(g, cycle_len, nmax):
    """N(n) = [basepoint on cycle] + perpendicular counts to the cycle of
    length at most (n - len)/2 (Broise-Alamichel, Parkkonen and Paulin)."""
    start = g.sub_edges("B", "origin")
    end = g.sub_edges("C", "terminus")
    on_cycle = g.doc["subgraphs"]["B"]["vertices"][0] in \
        g.doc["subgraphs"]["C"]["vertices"]

    def verify(text):
        r = rows(text, "n,count")
        radius = max((nmax - cycle_len) // 2, 0)
        cum = [0]
        for c in g.perp_counts(start, end, radius):
            cum.append(cum[-1] + c)
        require(len(r) == nmax + 1, "row count")
        for n, row in enumerate(r):
            want = 0 if n < cycle_len else \
                int(on_cycle) + cum[(n - cycle_len) // 2]
            require(row == [str(n), str(want)], f"count at n={n}")

    return Check("conjugacy-perp", verify,
                 lambda t: edit_cell(t, nmax, 1, plus_one))


def pressure(g):
    def verify(text):
        r = rows(text, "pressure")
        rho = max(abs(np.linalg.eigvals(g.nb_matrix())))
        require(close(float(r[0][0]), math.log(rho), 0, 1e-9),
                f"pressure {r[0][0]} != log rho = {math.log(rho)}")

    return Check("pressure-eig", verify, lambda t: edit_cell(
        t, 0, 0, lambda c: "%.17g" % (float(c) + 1e-6)))


def decay(g, nmax):
    """Unweighted regular graph: the equilibrium chain is P = A/q with the
    uniform law, so cov_n = (A^n)_00 / (m q^n) - 1/m^2."""
    m, q = len(g.A), g.q

    def verify(text):
        r = rows(text, "n,cov")
        P = g.A / q
        covs, a00 = [], np.eye(m, dtype=np.int64)
        for n in range(nmax + 1):
            covs.append(int(a00[0, 0]) / (m * q ** n) - 1 / m ** 2)
            a00 = a00 @ g.A
        for n, row in enumerate(r[:nmax + 1]):
            require(row[0] == str(n) and close(float(row[1]), covs[n], 1e-9,
                                               1e-14), f"cov at n={n}")
        mags = np.abs(np.array(covs))
        idx = np.nonzero(mags > 1e-13)[0]
        idx = idx[idx >= 1]
        fitted = float(np.exp(np.polyfit(idx, np.log(mags[idx]), 1)[0]))
        rho2 = float(np.sort(np.abs(np.linalg.eigvals(P)))[::-1][1])
        tail = dict(r[nmax + 1:])
        require(close(float(tail["__fitted_rate__"]), fitted, 1e-6),
                "fitted rate")
        require(close(float(tail["__spectral_rate__"]), rho2, 1e-6),
                "spectral rate")

    return Check("decay-closed-form", verify,
                 lambda t: edit_cell(t, 3, 1, scale(1.001)))


def gibbs(g, maxlen):
    """Unweighted regular graph: every periodic Gibbs ratio is q/m, for the
    letters that lie on a closed walk of length <= maxlen; the others have
    an empty extremum (lo = inf, hi = 0)."""
    m, q = len(g.A), g.q
    eids = sorted(g.eindex)

    def verify(text):
        r = rows(text, "letter,ratio_min,ratio_max")
        reach = np.zeros(m, dtype=bool)
        P = np.eye(m, dtype=np.int64)
        for _ in range(maxlen):
            P = np.minimum(P @ g.A, 1)
            reach |= np.diag(P) > 0
        require([x[0] for x in r[:-1]] == eids and r[-1][0] == "__C__",
                "letter rows")
        for letter, lo, hi in r[:-1]:
            if reach[g.eindex[letter]]:
                ok = close(float(lo), q / m) and close(float(hi), q / m)
            else:
                ok = float(lo) == math.inf and float(hi) == 0.0
            require(ok, f"Gibbs ratios of {letter}")
        require(close(float(r[-1][1]), 1.0) if reach.any() else
                float(r[-1][1]) == math.inf, "constant C")

    return Check("gibbs-closed-form", verify,
                 lambda t: edit_cell(t, 0, 2, scale(1.001)))


def nbrw_law(g, start_sub, n):
    """Exact vertex law after n steps of the non-backtracking walk."""
    dist = np.zeros(len(g.A))
    dist[g.sub_edges(start_sub, "origin")] = 1.0
    dist /= dist.sum()
    P = g.A / g.q
    for _ in range(n - 1):
        dist = dist @ P
    return np.bincount(g.terminus, weights=dist, minlength=len(g.vids))


def nbrw_exact(g, start_sub, n):
    def verify(text):
        r = rows(text, "state,probability")
        law = nbrw_law(g, start_sub, n)
        require([x[0] for x in r[:-1]] == g.vids, "vertex rows")
        for (v, p), want in zip(r[:-1], law):
            require(close(float(p), want, 0, 1e-12), f"probability of {v}")
        tv = 0.5 * float(np.abs(law - 1 / len(law)).sum())
        require(r[-1][0] == "__tv_to_target__" and
                close(float(r[-1][1]), tv, 0, 1e-12), "total variation")

    return Check("nbrw-exact-law", verify,
                 lambda t: edit_cell(t, 0, 1, lambda c: "%.17g" %
                                     (float(c) + 1e-9)))


def laplacian(g):
    def verify(text):
        r = rows(text, "row,col,value")
        nv = len(g.vids)
        w = np.exp(g.cond)
        deg = np.bincount(g.origin, weights=w, minlength=nv)
        D = np.eye(nv)
        np.add.at(D, (g.origin, g.terminus), -w / deg[g.origin])
        require(len(r) == nv * nv, "row count")
        for k, (v, u, val) in enumerate(r):
            i, j = divmod(k, nv)
            require(v == g.vids[i] and u == g.vids[j], "row order")
            require(close(float(val), D[i, j], 0, 1e-12), f"entry {v},{u}")

    return Check("laplacian-direct", verify,
                 lambda t: edit_cell(t, 1, 2, lambda c: "%.17g" %
                                     (float(c) - 1e-9)))


def volumes(g, bipartite):
    def verify(text):
        r = rows(text, "quantity,value")
        want = [["vol", str(len(g.vids))], ["tvol", str(len(g.A))],
                ["bipartite", "true" if bipartite else "false"]]
        want += [[f"degree:{v}", str(g.q + 1)] for v in g.vids]
        require(r == want, "volume report")

    return Check("volumes", verify, lambda t: edit_cell(t, 1, 1, plus_one))


def validate(nv, ne):
    def verify(text):
        require(text == f"vertices,edges,status\n{nv},{ne},valid\n",
                "validate record")

    return Check("validate", verify, lambda t: t.replace("valid", "invalid"))


def seed_record(master):
    mask = (1 << 64) - 1
    z = (master + 0x9E3779B97F4A7C15) & mask  # splitmix64, stream 0
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z ^= z >> 31

    def verify(text):
        require(text == f"master,index,seed\n{master},0,{z}\n", "seed record")

    return Check("splitmix64", verify, lambda t: edit_cell(t, 0, 2, plus_one))


# ---------------------------------------------------------------------------
# Monte-Carlo gates: exact binomial tails, Bonferroni over every estimate of
# the workload run, so a correct sampler fails a run with probability at
# most MC_ALPHA.


class MonteCarloFamily:
    def __init__(self):
        self.size = 0

    def reserve(self, k):
        self.size += k

    def threshold(self):
        return MC_ALPHA / self.size


def binom_gate(family, counts, reps, probs, label):
    pv = np.minimum(1.0, 2 * np.minimum(stats.binom.cdf(counts, reps, probs),
                                        stats.binom.sf(counts - 1, reps,
                                                       probs)))
    worst = int(np.argmin(pv))
    require(pv[worst] >= family.threshold(),
            f"{label} {worst}: p-value {pv[worst]:.2e} below "
            f"{family.threshold():.2e}")


def harmonic(family, q, depth, reps):
    k = (q + 1) * q ** (depth - 1)
    family.reserve(k)

    def verify(text):
        r = rows(text, "shadow,estimate,stderr,target")
        require(len(r) == k, "shadow count")
        est = np.array([float(x[1]) for x in r])
        require(all(float(x[3]) == 1.0 / k for x in r), "target")
        sigma = math.sqrt((1 / k) * (1 - 1 / k) / reps)
        require(all(close(float(x[2]), sigma, 1e-12) for x in r), "stderr")
        counts = np.rint(est * reps).astype(np.int64)
        require(np.allclose(counts / reps, est, rtol=0, atol=1e-15) and
                counts.sum() == reps, "estimates are not tallies / reps")
        binom_gate(family, counts, reps, 1.0 / k, "shadow")

    return Check("harmonic-binomial", verify,
                 lambda t: move_tallies(t, reps, 8 * math.sqrt(reps / k)))


def green(family, q, dxy, dxz):
    family.reserve(1)

    def verify(text):
        r = rows(text, "ratio,target,stderr")
        ratio, target, sigma = map(float, r[0])
        require(close(target, float(q) ** (dxz - dxy), 1e-12), "target")
        z = stats.norm.isf(family.threshold() / 2)
        require(abs(ratio - target) <= z * sigma,
                f"ratio {ratio} is {abs(ratio - target) / sigma:.1f} sigma "
                f"from {target}")

    return Check("green-normal", verify, lambda t: edit_cell(
        t, 0, 0, lambda c: "%.17g" % (float(c) + 12 * float(
            t.splitlines()[1].split(",")[2]))))


def nbrw_sample(family, g, start_sub, n, reps):
    family.reserve(len(g.vids))

    def verify(text):
        r = rows(text, "state,probability")
        require([x[0] for x in r] == g.vids, "vertex rows")
        counts = np.rint(np.array([float(x[1]) for x in r]) * reps)
        require(counts.sum() == reps, "tallies do not sum to reps")
        binom_gate(family, counts.astype(np.int64), reps,
                   nbrw_law(g, start_sub, n), "vertex")

    return Check("nbrw-binomial", verify, lambda t: move_tallies(
        t, reps, 8 * math.sqrt(float(t.splitlines()[1].split(",")[1]) * reps)))


def move_tallies(text, reps, k):
    """Move k of the reps tallies from the first row to the second, which
    keeps their sum and shifts the first estimate by about 8 sigma."""
    k = round(k)
    text = edit_cell(text, 0, 1, lambda c: repr((round(float(c) * reps) - k)
                                                / reps))
    return edit_cell(text, 1, 1, lambda c: repr((round(float(c) * reps) + k)
                                                / reps))
