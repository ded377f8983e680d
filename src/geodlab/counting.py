"""Counting common perpendiculars, closed orbits, and conjugacy-class
orbits on finite graphs, with the explicit asymptotic constants.

A common perpendicular between subgraphs Y- and Y+ is a non-backtracking
edge path that starts at a vertex of Y- without using an edge of Y-,
and arrives at a vertex of Y+ without using an edge of Y+.  Counts are
exact big integers when all conductances vanish.
"""

from fractions import Fraction
import math

from .errors import (
    BudgetError,
    GraphFormatError,
    NotSimpleCycleError,
    TooLargeError,
    UnsupportedError,
)

DEFAULT_BUDGET = 10 ** 8


class PerpQuery:
    """Counting request: graph, Y- and Y+ subgraph names, horizon nmax."""

    __slots__ = ("graph", "minus", "plus", "nmax")

    def __init__(self, graph, minus, plus, nmax):
        self.graph = graph
        self.minus = minus
        self.plus = plus
        self.nmax = nmax


class CountSeries:
    """Per-length and cumulative counts (exact ints) and weighted sums."""

    __slots__ = ("counts", "weighted", "cumulative", "cumulative_weighted")

    def __init__(self, counts, weighted):
        self.counts = list(counts)
        self.weighted = list(weighted)
        self.cumulative = []
        self.cumulative_weighted = []
        tot, wtot = 0, 0.0
        for c, w in zip(self.counts, self.weighted):
            tot += c
            wtot += w
            self.cumulative.append(tot)
            self.cumulative_weighted.append(wtot)


class AsymptoticReport:
    __slots__ = ("delta", "constant", "growth_base", "ratios", "verdict",
                 "normalisation", "constant_odd")

    def __init__(self, delta, constant, growth_base, ratios, verdict,
                 normalisation, constant_odd=None):
        self.delta = delta
        self.constant = constant
        self.growth_base = growth_base
        self.ratios = ratios
        self.verdict = verdict
        self.normalisation = normalisation
        # bipartite graphs: separate constant for odd-length perpendiculars
        self.constant_odd = constant_odd


def _boundary(g, subname, end):
    """Edges not in the subgraph whose ``end`` ("origin" or "terminus") is
    one of its vertices: the first (last) edges of a perpendicular that
    leaves (arrives at) it."""
    sub = g.subgraph(subname)
    vset, eset = set(sub["vertices"]), set(sub["edges"])
    return [eid for eid in g.edge_ids
            if getattr(g.edges[eid], end) in vset and eid not in eset]


def _nb_step(succ, w, weights=None):
    """One step w -> wB of the non-backtracking edge dynamics, ``succ`` as
    from ``GraphOfGroups.nb_successors``.  Exact big-integer masses when
    B is 0/1 (no ``weights``), float masses when B[i, j] = weights[j]."""
    if weights is None:
        nxt = [0] * len(w)
        for i, mass in enumerate(w):
            if mass:
                for j in succ[i]:
                    nxt[j] += mass
    else:
        nxt = [0.0] * len(w)
        for i, mass in enumerate(w):
            if mass:
                for j in succ[i]:
                    nxt[j] += mass * weights[j]
    return nxt


def _as_float(count, what):
    try:
        return float(count)
    except OverflowError as exc:
        raise TooLargeError(f"{what} exceeds the float range") from exc


def count_perpendiculars(query, budget=DEFAULT_BUDGET):
    """Dynamic programming over directed-edge states.

    Exact (big-integer) when all conductances are zero, float-weighted
    otherwise.  Entry n (1-based length) of the returned CountSeries is the
    number / weighted mass of perpendiculars of length exactly n.
    """
    g = query.graph
    n_edges = g.edge_count()
    if n_edges * query.nmax > budget:
        raise BudgetError(
            f"{n_edges} edge states x nmax {query.nmax} exceeds budget")
    start = _boundary(g, query.minus, "origin")
    end_idx = [g.edge_index[e] for e in _boundary(g, query.plus, "terminus")]
    exact = all(g.edges[e].conductance == 0.0 for e in g.edge_ids)
    succ = g.nb_successors()
    weights = None if exact else g.edge_weights()
    w = [0] * n_edges if exact else [0.0] * n_edges
    for eid in start:
        i = g.edge_index[eid]
        w[i] = 1 if exact else weights[i]

    counts, weighted = [], []
    for n in range(1, query.nmax + 1):
        harvest = sum(w[i] for i in end_idx)
        if exact:
            counts.append(harvest)
            weighted.append(_as_float(harvest, f"count at length {n}"))
        else:
            counts.append(0)
            weighted.append(harvest)
        if n < query.nmax:
            w = _nb_step(succ, w, weights)
    return CountSeries(counts, weighted)


# ---------------------------------------------------------------------------
# theoretical counting constants


def _classify_subgraph(g, subname):
    """(kind, data) with kind in {"point", "cycle"}."""
    sub = g.subgraph(subname)
    vs, es = sub["vertices"], sub["edges"]
    if len(vs) == 1 and not es:
        return "point", {"vertices": 1}
    # cycle: connected, every vertex meets exactly two directed subgraph edges
    if es and len(es) == 2 * len(vs):
        deg = {v: 0 for v in vs}
        for eid in es:
            deg[g.edges[eid].origin] += 1
        if all(d == 2 for d in deg.values()):
            return "cycle", {"length": len(vs)}
    return "other", {}


def theoretical_constant(query, series):
    """Asymptotic constant for cumulative perpendicular counts, assembled
    from the closed-form mass formulas, plus the ratio series of
    ``series`` = count_perpendiculars(query) against it.

    Supported: regular graphs of degree >= 3 (any two point/cycle targets)
    and the biregular bipartite case with two cycle targets.  All
    conductances must vanish.  Raises TooLargeError when a ratio's terms
    exceed the float range.
    """
    g = query.graph
    if any(g.edges[e].conductance != 0.0 for e in g.edge_ids):
        raise UnsupportedError("constants implemented for zero conductance")
    if not g.trivial_orders():
        raise UnsupportedError("constants implemented for trivial orders")
    rep = g.volumes()
    degs = sorted(set(rep.degrees.values()))
    km = _classify_subgraph(g, query.minus)
    kp = _classify_subgraph(g, query.plus)

    if len(degs) == 1:
        q = degs[0] - 1
        if q < 2:
            raise UnsupportedError(
                "regular constants need degree >= 3 (exponential growth)")
        delta = math.log(q)
        nverts = g.vertex_count()
        # ||m|| = (q/(q+1)) Vol, probability-normalised sphere measures
        m_mass = Fraction(q, q + 1) * rep.vol

        # total skinning masses in the probability normalisation: 1 for a
        # point, ((q-1)/(q+1)) L for a cycle of length L
        def sk(kind, data):
            if kind == "point":
                return Fraction(1)
            if kind == "cycle":
                return Fraction(q - 1, q + 1) * data["length"]
            raise UnsupportedError(
                "regular constants support point/cycle targets")

        s_minus, s_plus = sk(*km), sk(*kp)
        const = Fraction(q, q - 1) * s_minus * s_plus / m_mass
        try:
            ratios = [series.cumulative[n] / (float(const) * q ** (n + 1))
                      for n in range(len(series.cumulative))]
        except OverflowError as exc:
            raise TooLargeError("ratio terms exceed the float range") from exc
        verdict = "pass" if abs(ratios[-1] - 1) < 0.05 else "fail"
        return AsymptoticReport(delta, float(const), float(q), ratios,
                                verdict, "probability")

    if len(degs) == 2 and rep.bipartite:
        p, q = degs[0] - 1, degs[1] - 1
        if km[0] != "cycle" or kp[0] != "cycle":
            raise UnsupportedError(
                "biregular constants support two cycle targets")

        # per-degree-class skinning weights of a cycle target: each cycle
        # vertex of degree d+1 contributes (d-1)/sqrt(d) under the
        # deg/sqrt(deg-1) sphere normalisation (codegree 2 along the cycle)
        def class_sigma(subname):
            sub = g.subgraph(subname)
            out = {p: 0.0, q: 0.0}
            for v in sub["vertices"]:
                d = rep.degrees[v] - 1
                out[d] += (d - 1) / math.sqrt(d)
            return out

        sm, sp = class_sigma(query.minus), class_sigma(query.plus)
        # ||m|| = TVol = number of directed edges for trivial groups
        m_mass = g.edge_count()
        pref = 2 * p * q / ((p * q - 1) * m_mass)
        const_even = pref * (sm[p] * sp[p] + sm[q] * sp[q])
        const_odd = pref * (sm[p] * sp[q] + sm[q] * sp[p])
        base = math.sqrt(p * q)
        # cumulative counts split by length parity; counts[i] has length i+1
        cum_par = []
        even_tot = odd_tot = 0
        for i, c in enumerate(series.counts):
            if (i + 1) % 2 == 0:
                even_tot += c
            else:
                odd_tot += c
            cum_par.append(even_tot if (i + 1) % 2 == 0 else odd_tot)
        ratios = []
        for i, tot in enumerate(cum_par):
            n = i + 1
            cst = const_even if n % 2 == 0 else const_odd
            try:
                ratios.append(tot / (cst * base ** n) if cst
                              else float("nan"))
            except OverflowError as exc:
                raise TooLargeError(
                    "ratio terms exceed the float range") from exc
        verdict = ("pass" if len(ratios) >= 2
                   and abs(ratios[-1] - 1) < 0.05
                   and abs(ratios[-2] - 1) < 0.05 else "fail")
        return AsymptoticReport(math.log(base), const_even, base, ratios,
                                verdict, "deg/sqrt(deg-1)",
                                constant_odd=const_odd)

    raise UnsupportedError("graph is neither regular nor biregular-bipartite")


# ---------------------------------------------------------------------------
# closed orbits


def _returns(succ, pred, e, nmax, weights=None):
    """Yield, for n = 1..nmax, the mass at e after n steps from unit mass on
    e.  Only the edges with a path back to e are stepped: other mass never
    returns, and past a dead end it would grow unchecked."""
    back, todo = {e}, [e]
    while todo:
        for i in pred[todo.pop()]:
            if i not in back:
                back.add(i)
                todo.append(i)
    succ_e = [[j for j in row if j in back] for row in succ]
    w = [0] * len(succ) if weights is None else [0.0] * len(succ)
    w[e] = 1
    for _ in range(nmax):
        w = _nb_step(succ_e, w, weights)
        yield w[e]


def _sweep(succ, pred, starts, nmax, weights=None):
    """The sum, for n = 1..nmax, of mult times the mass back at e after n
    steps from unit mass on e, over (e, mult) in ``starts``: exact without
    ``weights``, where a sum past the float range raises TooLargeError."""
    total = [0] * nmax if weights is None else [0.0] * nmax
    for e, mult in starts:
        for n, mass in enumerate(_returns(succ, pred, e, nmax, weights)):
            if mass:  # a partial Fix_n past the float range stays past it
                total[n] += mult * mass
                _as_float(total[n], f"Fix_{n + 1}")
    return total


def closed_orbit_count(graph, nmax, budget=DEFAULT_BUDGET):
    """Per-length counts of periodic non-backtracking structures.

    Returns dict with lists indexed by n-1 for n = 1..nmax:
      fix: Fix_n = #periodic admissible edge sequences = trace(B^n), exact:
        the mass the exact edge step carries from each edge back to it;
      primitive: primitive periodic sequences (Mobius inversion);
      orbits: prime orbits = primitive sequences / n (rotation classes);
      weighted: sum of e^{c} over Fix_n (floats), that is tr(B_w^n) with
        B_w[e, e'] = e^{c(e')}; float(Fix_n) when every conductance is
        zero.
    Raises BudgetError when (edge count)^2 * nmax exceeds ``budget``, and
    TooLargeError when a count or weighted trace exceeds the float range.
    """
    n_edges = graph.edge_count()
    if n_edges ** 2 * nmax > budget:
        raise BudgetError(
            f"{n_edges}^2 edge states x nmax {nmax} exceeds budget")
    graph.check_branching()
    succ = graph.nb_successors()
    rev = [graph.edge_index[graph.edges[e].reverse] for e in graph.edge_ids]
    # i -> j exactly when rev(j) -> rev(i)
    pred = [[rev[k] for k in succ[r]] for r in rev]
    # reversal (e_0, e_1, ..., e_{n-1}) -> (rev e_0, rev e_{n-1}, ...,
    # rev e_1) maps the closed words through e one-to-one onto those
    # through rev e, so the count starts from one edge of each pair, twice
    fix = _sweep(succ, pred, [(e, 2) for e in range(n_edges) if e < rev[e]],
                 nmax)
    # Mobius inversion Fix_n = sum of primitive_d over d | n, by a sieve
    primitive = list(fix)
    for d in range(1, nmax + 1):
        for m in range(2 * d, nmax + 1, d):
            primitive[m - 1] -= primitive[d - 1]
    assert all(p % n == 0 for n, p in enumerate(primitive, 1))
    orbits = [p // n for n, p in enumerate(primitive, 1)]
    return {"fix": fix, "primitive": primitive, "orbits": orbits,
            "weighted": _weighted_traces(graph, succ, pred, fix)}


def _weighted_traces(graph, succ, pred, fix):
    """tr(B_w^n) for n = 1..len(fix), the float step run from each edge:
    reversal does not keep the weights, so every edge is a start."""
    if all(graph.edges[e].conductance == 0.0 for e in graph.edge_ids):
        return [float(f) for f in fix]
    wfix = _sweep(succ, pred, [(e, 1) for e in range(len(succ))], len(fix),
                  graph.edge_weights())
    for n, value in enumerate(wfix, 1):
        # the masses are positive: an overflow stays infinite, never NaN
        if not math.isfinite(value):
            raise TooLargeError(f"weighted trace at length {n} "
                                "exceeds the float range")
    return wfix


# ---------------------------------------------------------------------------
# conjugacy-class counting


def validate_simple_cycle(graph, cycle_edges):
    """Check that a closed directed edge walk is a primitive simple cycle.

    cycle_edges: list of directed edge ids traversed in order.  Returns the
    cycle length.
    """
    if not cycle_edges:
        raise NotSimpleCycleError("empty cycle")
    for eid in cycle_edges:
        if eid not in graph.edges:
            raise GraphFormatError("dangling-reference",
                                   f"cycle names unknown edge {eid!r}")
    n = len(cycle_edges)
    for i in range(n):
        e = graph.edges[cycle_edges[i]]
        f = graph.edges[cycle_edges[(i + 1) % n]]
        if f.origin != e.terminus:
            raise NotSimpleCycleError("edge walk is not closed/consecutive")
        if cycle_edges[(i + 1) % n] == e.reverse:
            raise NotSimpleCycleError("cycle backtracks")
    # primitive: not a repetition of a shorter rotation
    for d in range(1, n):
        if n % d == 0 and all(cycle_edges[i] == cycle_edges[i % d]
                              for i in range(n)):
            raise NotSimpleCycleError("cycle is a proper power")
    # simple: visits each vertex at most once
    origins = [graph.edges[e].origin for e in cycle_edges]
    if len(set(origins)) != n:
        raise NotSimpleCycleError("cycle revisits a vertex")
    return n


def conjugacy_count(graph, basepoint, cycle_edges, nmax,
                    budget=DEFAULT_BUDGET):
    """Orbit counts in the conjugacy class of the loxodromic element whose
    axis projects to the given primitive simple cycle.

    The translate distance satisfies d(x0, g x0) = len(cycle) + 2 d(x0, axis),
    so the count at horizon n equals the cumulative number of common
    perpendiculars from the basepoint to the (unoriented) cycle of length at
    most floor((n - len)/2).  Returns the list [N(0), ..., N(nmax)].
    """
    if basepoint not in graph.vertices:
        raise GraphFormatError("dangling-reference",
                               f"no vertex named {basepoint!r}")
    lam = validate_simple_cycle(graph, cycle_edges)
    # basepoint and cycle as throwaway subgraphs
    cyc_set = set(cycle_edges) | {graph.edges[e].reverse for e in cycle_edges}
    verts = sorted({graph.edges[e].origin for e in cyc_set})
    g2 = graph.with_conductance({e: 0.0 for e in graph.edge_ids})
    g2.subgraphs["__base__"] = {"vertices": [basepoint], "edges": []}
    g2.subgraphs["__cycle__"] = {"vertices": verts, "edges": sorted(cyc_set)}

    base = 1 if basepoint in verts else 0  # zero-length perpendicular
    radius = (nmax - lam) // 2
    cum = [0]  # cum[r]: perpendiculars of length at most r
    if radius >= 1:
        cum += count_perpendiculars(
            PerpQuery(g2, "__base__", "__cycle__", radius),
            budget=budget).cumulative
    return [0 if n < lam else base + cum[(n - lam) // 2]
            for n in range(nmax + 1)]
