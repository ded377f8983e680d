"""Counting common perpendiculars, closed orbits, and conjugacy-class
orbits on finite graphs, with the explicit asymptotic constants.

A common perpendicular between subgraphs Y- and Y+ is a non-backtracking
edge path that starts at a vertex of Y- without using an edge of Y-,
and arrives at a vertex of Y+ without using an edge of Y+: in the tree, from
one lift of each vertex of Y- to any lift of Y+.  Counts are exact big
integers when all conductances vanish.  Every step of the counting and
closed-orbit programs is the push w -> wB over the successor rows, through
one ``graphs.ScatterAdd`` plan with one entry per pair (f, m): exact big
integers times the ways m, or float masses times m e^{c(f)}.  Budgets
count the ways, the sum of m over the pairs.
"""

import math

from .errors import (
    GraphFormatError,
    NotSimpleCycleError,
    TooLargeError,
    UnsupportedError,
    charge,
)
from .graphs import ScatterAdd, _entries, _ways, _weighted, fold_sum
from .shift import EdgeShift, _dot, _perron


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

    __slots__ = ("counts", "weighted", "cumulative")

    def __init__(self, counts, weighted):
        self.counts = list(counts)
        self.weighted = list(weighted)
        self.cumulative = []
        tot = 0
        for c in self.counts:
            tot += c
            self.cumulative.append(tot)


class AsymptoticReport:
    """Growth rho and period d of the edge step, the constant C_c of each
    residue class c of (length - 1) mod d, the ratio of each cumulative
    count to its constant times rho^length, and the pass/fail verdict."""

    __slots__ = ("growth", "period", "constants", "ratios", "verdict")

    def __init__(self, growth, period, constants, ratios, verdict):
        self.growth = growth
        self.period = period
        self.constants = constants
        self.ratios = ratios
        self.verdict = verdict


def _ends(g, minus, plus):
    """The first edges e of a perpendicular with their start masses i(e)
    (``GraphOfGroups.exits``), and its last edges, the reverses of the
    edges that leave Y+: (index, i(e)) pairs and indices, ascending."""
    first = [(g.edge_index[e], m) for e, m in g.exits(minus)]
    last = sorted(g.edge_index[g.edges[e].reverse] for e, _ in g.exits(plus))
    return first, last


def _as_float(count, what):
    try:
        return float(count)
    except OverflowError as exc:
        raise TooLargeError(f"{what} exceeds the float range") from exc


def count_perpendiculars(query):
    """Dynamic programming over directed-edge states.

    Exact (big-integer) when all conductances are zero, float-weighted
    otherwise.  Entry n (1-based length) of the returned CountSeries is the
    number / weighted mass of perpendiculars of length exactly n.
    Raises BudgetError when (successor ways) * nmax, which bounds the
    entry steps the DP takes, exceeds the budget (10^8).
    """
    g = query.graph
    n_edges = g.edge_count()
    succ = g.nb_successors()
    charge("(successor ways) * nmax entry steps",
           _ways(succ) * query.nmax, 10 ** 8)
    start, end_idx = _ends(g, query.minus, query.plus)
    exact = all(g.edges[e].conductance == 0.0 for e in g.edge_ids)
    weights = None if exact else g.edge_weights()
    w = [0] * n_edges if exact else [0.0] * n_edges
    for i, m in start:
        w[i] = m if exact else m * weights[i]

    rows, cols, ways = _entries(succ)
    step = ScatterAdd(cols, rows, ways if exact else
                      _weighted(weights, cols, ways), n_edges)
    counts, weighted = [], []
    for n in range(1, query.nmax + 1):
        harvest = fold_sum(w[i] for i in end_idx)
        if exact:
            counts.append(harvest)
            weighted.append(_as_float(harvest, f"count at length {n}"))
        else:
            counts.append(0)
            weighted.append(float(harvest))
        if n < query.nmax:
            w = step(w)
    return CountSeries(counts, weighted)


# ---------------------------------------------------------------------------
# theoretical counting constants


def _period(succ):
    """(d, cls): the period d of an irreducible edge step and the cyclic
    class of each edge, numbered so that every step goes from class c to
    class c + 1 mod d.  With levels from one breadth-first search, d is the
    gcd of level(i) + 1 - level(j) over the steps i -> j."""
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


def theoretical_constant(query, series):
    """Asymptotic constants of the cumulative perpendicular counts, from
    the Perron data (rho, r, l) of the edge step B, plus the ratio series
    of ``series`` = count_perpendiculars(query) against them.

    B of period d has the d peripheral eigenvalues rho w^k, w^d = 1, so
    the count at length n is about d rho^(n-1) / (l.r) times the sum S_c of
    r_e l_f over the first edges e and last edges f with cls(f) - cls(e) =
    c = (n-1) mod d: r and l on those edges are the skinning measures, l.r
    the Bowen-Margulis mass.  Summed over the lengths n' <= n with n' = n
    mod d, that is C_c rho^n with

        C_c = d rho^(d-1) S_c / ((rho^d - 1) (l.r)).

    The ratio at n is nan in a class with no perpendiculars (C_c = 0).
    All conductances must vanish.  Raises UnsupportedError for a reducible
    B or rho <= 1, DegenerateError for a vertex of tree-degree <= 1,
    BudgetError when the power iteration needs more steps than the budget
    (10^8) over the successor ways, and TooLargeError when a ratio's terms
    exceed the float range.
    """
    g = query.graph
    if any(g.edges[e].conductance != 0.0 for e in g.edge_ids):
        raise UnsupportedError("constants implemented for zero conductance")
    shift = EdgeShift.from_graph(g)
    if not shift.is_irreducible():
        raise UnsupportedError("the edge step is reducible")
    rho, r, l = _perron(shift)
    if rho <= 1:
        raise UnsupportedError("the edge step has no exponential growth")
    d, cls = _period(shift.succ)
    # r summed over the first edges with their start masses and l over the
    # last edges, per class
    first, last = _ends(g, query.minus, query.plus)
    r_cls, l_cls = [0.0] * d, [0.0] * d
    for i, m in first:
        r_cls[cls[i]] += m * r[i]
    for i in last:
        l_cls[cls[i]] += l[i]
    pref = d * rho ** (d - 1) / ((rho ** d - 1) * _dot(l, r))
    constants = [pref * fold_sum(r_cls[a] * l_cls[(a + c) % d]
                                 for a in range(d))
                 for c in range(d)]
    cum, ratios = [0] * d, []
    for n, count in enumerate(series.counts, 1):
        c = (n - 1) % d
        cum[c] += count
        try:
            scale = constants[c] * rho ** n
            if math.isinf(scale):
                raise OverflowError("C_c rho^n is infinite")
            ratios.append(cum[c] / scale if constants[c] else math.nan)
        except OverflowError as exc:
            raise TooLargeError("ratio terms exceed the float range") from exc
    # the last ratio of each residue class with perpendiculars
    last = [x for x in ratios[-d:] if not math.isnan(x)]
    verdict = ("pass" if last and all(abs(x - 1) < 0.05 for x in last)
               else "fail")
    return AsymptoticReport(rho, d, constants, ratios, verdict)


# ---------------------------------------------------------------------------
# closed orbits


def _sweep(succ, starts, nmax, weights=None):
    """The sum, for n = 1..nmax, of mult times the mass back at e after n
    steps from unit mass on e, over (e, mult) in ``starts``: exact without
    ``weights`` (``_packed_sweep``), float masses, one sweep per start,
    with them.  No mass strays to edges that cannot come back: with tree
    degrees >= 2 the walk that takes each successor way with equal
    probability keeps the measure 1/|G_f| > 0, so every edge recurs."""
    if weights is None:
        return _packed_sweep(succ, starts, nmax)
    rows, cols, ways = _entries(succ)
    step = ScatterAdd(cols, rows, _weighted(weights, cols, ways), len(succ))
    total = [0.0] * nmax
    for e, mult in starts:
        w = [0.0] * len(succ)
        w[e] = 1
        for n in range(nmax):
            w = step(w)
            if w[e]:
                total[n] += mult * w[e]
    return total


def _slot_bits(succ, nmax):
    """The bits of one start's slot in ``_packed_sweep``, one more than the
    largest mass it forms needs.

    After n steps from unit mass every edge holds at most L^n, L the most
    ways of a row (not its pairs: one pair may hold all of its ways).  The
    sweep stops at the first Fix_n past the float range, below 2^1024, and
    an edge that holds mass m after n steps sends it back to the start
    within d <= E steps (every edge recurs; E edges), so Fix_{n+d} >= m: no
    mass the sweep forms is above 2^1024 L^(E+1)."""
    ways = max(sum(m for _, m in row) for row in succ)
    edges = len(succ)
    # for L >= 2, L^n is past the second bound by n = E + 1025
    bound = min(ways ** min(nmax, edges + 1025), ways ** (edges + 1) << 1024)
    return bound.bit_length() + 1


def _packed_sweep(succ, starts, nmax):
    """``_sweep``'s exact sums in one sweep for all starts.

    Start k owns bits [k b, (k + 1) b) of every edge's mass, b =
    ``_slot_bits``: the masses are non-negative and each fits its slot, so
    the exact integer step adds every slot on its own, and the mass back at
    the k-th start edge is read off its own slot.  Raises TooLargeError at
    the first n whose Fix_n is past the float range."""
    bits = _slot_bits(succ, nmax)
    mask = (1 << bits) - 1
    w = [0] * len(succ)
    for k, (e, _) in enumerate(starts):
        w[e] += 1 << (k * bits)
    rows, cols, ways = _entries(succ)
    step = ScatterAdd(cols, rows, ways, len(succ))
    total = [0] * nmax
    for n in range(nmax):
        w = step(w)
        fix = 0
        for k, (e, mult) in enumerate(starts):
            fix += mult * ((w[e] >> (k * bits)) & mask)
        total[n] = fix
        _as_float(fix, f"Fix_{n + 1}")
    return total


def closed_orbit_count(graph, nmax):
    """Per-length counts of periodic non-backtracking structures.

    Returns dict with lists indexed by n-1 for n = 1..nmax:
      fix: Fix_n = trace(B^n), exact: the mass the exact edge step
        carries from each edge back to it (closed paths of lifts);
      primitive: primitive periodic sequences (Mobius inversion);
      orbits: prime orbits = primitive sequences / n (rotation classes);
      weighted: sum of e^{c} over Fix_n (floats), that is tr(B_w^n) with
        B_w[e, e'] = B[e, e'] e^{c(e')}; float(Fix_n) when every
        conductance is zero.
    Raises BudgetError when (edge count) * (successor ways) * nmax, which
    bounds the entry steps of a sweep from every edge, exceeds the budget
    (10^8), and TooLargeError when a count or weighted trace exceeds the
    float range.
    """
    n_edges = graph.edge_count()
    succ = graph.nb_successors()
    charge("(edges) * (successor ways) * nmax entry steps",
           n_edges * _ways(succ) * nmax, 10 ** 8)
    graph.check_branching()
    rev = [graph.edge_index[graph.edges[e].reverse] for e in graph.edge_ids]
    # reversal (e_0, e_1, ..., e_{n-1}) -> (rev e_0, rev e_{n-1}, ...,
    # rev e_1) maps the closed words through e onto those through rev e,
    # multiplicity kept (B[e, f] |G_f| = B[rev f, rev e] |G_e|), so the
    # count starts from one edge of each pair, twice
    fix = _sweep(succ, [(e, 2) for e in range(n_edges) if e < rev[e]], nmax)
    # Mobius inversion Fix_n = sum of primitive_d over d | n, by a sieve
    primitive = list(fix)
    for d in range(1, nmax + 1):
        for m in range(2 * d, nmax + 1, d):
            primitive[m - 1] -= primitive[d - 1]
    assert all(p % n == 0 for n, p in enumerate(primitive, 1))
    orbits = [p // n for n, p in enumerate(primitive, 1)]
    return {"fix": fix, "primitive": primitive, "orbits": orbits,
            "weighted": _weighted_traces(graph, succ, fix)}


def _weighted_traces(graph, succ, fix):
    """tr(B_w^n) for n = 1..len(fix), the float step run from each edge:
    reversal does not keep the weights, so every edge is a start."""
    if all(graph.edges[e].conductance == 0.0 for e in graph.edge_ids):
        return [float(f) for f in fix]
    wfix = _sweep(succ, [(e, 1) for e in range(len(succ))], len(fix),
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


def conjugacy_count(graph, basepoint, cycle_edges, nmax):
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
            PerpQuery(g2, "__base__", "__cycle__", radius)).cumulative
    return [0 if n < lam else base + cum[(n - lam) // 2]
            for n in range(nmax + 1)]
