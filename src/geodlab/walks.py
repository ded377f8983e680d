"""Non-backtracking random walks on graphs of groups, conductance walks on
regular trees (harmonic measure, Green-kernel ratios), and the weighted
graph Laplacian.

The NBRW on a graph of groups is driven purely by the edge indices
i(e) = |G_{o(e)}|/|G_e|: from an incoming edge f at the vertex y, the next
edge f' is chosen with probability proportional to i(f') minus one if f' is
the reverse of f.  This reproduces the walk on the Bass-Serre tree pushed
to the quotient without materializing any groups.

numpy is imported inside the functions that use it: the CLI imports this
module for every verb, and the exact verbs must start without numpy.
"""

import math

from .errors import BudgetError, DegenerateError, NotTransientError, UsageError
from .seeding import derive_seed

# cap on tree_harmonic_measure's shadows, one tally and output row each
MAX_SHADOWS = 2 ** 20


class NBRWKernel:
    """Edge-to-edge transition kernel of the non-backtracking walk, stored
    by rows: the successors of edge i are ``col[start[i]:start[i + 1]]``,
    ascending, with the probabilities ``prob`` at the same positions, and
    ``row`` repeats i once for each of them."""

    def __init__(self, graph):
        import numpy as np

        self.graph = graph
        start, col, prob = [0], [], []
        for eid in graph.edge_ids:
            e = graph.edges[eid]
            row = []
            for fid in graph.out_edges(e.terminus):
                w = graph.index_i(fid) - (1 if fid == e.reverse else 0)
                if w > 0:
                    row.append((graph.edge_index[fid], w))
            tot = sum(w for _, w in row)
            if tot <= 0:
                raise DegenerateError(
                    f"walk stalls after edge {eid!r} (tree-degree <= 1)")
            col += [j for j, _ in row]
            prob += [w / tot for _, w in row]
            start.append(len(col))
        self.start = np.array(start, dtype=np.intp)
        self.col = np.array(col, dtype=np.intp)
        self.prob = np.array(prob)
        self.row = np.repeat(np.arange(len(start) - 1), np.diff(self.start))
        # vertex index of each edge's terminus, the vertex a walk stands on
        self.term = np.array([graph.vertex_index[graph.edges[eid].terminus]
                              for eid in graph.edge_ids], dtype=np.intp)

    def step(self, dist):
        """The edge law one step after ``dist``: a gather, a product and
        additions in the order of the nonzeros, with no BLAS kernel."""
        import numpy as np

        return np.bincount(self.col, weights=dist[self.row] * self.prob,
                           minlength=len(dist))

    def start_distribution(self, subname):
        """Initial edge law for a walk leaving the named subgraph: vertex
        chosen with probability proportional to 1/|G_v| inside the subgraph,
        then a uniformly weighted outgoing lift (weight i(e), excluding
        subgraph edges)."""
        import numpy as np

        g = self.graph
        sub = g.subgraph(subname)
        vset = list(sub["vertices"])
        eset = set(sub["edges"])
        vweights = np.array([1.0 / g.vertices[v].order for v in vset])
        vweights /= vweights.sum()
        dist = np.zeros(g.edge_count())
        for v, pv in zip(vset, vweights):
            opts = [(g.edge_index[eid], g.index_i(eid))
                    for eid in g.out_edges(v) if eid not in eset]
            tot = sum(w for _, w in opts)
            if tot <= 0:
                raise DegenerateError(f"no exit edges from vertex {v!r}")
            for j, w in opts:
                dist[j] += pv * w / tot
        return dist

    def vertex_pushforward(self, edge_dist):
        """Distribution of the current vertex = terminus of the last edge."""
        import numpy as np

        return np.bincount(self.term, weights=edge_dist,
                           minlength=self.graph.vertex_count())

    def target_distribution(self):
        """The limit law vol/Vol over vertices (nonbipartite case)."""
        import numpy as np

        g = self.graph
        w = np.array([1.0 / g.vertices[v].order for v in g.vertex_ids])
        return w / w.sum()


def _check_steps(n):
    if n < 1:
        raise UsageError(f"a walk needs n >= 1 edges, got {n}")


def nbrw_exact(graph, start_subgraph, n):
    """Vertex distribution after n steps of the non-backtracking walk.

    Returns dict with "vertex_dist" (aligned with graph.vertex_ids),
    "edge_dist", "target" (vol/Vol), "tv_to_target", and a "bipartite"
    warning flag (the walk then oscillates and the target is ill-posed).
    """
    _check_steps(n)
    kernel = NBRWKernel(graph)
    dist = kernel.start_distribution(start_subgraph)
    for _ in range(n - 1):
        dist = kernel.step(dist)
    vdist = kernel.vertex_pushforward(dist)
    target = kernel.target_distribution()
    rep = graph.volumes()
    return {
        "vertex_dist": vdist,
        "edge_dist": dist,
        "target": target,
        "tv_to_target": 0.5 * float(abs(vdist - target).sum()),
        "bipartite": rep.bipartite,
    }


def _successor_table(kernel):
    """Row-local inverse-CDF lookup table over the kernel's nonzeros.

    Returns (keys, first, last, succ).  Row i with successors j_1 < ... <
    j_k has the keys keys[m, i] = i + s_m for m < k, s_m being the running
    sum P[i, j_1] + ... + P[i, j_{m+1}], and ``inf`` past them up to the
    largest k of any row.  ``succ`` lists j_1..j_k of each row in turn, at
    ``first[i]`` to ``last[i]``: one entry per nonzero of P.  For u in
    [0, 1) the first key of row i above i + u selects j with probability
    P[i, j].  The last key of row i is set to exactly i + 1, so rounding in
    the sums can never reach a zero entry; ``last[i]`` clamps the pick when
    i + u rounds up to i + 1.
    """
    import numpy as np

    start, row = kernel.start, kernel.row
    sizes = np.diff(start)
    rows = np.arange(len(sizes))
    slot = np.arange(len(row)) - start[row]  # position of a nonzero in its row
    cum = np.zeros((sizes.max(), len(sizes)))
    cum[slot, row] = kernel.prob
    cum = np.cumsum(cum, axis=0)  # down each column, one row's sums
    cum[sizes - 1, rows] = 1.0
    keys = np.full_like(cum, np.inf)
    keys[slot, row] = row + cum[slot, row]
    return keys, start[:-1], start[1:] - 1, kernel.col


def _nbrw_step(table, state, u):
    """Next edge of each walk on edge ``state`` with uniform draw ``u``:
    the successor under the first key of its row above state + u."""
    import numpy as np

    keys, first, last, succ = table
    x = state + u
    pos = first[state]
    for row_keys in keys:
        pos += row_keys[state] <= x
    return succ[np.minimum(pos, last[state], out=pos)]


def nbrw_sample(graph, start_subgraph, n, reps, seed):
    """Monte-Carlo version of nbrw_exact: empirical vertex distribution.

    Vectorized over paths, one table lookup per path and step; the per-call
    RNG stream is derived from the seed so identical (seed, reps,
    parameters) reruns are bit-identical.
    """
    import numpy as np

    _check_steps(n)
    if reps < 1:
        raise UsageError(f"need reps >= 1 sampled paths, got {reps}")
    kernel = NBRWKernel(graph)
    rng = np.random.Generator(np.random.Philox(derive_seed(seed, 0)))
    start = kernel.start_distribution(start_subgraph)
    state = rng.choice(graph.edge_count(), size=reps, p=start)
    table = _successor_table(kernel)
    for _ in range(n - 1):
        state = _nbrw_step(table, state, rng.random(reps))
    tallies = np.bincount(kernel.term[state], minlength=graph.vertex_count())
    return {"tallies": tallies, "empirical": tallies / reps, "reps": reps}


# ---------------------------------------------------------------------------
# walks on the (q+1)-regular tree


def _check_tree_walk(q, reps):
    if q < 2:
        raise NotTransientError(
            f"q = {q}: the simple walk on the (q+1)-regular tree is "
            "recurrent for q < 2")
    if reps < 1:
        raise UsageError(f"need reps >= 1 sampled paths, got {reps}")


def _returns_to_parent(rng, q, size):
    """Exact last-exit draw for ``size`` walks that have just stepped from
    depth k - 1 to depth k >= 1 of the (q+1)-regular tree: True where the
    walk ever comes back to depth k - 1.

    The distance to the parent moves away with probability q/(q+1) at every
    step, so the walk returns with probability exactly 1/q.  By the strong
    Markov property a walk that returns stands at the parent with no memory
    of its excursion, and one that does not stays below its vertex forever.
    """
    return rng.random(size) < 1.0 / q


def _tree_steps(rng, q, size):
    """One uniform step draw per walk.  Away from the root s = 0 steps to
    the parent and s >= 1 to the child s - 1; at the root, which has q + 1
    children and no parent, s is the child."""
    import numpy as np

    return np.minimum((rng.random(size) * (q + 1)).astype(np.int64), q)


def tree_harmonic_measure(q, depth, reps, seed):
    """Monte-Carlo mass of each depth-d shadow under the exit law of the
    simple random walk on the (q+1)-regular tree (the c=0 case, where the
    harmonic measure is the normalised sphere measure).

    The walk starts at the root and moves inside the ball of radius
    ``depth``.  Each time it steps onto the shadow level it makes one exact
    last-exit draw (``_returns_to_parent``): with probability 1/q it comes
    back to the parent and walks on, otherwise it escapes below the vertex
    it stands on, which is then its shadow.  Nothing is truncated, so the
    estimates are unbiased.  Shadows are numbered as vertices of the
    sphere: a first label in 0..q (the root's child), then one in 0..q-1
    per further level.

    Returns dict with "estimates" (per shadow), "target", "sigma"
    (per-shadow CLT standard error) and "n_shadows".
    """
    import numpy as np

    _check_tree_walk(q, reps)
    if depth < 1:
        raise UsageError(f"shadow depth must be >= 1, got {depth}")
    # q >= 2, so a depth beyond the cap's bit length is over the cap too
    n_shadows = (q + 1) * q ** (min(depth, MAX_SHADOWS.bit_length()) - 1)
    if n_shadows > MAX_SHADOWS:
        raise BudgetError(f"q = {q}, depth = {depth}: over {MAX_SHADOWS} shadows")
    rng = np.random.Generator(np.random.Philox(derive_seed(seed, 1)))

    target = 1.0 / n_shadows
    tallies = np.zeros(n_shadows, dtype=np.int64)

    batch = min(reps, 200_000)
    done = 0
    while done < reps:
        b = min(batch, reps - done)
        # walks still inside the ball: their level, and their vertex's
        # index in that level's sphere (the shadow code at level depth;
        # meaningless at the root, whose next step overwrites it)
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
            ret = edge[_returns_to_parent(rng, q, edge.size)]
            level[ret] -= 1
            node[ret] //= q
            inside = level < depth
            escaped.append(node[~inside])
            node, level = node[inside], level[inside]
        tallies += np.bincount(np.concatenate(escaped), minlength=n_shadows)
        done += b

    est = tallies / reps
    sigma = math.sqrt(target * (1 - target) / reps)
    return {"estimates": est, "target": target, "sigma": sigma,
            "n_shadows": n_shadows}


def green_ratio_check(q, d_xy, d_xz, reps, seed):
    """Monte-Carlo ratio of Green kernels G(x,y)/G(x,z) for points y, z on a
    common ray from x at distances d_xy, d_xz on the (q+1)-regular tree.

    G(x, y) is the expected number of visits to y of the simple walk from
    x, the visit at time 0 included.  The walk moves inside the ball of
    radius dmax = max(d_xy, d_xz); each time it steps to depth dmax + 1 it
    makes one exact last-exit draw (``_returns_to_parent``): with
    probability 1/q it comes back to its parent at depth dmax, otherwise it
    escapes and can visit neither point again.  Nothing is truncated.

    Expected ratio for the simple walk: q^{-(d_xy - d_xz)}.  Returns
    estimate, target, and a delta-method standard error for the ratio.
    """
    import numpy as np

    _check_tree_walk(q, reps)
    if d_xy < 0 or d_xz < 0:
        raise UsageError("distances must be >= 0")
    dmax = max(d_xy, d_xz)
    rng = np.random.Generator(np.random.Philox(derive_seed(seed, 2)))

    visits_y = np.full(reps, d_xy == 0, dtype=np.int64)
    visits_z = np.full(reps, d_xz == 0, dtype=np.int64)

    batch = min(reps, 100_000)
    done = 0
    while done < reps:
        b = min(batch, reps - done)
        # per walk still inside the ball: distance to the root, and the
        # length of the prefix it shares with the distinguished ray; it is
        # on the ray iff the two agree
        walk = np.arange(done, done + b)
        dist = np.zeros(b, dtype=np.int64)
        ray = np.zeros(b, dtype=np.int64)
        while walk.size:
            s = _tree_steps(rng, q, walk.size)
            at_root = dist == 0
            back = (s == 0) & ~at_root
            # child 0 continues along the ray
            along = (ray == dist) & (s == np.where(at_root, 0, 1))
            dist += np.where(back, -1, 1)
            ray = np.where(back, np.minimum(ray, dist),
                           np.where(along, dist, ray))
            edge = np.flatnonzero(dist > dmax)
            ret = edge[_returns_to_parent(rng, q, edge.size)]
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
    # delta method for the variance of the ratio of means
    var_y = visits_y.var() / reps
    var_z = visits_z.var() / reps
    cov = np.cov(visits_y, visits_z)[0, 1] / reps
    sigma = ratio * math.sqrt(max(var_y / my ** 2 + var_z / mz ** 2
                                  - 2 * cov / (my * mz), 0.0))
    target = math.exp(-math.log(q) * (d_xy - d_xz))
    return {"ratio": float(ratio), "target": target, "sigma": float(sigma),
            "mean_visits_y": float(my), "mean_visits_z": float(mz)}


# ---------------------------------------------------------------------------
# weighted Laplacian


def laplacian_matrices(graph):
    """Delta for the conductance Laplacian, as a list of rows aligned with
    ``graph.vertex_ids``.

    Delta f(x) = (1/deg_c(x)) sum_{o(e)=x} i(e) e^{c(e)} (f(x) - f(t(e)))
    with deg_c(x) = sum_{o(e)=x} i(e) e^{c(e)}.
    """
    nv = graph.vertex_count()
    w = {eid: graph.index_i(eid) * weight
         for eid, weight in zip(graph.edge_ids, graph.edge_weights())}
    degc = {v: sum(w[eid] for eid in graph.out_edges(v))
            for v in graph.vertex_ids}
    for v, dv in degc.items():
        if dv <= 0:
            raise DegenerateError(f"vertex {v!r} has zero weighted degree")

    Delta = [[0.0] * nv for _ in range(nv)]
    for v in graph.vertex_ids:
        i = graph.vertex_index[v]
        row = Delta[i]
        for eid in graph.out_edges(v):
            j = graph.vertex_index[graph.edges[eid].terminus]
            row[i] += w[eid] / degc[v]
            row[j] -= w[eid] / degc[v]
    return Delta
