"""Non-backtracking random walks on graphs of groups, conductance walks on
regular trees (harmonic measure, Green-kernel ratios), and the weighted
graph Laplacian.

The NBRW on a graph of groups steps over the rows of
``GraphOfGroups.nb_successors``: after an edge it takes each entry of its
row with equal probability, so an edge listed m times in a row of L entries
has probability m/L.  This is the walk on the Bass-Serre tree pushed to the
quotient, without materializing any groups.  The exact law merges each
row's repeats into probabilities m/L; the sampler keeps the rows as they
are and moves a path on a row of L entries to entry floor(u L) for one
uniform u.

Every walk checks its steps (paths times steps, or successor entries times
steps for the exact law) against a budget before it draws or allocates.

Every sampler reads its draws from one Philox stream, and each walk reads
its own fixed positions of it, so a rerun with the same seed prints the
same bytes.  Philox is counter-based: ``_positioned`` starts a generator at
any draw of the stream without drawing the ones before.  So the kernels
step their walks in chunks of ``CHUNK`` and keep every draw buffer and
temporary chunk-long; a chunk reads its draws where the whole set of walks
would have read them in one pass.  The tree walks keep only their state
batch-long (a fixed batch size); the NBRW keeps nothing as long as its
paths.

numpy is imported inside the functions that use it: the CLI imports this
module for every verb, and the exact verbs must start without numpy.  The
kernels step over successor lists or run elementwise numpy and make no
BLAS call.  So the CLI loads numpy with one OpenBLAS thread (see cli.py),
and a thread count the user sets changes no printed float.
"""

import itertools
import math

from .errors import BudgetError, DegenerateError, NotTransientError, \
    TooLargeError, UsageError
from .seeding import derive_seed

# cap on tree_harmonic_measure's shadows, one tally and output row each
MAX_SHADOWS = 2 ** 20
# the largest q + 1 whose step draw floor(u (q + 1)) reaches every child:
# a double u < 1 is a multiple of 2^-53
MAX_TREE_DEGREE = 2 ** 53
# walks stepped at once: the length of every draw buffer and temporary
CHUNK = 2 ** 14


class NBRWKernel:
    """Edge-to-edge transition kernel of the non-backtracking walk, read
    from one ``nb_successors`` call and stored twice.

    - Merged, for the exact law: the successors of edge i are
      ``col[start[i]:start[i + 1]]``, ascending, with the probabilities
      ``prob`` at the same positions, and ``row`` repeats i once for each.
    - Unmerged, for the sampler: the rows end to end in ``entries``, row i
      at ``entries[offset[i]:offset[i] + length[i]]``.
    """

    def __init__(self, graph):
        import numpy as np

        graph.check_branching()
        self.graph = graph
        rows = graph.nb_successors()
        self.entries = np.array(list(itertools.chain.from_iterable(rows)),
                                dtype=np.intp)
        self.length = np.array([len(succ) for succ in rows], dtype=np.intp)
        self.offset = np.cumsum(self.length) - self.length
        start, col, prob = [0], [], []
        for succ in rows:
            # a run of m equal entries in a row of L: one entry, m / L
            for j, run in itertools.groupby(succ):
                col.append(j)
                prob.append(len(list(run)) / len(succ))
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
        then one of the lifts of its exit edges uniformly: e with weight
        i(e) (``GraphOfGroups.exits``)."""
        import numpy as np

        g = self.graph
        vset = list(g.subgraph(subname)["vertices"])
        exits = {v: [] for v in vset}
        for eid, m in g.exits(subname):
            exits[g.edges[eid].origin].append((g.edge_index[eid], m))
        vweights = np.array([1.0 / g.vertices[v].order for v in vset])
        vweights /= vweights.sum()
        dist = np.zeros(g.edge_count())
        for v, pv in zip(vset, vweights):
            tot = sum(w for _, w in exits[v])
            if tot <= 0:
                raise DegenerateError(f"no exit edges from vertex {v!r}")
            for j, w in exits[v]:
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


def _check_work(what, work, budget):
    """BudgetError when ``work``, the steps ``what`` names, is over the
    budget."""
    if work > budget:
        raise BudgetError(f"{what} = {work} steps exceeds the budget "
                          f"{budget}")


def nbrw_exact(graph, start_subgraph, n, budget=10 ** 8):
    """Vertex distribution after n steps of the non-backtracking walk, at
    most (successor entries) * n entry steps under ``budget``.

    Returns dict with "vertex_dist" (aligned with graph.vertex_ids),
    "target" (vol/Vol), "tv_to_target", and a "bipartite" warning flag
    (the walk then oscillates and the target is ill-posed).
    """
    _check_steps(n)
    kernel = NBRWKernel(graph)
    _check_work("successor entries * n", len(kernel.entries) * n, budget)
    dist = kernel.start_distribution(start_subgraph)
    for _ in range(n - 1):
        dist = kernel.step(dist)
    vdist = kernel.vertex_pushforward(dist)
    target = kernel.target_distribution()
    rep = graph.volumes()
    return {
        "vertex_dist": vdist,
        "target": target,
        "tv_to_target": 0.5 * float(abs(vdist - target).sum()),
        "bipartite": rep.bipartite,
    }


def _philox_key(seed, index):
    """The Philox key of substream ``index`` of ``seed``."""
    import numpy as np

    return np.random.Philox(derive_seed(seed, index)).state["state"]["key"]


def _positioned(key, pos):
    """A generator whose k-th draw is draw pos + k of the Philox stream of
    ``key``, with none of the first pos drawn.  Philox makes four doubles
    from each value of its counter, so the generator advances the counter
    pos // 4 times and discards the first pos % 4 draws of the next
    block."""
    import numpy as np

    bits = np.random.Philox(key=key)
    # advance rejects numpy integers
    bits.advance(int(pos) // 4)
    rng = np.random.Generator(bits)
    rng.random(pos % 4)
    return rng


def nbrw_sample(graph, start_subgraph, n, reps, seed, budget=10 ** 8):
    """Monte-Carlo version of nbrw_exact: empirical vertex distribution of
    reps paths, reps * n under ``budget``.

    Path i starts on the first edge whose entry of the start law's
    cumulative sums is above draw i of the stream (the inverse CDF that
    ``Generator.choice`` applies).  At step t it reads draw t * reps + i,
    u, and moves from edge e to entry floor(u L) of e's row of L entries,
    which is below L for every double u < 1 while L <= 2^53 (rows hold at
    most graphs.MAX_SUCCESSORS).  The paths run in chunks of ``CHUNK``, one
    chunk through all its steps before the next, so every buffer is
    chunk-long whatever ``reps`` is; a chunk reads each step's draws at
    their own positions.  The stream is derived from the seed, so
    identical (seed, reps, parameters) reruns are bit-identical.
    """
    import numpy as np

    _check_steps(n)
    if reps < 1:
        raise UsageError(f"need reps >= 1 sampled paths, got {reps}")
    _check_work("reps * n", reps * n, budget)
    kernel = NBRWKernel(graph)
    key = _philox_key(seed, 0)
    cdf = kernel.start_distribution(start_subgraph).cumsum()
    cdf /= cdf[-1]
    tallies = np.zeros(graph.vertex_count(), dtype=np.int64)
    # two buffers refilled at each step: once floor(u L) is in pick, the
    # draws' bytes hold the row offsets.  Every index is in range, and
    # mode="wrap" gathers without the copy that mode="raise" makes.
    u_buf = np.empty(min(reps, CHUNK))
    pick_buf = np.empty(len(u_buf), dtype=np.intp)
    base_buf = u_buf.view(np.intp)
    for a in range(0, reps, CHUNK):
        m = min(CHUNK, reps - a)
        u, pick, base = u_buf[:m], pick_buf[:m], base_buf[:m]
        state = cdf.searchsorted(_positioned(key, a).random(out=u),
                                 side="right")
        for t in range(1, n):
            _positioned(key, t * reps + a).random(out=u)
            u *= np.take(kernel.length, state, out=pick, mode="wrap")
            np.copyto(pick, u, casting="unsafe")
            pick += np.take(kernel.offset, state, out=base, mode="wrap")
            np.take(kernel.entries, pick, out=state, mode="wrap")
        np.take(kernel.term, state, out=pick, mode="wrap")
        tallies += np.bincount(pick, minlength=len(tallies))
    return {"tallies": tallies, "empirical": tallies / reps, "reps": reps}


# ---------------------------------------------------------------------------
# walks on the (q+1)-regular tree


def _check_tree_walk(q, reps):
    if q < 2:
        raise NotTransientError(
            f"q = {q}: the simple walk on the (q+1)-regular tree is "
            "recurrent for q < 2")
    if q + 1 > MAX_TREE_DEGREE:
        raise TooLargeError(f"q = {q}: the step draw reaches every child "
                            f"only for q + 1 <= {MAX_TREE_DEGREE}")
    if reps < 1:
        raise UsageError(f"need reps >= 1 sampled paths, got {reps}")


def _returns_to_parent(rng, q, u):
    """Exact last-exit draw for walks that have just stepped from depth
    k - 1 to depth k >= 1 of the (q+1)-regular tree, one uniform per walk
    drawn into the float buffer ``u``: True where the walk ever comes back
    to depth k - 1.

    The distance to the parent moves away with probability q/(q+1) at every
    step, so the walk returns with probability exactly 1/q.  By the strong
    Markov property a walk that returns stands at the parent with no memory
    of its excursion, and one that does not stays below its vertex forever.
    """
    return rng.random(out=u) < 1.0 / q


def _tree_steps(rng, q, u, s):
    """Fill ``s`` with one uniform step draw per walk, drawn into the float
    buffer ``u`` of the same length.  Away from the root s = 0 steps to the
    parent and s >= 1 to the child s - 1; at the root, which has q + 1
    children and no parent, s is the child."""
    import numpy as np

    rng.random(out=u)
    np.multiply(u, q + 1, out=u)
    np.copyto(s, u, casting="unsafe")
    return np.minimum(s, q, out=s)


def _draw_returns(rng, q, edge, u):
    """Keep True in the mask ``edge`` only for the walks whose last-exit
    draw returns them, drawn in order over the walks it marks."""
    import numpy as np

    edge[edge] = _returns_to_parent(rng, q, u[:np.count_nonzero(edge)])
    return edge


def tree_harmonic_measure(q, depth, reps, seed, budget=10 ** 8):
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

    A walk takes at least ``depth`` steps, and reps * depth must be within
    ``budget``.  Walks run in batches of at most 200,000, whose state is an
    int8 level and an int32 vertex index per walk (the ``MAX_SHADOWS`` cap
    lets them hold every value); the front of the state holds the walks
    still inside the ball.  A pass steps each of them once, chunk by
    chunk.  If a pass starts at draw P of the stream with ``alive`` walks,
    the step draws of chunk [a, b) are draws P + a ... P + b - 1, and the
    walks of all chunks that reach the shadow level read their last-exit
    draws in order from P + alive on.  So two cursors read the pass, and
    the next one starts where the second stops.

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
    _check_work("reps * depth", reps * depth, budget)
    key = _philox_key(seed, 1)

    target = 1.0 / n_shadows
    tallies = np.zeros(n_shadows, dtype=np.int64)

    batch = min(reps, 200_000)
    # per walk: its level, and its vertex's index in that level's sphere
    # (the shadow code at level depth; meaningless at the root, whose next
    # step overwrites it)
    level_buf = np.empty(batch, dtype=np.int8)
    node_buf = np.empty(batch, dtype=np.int32)
    u_buf = np.empty(min(batch, CHUNK))
    s_buf = np.empty(len(u_buf), dtype=np.int32)
    # rng reads the step draws of the pass that starts at draw pos
    pos, rng = 0, _positioned(key, 0)
    for done in range(0, reps, batch):
        alive = min(batch, reps - done)
        level_buf[:alive] = 0
        node_buf[:alive] = 0
        while alive:
            # one chunk reads its returns right after its steps
            ret_rng = rng if alive <= CHUNK else _positioned(key, pos + alive)
            kept = hits = 0
            for a in range(0, alive, CHUNK):
                m = min(CHUNK, alive - a)
                level, node = level_buf[a:a + m], node_buf[a:a + m]
                u = u_buf[:m]
                s = _tree_steps(rng, q, u, s_buf[:m])
                at_root = level == 0
                back = s == 0
                back &= ~at_root
                # node * q + s - 1 after a step forward, node // q after
                # one back, s from the root: blended by the masks, which is
                # faster than a masked ufunc or np.where on a random mask
                up = node // q
                node *= q
                node += s
                node -= 1
                up -= node
                up *= back
                node += up
                s -= node
                s *= at_root
                node += s
                level += 1
                level -= back
                level -= back
                edge = level == depth
                hits += np.count_nonzero(edge)
                ret = _draw_returns(ret_rng, q, edge, u)
                level -= ret
                up = node // q
                up -= node
                up *= ret
                node += up
                inside = level < depth
                # one add per escape: a bincount would cost n_shadows per
                # chunk
                np.add.at(tallies, node[~inside], 1)
                k = np.count_nonzero(inside)
                node_buf[kept:kept + k] = node[inside]
                level_buf[kept:kept + k] = level[inside]
                kept += k
            pos += alive + hits
            rng, alive = ret_rng, kept

    est = tallies / reps
    sigma = math.sqrt(target * (1 - target) / reps)
    return {"estimates": est, "target": target, "sigma": sigma,
            "n_shadows": n_shadows}


def green_ratio_check(q, d_xy, d_xz, reps, seed, budget=10 ** 8):
    """Monte-Carlo ratio of Green kernels G(x,y)/G(x,z) for points y, z on a
    common ray from x at distances d_xy, d_xz on the (q+1)-regular tree.

    G(x, y) is the expected number of visits to y of the simple walk from
    x, the visit at time 0 included.  The walk moves inside the ball of
    radius dmax = max(d_xy, d_xz); each time it steps to depth dmax + 1 it
    makes one exact last-exit draw (``_returns_to_parent``): with
    probability 1/q it comes back to its parent at depth dmax, otherwise it
    escapes and can visit neither point again.  Nothing is truncated.  A
    walk takes at least dmax + 1 steps, and reps * (dmax + 1) must be
    within ``budget``.

    Walks run in batches of at most 100,000, stepped chunk by chunk and
    drawn in the order of ``tree_harmonic_measure``; each keeps its visits
    Y, Z to y and z, its distance to x and the length of the prefix it
    shares with the ray in batch-long columns.  The visits of each escaped
    walk add to exact integer sums of Y, Z, Y^2, Z^2 and YZ, so the memory
    is the batch's whatever ``reps`` is.  Each moment is one rounding of
    its exact value: the means and variances divide by reps, the
    covariance by reps - 1 (nan for one walk).

    Expected ratio for the simple walk: q^{-(d_xy - d_xz)}.  Returns
    estimate, target, and a delta-method standard error for the ratio.
    """
    import numpy as np

    _check_tree_walk(q, reps)
    if d_xy < 0 or d_xz < 0:
        raise UsageError("distances must be >= 0")
    dmax = max(d_xy, d_xz)
    _check_work("reps * (dmax + 1)", reps * (dmax + 1), budget)
    key = _philox_key(seed, 2)

    sy = sz = syy = szz = syz = 0
    batch = min(reps, 100_000)
    # per walk still inside the ball: its visits to y and z so far, its
    # distance to the root, and the length of the prefix it shares with
    # the distinguished ray; it is on the ray iff the two agree
    bufs = [np.empty(batch, dtype=np.int64) for _ in range(4)]
    vy_buf, vz_buf, dist_buf, ray_buf = bufs
    u_buf = np.empty(min(batch, CHUNK))
    s_buf = np.empty(len(u_buf), dtype=np.int64)
    # rng reads the step draws of the pass that starts at draw pos, as in
    # tree_harmonic_measure
    pos, rng = 0, _positioned(key, 0)
    for done in range(0, reps, batch):
        alive = min(batch, reps - done)
        vy_buf[:alive] = d_xy == 0
        vz_buf[:alive] = d_xz == 0
        dist_buf[:alive] = 0
        ray_buf[:alive] = 0
        while alive:
            ret_rng = rng if alive <= CHUNK else _positioned(key, pos + alive)
            kept = hits = 0
            for a in range(0, alive, CHUNK):
                m = min(CHUNK, alive - a)
                vy, vz, dist, ray = (buf[a:a + m] for buf in bufs)
                u = u_buf[:m]
                s = _tree_steps(rng, q, u, s_buf[:m])
                at_root = dist == 0
                back = s == 0
                back &= ~at_root
                # child 0 continues along the ray: s = 1, or s = 0 at the
                # root
                along = s == ~at_root
                along &= ray == dist
                dist += 1
                dist -= back
                dist -= back
                # ray <= dist before the step, so only a step back can cut
                # it
                np.minimum(ray, dist, out=ray)
                ray += along
                edge = dist > dmax
                hits += np.count_nonzero(edge)
                ret = _draw_returns(ret_rng, q, edge, u)
                dist -= ret
                np.minimum(ray, dist, out=ray)
                inside = dist <= dmax
                # an escaped walk visits neither point again
                out = ~inside
                y, z = vy[out], vz[out]
                sy += int(y.sum())
                sz += int(z.sum())
                syy += int((y * y).sum())
                szz += int((z * z).sum())
                syz += int((y * z).sum())
                # escaped walks are past dmax, so only walks inside count
                on = ray == dist
                vy += on & (dist == d_xy)
                vz += on & (dist == d_xz)
                k = np.count_nonzero(inside)
                for buf, col in zip(bufs, (vy, vz, dist, ray)):
                    buf[kept:kept + k] = col[inside]
                kept += k
            pos += alive + hits
            rng, alive = ret_rng, kept

    if not sy or not sz:
        raise DegenerateError(
            f"no sampled walk visited {'y' if not sy else 'z'}: the ratio "
            "and its error need visits to both points")
    n = reps
    my, mz = sy / n, sz / n
    ratio = my / mz
    # delta method for the variance of the ratio of means
    var_y = (n * syy - sy * sy) / n ** 2 / n
    var_z = (n * szz - sz * sz) / n ** 2 / n
    cov = (n * syz - sy * sz) / (n * (n - 1)) / n if n > 1 else math.nan
    sigma = ratio * math.sqrt(max(var_y / my ** 2 + var_z / mz ** 2
                                  - 2 * cov / (my * mz), 0.0))
    target = math.exp(-math.log(q) * (d_xy - d_xz))
    return {"ratio": ratio, "target": target, "sigma": sigma,
            "mean_visits_y": my, "mean_visits_z": mz}


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
