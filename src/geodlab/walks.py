"""Non-backtracking random walks on graphs of groups, conductance walks on
regular trees (harmonic measure, Green-kernel ratios), and the weighted
graph Laplacian.

The NBRW on a graph of groups steps over the rows of
``GraphOfGroups.nb_successors``: after an edge it takes each way of its row
with equal probability, so a pair (f, m) in a row of L ways in all has
probability m/L.  This is the walk on the Bass-Serre tree pushed to the
quotient, without materializing any groups.  The exact law reads the
probabilities m/L off the pairs; the sampler expands each pair into m
entries and moves a path on a row of L entries to entry floor(u L) for one
uniform u.

Every walk charges its steps (paths times steps, or successor ways times
steps for the exact law) to the budget (10^8, ``errors.charge``) before it
draws or allocates.

Every sampler reads its draws from one Philox stream, and each walk reads
its own fixed positions of it, so a rerun with the same seed prints the
same bytes.  Philox is counter-based: ``_Stream.read`` reads the stream
from any draw without drawing the ones before.  So the kernels step their
walks in chunks of ``CHUNK`` and keep every draw buffer and temporary
chunk-long; a chunk reads its draws where the whole set of walks would
have read them in one pass.  The two tree walks run through one
driver, ``_tree_walks``, which keeps only their state batch-long (a fixed
batch size) and whose docstring states their draw layout; the NBRW keeps
nothing as long as its paths.

numpy is imported inside the samplers only: the exact NBRW law and the
Laplacian run in Python lists without it, and so does every verb that
runs this module without sampling.  The exact law forms the floats
the array code did: its sums run in numpy's order.  The samplers run
elementwise numpy and make no BLAS call.  So the CLI loads numpy with one
OpenBLAS thread (see cli.py), and a thread count the user sets changes no
printed float.
"""

import functools
import itertools
import math

from .errors import BudgetError, DegenerateError, NotTransientError, \
    TooLargeError, UsageError, charge
from .graphs import ScatterAdd, _entries, fold_sum
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
    from one ``nb_successors`` call, in Python lists.

    - ``succ``: its rows of pairs (f, m), and ``length``: the ways L of
      each row, the sum of its m.
    - For the sampler: the rows expanded, each pair into m entries f, end
      to end in ``entries``, row i at ``entries[offset[i]:offset[i] +
      length[i]]``, and the vertex ``term`` each edge ends at.
    - For the exact law: ``step``, built on first use.
    """

    def __init__(self, graph):
        graph.check_branching()
        self.graph = graph
        self.succ = graph.nb_successors()
        self.length = [sum(m for _, m in row) for row in self.succ]
        self.entries = [f for row in self.succ for f, m in row
                        for _ in range(m)]
        self.offset = [0, *itertools.accumulate(self.length)][:-1]
        # vertex index of each edge's terminus, the vertex a walk stands on
        self.term = [graph.vertex_index[graph.edges[eid].terminus]
                     for eid in graph.edge_ids]

    @functools.cached_property
    def step(self):
        """The edge law one step after a law dist, built on first use: each
        target f adds the products prob * dist[i], prob = m / L for the
        pair (f, m) of row i of L ways, in ascending order of the source i,
        the floats ``np.bincount(col, dist[row] * prob)`` forms over the
        pairs (from 0.0, which changes no sum, as no product is -0.0)."""
        rows, cols, _ = _entries(self.succ)
        prob = [m / length for row, length in zip(self.succ, self.length)
                for _, m in row]
        return ScatterAdd(cols, rows, prob, len(self.term))

    def start_distribution(self, subname):
        """Initial edge law for a walk leaving the named subgraph: vertex
        chosen with probability proportional to 1/|G_v| inside the subgraph,
        then one of the lifts of its exit edges uniformly: e with weight
        i(e) (``GraphOfGroups.exits``)."""
        g = self.graph
        vset = list(g.subgraph(subname)["vertices"])
        exits = {v: [] for v in vset}
        for eid, m in g.exits(subname):
            exits[g.edges[eid].origin].append((g.edge_index[eid], m))
        vweights = _normalised([1.0 / g.vertices[v].order for v in vset])
        dist = [0.0] * g.edge_count()
        for v, pv in zip(vset, vweights):
            tot = sum(w for _, w in exits[v])
            if tot <= 0:
                raise DegenerateError(f"no exit edges from vertex {v!r}")
            for j, w in exits[v]:
                dist[j] += pv * w / tot
        return dist

    def vertex_pushforward(self, edge_dist):
        """Distribution of the current vertex = terminus of the last edge."""
        out = [0.0] * self.graph.vertex_count()
        for v, x in zip(self.term, edge_dist):
            out[v] += x
        return out

    def target_distribution(self):
        """The limit law vol/Vol over vertices (nonbipartite case)."""
        g = self.graph
        return _normalised([1.0 / g.vertices[v].order for v in g.vertex_ids])


def _pairwise_sum(xs, lo=0, n=None):
    """The sum of xs[lo:lo + n] (all of xs by default) in the order of
    numpy's pairwise summation, which ``np.sum`` of a float64 array uses:
    below 8 terms one by one from 0.0; to 128 terms eight running sums over
    the terms of each residue mod 8, combined as ((0+1)+(2+3))+((4+5)+(6+7)),
    then the rest one by one; past 128 the two halves at a multiple of 8
    below n / 2.  Python's ``sum`` rounds otherwise from 3.12 on."""
    if n is None:
        n = len(xs)
    if n < 8:
        res = 0.0
        for x in xs[lo:lo + n]:
            res += x
        return res
    if n <= 128:
        body = lo + n - n % 8
        r = xs[lo:lo + 8]
        for i in range(lo + 8, body, 8):
            for j in range(8):
                r[j] += xs[i + j]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in xs[body:lo + n]:
            res += x
        return res
    half = n // 2 - n // 2 % 8
    return (_pairwise_sum(xs, lo, half)
            + _pairwise_sum(xs, lo + half, n - half))


def _normalised(weights):
    """``weights`` over their sum, as ``w / w.sum()`` on an array."""
    total = _pairwise_sum(weights)
    return [w / total for w in weights]


def _check_steps(n):
    if n < 1:
        raise UsageError(f"a walk needs n >= 1 edges, got {n}")


def _iterate(step, x, k):
    """``step`` applied k times to ``x``, stopped once the states repeat.

    Brent's cycle detection (BIT 20, 1980) keeps one saved state and moves
    it up to the current one after 1, 2, 4, ... steps; each state is also
    compared with the one before it, which finds a fixed point at once.
    When the state after t steps equals one lam steps earlier, every later
    state repeats with period lam, so the state after k steps is the one
    after t + (k - t) mod lam.  Equal states are equal bit for bit as long
    as they hold no -0.0 and no NaN, which no law of the walk does."""
    saved, saved_t, power = x, 0, 1
    for t in range(1, k + 1):
        prev, x = x, step(x)
        if x == prev:
            return x
        if x == saved:
            for _ in range((k - t) % (t - saved_t)):
                x = step(x)
            return x
        if t - saved_t == power:
            saved, saved_t, power = x, t, 2 * power
    return x


def nbrw_exact(graph, start_subgraph, n):
    """Vertex distribution after n steps of the non-backtracking walk, at
    most (successor ways) * n entry steps under the budget.

    The law steps in floats until it repeats exactly (``_iterate``): the
    walk mixes fast, and the law of every graph probed reaches a fixed point
    or a short cycle within about 130 steps, so a long walk costs no more
    than that.  Every sum is formed in numpy's order, so the floats are
    those of the array code this replaces.

    Returns dict with "vertex_dist" (aligned with graph.vertex_ids),
    "target" (vol/Vol), "tv_to_target", and a "bipartite" warning flag
    (the walk then oscillates and the target is ill-posed).
    """
    _check_steps(n)
    kernel = NBRWKernel(graph)
    charge("(successor ways) * n entry steps", len(kernel.entries) * n,
           10 ** 8)
    dist = _iterate(kernel.step, kernel.start_distribution(start_subgraph),
                    n - 1)
    vdist = kernel.vertex_pushforward(dist)
    target = kernel.target_distribution()
    return {
        "vertex_dist": vdist,
        "target": target,
        "tv_to_target": 0.5 * _pairwise_sum([abs(x - y) for x, y
                                             in zip(vdist, target)]),
        "bipartite": graph._two_color(),
    }


class _Stream:
    """The Philox stream of substream ``index`` of ``seed``, read at any
    draw position without drawing the ones before: Philox is counter-based
    and makes four doubles from each value of its counter."""

    def __init__(self, seed, index):
        import numpy as np

        self._rng = np.random.Generator(np.random.Philox(derive_seed(seed,
                                                                     index)))
        self._start = self._rng.bit_generator.state
        # the position at which the last read stopped
        self.pos = 0

    def read(self, pos, out):
        """``out`` filled with draws pos, pos + 1, ... of the stream.  A
        read that starts where the last one stopped reads on; any other
        starts the generator over, advances the counter pos // 4 times and
        discards the first pos % 4 draws of the next block."""
        if pos != self.pos:
            bits = self._rng.bit_generator
            bits.state = self._start
            # advance rejects numpy integers
            bits.advance(int(pos) // 4)
            self._rng.random(pos % 4)
        self._rng.random(out=out)
        self.pos = pos + len(out)
        return out


def nbrw_sample(graph, start_subgraph, n, reps, seed):
    """Monte-Carlo version of nbrw_exact: empirical vertex distribution of
    reps paths, reps * n steps under the budget.

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
    charge("reps * n steps", reps * n, 10 ** 8)
    kernel = NBRWKernel(graph)
    length, offset, entries, term = (
        np.array(x, dtype=np.intp)
        for x in (kernel.length, kernel.offset, kernel.entries, kernel.term))
    stream = _Stream(seed, 0)
    cdf = np.cumsum(kernel.start_distribution(start_subgraph))
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
        state = cdf.searchsorted(stream.read(a, u), side="right")
        for t in range(1, n):
            stream.read(t * reps + a, u)
            u *= np.take(length, state, out=pick, mode="wrap")
            np.copyto(pick, u, casting="unsafe")
            pick += np.take(offset, state, out=base, mode="wrap")
            np.take(entries, pick, out=state, mode="wrap")
        np.take(term, state, out=pick, mode="wrap")
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


def _returns_to_parent(u, q):
    """Exact last-exit draw for walks that have just stepped from depth
    k - 1 to depth k >= 1 of the (q+1)-regular tree, one uniform ``u`` per
    walk: True where the walk ever comes back to depth k - 1.

    The distance to the parent moves away with probability q/(q+1) at every
    step, so the walk returns with probability exactly 1/q.  By the strong
    Markov property a walk that returns stands at the parent with no memory
    of its excursion, and one that does not stays below its vertex forever.
    """
    return u < 1.0 / q


def _tree_steps(u, q, s):
    """Fill ``s`` with the step of each walk from its uniform ``u``, which
    it overwrites.  Away from the root s = 0 steps to the parent and
    s >= 1 to the child s - 1; at the root, which has q + 1 children and no
    parent, s is the child."""
    import numpy as np

    np.multiply(u, q + 1, out=u)
    np.copyto(s, u, casting="unsafe")
    return np.minimum(s, q, out=s)


def _tree_walks(q, reps, batch, seed, index, columns, step):
    """Run reps walks of the (q+1)-regular tree from the root over the
    Philox stream of substream ``index`` of ``seed``, in batches of at most
    ``batch`` walks.

    Each walk's state is one entry of each column, which ``columns`` gives
    as (dtype, start value); a batch keeps every column batch-long, and the
    front of each column holds the walks still inside the ball.  A pass
    steps each of them once, chunk by chunk: ``step(cols, s, returns)``
    gets the chunk's views of the columns and its steps ``s``
    (``_tree_steps``), in the widest dtype of the columns.  It applies
    them, calls ``returns(edge)`` once with the mask of the walks that
    stepped past the ball, which keeps True only where the walk's last-exit
    draw (``_returns_to_parent``) brings it back, and returns the mask of
    the walks still inside, which move to the front.

    The draw layout: a pass that starts at draw P of the stream with
    ``alive`` walks reads the step draws of chunk [a, b) at P + a ...
    P + b - 1, and the last-exit draws of the walks of all its chunks, in
    order, from P + alive on.  So two streams read the pass, one for each
    kind of draw, and the next pass starts where the last-exit stream
    stops.  The draws are those of one pass over all walks at once,
    whatever ``CHUNK`` is.
    """
    import numpy as np

    bufs = [np.empty(batch, dtype=dtype) for dtype, _ in columns]
    u_buf = np.empty(min(batch, CHUNK))
    s_buf = np.empty(len(u_buf), dtype=np.result_type(*bufs))
    steps, exits = _Stream(seed, index), _Stream(seed, index)

    def returns(edge):
        u = exits.read(exits.pos, u_buf[:np.count_nonzero(edge)])
        edge[edge] = _returns_to_parent(u, q)
        return edge

    for done in range(0, reps, batch):
        alive = min(batch, reps - done)
        for buf, (_, start) in zip(bufs, columns):
            buf[:alive] = start
        while alive:
            # the pass starts where the last-exit draws of the one before
            # stop, and its own last-exit draws start after its step draws
            pos, kept = exits.pos, 0
            exits.read(pos + alive, u_buf[:0])
            for a in range(0, alive, CHUNK):
                m = min(CHUNK, alive - a)
                cols = [buf[a:a + m] for buf in bufs]
                s = _tree_steps(steps.read(pos + a, u_buf[:m]), q, s_buf[:m])
                inside = step(cols, s, returns)
                k = np.count_nonzero(inside)
                for buf, col in zip(bufs, cols):
                    buf[kept:kept + k] = col[inside]
                kept += k
            alive = kept


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

    A walk takes at least ``depth`` steps, and reps * depth must be within
    the budget.  Walks run in batches of at most 200,000 (``_tree_walks``,
    which states the draw layout), whose state is an int8 level and an
    int32 vertex index per walk; the ``MAX_SHADOWS`` cap lets them hold
    every value.

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
    charge("reps * depth steps", reps * depth, 10 ** 8)

    target = 1.0 / n_shadows
    tallies = np.zeros(n_shadows, dtype=np.int64)

    def step(cols, s, returns):
        # per walk: its level, and its vertex's index in that level's
        # sphere (the shadow code at level depth; meaningless at the root,
        # whose next step overwrites it)
        level, node = cols
        at_root = level == 0
        back = s == 0
        back &= ~at_root
        # node * q + s - 1 after a step forward, node // q after one back,
        # s from the root: blended by the masks, which is faster than a
        # masked ufunc or np.where on a random mask
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
        ret = returns(level == depth)
        level -= ret
        up = node // q
        up -= node
        up *= ret
        node += up
        inside = level < depth
        # one add per escape: a bincount would cost n_shadows per chunk
        np.add.at(tallies, node[~inside], 1)
        return inside

    _tree_walks(q, reps, min(reps, 200_000), seed, 1,
                [(np.int8, 0), (np.int32, 0)], step)
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
    escapes and can visit neither point again.  Nothing is truncated.  A
    walk takes at least dmax + 1 steps, and reps * (dmax + 1) must be
    within the budget.

    Walks run in batches of at most 100,000 (``_tree_walks``, which states
    the draw layout); each keeps its visits Y, Z to y and z, its distance
    to x and the length of the prefix it shares with the ray in batch-long
    columns.  The visits of each escaped walk add to exact integer sums of
    Y, Z, Y^2, Z^2 and YZ, so the memory is the batch's whatever ``reps``
    is.  Each moment is one rounding of its exact value: the means and
    variances divide by reps, the covariance by reps - 1 (nan for one
    walk).

    Expected ratio for the simple walk: q^{-(d_xy - d_xz)}.  Returns
    estimate, target, and a delta-method standard error for the ratio.
    The ratio of means is biased by O(1/reps): to leading order (delta
    method) E[Ybar/Zbar] - muy/muz is (muy/muz) (Var Zbar/muz^2
    - Cov(Ybar, Zbar)/(muy muz)), which the same sums estimate as
    ratio (var_z/mz^2 - cov/(my mz)) below; it is not subtracted.
    """
    import numpy as np

    _check_tree_walk(q, reps)
    if d_xy < 0 or d_xz < 0:
        raise UsageError("distances must be >= 0")
    dmax = max(d_xy, d_xz)
    charge("reps * (dmax + 1) steps", reps * (dmax + 1), 10 ** 8)

    sy = sz = syy = szz = syz = 0

    def step(cols, s, returns):
        nonlocal sy, sz, syy, szz, syz
        # per walk still inside the ball: its visits to y and z so far, its
        # distance to the root, and the length of the prefix it shares
        # with the distinguished ray; it is on the ray iff the two agree
        vy, vz, dist, ray = cols
        at_root = dist == 0
        back = s == 0
        back &= ~at_root
        # child 0 continues along the ray: s = 1, or s = 0 at the root
        along = s == ~at_root
        along &= ray == dist
        dist += 1
        dist -= back
        dist -= back
        # ray <= dist before the step, so only a step back can cut it
        np.minimum(ray, dist, out=ray)
        ray += along
        dist -= returns(dist > dmax)
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
        return inside

    _tree_walks(q, reps, min(reps, 100_000), seed, 2,
                [(np.int64, d_xy == 0), (np.int64, d_xz == 0),
                 (np.int64, 0), (np.int64, 0)], step)
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
    degc = {v: fold_sum(w[eid] for eid in graph.out_edges(v))
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
