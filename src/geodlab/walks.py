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
would have read them in one pass.  The two tree walks run through one
driver, ``_tree_walks``, which keeps only their state batch-long (a fixed
batch size) and whose docstring states their draw layout; the NBRW keeps
nothing as long as its paths.

numpy is imported inside the samplers only: the CLI imports this module
for every verb, and the exact verbs, the exact NBRW law and the Laplacian
included, run in Python lists without it.  The exact law forms the floats
the array code did: its sums run in numpy's order.  The samplers run
elementwise numpy and make no BLAS call.  So the CLI loads numpy with one
OpenBLAS thread (see cli.py), and a thread count the user sets changes no
printed float.
"""

import functools
import itertools
import math

from .errors import BudgetError, DegenerateError, NotTransientError, \
    TooLargeError, UsageError
from .graphs import ScatterAdd, fold_sum
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

    - For the sampler: the rows end to end in ``entries``, row i at
      ``entries[offset[i]:offset[i] + length[i]]``, and the vertex ``term``
      each edge ends at.
    - For the exact law, merged on first use: the successors of edge i are
      ``col[start[i]:start[i + 1]]``, ascending, with the probabilities
      ``prob`` at the same positions, and ``row`` repeats i once for each.
    """

    def __init__(self, graph):
        graph.check_branching()
        self.graph = graph
        rows = graph.nb_successors()
        self.entries = list(itertools.chain.from_iterable(rows))
        self.length = [len(succ) for succ in rows]
        self.offset = [0, *itertools.accumulate(self.length)][:-1]
        # vertex index of each edge's terminus, the vertex a walk stands on
        self.term = [graph.vertex_index[graph.edges[eid].terminus]
                     for eid in graph.edge_ids]

    @functools.cached_property
    def _merged(self):
        """(start, col, prob, row) and the plan of the step over them."""
        start, col, prob, row = [0], [], [], []
        entries = iter(self.entries)
        for i, n in enumerate(self.length):
            # a run of m equal entries in a row of L: one entry, m / L
            for j, run in itertools.groupby(itertools.islice(entries, n)):
                col.append(j)
                prob.append(len(list(run)) / n)
                row.append(i)
            start.append(len(col))
        return (start, col, prob, row,
                ScatterAdd(col, row, prob, len(self.term)))

    start = property(lambda self: self._merged[0])
    col = property(lambda self: self._merged[1])
    prob = property(lambda self: self._merged[2])
    row = property(lambda self: self._merged[3])

    def step(self, dist):
        """The edge law one step after ``dist``: each target adds its
        products prob * dist[i] in ascending order of the source i, the
        floats ``np.bincount(col, dist[row] * prob)`` forms (from 0.0,
        which changes no sum, as no product is -0.0)."""
        return self._merged[4](dist)

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


def _check_work(what, work, budget):
    """BudgetError when ``work``, the steps ``what`` names, is over the
    budget."""
    if work > budget:
        raise BudgetError(f"{what} = {work} steps exceeds the budget "
                          f"{budget}")


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


def nbrw_exact(graph, start_subgraph, n, budget=10 ** 8):
    """Vertex distribution after n steps of the non-backtracking walk, at
    most (successor entries) * n entry steps under ``budget``.

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
    _check_work("successor entries * n", len(kernel.entries) * n, budget)
    dist = _iterate(kernel.step, kernel.start_distribution(start_subgraph),
                    n - 1)
    vdist = kernel.vertex_pushforward(dist)
    target = kernel.target_distribution()
    rep = graph.volumes()
    return {
        "vertex_dist": vdist,
        "target": target,
        "tv_to_target": 0.5 * _pairwise_sum([abs(x - y) for x, y
                                             in zip(vdist, target)]),
        "bipartite": rep.bipartite,
    }


# Philox objects whose generators their kernel has dropped: _positioned
# starts its next generator on one of them instead of building a new one,
# which seeds itself from OS entropy before taking the key
_SPARE_BITS = []


def _philox_key(seed, index):
    """The Philox key of substream ``index`` of ``seed``."""
    import numpy as np

    return np.random.Philox(derive_seed(seed, index)).state["state"]["key"]


def _positioned(key, pos):
    """A generator whose k-th draw is draw pos + k of the Philox stream of
    ``key``, with none of the first pos drawn.  Philox makes four doubles
    from each value of its counter, so the generator advances the counter
    pos // 4 times and discards the first pos % 4 draws of the next
    block.  A spare Philox object (``_drop``) is reset to the start of the
    stream, the state a new one would have."""
    import numpy as np

    if _SPARE_BITS:
        bits = _SPARE_BITS.pop()
        zero = np.zeros(4, dtype=np.uint64)
        bits.state = {"bit_generator": "Philox",
                      "state": {"counter": zero, "key": key},
                      "buffer": zero, "buffer_pos": 4, "has_uint32": 0,
                      "uinteger": 0}
    else:
        bits = np.random.Philox(key=key)
    # advance rejects numpy integers
    bits.advance(int(pos) // 4)
    rng = np.random.Generator(bits)
    rng.random(pos % 4)
    return rng


def _drop(rng):
    """Give the Philox object of ``rng``, which its caller reads no more,
    back to ``_positioned``; a kernel holds at most two generators at once,
    so two spares are kept."""
    if len(_SPARE_BITS) < 2:
        _SPARE_BITS.append(rng.bit_generator)


def _fill(key, pos, out):
    """``out`` filled with the draws of the stream of ``key`` from pos on."""
    rng = _positioned(key, pos)
    rng.random(out=out)
    _drop(rng)
    return out


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
    length, offset, entries, term = (
        np.array(x, dtype=np.intp)
        for x in (kernel.length, kernel.offset, kernel.entries, kernel.term))
    key = _philox_key(seed, 0)
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
        state = cdf.searchsorted(_fill(key, a, u), side="right")
        for t in range(1, n):
            _fill(key, t * reps + a, u)
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


def _tree_walks(q, reps, batch, key, columns, step):
    """Run reps walks of the (q+1)-regular tree from the root over the
    Philox stream of ``key``, in batches of at most ``batch`` walks.

    Each walk's state is one entry of each column, which ``columns`` gives
    as (dtype, start value); a batch keeps every column batch-long, and the
    front of each column holds the walks still inside the ball.  A pass
    steps each of them once, chunk by chunk: ``step(cols, s, returns)``
    gets the chunk's views of the columns and its step draws ``s``
    (``_tree_steps``), in the widest dtype of the columns.  It applies
    them, calls ``returns(edge)`` once with the mask of the walks that
    stepped past the ball, which keeps True only where the walk's last-exit
    draw (``_returns_to_parent``) brings it back, and returns the mask of
    the walks still inside, which move to the front.

    The draw layout: a pass that starts at draw P of the stream with
    ``alive`` walks reads the step draws of chunk [a, b) at P + a ...
    P + b - 1, and the last-exit draws of the walks of all its chunks, in
    order, from P + alive on.  So two cursors read the pass, and the next
    one starts where the second stops: at P + alive + (the walks that
    stepped past the ball).  The draws are those of one pass over all walks
    at once, whatever ``CHUNK`` is.
    """
    import numpy as np

    bufs = [np.empty(batch, dtype=dtype) for dtype, _ in columns]
    u_buf = np.empty(min(batch, CHUNK))
    s_buf = np.empty(len(u_buf), dtype=np.result_type(*bufs))

    def returns(edge):
        nonlocal hits
        n = np.count_nonzero(edge)
        hits += n
        edge[edge] = _returns_to_parent(ret_rng, q, u_buf[:n])
        return edge

    # rng reads the step draws of the pass that starts at draw pos
    pos, rng = 0, _positioned(key, 0)
    for done in range(0, reps, batch):
        alive = min(batch, reps - done)
        for buf, (_, start) in zip(bufs, columns):
            buf[:alive] = start
        while alive:
            # one chunk reads its returns right after its steps
            ret_rng = rng if alive <= CHUNK else _positioned(key, pos + alive)
            kept = hits = 0
            for a in range(0, alive, CHUNK):
                m = min(CHUNK, alive - a)
                cols = [buf[a:a + m] for buf in bufs]
                inside = step(cols, _tree_steps(rng, q, u_buf[:m], s_buf[:m]),
                              returns)
                k = np.count_nonzero(inside)
                for buf, col in zip(bufs, cols):
                    buf[kept:kept + k] = col[inside]
                kept += k
            pos += alive + hits
            if ret_rng is not rng:
                _drop(rng)
            rng, alive = ret_rng, kept


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
    ``budget``.  Walks run in batches of at most 200,000 (``_tree_walks``,
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
    _check_work("reps * depth", reps * depth, budget)

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

    _tree_walks(q, reps, min(reps, 200_000), _philox_key(seed, 1),
                [(np.int8, 0), (np.int32, 0)], step)
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
    """
    import numpy as np

    _check_tree_walk(q, reps)
    if d_xy < 0 or d_xz < 0:
        raise UsageError("distances must be >= 0")
    dmax = max(d_xy, d_xz)
    _check_work("reps * (dmax + 1)", reps * (dmax + 1), budget)

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

    _tree_walks(q, reps, min(reps, 100_000), _philox_key(seed, 2),
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
