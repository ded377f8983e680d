"""Non-backtracking random walks on graphs of groups, conductance walks on
regular trees (harmonic measure, Green-kernel ratios), and the weighted
graph Laplacian.

The NBRW on a graph of groups is driven purely by the edge indices
i(e) = |G_{o(e)}|/|G_e|: from an incoming edge f at the vertex y, the next
edge f' is chosen with probability proportional to i(f') minus one if f' is
the reverse of f.  This reproduces the walk on the Bass-Serre tree pushed
to the quotient without materializing any groups.
"""

import math

import numpy as np

from .errors import DegenerateError, NotTransientError
from .seeding import derive_seed


class NBRWKernel:
    """Edge-to-edge transition kernel of the non-backtracking walk."""

    def __init__(self, graph):
        self.graph = graph
        n = graph.edge_count()
        P = np.zeros((n, n))
        for i, eid in enumerate(graph.edge_ids):
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
            for j, w in row:
                P[i, j] = w / tot
        self.P = P

    def start_distribution(self, subname):
        """Initial edge law for a walk leaving the named subgraph: vertex
        chosen with probability proportional to 1/|G_v| inside the subgraph,
        then a uniformly weighted outgoing lift (weight i(e), excluding
        subgraph edges)."""
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
        g = self.graph
        out = np.zeros(g.vertex_count())
        for i, eid in enumerate(g.edge_ids):
            out[g.vertex_index[g.edges[eid].terminus]] += edge_dist[i]
        return out

    def target_distribution(self):
        """The limit law vol/Vol over vertices (nonbipartite case)."""
        g = self.graph
        w = np.array([1.0 / g.vertices[v].order for v in g.vertex_ids])
        return w / w.sum()


def nbrw_exact(graph, start_subgraph, n):
    """Vertex distribution after n steps of the non-backtracking walk.

    Returns dict with "vertex_dist" (aligned with graph.vertex_ids),
    "edge_dist", "target" (vol/Vol), "tv_to_target", and a "bipartite"
    warning flag (the walk then oscillates and the target is ill-posed).
    """
    kernel = NBRWKernel(graph)
    dist = kernel.start_distribution(start_subgraph)
    for _ in range(n - 1):
        dist = dist @ kernel.P
    vdist = kernel.vertex_pushforward(dist)
    target = kernel.target_distribution()
    rep = graph.volumes()
    return {
        "vertex_dist": vdist,
        "edge_dist": dist,
        "target": target,
        "tv_to_target": 0.5 * float(np.abs(vdist - target).sum()),
        "bipartite": rep.bipartite,
    }


def nbrw_sample(graph, start_subgraph, n, reps, seed):
    """Monte-Carlo version of nbrw_exact: empirical vertex distribution.

    Vectorized over paths; the per-call RNG stream is derived from the seed
    so identical (seed, reps, parameters) reruns are bit-identical.
    """
    kernel = NBRWKernel(graph)
    rng = np.random.Generator(np.random.Philox(derive_seed(seed, 0)))
    n_edges = graph.edge_count()
    start = kernel.start_distribution(start_subgraph)
    state = rng.choice(n_edges, size=reps, p=start)
    # precompute per-edge successor tables (alias-free: cumulative inverse)
    cums = [np.cumsum(kernel.P[i]) for i in range(n_edges)]
    for _ in range(n - 1):
        u = rng.random(reps)
        new_state = np.empty(reps, dtype=np.int64)
        for i in range(n_edges):
            mask = state == i
            if mask.any():
                new_state[mask] = np.searchsorted(cums[i], u[mask])
        state = new_state
    term = np.array([graph.vertex_index[graph.edges[eid].terminus]
                     for eid in graph.edge_ids])
    tallies = np.bincount(term[state], minlength=graph.vertex_count())
    return {"tallies": tallies, "empirical": tallies / reps, "reps": reps}


# ---------------------------------------------------------------------------
# walks on the (q+1)-regular tree


def tree_walk_kappa(q, delta):
    """Spectral parameter of the conductance walk: (1+q)/(e^d + q e^-d)."""
    return (1 + q) / (math.exp(delta) + q * math.exp(-delta))


def tree_harmonic_measure(q, depth, reps, seed, delta=None):
    """Monte-Carlo mass of each depth-d shadow under the exit law of the
    simple random walk on the (q+1)-regular tree (the c=0 case, where the
    harmonic measure is the normalised sphere measure).

    The walk starts at the root and is stopped on exiting the ball of
    radius depth + 30 (escape truncation; regression probability per level
    1/q makes the truncation bias < 1e-9).  A walk's shadow is recorded by
    the labels of its first ``depth`` child choices; relabeling on
    backtracking through the root is handled by restarting the label
    prefix whenever the walk returns to the root.

    Returns dict shadow-tuple -> estimated mass, plus "target" and "sigma"
    (per-shadow CLT standard error).
    """
    if delta is not None and abs(delta - 0.5 * math.log(q)) < 1e-12:
        raise NotTransientError("delta = (log q)/2 gives a recurrent walk")
    if delta is not None and delta != math.log(q):
        raise NotTransientError(
            "only the simple-walk case (delta = log q) is quantitative")
    R = depth + 30
    rng = np.random.Generator(np.random.Philox(derive_seed(seed, 1)))

    n_shadows = (q + 1) * q ** (depth - 1)
    target = 1.0 / n_shadows
    tallies = np.zeros(n_shadows, dtype=np.int64)

    batch = min(reps, 200_000)
    done = 0
    while done < reps:
        b = min(batch, reps - done)
        depth_pos = np.zeros(b, dtype=np.int64)
        # label[k] = which child was taken at level k (first `depth` levels)
        labels = np.zeros((b, depth), dtype=np.int64)
        alive = np.ones(b, dtype=bool)
        while alive.any():
            idx = np.nonzero(alive)[0]
            d = depth_pos[idx]
            u = rng.random(len(idx))
            at_root = d == 0
            # away from the root: probability 1/(q+1) to step back
            back = (~at_root) & (u < 1.0 / (q + 1))
            depth_pos[idx[back]] -= 1
            fwd = ~back
            fi = idx[fwd]
            fd = d[fwd]
            # choose a child label among q (or q+1 at the root)
            nch = np.where(at_root[fwd], q + 1, q)
            uu = rng.random(len(fi))
            child = np.minimum((uu * nch).astype(np.int64), nch - 1)
            shallow = fd < depth
            rows = fi[shallow]
            labels[rows, fd[shallow]] = child[shallow]
            depth_pos[fi] += 1
            alive[idx] = depth_pos[idx] < R
        # encode shadows: first coordinate in 0..q, the rest in 0..q-1
        code = labels[:, 0].copy()
        for k in range(1, depth):
            code = code * q + labels[:, k]
        tallies += np.bincount(code, minlength=n_shadows)
        done += b

    est = tallies / reps
    sigma = math.sqrt(target * (1 - target) / reps)
    return {"estimates": est, "target": target, "sigma": sigma,
            "n_shadows": n_shadows}


def green_ratio_check(q, d_xy, d_xz, reps, seed, delta=None):
    """Monte-Carlo ratio of Green kernels G(x,y)/G(x,z) for points y, z on a
    common ray from x at distances d_xy, d_xz on the (q+1)-regular tree.

    Expected ratio for the simple walk: e^{-delta (d_xy - d_xz)} with
    delta = log q.  Returns estimate, target, and a delta-method standard
    error for the ratio.
    """
    if delta is not None and abs(delta - 0.5 * math.log(q)) < 1e-12:
        raise NotTransientError("delta = (log q)/2 gives a recurrent walk")
    dmax = max(d_xy, d_xz)
    R = dmax + 40
    rng = np.random.Generator(np.random.Philox(derive_seed(seed, 2)))

    visits_y = np.zeros(reps, dtype=np.int64)
    visits_z = np.zeros(reps, dtype=np.int64)

    batch = min(reps, 100_000)
    done = 0
    while done < reps:
        b = min(batch, reps - done)
        # track (depth along the distinguished ray when on it, or -1) via
        # two coordinates: distance to root, and distance reached along the
        # ray.  A state is "on the ray" iff dist == on_ray_progress.
        dist = np.zeros(b, dtype=np.int64)
        ray = np.zeros(b, dtype=np.int64)  # ray-prefix length of position
        alive = np.ones(b, dtype=bool)
        vy = np.zeros(b, dtype=np.int64)
        vz = np.zeros(b, dtype=np.int64)
        while alive.any():
            idx = np.nonzero(alive)[0]
            d = dist[idx]
            r = ray[idx]
            u = rng.random(len(idx))
            at_root = d == 0
            back = (~at_root) & (u < 1.0 / (q + 1))
            # stepping back: if we were exactly on the ray, stay on it
            bidx = idx[back]
            on_ray_b = ray[bidx] == dist[bidx]
            dist[bidx] -= 1
            ray[bidx] = np.where(on_ray_b, dist[bidx],
                                 np.minimum(ray[bidx], dist[bidx]))
            fwd = ~back
            fi = idx[fwd]
            on_ray_f = ray[fi] == dist[fi]
            nch = np.where(at_root[fwd], q + 1, q)
            uu = rng.random(len(fi))
            child = np.minimum((uu * nch).astype(np.int64), nch - 1)
            # child 0 = continue along the distinguished ray
            dist[fi] += 1
            ray[fi] = np.where(on_ray_f & (child == 0), dist[fi], ray[fi])
            alive[idx] = dist[idx] < R
            on = ray[idx] == dist[idx]
            vy[idx] += (on & (dist[idx] == d_xy) & alive[idx])
            vz[idx] += (on & (dist[idx] == d_xz) & alive[idx])
        visits_y[done:done + b] = vy
        visits_z[done:done + b] = vz
        done += b

    my, mz = visits_y.mean(), visits_z.mean()
    ratio = my / mz
    # delta method for the variance of the ratio of means
    var_y = visits_y.var() / reps
    var_z = visits_z.var() / reps
    cov = np.cov(visits_y, visits_z)[0, 1] / reps
    sigma = ratio * math.sqrt(max(var_y / my ** 2 + var_z / mz ** 2
                                  - 2 * cov / (my * mz), 0.0))
    dlt = math.log(q) if delta is None else delta
    target = math.exp(-dlt * (d_xy - d_xz))
    return {"ratio": float(ratio), "target": target, "sigma": float(sigma),
            "mean_visits_y": float(my), "mean_visits_z": float(mz)}


# ---------------------------------------------------------------------------
# weighted Laplacian


def laplacian_matrices(graph):
    """(Delta, D, Dstar, degs) for the conductance Laplacian.

    Delta f(x) = (1/deg_c(x)) sum_{o(e)=x} i(e) e^{c(e)} (f(x) - f(t(e)))
    with deg_c(x) = sum_{o(e)=x} i(e) e^{c(e)}.

    D is the discrete differential (edges x vertices):
    (D f)(e) = sqrt(p(e)) (f(t(e)) - f(o(e))), p(e) = e^{c(e)}/deg_c(o(e)),
    and Dstar its adjoint (vertices x edges):
    (Dstar phi)(x) = sum_{o(e)=x} (i(e)/2) (sqrt(p(ebar)) phi(ebar)
                                            - sqrt(p(e)) phi(e)).
    For reversible conductances Delta = Dstar D.
    """
    nv, ne = graph.vertex_count(), graph.edge_count()
    w = {eid: graph.index_i(eid) * math.exp(graph.edges[eid].conductance)
         for eid in graph.edge_ids}
    degc = {v: sum(w[eid] for eid in graph.out_edges(v))
            for v in graph.vertex_ids}
    for v, dv in degc.items():
        if dv <= 0:
            raise DegenerateError(f"vertex {v!r} has zero weighted degree")

    Delta = np.zeros((nv, nv))
    for v in graph.vertex_ids:
        i = graph.vertex_index[v]
        for eid in graph.out_edges(v):
            e = graph.edges[eid]
            j = graph.vertex_index[e.terminus]
            Delta[i, i] += w[eid] / degc[v]
            Delta[i, j] -= w[eid] / degc[v]

    p = {eid: math.exp(graph.edges[eid].conductance)
         / degc[graph.edges[eid].origin] for eid in graph.edge_ids}
    D = np.zeros((ne, nv))
    for eid in graph.edge_ids:
        e = graph.edges[eid]
        k = graph.edge_index[eid]
        D[k, graph.vertex_index[e.terminus]] += math.sqrt(p[eid])
        D[k, graph.vertex_index[e.origin]] -= math.sqrt(p[eid])

    Dstar = np.zeros((nv, ne))
    for eid in graph.edge_ids:
        e = graph.edges[eid]
        x = graph.vertex_index[e.origin]
        k = graph.edge_index[eid]
        kbar = graph.edge_index[e.reverse]
        half_i = graph.index_i(eid) / 2.0
        Dstar[x, kbar] += half_i * math.sqrt(p[e.reverse])
        Dstar[x, k] -= half_i * math.sqrt(p[eid])

    return Delta, D, Dstar, degc


def laplacian_apply(graph, f):
    """Delta_c f for f given as a dict vertex id -> value or an array."""
    Delta, _, _, _ = laplacian_matrices(graph)
    if isinstance(f, dict):
        vec = np.array([f[v] for v in graph.vertex_ids], dtype=float)
    else:
        vec = np.asarray(f, dtype=float)
    return Delta @ vec


def vol_inner(graph, f, g):
    """<f, g> with respect to the volume form: sum (1/|G_x|) f(x) g(x)."""
    return float(sum(f[i] * g[i] / graph.vertices[v].order
                     for i, v in enumerate(graph.vertex_ids)))


def is_reversible(graph, tol=0.0):
    return all(abs(graph.edges[eid].conductance
                   - graph.edges[graph.edges[eid].reverse].conductance) <= tol
               for eid in graph.edge_ids)
