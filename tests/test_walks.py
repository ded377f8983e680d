"""Non-backtracking random walks, tree walks, and the weighted Laplacian."""

import networkx as nx
import numpy as np
import pytest
from scipy import stats

from geodlab import walks
from geodlab.errors import DegenerateError
from geodlab.graphs import load_validate
from geodlab.library import (
    biregular_two_cycles,
    dumbbell,
    figure_eight,
    order_two_chain,
    petersen,
    theta,
)
from geodlab.seeding import derive_seed
from geodlab.walks import (
    NBRWKernel,
    green_ratio_check,
    laplacian_matrices,
    nbrw_exact,
    nbrw_sample,
    tree_harmonic_measure,
)
from oracles import (
    dense,
    is_reversible,
    laplacian_factors,
    nbrw_global_search,
    two_vertex_segment,
    vol_inner,
)


# ---------------------------------------------------------------------------
# seeding (splitmix64 reference implementation as oracle)


def _splitmix64_oracle(master, index):
    mask = (1 << 64) - 1
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_derive_seed_matches_splitmix64():
    for master, index in [(0, 0), (42, 3), (123456789, 17), (2 ** 63, 5)]:
        assert derive_seed(master, index) == _splitmix64_oracle(master, index)


def test_derive_seed_streams_distinct():
    seeds = {derive_seed(7, i) for i in range(100)}
    assert len(seeds) == 100


# ---------------------------------------------------------------------------
# NBRW kernel


def _dense_kernel(kernel):
    """The kernel's transition matrix, from its rows."""
    cut = kernel.start[1:-1]
    return dense(np.split(kernel.col, cut), np.split(kernel.prob, cut))


def test_kernel_rows_stochastic():
    for g in (petersen(), theta(), order_two_chain()):
        k = NBRWKernel(g)
        P = _dense_kernel(k)
        assert (P >= 0).all()
        assert np.abs(P.sum(axis=1) - 1).max() < 1e-14
        # one stored entry per successor, columns ascending in each row
        assert len(k.col) == np.count_nonzero(P)
        for i in range(len(P)):
            assert (np.diff(k.col[k.start[i]:k.start[i + 1]]) > 0).all()


def test_kernel_step_matches_dense_product():
    # rows of one and two successors on the order chain, of two on Petersen
    for g, start in ((order_two_chain(), "X"), (petersen(), "P0")):
        k = NBRWKernel(g)
        dist = k.start_distribution(start)
        for _ in range(20):
            want = dist @ _dense_kernel(k)
            dist = k.step(dist)
            assert np.abs(dist - want).max() < 1e-15


def test_kernel_uniform_for_trivial_orders():
    k = NBRWKernel(petersen())
    P = _dense_kernel(k)
    # every allowed successor has probability 1/2 on a cubic graph
    assert set(np.round(P[P > 0], 12)) == {0.5}


def test_nbrw_exact_petersen_converges():
    out = nbrw_exact(petersen(), "P0", 60)
    assert not out["bipartite"]
    assert np.abs(np.asarray(out["target"]) - 0.1).max() < 1e-12
    assert out["tv_to_target"] < 1e-3


def test_nbrw_exact_orderchain_vol_over_vol():
    out = nbrw_exact(order_two_chain(), "X", 200)
    want = np.array([1 / 6, 1 / 6, 1 / 3, 1 / 3])
    assert np.abs(np.asarray(out["target"]) - want).max() < 1e-12
    assert out["tv_to_target"] < 1e-12


def test_nbrw_exact_bipartite_flagged():
    out = nbrw_exact(theta(), "U", 30)
    assert out["bipartite"]


def test_nbrw_degenerate_graph():
    with pytest.raises(DegenerateError):
        nbrw_exact(two_vertex_segment(), "u", 5)


def test_nbrw_sample_single_path():
    out = nbrw_sample(theta(), "U", 4, 1, 0)
    assert out["tallies"].sum() == 1
    assert sorted(out["empirical"]) == [0.0, 1.0]


def test_nbrw_sample_deterministic():
    a = nbrw_sample(petersen(), "P0", 30, 2000, 9)
    b = nbrw_sample(petersen(), "P0", 30, 2000, 9)
    assert (a["tallies"] == b["tallies"]).all()
    c = nbrw_sample(petersen(), "P0", 30, 2000, 10)
    assert (a["tallies"] != c["tallies"]).any()


def test_nbrw_sample_tracks_exact():
    n, reps = 40, 20000
    emp = nbrw_sample(petersen(), "P0", n, reps, 4)["empirical"]
    exact = nbrw_exact(petersen(), "P0", n)["vertex_dist"]
    sigma = np.sqrt(np.asarray(exact) * (1 - np.asarray(exact)) / reps)
    assert (np.abs(np.asarray(emp) - exact) <= 4 * sigma + 1e-12).all()


def _masked_nbrw_reference(kernel, start, n, reps, seed):
    """Per-row inverse-CDF sampler with the same draws as nbrw_sample: the
    start law through rng.choice, then one uniform per path and step."""
    rng = np.random.Generator(np.random.Philox(derive_seed(seed, 0)))
    P = _dense_kernel(kernel)
    state = rng.choice(len(P), size=reps, p=start)
    for _ in range(n - 1):
        u = rng.random(reps)
        nxt = np.empty(reps, dtype=np.int64)
        for i in range(len(P)):
            mask = state == i
            cols = np.flatnonzero(P[i])
            pick = np.searchsorted(np.cumsum(P[i, cols]), u[mask],
                                   side="right")
            nxt[mask] = cols[np.minimum(pick, len(cols) - 1)]
        state = nxt
    return state


def _vertex_tallies(g, state):
    """Walks per vertex, read off the terminus of each final edge."""
    term = np.array([g.vertex_index[g.edges[e].terminus]
                     for e in g.edge_ids])
    return np.bincount(term[state], minlength=g.vertex_count())


def _random_cubic():
    """A seeded random cubic graph on 40 vertices; "S" is one vertex."""
    h = nx.random_regular_graph(3, 40, seed=11)
    edges = []
    for k, (u, v) in enumerate(h.edges()):
        edges += [{"id": f"e{k}+", "from": f"v{u}", "to": f"v{v}",
                   "reverse": f"e{k}-"},
                  {"id": f"e{k}-", "from": f"v{v}", "to": f"v{u}",
                   "reverse": f"e{k}+"}]
    return load_validate({
        "vertices": [{"id": f"v{v}"} for v in h.nodes()], "edges": edges,
        "subgraphs": {"S": {"vertices": ["v0"], "edges": []}}})


NONUNIFORM_ROWS = [(order_two_chain, "X", 7), (biregular_two_cycles, "C1", 9)]
SAMPLED_WALKS = [(figure_eight, "A"), (theta, "U"), (petersen, "P0"),
                 (dumbbell, "K"), (biregular_two_cycles, "C1"),
                 (order_two_chain, "X"), (_random_cubic, "S")]


@pytest.mark.parametrize("make, start, n", NONUNIFORM_ROWS)
def test_successor_table_invariants(make, start, n):
    kernel = NBRWKernel(make())
    P = _dense_kernel(kernel)
    keys, first, last, succ = walks._successor_table(kernel)
    sizes = np.count_nonzero(P, axis=1)
    assert (sizes > 1).any() and (sizes < keys.shape[0]).any()
    # one finite key and one successor per nonzero, row by row
    assert (np.isfinite(keys).sum(axis=0) == sizes).all()
    assert len(succ) == sizes.sum()
    assert first[0] == 0 and (first[1:] == last[:-1] + 1).all()
    for i, row in enumerate(P):
        k = sizes[i]
        assert (succ[first[i]:last[i] + 1] == np.flatnonzero(row)).all()
        # the running sums of the row, in column order
        assert (keys[:k - 1, i] == i + np.cumsum(row[row > 0])[:-1]).all()
        assert keys[k - 1, i] == i + 1
        assert (np.diff(keys[:k, i]) > 0).all()
        assert (keys[k:, i] == np.inf).all()


def _clamp_picks(table, rows):
    # i + u rounds up to i + 1 for every row i >= 1
    u = np.full(len(rows), np.nextafter(1.0, 0.0))
    assert (rows + u == rows + 1).all()
    return walks._nbrw_step(table, rows, u)


@pytest.mark.parametrize("make", [make for make, _ in SAMPLED_WALKS])
def test_step_clamps_to_the_last_successor(make):
    kernel = NBRWKernel(make())
    P = _dense_kernel(kernel)
    rows = np.arange(1, len(P))
    picks = _clamp_picks(walks._successor_table(kernel), rows)
    want = [np.flatnonzero(P[i])[-1] for i in rows]
    assert (picks == want).all()
    assert (P[rows, picks] > 0).all()


def test_clamp_test_sees_a_missing_clamp():
    # negative control: without the clamp the pick runs into row i + 1
    kernel = NBRWKernel(petersen())
    P = _dense_kernel(kernel)
    keys, first, last, succ = walks._successor_table(kernel)
    unclamped = (keys, first, np.full_like(last, len(succ) - 1), succ)
    rows = np.arange(1, len(P))
    picks = _clamp_picks(unclamped, rows)
    assert (P[rows, picks] == 0).any()


def _global_search_tallies(g, start, n, reps, seed):
    kernel = NBRWKernel(g)
    state = nbrw_global_search(_dense_kernel(kernel),
                               kernel.start_distribution(start),
                               n, reps, derive_seed(seed, 0))
    return _vertex_tallies(g, state)


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("make, start", SAMPLED_WALKS)
def test_nbrw_sample_matches_global_search(make, start, seed):
    g = make()
    want = _global_search_tallies(g, start, 25, 4000, seed)
    assert (nbrw_sample(g, start, 25, 4000, seed)["tallies"] == want).all()


def test_global_search_sees_a_shifted_row_start(monkeypatch):
    # negative control: rows read from one entry past their first successor
    def shifted(kernel):
        keys, first, last, succ = table(kernel)
        return keys, first + 1, last, succ

    table = walks._successor_table
    monkeypatch.setattr(walks, "_successor_table", shifted)
    g = petersen()
    want = _global_search_tallies(g, "P0", 25, 4000, 3)
    assert (nbrw_sample(g, "P0", 25, 4000, 3)["tallies"] != want).any()


@pytest.mark.parametrize("make, start, n", NONUNIFORM_ROWS)
def test_nbrw_sample_matches_masked_reference(make, start, n):
    g = make()
    kernel = NBRWKernel(g)
    state = _masked_nbrw_reference(
        kernel, kernel.start_distribution(start), n, 3000, 21)
    want = _vertex_tallies(g, state)
    assert (nbrw_sample(g, start, n, 3000, 21)["tallies"] == want).all()


@pytest.mark.parametrize("make, start, n", NONUNIFORM_ROWS)
def test_nbrw_sample_tracks_exact_nonuniform_rows(make, start, n):
    # rows with one and two successors (weights 1.0 and 0.5) on the order
    # chain, two and three on the biregular graph
    g, reps = make(), 20000
    emp = nbrw_sample(g, start, n, reps, 4)["empirical"]
    exact = np.asarray(nbrw_exact(g, start, n)["vertex_dist"])
    sigma = np.sqrt(exact * (1 - exact) / reps)
    assert (np.abs(np.asarray(emp) - exact) <= 4 * sigma + 1e-12).all()


# ---------------------------------------------------------------------------
# tree walks


def test_harmonic_depth_one():
    out = tree_harmonic_measure(2, 1, 30000, 12)
    assert out["n_shadows"] == 3
    assert abs(out["target"] - 1 / 3) < 1e-15
    for est in out["estimates"]:
        assert abs(est - out["target"]) <= 3 * out["sigma"]
    assert abs(sum(out["estimates"]) - 1.0) < 1e-12


def test_harmonic_depth_two():
    out = tree_harmonic_measure(2, 2, 30000, 12)
    assert out["n_shadows"] == 6
    assert abs(out["target"] - 1 / 6) < 1e-15
    for est in out["estimates"]:
        assert abs(est - out["target"]) <= 3 * out["sigma"]


@pytest.mark.parametrize("q, depth", [(3, 3), (2, 4)])
def test_harmonic_deep_shadows_uniform(q, depth):
    # depth >= 3 steps back between inner levels, which depth 1 and 2 never
    # do inside the ball
    reps = 200000
    out = tree_harmonic_measure(q, depth, reps, 3)
    counts = np.rint(np.asarray(out["estimates"]) * reps)
    assert counts.sum() == reps
    assert stats.chisquare(counts).pvalue > 1e-6


@pytest.mark.parametrize("q", [2, 3, 5])
def test_last_exit_return_frequency(q):
    n = 200000
    rng = np.random.Generator(np.random.Philox(derive_seed(q, 9)))
    k = int(walks._returns_to_parent(rng, q, n).sum())
    # two-sided exact binomial acceptance region at level 1e-6
    lo, hi = stats.binom.ppf(5e-7, n, 1 / q), stats.binom.isf(5e-7, n, 1 / q)
    assert lo <= k <= hi
    assert not lo <= n / (q + 1) <= hi


@pytest.mark.parametrize("seed", [5, 7, 11])
def test_green_gate_sees_wrong_return_probability(monkeypatch, seed):
    # negative control: 1/(q+1) in place of the exact 1/q must fail the
    # 3-sigma gate of acceptance check 9
    monkeypatch.setattr(walks, "_returns_to_parent",
                        lambda rng, q, size: rng.random(size) < 1 / (q + 1))
    out = green_ratio_check(2, 1, 2, 20000, seed)
    assert abs(out["ratio"] - out["target"]) > 3 * out["sigma"]


def test_green_ratio():
    out = green_ratio_check(2, 1, 2, 20000, 7)
    assert abs(out["target"] - 2.0) < 1e-15
    assert abs(out["ratio"] - 2.0) <= 3 * out["sigma"]


@pytest.mark.parametrize("q, dxz", [(2, 2), (3, 1)])
def test_green_ratio_from_the_start_point(q, dxz):
    # G(x, x) counts the visit at time 0; without it the ratio is q^dxz / 2
    out = green_ratio_check(q, 0, dxz, 20000, 7)
    assert abs(out["target"] - q ** dxz) < 1e-12
    assert abs(out["ratio"] - out["target"]) <= 3 * out["sigma"]


def test_green_equal_distances():
    out = green_ratio_check(2, 2, 2, 2000, 1)
    assert out["ratio"] == 1.0 and out["target"] == 1.0


def test_green_seed_consistency():
    a = green_ratio_check(2, 1, 2, 10000, 1)
    b = green_ratio_check(2, 1, 2, 10000, 2)
    assert abs(a["ratio"] - b["ratio"]) <= 3 * (a["sigma"] + b["sigma"])


# ---------------------------------------------------------------------------
# Laplacian


def _reversible_conductance(g, seed):
    rng = np.random.default_rng(seed)
    c = {}
    for eid in g.edge_ids:
        e = g.edges[eid]
        if e.reverse not in c:
            c[eid] = c[e.reverse] = float(rng.normal())
    return g.with_conductance(c)


def test_laplacian_two_vertex():
    Delta = laplacian_matrices(two_vertex_segment())
    eigs = sorted(np.linalg.eigvalsh(Delta).round(12))
    assert eigs == [0.0, 2.0]


def test_laplacian_kills_constants():
    g = petersen()
    Delta = np.array(laplacian_matrices(g))
    assert np.abs(Delta @ np.ones(g.vertex_count())).max() < 1e-12


def test_laplacian_factorizes_reversible():
    g = _reversible_conductance(theta(), 5)
    assert is_reversible(g)
    D, Dstar, _ = laplacian_factors(g)
    assert np.abs(np.array(laplacian_matrices(g)) - Dstar @ D).max() < 1e-12



def test_laplacian_self_adjoint_and_positive():
    # constant conductance on a regular graph keeps deg_c constant, the
    # regime where the vol inner product makes Delta self-adjoint
    g = petersen().with_conductance(
        {e: 0.3 for e in petersen().edge_ids})
    Delta = np.array(laplacian_matrices(g))
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = rng.normal(size=g.vertex_count())
        h = rng.normal(size=g.vertex_count())
        assert abs(vol_inner(g, Delta @ f, h)
                   - vol_inner(g, f, Delta @ h)) < 1e-10
        assert vol_inner(g, Delta @ f, f) >= -1e-12


def test_laplacian_degc_weighted_symmetry():
    # general reversible c: Delta is the generator of a reversible chain,
    # symmetric once rows are weighted by deg_c
    g = _reversible_conductance(petersen(), 6)
    Delta = np.array(laplacian_matrices(g))
    _, _, degc = laplacian_factors(g)
    w = np.array([degc[v] for v in g.vertex_ids])
    M = np.diag(w) @ Delta
    assert np.abs(M - M.T).max() < 1e-12


def test_is_reversible_detects_asymmetry():
    g = theta().with_conductance({"a+": 1.0})
    assert not is_reversible(g)
