"""Non-backtracking random walks, tree walks, and the weighted Laplacian."""

import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from scipy import stats

from geodlab import walks
from geodlab.errors import DegenerateError
from geodlab.graphs import MAX_SUCCESSORS, load_validate
from geodlab.library import (
    BUILTIN,
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
    bass_matrix,
    dense,
    green_ratio_reference,
    is_reversible,
    laplacian_factors,
    nbrw_global_search,
    nbrw_law_reference,
    nbrw_sample_reference,
    order_three_pair,
    tree_harmonic_reference,
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


def test_derive_seed_rejects_inputs_outside_64_bits():
    for master, index in [(-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64)]:
        with pytest.raises(ValueError):
            derive_seed(master, index)
    # why: mixed modulo 2^64, -1 would be 2^64 - 1 and 2^64 would be 0
    assert _splitmix64_oracle(-1, 0) == derive_seed(2 ** 64 - 1, 0)
    assert _splitmix64_oracle(2 ** 64, 0) == derive_seed(0, 0)


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


def _kernel_misses():
    """The graphs whose kernel is not Bass's matrix over its row sums."""
    misses = []
    for g in (order_two_chain(), order_three_pair(), petersen(), theta()):
        B = np.array(bass_matrix(g), dtype=float)
        want = B / B.sum(axis=1, keepdims=True)
        if np.abs(_dense_kernel(NBRWKernel(g)) - want).max() > 1e-15:
            misses.append(sorted(g.vertices))
    return misses


def test_kernel_is_bass_matrix_over_its_row_sums():
    assert _kernel_misses() == []


def test_kernel_check_catches_merged_repeats(merged_repeats_rule):
    # negative control: orderchain's repeats fill whole rows, where merging
    # keeps the law; the pair's rows hold 2 ways along t and 1 along a loop
    assert _kernel_misses() == [sorted(order_three_pair().vertices)]


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


LAW_STEPS = (1, 2, 3, 7, 50, 333, 1000, 5000)


def _law_walks():
    """(name, graph, start subgraph): every builtin with tree degrees >= 2
    from each of its subgraphs with exit edges, and seeded cubic and
    quartic graphs."""
    out = [("cubic", _random_cubic(), "S"),
           ("quartic", _random_regular(4, 30, 5), "S")]
    for name in sorted(BUILTIN):
        g = BUILTIN[name]()
        for sub in sorted(g.subgraphs):
            try:
                NBRWKernel(g).start_distribution(sub)
            except DegenerateError:
                continue
            out.append((name, g, sub))
    return out


# the array code's laws by (graph, start), shared by the check and its
# control
_LAW_REFERENCE = {}


def _law_misses():
    """The (graph, start, n) at which nbrw_exact's law, target or total
    variation differs in any bit from the array code's, n in LAW_STEPS."""
    misses = []
    for name, g, sub in _law_walks():
        if (name, sub) not in _LAW_REFERENCE:
            _LAW_REFERENCE[name, sub] = nbrw_law_reference(g, sub, LAW_STEPS)
        want = _LAW_REFERENCE[name, sub]
        for n in LAW_STEPS:
            out = nbrw_exact(g, sub, n)
            got = np.array([*out["vertex_dist"], *out["target"],
                            out["tv_to_target"]])
            if got.tobytes() != np.array([*want[n][0], *want[n][1],
                                          want[n][2]]).tobytes():
                misses.append((name, sub, n))
    return misses


def test_exact_law_is_the_array_code_bit_for_bit():
    assert _law_misses() == []


def _stop_without_tail(step, x, k):
    """walks._iterate returning the state at which the repeat shows,
    without the (k - t) mod lam steps on to step k."""
    saved, saved_t, power = x, 0, 1
    for t in range(1, k + 1):
        prev, x = x, step(x)
        if x == prev or x == saved:
            return x
        if t - saved_t == power:
            saved, saved_t, power = x, t, 2 * power
    return x


def test_law_check_sees_a_cycle_stop_without_its_tail(monkeypatch):
    # negative control: theta's law is periodic with period 2 and
    # dumbbell's with period 6, so stopping where the cycle shows is off
    # at most horizons; a fixed point needs no tail
    monkeypatch.setattr(walks, "_iterate", _stop_without_tail)
    assert {name for name, _, _ in _law_misses()} == {"theta", "dumbbell"}


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


def _random_regular(degree, n, seed):
    """A seeded random regular graph; "S" is one vertex."""
    h = nx.random_regular_graph(degree, n, seed=seed)
    edges = []
    for k, (u, v) in enumerate(h.edges()):
        edges += [{"id": f"e{k}+", "from": f"v{u}", "to": f"v{v}",
                   "reverse": f"e{k}-"},
                  {"id": f"e{k}-", "from": f"v{v}", "to": f"v{u}",
                   "reverse": f"e{k}+"}]
    return load_validate({
        "vertices": [{"id": f"v{v}"} for v in h.nodes()], "edges": edges,
        "subgraphs": {"S": {"vertices": ["v0"], "edges": []}}})


def _random_cubic():
    """A seeded random cubic graph on 40 vertices; "S" is one vertex."""
    return _random_regular(3, 40, 11)


NONUNIFORM_ROWS = [(order_two_chain, "X", 7), (biregular_two_cycles, "C1", 9)]
SAMPLED_WALKS = [(figure_eight, "A"), (theta, "U"), (petersen, "P0"),
                 (dumbbell, "K"), (biregular_two_cycles, "C1"),
                 (order_two_chain, "X"), (_random_cubic, "S")]


def _row_bound_misses(u):
    """The row lengths L <= MAX_SUCCESSORS whose entry floor(u L), the one a
    draw u picks, lies past the row."""
    rows = np.arange(1, MAX_SUCCESSORS + 1)
    return rows[(u * rows).astype(np.intp) >= rows]


def test_entry_index_stays_in_its_row():
    # the largest double rng.random can return
    assert _row_bound_misses(np.nextafter(1.0, 0.0)).size == 0


def test_row_bound_check_sees_a_draw_of_one():
    # negative control: u = 1 picks entry L, the first of the next row
    assert _row_bound_misses(1.0).size == MAX_SUCCESSORS


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


def test_global_search_sees_shifted_entry_offsets(monkeypatch):
    # negative control: each row read from one entry before its first
    init = NBRWKernel.__init__

    def shifted(self, graph):
        init(self, graph)
        self.offset = [o - 1 for o in self.offset]

    monkeypatch.setattr(NBRWKernel, "__init__", shifted)
    g = petersen()
    want = _global_search_tallies(g, "P0", 25, 4000, 3)
    assert (nbrw_sample(g, "P0", 25, 4000, 3)["tallies"] != want).any()


def _pair_sample_misses(seeds, n=25, reps=4000):
    """The seeds at which nbrw_sample on the order-3 pair, from A = {a},
    differs from the global search over Bass's matrix divided by its row
    sums, with the start law read off the edge records: exit e of a with
    weight i(e).  Neither the kernel nor the edge rule enters the oracle."""
    g = order_three_pair()
    ids = sorted(g.edges)
    B = np.array(bass_matrix(g), dtype=float)
    ways = np.array([g.vertices["a"].order // g.edges[e].order
                     if g.edges[e].origin == "a" else 0 for e in ids])
    term = [g.vertex_index[g.edges[e].terminus] for e in ids]
    misses = []
    for seed in seeds:
        state = nbrw_global_search(B / B.sum(axis=1, keepdims=True),
                                   ways / ways.sum(), n, reps,
                                   derive_seed(seed, 0))
        want = np.bincount(np.take(term, state), minlength=2)
        if (nbrw_sample(g, "A", n, reps, seed)["tallies"] != want).any():
            misses.append(seed)
    return misses


def test_nbrw_sample_follows_bass_matrix_on_a_graph_of_groups():
    # rows of 4 entries: after t, 2 ways back along t and 1 along each
    # loop edge; after a loop edge, 3 ways along t and 1 along the loop
    assert _pair_sample_misses([3, 8]) == []


def test_bass_sample_check_sees_merged_repeats(merged_repeats_rule):
    # negative control: each successor once, so uniform over distinct ones
    assert _pair_sample_misses([3, 8]) == [3, 8]


@pytest.mark.parametrize("make, start, n", NONUNIFORM_ROWS)
def test_nbrw_sample_matches_masked_reference(make, start, n):
    g = make()
    kernel = NBRWKernel(g)
    state = _masked_nbrw_reference(
        kernel, kernel.start_distribution(start), n, 3000, 21)
    want = _vertex_tallies(g, state)
    assert (nbrw_sample(g, start, n, 3000, 21)["tallies"] == want).all()


def _read_skipping_discard(self, pos, out):
    """_Stream.read without its discard: a seek reads from the start of the
    four-draw block that holds draw pos."""
    if pos != self.pos:
        self._rng.bit_generator.state = self._start
        self._rng.bit_generator.advance(int(pos) // 4)
    self._rng.random(out=out)
    self.pos = pos + len(out)
    return out


def _read_never_seeking(self, pos, out):
    """_Stream.read that reads on from where the last read stopped,
    wherever pos is."""
    self._rng.random(out=out)
    self.pos = pos + len(out)
    return out


def _read(stream, pos, n):
    return stream.read(pos, np.empty(n))


# reads in turn on one stream, (pos, draws): a seek off a block start, a
# read that reads on, a seek back to a block start, a read on, and a seek
# forward off a block start
ONE_STREAM_READS = [(5, 7), (12, 9), (8, 4), (12, 6), (30, 3)]


def _position_misses():
    """The reads of a _Stream that give other draws than the stream does
    from their position on: a read of a new stream at each pos % 4, across
    block edges; at positions past 2^40, checked against a read from the
    start of the block two before; and the reads of ONE_STREAM_READS on one
    stream, as ("one stream", pos)."""
    stream = np.random.Generator(np.random.Philox(derive_seed(3, 0)))
    draws = stream.random(64)
    misses = [pos for pos in range(40) if (_read(walks._Stream(3, 0), pos, 24)
                                           != draws[pos:pos + 24]).any()]
    for pos in range(2 ** 40, 2 ** 40 + 4):
        skip = pos % 4 + 8
        if (_read(walks._Stream(3, 0), pos, 24)
                != _read(walks._Stream(3, 0), pos - skip,
                         24 + skip)[skip:]).any():
            misses.append(pos)
    one = walks._Stream(3, 0)
    misses += [("one stream", pos) for pos, n in ONE_STREAM_READS
               if (_read(one, pos, n) != draws[pos:pos + n]).any()]
    return misses


def test_stream_reads_from_every_position():
    assert _position_misses() == []


def test_position_check_sees_a_skipped_discard(monkeypatch):
    # negative control: only seeks to block starts are read right, and a
    # read on from a wrong seek is wrong too
    monkeypatch.setattr(walks._Stream, "read", _read_skipping_discard)
    assert _position_misses() == [
        pos for pos in range(40) if pos % 4] + [
        2 ** 40 + 1, 2 ** 40 + 2, 2 ** 40 + 3,
        ("one stream", 5), ("one stream", 12), ("one stream", 30)]


def test_position_check_sees_a_read_that_never_seeks(monkeypatch):
    # negative control: a new stream is right only at draw 0, and one
    # stream only until its first seek
    monkeypatch.setattr(walks._Stream, "read", _read_never_seeking)
    assert _position_misses() == list(range(1, 40)) + [
        2 ** 40, 2 ** 40 + 1, 2 ** 40 + 2, 2 ** 40 + 3] + [
        ("one stream", pos) for pos, _ in ONE_STREAM_READS]


@pytest.mark.parametrize("law", [
    np.array(NBRWKernel(petersen()).start_distribution("P0")),
    np.array([0.0, 0.25, 0.0, 0.0, 0.5, 0.25, 0.0])],
    ids=["petersen", "zeros"])
def test_choice_is_the_inverse_cdf_of_as_many_draws(law):
    # nbrw_sample picks its start edges as rng.choice, which its
    # reference calls, does from the same draws: one draw per path,
    # through the normalised cumulative sums
    m = 5000
    got = np.random.Generator(np.random.Philox(7)).choice(len(law), size=m,
                                                          p=law)
    cdf = law.cumsum()
    cdf /= cdf[-1]
    draws = np.random.Generator(np.random.Philox(7)).random(m)
    assert (got == cdf.searchsorted(draws, side="right")).all()
    assert (law[got] > 0).all()


# paths in one chunk, at its edges, and in four chunks, the last of 5
NBRW_REPS = [1, walks.CHUNK - 1, walks.CHUNK, walks.CHUNK + 1,
             3 * walks.CHUNK + 5]


def _nbrw_reference_misses(n):
    """The reps of NBRW_REPS at which nbrw_sample on Petersen, n steps,
    differs from the reference that draws every path at once."""
    g = petersen()
    kernel = NBRWKernel(g)
    law = kernel.start_distribution("P0")
    return [reps for reps in NBRW_REPS
            if (nbrw_sample(g, "P0", n, reps, 13)["tallies"]
                != nbrw_sample_reference(kernel, law, n, reps,
                                         derive_seed(13, 0))).any()]


@pytest.mark.parametrize("n", [1, 2, 60])
def test_nbrw_sample_matches_the_reference(n):
    assert _nbrw_reference_misses(n) == []


def test_nbrw_reference_check_sees_a_skipped_discard(monkeypatch):
    # negative control: one chunk reads on and never seeks; with more, the
    # step draws of a chunk start at t * reps + a, off a block start
    # whenever reps is not a multiple of 4
    monkeypatch.setattr(walks._Stream, "read", _read_skipping_discard)
    assert _nbrw_reference_misses(2) == [walks.CHUNK + 1,
                                         3 * walks.CHUNK + 5]


def test_nbrw_reference_check_sees_a_read_that_never_seeks(monkeypatch):
    # negative control: more than one chunk reads the step draws of its
    # first chunk where the start draws of the next ones lie
    monkeypatch.setattr(walks._Stream, "read", _read_never_seeking)
    assert _nbrw_reference_misses(2) == [walks.CHUNK + 1,
                                         3 * walks.CHUNK + 5]


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


def wrong_return_probability(monkeypatch):
    """Last-exit draws that return with probability 1/(q+1), not 1/q."""
    monkeypatch.setattr(walks, "_returns_to_parent",
                        lambda u, q: u < 1 / (q + 1))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_last_exit_return_frequency(q):
    n = 200000
    rng = np.random.Generator(np.random.Philox(derive_seed(q, 9)))
    k = int(walks._returns_to_parent(rng.random(n), q).sum())
    # two-sided exact binomial acceptance region at level 1e-6
    lo, hi = stats.binom.ppf(5e-7, n, 1 / q), stats.binom.isf(5e-7, n, 1 / q)
    assert lo <= k <= hi
    assert not lo <= n / (q + 1) <= hi


@pytest.mark.parametrize("seed", [5, 7, 11])
def test_green_gate_sees_wrong_return_probability(monkeypatch, seed):
    # negative control: 1/(q+1) in place of the exact 1/q must fail the
    # 3-sigma gate of acceptance check 9
    wrong_return_probability(monkeypatch)
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


# the kernels against the references they replaced: the same draws, so the
# same tallies and ratio; reps past one batch (200,000 and 100,000)


def _harmonic_misses(cases, reps):
    """The (q, depth) whose tallies differ from the reference's."""
    return [(q, depth) for q, depth in cases
            if (np.rint(tree_harmonic_measure(q, depth, reps, 4)["estimates"]
                        * reps).astype(np.int64)
                != tree_harmonic_reference(q, depth, reps,
                                           derive_seed(4, 1))).any()]


def _green_misses(cases):
    """The (q, d_xy, d_xz, reps) whose ratio differs from the reference's
    or whose stderr is more than 1e-13 from it, relatively."""
    misses = []
    for case in cases:
        out = green_ratio_check(*case, 6)
        ratio, sigma = green_ratio_reference(*case, derive_seed(6, 2))
        if out["ratio"] != ratio or not math.isclose(out["sigma"], sigma,
                                                     rel_tol=1e-13):
            misses.append(case)
    return misses


HARMONIC_CASES = [(q, depth) for q in (2, 3, 5) for depth in (1, 2, 3)]
GREEN_CASES = [(2, 1, 2, 250_000), (3, 0, 2, 150_000), (2, 0, 1, 20_000),
               (3, 2, 1, 20_000), (5, 1, 1, 1_000)]


def test_harmonic_tallies_match_the_reference():
    assert _harmonic_misses(HARMONIC_CASES, 450_000) == []


def test_green_ratio_matches_the_reference():
    assert _green_misses(GREEN_CASES) == []


def test_reference_checks_see_a_wrong_return_probability(monkeypatch):
    # negative control: each reference keeps its own exact draw
    wrong_return_probability(monkeypatch)
    assert _harmonic_misses(HARMONIC_CASES[:4], 20_000) == \
        HARMONIC_CASES[:4]
    assert _green_misses(GREEN_CASES[2:4]) == GREEN_CASES[2:4]


def _small_chunk_misses():
    """The kernels whose draws move when every pass or path set runs in
    chunks of 61 walks, so that most chunks read from inside a block:
    harmonic and Green against their references, the NBRW against the one
    that draws all paths at once."""
    misses = _harmonic_misses(HARMONIC_CASES[:4], 2_000)
    misses += _green_misses([(2, 1, 2, 2_000), (3, 0, 2, 2_000)])
    for make, start in SAMPLED_WALKS:
        g = make()
        kernel = NBRWKernel(g)
        want = nbrw_sample_reference(kernel, kernel.start_distribution(start),
                                     9, 500, derive_seed(2, 0))
        if (nbrw_sample(g, start, 9, 500, 2)["tallies"] != want).any():
            misses.append(start)
    return misses


def test_kernels_draw_the_same_in_small_chunks(monkeypatch):
    monkeypatch.setattr(walks, "CHUNK", 61)
    assert _small_chunk_misses() == []


# every kernel, except the NBRW on the figure eight, whose one vertex takes
# every path, and on theta, where the parity of the step fixes the vertex
SMALL_CHUNK_MOVERS = HARMONIC_CASES[:4] + [
    (2, 1, 2, 2_000), (3, 0, 2, 2_000), "P0", "K", "C1", "X", "S"]


def test_small_chunk_check_sees_a_skipped_discard(monkeypatch):
    # negative control
    monkeypatch.setattr(walks, "CHUNK", 61)
    monkeypatch.setattr(walks._Stream, "read", _read_skipping_discard)
    assert _small_chunk_misses() == SMALL_CHUNK_MOVERS


def test_small_chunk_check_sees_a_read_that_never_seeks(monkeypatch):
    # negative control
    monkeypatch.setattr(walks, "CHUNK", 61)
    monkeypatch.setattr(walks._Stream, "read", _read_never_seeking)
    assert _small_chunk_misses() == SMALL_CHUNK_MOVERS


def _peak_mb(fn, *args):
    """Peak traced allocation of fn(*args), in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _harmonic_peak_mb(fn):
    return _peak_mb(fn, 2, 2, 200_000, 5)


def _green_growth(fn):
    """Peak at 10^6 walks over the peak at 10^5."""
    return (_peak_mb(fn, 2, 1, 2, 10 ** 6, 5)
            / _peak_mb(fn, 2, 1, 2, 10 ** 5, 5))


def _nbrw_growth(fn):
    """Peak of fn(reps), two steps of reps paths on Petersen, at 10^6
    paths over the peak at 10^5."""
    return _peak_mb(fn, 10 ** 6) / _peak_mb(fn, 10 ** 5)


# a batch's level and vertex columns take 1 MB, chunk-long draws and
# temporaries 0.4 MB
HARMONIC_PEAK_MB = 2.5


def test_harmonic_memory_is_bounded_by_the_batch():
    assert _harmonic_peak_mb(tree_harmonic_measure) <= HARMONIC_PEAK_MB


def test_harmonic_memory_bound_sees_batch_long_draws(monkeypatch):
    # negative control: one chunk per batch, so draws and temporaries as
    # long as the batch, 5.8 MB
    monkeypatch.setattr(walks, "CHUNK", 200_000)
    assert _harmonic_peak_mb(tree_harmonic_measure) > HARMONIC_PEAK_MB


def test_harmonic_memory_bound_sees_the_reference():
    # negative control: int64 states and np.where temporaries, 10 MB
    assert _harmonic_peak_mb(tree_harmonic_reference) > HARMONIC_PEAK_MB


def test_green_memory_does_not_grow_with_reps():
    assert _green_growth(green_ratio_check) <= 1.5


def test_green_memory_bound_sees_the_reference():
    # negative control: visit arrays as long as reps, and np.cov's copy
    assert _green_growth(green_ratio_reference) > 1.5


def test_nbrw_memory_does_not_grow_with_reps():
    g = petersen()
    assert _nbrw_growth(lambda reps: nbrw_sample(g, "P0", 2, reps, 5)) <= 1.5


def test_nbrw_memory_bound_sees_the_reference():
    # negative control: three arrays of reps entries
    kernel = NBRWKernel(petersen())
    law = kernel.start_distribution("P0")
    assert _nbrw_growth(lambda reps: nbrw_sample_reference(
        kernel, law, 2, reps, derive_seed(5, 0))) > 1.5


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
