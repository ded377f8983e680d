"""Graph-of-groups loading, validation codes, volumes, transfer matrices,
and the entry-sum plan of every step over the successor lists."""

import copy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from geodlab.counting import (
    PerpQuery,
    closed_orbit_count,
    count_perpendiculars,
    theoretical_constant,
)
from geodlab.errors import DegenerateError, GraphFormatError
from geodlab.graphs import GraphOfGroups, ScatterAdd, _entries, load_validate
from geodlab.library import (
    BUILTIN,
    cycle,
    figure_eight,
    get_builtin,
    order_two_chain,
    petersen,
    theta,
)
from geodlab.shift import EdgeShift, pressure
from geodlab.walks import nbrw_exact
from oracles import (
    bass_matrix,
    entry_sums,
    lollipop,
    to_document,
    two_vertex_segment,
)


def _base_doc():
    return to_document(theta())


def test_builtins_load():
    for name in BUILTIN:
        g = get_builtin(name)
        assert g.vertex_count() >= 1


def test_unknown_builtin():
    with pytest.raises(ValueError):
        get_builtin("nope")


# ---------------------------------------------------------------------------
# validation error codes


def test_bad_involution_self_reverse():
    doc = _base_doc()
    doc["edges"][0]["reverse"] = doc["edges"][0]["id"]
    with pytest.raises(GraphFormatError) as exc:
        load_validate(doc)
    assert exc.value.code == "bad-involution"


def test_bad_involution_endpoint_mismatch():
    doc = to_document(two_vertex_segment())
    for e in doc["edges"]:
        e["to"] = e["from"]
    with pytest.raises(GraphFormatError) as exc:
        load_validate(doc)
    assert exc.value.code == "bad-involution"


def test_order_divisibility():
    doc = _base_doc()
    doc["vertices"][0]["order"] = 3
    doc["edges"][0]["order"] = 2
    doc["edges"][1]["order"] = 2
    with pytest.raises(GraphFormatError) as exc:
        load_validate(doc)
    assert exc.value.code == "order-divisibility"


def test_disconnected():
    doc = _base_doc()
    doc["vertices"].append({"id": "island", "order": 1})
    with pytest.raises(GraphFormatError) as exc:
        load_validate(doc)
    assert exc.value.code == "disconnected"


def test_empty_graph_rejected():
    with pytest.raises(GraphFormatError):
        load_validate({"vertices": [], "edges": []})


def test_dangling_vertex_reference():
    doc = _base_doc()
    doc["edges"][0]["from"] = "ghost"
    with pytest.raises(GraphFormatError) as exc:
        load_validate(doc)
    assert exc.value.code == "dangling-reference"


def test_dangling_subgraph_reference():
    doc = _base_doc()
    doc["subgraphs"]["BAD"] = {"vertices": ["ghost"], "edges": []}
    with pytest.raises(GraphFormatError) as exc:
        load_validate(doc)
    assert exc.value.code == "dangling-reference"


def test_roundtrip_document():
    g = petersen()
    doc = to_document(g)
    g2 = load_validate(copy.deepcopy(doc))
    assert g2.vertex_ids == g.vertex_ids
    assert g2.edge_ids == g.edge_ids


# ---------------------------------------------------------------------------
# volumes and degrees


def test_volumes_trivial_orders():
    cases = {
        "fig8": (Fraction(1), Fraction(4), False),
        "theta": (Fraction(2), Fraction(6), True),
        "petersen": (Fraction(10), Fraction(30), False),
        "cycle4": (Fraction(4), Fraction(8), True),
        "biregular23": (Fraction(14), Fraction(48), True),
    }
    for name, (vol, tvol, bip) in cases.items():
        rep = get_builtin(name).volumes()
        assert rep.vol == vol
        assert rep.tvol == tvol
        assert rep.bipartite is bip


def test_volumes_with_orders():
    # vertices of orders 2,2,1,1 -> vol 3; directed edge weights 1/|G_e|
    rep = order_two_chain().volumes()
    assert rep.vol == Fraction(3)
    assert rep.tvol == Fraction(9)
    assert not rep.bipartite


def test_bipartite_classes_partition():
    rep = theta().volumes()
    a, b = rep.classes
    assert set(a) | set(b) == {"u", "v"}
    assert not set(a) & set(b)


def test_tree_degrees():
    g = order_two_chain()
    assert all(g.tree_degree(v) == 3 for v in g.vertex_ids)
    g2 = petersen()
    assert all(g2.tree_degree(v) == 3 for v in g2.vertex_ids)


# ---------------------------------------------------------------------------
# non-backtracking transfer matrix


def test_nb_transfer_row_structure():
    g = petersen()
    B = g.nb_transfer()
    B = np.asarray(B, dtype=float)
    # every directed edge has exactly q = 2 non-backtracking successors
    assert (B.sum(axis=1) == 2).all()
    # no edge may be followed by its own reverse
    for eid in g.edge_ids:
        e = g.edges[eid]
        assert B[g.edge_index[eid], g.edge_index[e.reverse]] == 0


def test_nb_transfer_on_cycle_is_permutation():
    # tree degree 2: the dynamics is a rotation, one successor per edge
    B = cycle(4).nb_transfer()
    B = np.asarray(B, dtype=float)
    assert (B.sum(axis=1) == 1).all()


@pytest.mark.parametrize("make", [order_two_chain, petersen])
def test_nb_transfer_is_bass_matrix(make):
    # on orderchain e+ -> b2+ in two ways: the order-2 vertex v has two
    # lifts of b2 at each lift, and e+ arrives along neither
    g = make()
    B = np.array(bass_matrix(g), dtype=float)
    assert (g.nb_transfer() == B).all()
    assert (B == 2).any() == (make is order_two_chain)


def test_exits_carry_the_index():
    g = order_two_chain()
    g.subgraphs["U"] = {"vertices": ["u"], "edges": []}
    assert g.exits("U") == [("b1+", 2), ("e+", 1)]
    assert g.exits("X") == [("b1-", 1), ("b2-", 1), ("c+", 1)]


def test_nb_transfer_degenerate_on_segment():
    with pytest.raises(DegenerateError):
        two_vertex_segment().nb_transfer()


def test_with_conductance():
    g = figure_eight()
    g2 = g.with_conductance({"a+": 0.5, "a-": 0.5})
    assert g2.edges["a+"].conductance == 0.5
    assert g2.edges["b+"].conductance == 0.0
    # original untouched
    assert g.edges["a+"].conductance == 0.0


def test_subgraph_lookup():
    g = figure_eight()
    sub = g.subgraph("A")
    assert sub["vertices"] == ["v"]
    with pytest.raises(GraphFormatError):
        g.subgraph("missing")


# ---------------------------------------------------------------------------
# the entry-sum plan


def _bits(values):
    """Values compared bit for bit: floats by float.hex, ints as they are."""
    return [v.hex() if isinstance(v, float) else (type(v), v) for v in values]


@st.composite
def _rows_and_vectors(draw):
    """Successor rows over n letters, pairs (f, m) with f ascending and m
    ways as a graph of groups has them, and rows of one pair or none; an
    int vector, a float vector and positive float coefficients, one per
    pair."""
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.dictionaries(st.integers(0, n - 1),
                                         st.integers(1, 4), max_size=6)
                         .map(lambda row: sorted(row.items())),
                         min_size=n, max_size=n))
    entries = sum(map(len, rows))
    ints = draw(st.lists(st.integers(0, 10 ** 30), min_size=n, max_size=n))
    floats = draw(st.lists(st.floats(0, 1e6), min_size=n, max_size=n))
    coeffs = draw(st.lists(st.floats(1e-3, 1e3), min_size=entries,
                           max_size=entries))
    return rows, ints, floats, coeffs


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          phases=[Phase.generate])
@given(_rows_and_vectors())
def test_plan_matches_the_entry_by_entry_sum(case):
    rows, ints, floats, coeffs = case
    n = len(rows)
    src, dst, _ = _entries(rows)
    # the ways as the coefficients of the exact step
    ways = [m for row in rows for _, m in row]
    # push x B (target = column) and pull B x (target = row)
    for targets, sources in ((dst, src), (src, dst)):
        for c, x in ((None, ints), (ways, ints), (coeffs, floats)):
            plan = ScatterAdd(targets, sources, c, n)
            assert _bits(plan(x)) == _bits(
                entry_sums(targets, sources, c, x, n))


def test_entry_sum_check_sees_the_descending_order():
    # negative control: one target, three terms; from the first, 1.0 absorbs
    # each 1e-16, while the two added first reach past half an ulp of 1.0
    targets, sources, x = [0, 0, 0], [0, 1, 2], [1.0, 1e-16, 1e-16]
    got = ScatterAdd(targets, sources, None, 1)(x)
    assert _bits(got) == _bits(entry_sums(targets, sources, None, x, 1))
    assert _bits(got) != _bits(
        entry_sums(targets[::-1], sources[::-1], None, x, 1))



class _Built(Exception):
    """Raised where a plan is built, to stop its verb there."""


def _heavy_plan_passes(monkeypatch, run=True):
    """(targets, passes) of every plan that count perp from B to B to
    length 20 with its constant, count orbits to 20, shift pressure and
    the exact walk nbrw to 20 steps build on the lollipop of order 10^5.
    With ``run`` False each verb stops at its first plan."""
    plans = []
    init = ScatterAdd.__init__

    def recorded(self, targets, sources, coeffs, size):
        init(self, targets, sources, coeffs, size)
        plans.append((len(set(targets)), len(self.layers)))
        if not run:
            raise _Built

    monkeypatch.setattr(ScatterAdd, "__init__", recorded)
    g = lollipop(10 ** 5)
    query = PerpQuery(g, "B", "B", 20)
    verbs = [lambda: theoretical_constant(query, count_perpendiculars(query)),
             lambda: closed_orbit_count(g, 20),
             lambda: pressure(EdgeShift.from_graph(g)),
             lambda: nbrw_exact(g, "B", 20)]
    for verb in verbs:
        try:
            verb()
        except _Built:
            pass
    return plans


# the passes a plan may make beyond one per target
EXTRA_PASSES = 4


def test_heavy_vertex_plans_pass_once_per_target(monkeypatch):
    plans = _heavy_plan_passes(monkeypatch)
    # the count's step, the constant's and the pressure's two power
    # iteration steps each, the sweep of the orbits and the law's step
    assert len(plans) == 7
    assert all(passes <= targets + EXTRA_PASSES for targets, passes in plans)


def test_pass_check_sees_each_way_as_an_entry(monkeypatch):
    # negative control: each pair (f, m) expanded back into m entries
    # (f, 1), so the heavy row's in-list takes one pass per way; the
    # verbs stop at their first plan, which would take minutes to run
    rule = GraphOfGroups.nb_successors
    monkeypatch.setattr(GraphOfGroups, "nb_successors", lambda self: [
        [(f, 1) for f, m in row for _ in range(m)] for row in rule(self)])
    plans = _heavy_plan_passes(monkeypatch, run=False)
    assert len(plans) == 4
    assert any(passes > targets + EXTRA_PASSES for targets, passes in plans)
