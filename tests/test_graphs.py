"""Graph-of-groups loading, validation codes, volumes, transfer matrices."""

import copy
from fractions import Fraction

import numpy as np
import pytest

from geodlab.errors import DegenerateError, GraphFormatError
from geodlab.graphs import load_validate, to_document
from geodlab.library import (
    BUILTIN,
    cycle,
    figure_eight,
    get_builtin,
    order_two_chain,
    petersen,
    theta,
)
from oracles import two_vertex_segment


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
