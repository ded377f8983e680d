"""Built-in example graphs.

All builders return a GraphOfGroups with trivial orders (unless stated) and
zero conductances, plus handy named subgraphs.  Edge ids come in reverse
pairs "xyz+"/"xyz-".
"""

from .graphs import load_validate


def _doc(vertices, pairs, subgraphs=None, orders=None):
    """pairs: list of (name, from, to) or (name, from, to, edge order);
    creates name+ and name-, of order 1 unless given."""
    orders = orders or {}
    doc = {
        "vertices": [{"id": v, "order": orders.get(v, 1)} for v in vertices],
        "edges": [],
        "subgraphs": subgraphs or {},
    }
    for name, u, v, *order in pairs:
        order = order[0] if order else 1
        doc["edges"].append({"id": name + "+", "from": u, "to": v,
                             "reverse": name + "-", "order": order,
                             "conductance": 0.0})
        doc["edges"].append({"id": name + "-", "from": v, "to": u,
                             "reverse": name + "+", "order": order,
                             "conductance": 0.0})
    return doc


def figure_eight():
    """One vertex with two loop pairs: the 4-regular rose."""
    doc = _doc(["v"], [("a", "v", "v"), ("b", "v", "v")],
               subgraphs={"A": {"vertices": ["v"], "edges": []}})
    return load_validate(doc)


def theta():
    """Two vertices joined by three parallel edge pairs (bipartite, cubic)."""
    doc = _doc(["u", "v"],
               [("a", "u", "v"), ("b", "u", "v"), ("c", "u", "v")],
               subgraphs={"U": {"vertices": ["u"], "edges": []},
                          "V": {"vertices": ["v"], "edges": []}})
    return load_validate(doc)


def petersen():
    """The Petersen graph: 3-regular, 10 vertices, nonbipartite, girth 5."""
    outer = [f"o{i}" for i in range(5)]
    inner = [f"i{i}" for i in range(5)]
    pairs = []
    for i in range(5):
        pairs.append((f"r{i}", outer[i], outer[(i + 1) % 5]))
        pairs.append((f"s{i}", outer[i], inner[i]))
        pairs.append((f"p{i}", inner[i], inner[(i + 2) % 5]))
    doc = _doc(outer + inner, pairs,
               subgraphs={"P0": {"vertices": ["o0"], "edges": []},
                          "P1": {"vertices": ["o2"], "edges": []}})
    return load_validate(doc)


def dumbbell():
    """Two vertices, a loop pair at each, joined by a bridge pair (cubic).

    Nonbipartite, |V| = 2; the loop at u is the subgraph "K" (a length-1
    simple cycle), the single vertex u is "X".
    """
    doc = _doc(["u", "w"],
               [("l", "u", "u"), ("m", "w", "w"), ("b", "u", "w")],
               subgraphs={"K": {"vertices": ["u"], "edges": ["l+", "l-"]},
                          "X": {"vertices": ["u"], "edges": []},
                          "W": {"vertices": ["w"], "edges": []}})
    return load_validate(doc)


def cycle(n, subgraph_len=None):
    """Simple cycle on n >= 3 vertices; subgraph "C" is the whole cycle."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    verts = [f"v{i}" for i in range(n)]
    pairs = [(f"e{i}", verts[i], verts[(i + 1) % n]) for i in range(n)]
    doc = _doc(verts, pairs,
               subgraphs={"C": {"vertices": verts,
                                "edges": [f"e{i}{s}" for i in range(n)
                                          for s in "+-"]}})
    return load_validate(doc)


def biregular_two_cycles():
    """A (3,4)-biregular bipartite graph containing two disjoint 4-cycles.

    Vertices a0..a7 have degree 3, vertices b0..b5 have degree 4, every edge
    joins an a to a b.  In the Bass-Serre picture this is the (p+1, q+1) =
    (3, 4) biregular tree quotient with p = 2, q = 3.  Subgraphs "C1" and
    "C2" are the two disjoint simple cycles a0-b0-a1-b1 and a2-b2-a3-b3.
    """
    a = [f"a{i}" for i in range(8)]
    b = [f"b{i}" for i in range(6)]
    pairs = [
        ("c10", "a0", "b0"), ("c11", "b0", "a1"),
        ("c12", "a1", "b1"), ("c13", "b1", "a0"),
        ("c20", "a2", "b2"), ("c21", "b2", "a3"),
        ("c22", "a3", "b3"), ("c23", "b3", "a2"),
        ("x0", "a0", "b4"), ("x1", "a1", "b4"),
        ("x2", "a2", "b5"), ("x3", "a3", "b5"),
        ("y0", "a4", "b0"), ("y1", "a4", "b1"), ("y2", "a4", "b4"),
        ("y3", "a5", "b2"), ("y4", "a5", "b3"), ("y5", "a5", "b5"),
        ("z0", "a6", "b0"), ("z1", "a6", "b1"), ("z2", "a6", "b5"),
        ("z3", "a7", "b2"), ("z4", "a7", "b3"), ("z5", "a7", "b4"),
    ]
    c1 = [f"c1{i}" for i in range(4)]
    c2 = [f"c2{i}" for i in range(4)]
    doc = _doc(a + b, pairs, subgraphs={
        "C1": {"vertices": ["a0", "b0", "a1", "b1"],
               "edges": [e + s for e in c1 for s in "+-"]},
        "C2": {"vertices": ["a2", "b2", "a3", "b3"],
               "edges": [e + s for e in c2 for s in "+-"]},
    })
    return load_validate(doc)


def order_two_chain():
    """Homogeneous graph of groups with two order-2 vertices.

    Vertices u, v have group order 2, w and x order 1.  The edge u-v has
    order 2 (index 1 on both sides); the bridges u-w and v-w have order 1
    (index 2 from the order-2 side); w-x and the loop at x are plain.
    Every vertex then has Bass-Serre tree degree 3 and the loop makes the
    graph nonbipartite, so the vertex law of the non-backtracking walk
    converges to vol/Vol = (1/6, 1/6, 1/3, 1/3), not to uniform.
    """
    doc = _doc(["u", "v", "w", "x"],
               [("e", "u", "v", 2), ("b1", "u", "w"), ("b2", "v", "w"),
                ("c", "w", "x"), ("m", "x", "x")],
               subgraphs={"X": {"vertices": ["w"], "edges": []}},
               orders={"u": 2, "v": 2})
    return load_validate(doc)


BUILTIN = {
    "fig8": figure_eight,
    "theta": theta,
    "petersen": petersen,
    "dumbbell": dumbbell,
    "cycle3": lambda: cycle(3),
    "cycle4": lambda: cycle(4),
    "biregular23": biregular_two_cycles,
    "orderchain": order_two_chain,
}


def get_builtin(name):
    try:
        return BUILTIN[name]()
    except KeyError:
        raise ValueError(f"unknown builtin graph {name!r}; "
                         f"choices: {', '.join(sorted(BUILTIN))}") from None
