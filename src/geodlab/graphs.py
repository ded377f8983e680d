"""Finite graphs in Serre's conventions with group orders and conductances.

A graph is stored with directed edges; reversal is a fixed-point-free
involution.  Vertex and edge "orders" are the orders of the attached finite
groups — only the orders matter here.  The tree degree of a vertex is
deg(v) = sum of i(e) = |G_{o(e)}|/|G_e| over outgoing edges, i.e. its degree
in the Bass-Serre tree.  ``nb_successors`` holds the one non-backtracking
edge rule (Bass 1992; Serre, Trees, I.4): a tree path continues from e into
f, o(f) = t(e), in m = i(f) - [f = reverse of e] ways, and row e holds the
pairs (f, m) with m >= 1.  Counting, the shift and the NBRW all step over
these rows, each linear step through one plan, ``ScatterAdd``, that adds
the terms of every target in the order of its entries, one entry per pair
with its ways in the coefficient; the other float sums of counting, the
shift and the Laplacian add left to right (``fold_sum``), so that no
printed float depends on the Python version.

numpy is imported only by ``nb_transfer``, a dense view of the edge
operator that no verb calls: loading and validating a graph, and every
verb that steps over ``nb_successors``, start without numpy.  json and
fractions are imported by the one function that needs each, so the walk
verbs, which use this module for its steps only, run without them.
"""

import functools
import math
import operator

from .errors import DegenerateError, GraphFormatError, TooLargeError

# cap on the ways of nb_successors, the sum of m over its pairs: the ways of
# a row add up to a tree degree
MAX_SUCCESSORS = 2 ** 20


class Vertex:
    __slots__ = ("id", "order")

    def __init__(self, vid, order=1):
        self.id = vid
        self.order = order


class Edge:
    __slots__ = ("id", "origin", "terminus", "reverse", "order", "conductance")

    def __init__(self, eid, origin, terminus, reverse, order=1, conductance=0.0):
        self.id = eid
        self.origin = origin
        self.terminus = terminus
        self.reverse = reverse
        self.order = order
        self.conductance = conductance


class GraphOfGroups:
    """Finite connected graph of groups (orders only) with conductances.

    Iteration order everywhere is ascending edge id / vertex id, which fixes
    matrix indexing and makes all downstream numerics deterministic.
    """

    def __init__(self, vertices, edges, subgraphs=None):
        self.vertices = {v.id: v for v in vertices}
        self.edges = {e.id: e for e in edges}
        self.vertex_ids = sorted(self.vertices)
        self.edge_ids = sorted(self.edges)
        self.vertex_index = {v: i for i, v in enumerate(self.vertex_ids)}
        self.edge_index = {e: i for i, e in enumerate(self.edge_ids)}
        self.subgraphs = subgraphs or {}
        self._out = {v: [] for v in self.vertex_ids}
        for eid in self.edge_ids:
            self._out[self.edges[eid].origin].append(eid)

    # -- basic accessors -------------------------------------------------

    def out_edges(self, vid):
        return self._out[vid]

    def edge_count(self):
        return len(self.edges)

    def vertex_count(self):
        return len(self.vertices)

    def index_i(self, eid):
        """i(e) = |G_{o(e)}| / |G_e|."""
        e = self.edges[eid]
        return self.vertices[e.origin].order // e.order

    def tree_degree(self, vid):
        return sum(self.index_i(eid) for eid in self._out[vid])

    def edge_weights(self):
        """w(e) = exp(c(e)) for each edge, in ``edge_ids`` order;
        TooLargeError when a weight exceeds the float range."""
        try:
            return [math.exp(self.edges[e].conductance) for e in self.edge_ids]
        except OverflowError as exc:
            raise TooLargeError(
                "an edge weight exp(conductance) exceeds the float range"
            ) from exc

    def with_conductance(self, cmap):
        """Copy with conductances replaced; cmap maps edge id -> float."""
        verts = [Vertex(v.id, v.order) for v in self.vertices.values()]
        edges = [Edge(e.id, e.origin, e.terminus, e.reverse, e.order,
                      float(cmap.get(e.id, e.conductance)))
                 for e in self.edges.values()]
        return GraphOfGroups(verts, edges, dict(self.subgraphs))

    # -- volumes ---------------------------------------------------------

    def volumes(self):
        from fractions import Fraction

        vol = sum(Fraction(1, v.order) for v in self.vertices.values())
        tvol = sum(Fraction(1, e.order) for e in self.edges.values())
        degrees = {v: self.tree_degree(v) for v in self.vertex_ids}
        bip, classes = self._two_color()
        return VolumeReport(vol, tvol, degrees, bip, classes)

    def _two_color(self):
        color = {self.vertex_ids[0]: 0}
        stack = [self.vertex_ids[0]]
        while stack:
            v = stack.pop()
            for eid in self._out[v]:
                w = self.edges[eid].terminus
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False, None
        return True, ([v for v in self.vertex_ids if color[v] == 0],
                      [v for v in self.vertex_ids if color[v] == 1])

    # -- non-backtracking edge dynamics ------------------------------------

    def nb_successors(self):
        """For each edge e, in ``edge_ids`` order, the pairs (f, m), f
        ascending: the index of each edge f with o(f) = t(e) that a tree
        path goes on along, in m = i(f) - [f = reverse of e] >= 1 ways.
        Row e of the transfer matrix B, B[e, f] = m.  TooLargeError past
        MAX_SUCCESSORS ways in all."""
        edges = [self.edges[eid] for eid in self.edge_ids]
        size = sum(self.tree_degree(e.terminus) - 1 for e in edges)
        if size > MAX_SUCCESSORS:
            raise TooLargeError(f"the edge step has {size} successor "
                                f"ways, over {MAX_SUCCESSORS}")
        return [[(self.edge_index[f], m) for f in self._out[e.terminus]
                 if (m := self.index_i(f) - (f == e.reverse))]
                for e in edges]

    def exits(self, name):
        """(e, i(e)) for each edge e, in ``edge_ids`` order, that leaves the
        named subgraph (o(e) in it, e not): i(e) lifts of e leave each lift
        of o(e) in the tree, and their reverses arrive at the subgraph."""
        sub = self.subgraph(name)
        vset, eset = set(sub["vertices"]), set(sub["edges"])
        return [(eid, self.index_i(eid)) for eid in self.edge_ids
                if self.edges[eid].origin in vset and eid not in eset]

    def check_branching(self):
        """DegenerateError unless every vertex has tree-degree >= 2, so that
        every non-backtracking path can be continued."""
        for v in self.vertex_ids:
            if self.tree_degree(v) <= 1:
                raise DegenerateError(f"vertex {v!r} has tree-degree <= 1")

    def nb_transfer(self):
        """Weighted non-backtracking transfer matrix as a dense numpy array.

        B[e, f] = m w(f) for each pair (f, m) of row e of
        ``nb_successors``, w = ``edge_weights``.  No verb builds it, as
        they all step over the successor lists: the tests read it as a
        dense view, and perfbench/tracer.py wraps it by name.
        """
        self.check_branching()
        import numpy as np

        n = len(self.edge_ids)
        weights = self.edge_weights()
        B = np.zeros((n, n))
        for i, row in enumerate(self.nb_successors()):
            for j, m in row:
                B[i, j] = m * weights[j]
        return B

    # -- subgraph helpers ------------------------------------------------

    def subgraph(self, name):
        try:
            return self.subgraphs[name]
        except KeyError:
            raise GraphFormatError("dangling-reference",
                                   f"no subgraph named {name!r}") from None


class VolumeReport:
    __slots__ = ("vol", "tvol", "degrees", "bipartite", "classes")

    def __init__(self, vol, tvol, degrees, bipartite, classes):
        self.vol = vol
        self.tvol = tvol
        self.degrees = degrees
        self.bipartite = bipartite
        self.classes = classes

    def __repr__(self):
        return (f"VolumeReport(vol={self.vol}, tvol={self.tvol}, "
                f"bipartite={self.bipartite})")


class ScatterAdd:
    """The linear step x -> out of a list of entries (target, source,
    coefficient): out[t] is the sum over the entries k with target t of
    coeffs[k] * x[sources[k]], or of x[sources[k]] when ``coeffs`` is
    None, added in ascending k from the first term (0 for a target with no
    entries).  A push x B over successor rows takes target = column and
    source = row, a pull B x the other way round.

    The Python work is done by map() over whole layers: the targets are
    ranked by falling number of entries, layer r holds the r-th entry of
    each target with more than r, a prefix of the ranking, and gathers its
    sources with one itemgetter.  So the passes are as many as the longest
    in-list.  The rows of ``nb_successors`` hold each successor once, so
    an in-list of L entries names L distinct edges that all leave, or all
    arrive at, one vertex.  Their L reverses meet that vertex the other
    way, and each has at least L - 1 entries in its own in-list: the
    passes stay at most about sqrt(entries) + 1."""

    def __init__(self, targets, sources, coeffs, size):
        into = [[] for _ in range(size)]
        for k, t in enumerate(targets):
            into[t].append(k)
        rank = sorted(range(size), key=lambda t: -len(into[t]))
        self.layers = []
        for r in range(len(into[rank[0]]) if rank else 0):
            ks = [into[t][r] for t in rank if len(into[t]) > r]
            self.layers.append((len(ks), _getter([sources[k] for k in ks]),
                                None if coeffs is None
                                else [coeffs[k] for k in ks]))
        self.unrank = [0] * size
        for pos, t in enumerate(rank):
            self.unrank[t] = pos

    def __call__(self, x):
        acc = []
        for n, gather, coeffs in self.layers:
            terms = gather(x)
            if coeffs is not None:
                terms = map(operator.mul, coeffs, terms)
            acc[:n] = map(operator.add, acc[:n], terms) if acc else terms
        acc += [0] * (len(self.unrank) - len(acc))
        return list(map(acc.__getitem__, self.unrank))


def _getter(indices):
    """The function x -> tuple of x[i] for i in indices, by one
    itemgetter (which for one index returns the item, not a 1-tuple)."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    return lambda x, i=indices[0]: (x[i],)


def _entries(succ):
    """(rows, cols, ways) of the pairs of the successor rows ``succ``, row
    by row: the row and the column of each pair, the sources and targets of
    a push x B, the targets and sources of a pull B x; and their ways m,
    the coefficients of an exact step, or None when every m is 1, so that
    a step over a simple graph forms no products."""
    ways = [m for row in succ for _, m in row]
    return ([i for i, row in enumerate(succ) for _ in row],
            [j for row in succ for j, _ in row],
            None if all(m == 1 for m in ways) else ways)


def _weighted(weights, cols, ways):
    """The coefficients m w(f) of a float step over the pairs (f, m) with
    the columns ``cols`` and the ways ``ways`` of ``_entries``."""
    if ways is None:
        return [weights[j] for j in cols]
    return [m * weights[j] for j, m in zip(cols, ways)]


def _ways(succ):
    """The ways of the successor rows ``succ``, the sum of m over their
    pairs (f, m): the unit in which every budget over them counts."""
    return sum(m for row in succ for _, m in row)


def fold_sum(terms):
    """The terms added one by one from the left, from 0: the floats that
    builtin ``sum()`` forms through Python 3.11.  From 3.12 on ``sum()``
    adds floats with compensation, so printed floats would depend on the
    interpreter.  Sums only ever of ints or Fractions are exact and keep
    ``sum()``."""
    return functools.reduce(operator.add, terms, 0)


def _reached(start, arcs):
    """The nodes reached from ``start`` along the arcs (u, w), u to w."""
    adj = {}
    for u, w in arcs:
        adj.setdefault(u, set()).add(w)
    seen, stack = {start}, [start]
    while stack:
        new = adj.get(stack.pop(), set()) - seen
        seen |= new
        stack += new
    return seen


def _ident(x):
    """A vertex or edge id as the document names it: a string or an integer."""
    if type(x) not in (int, str):
        raise TypeError(f"id {x!r} is not a string or an integer")
    return x


def _one_id_type(kind, records):
    """Ids are sorted to fix the matrix order, so they must be all strings
    or all integers."""
    if len({type(r.id) for r in records}) > 1:
        raise GraphFormatError("malformed-document",
                               f"{kind} ids mix strings and integers")


def _read(kind, raw, build):
    """build(raw); a value that is not an object, lacks a field or holds a
    value of the wrong type is a GraphFormatError."""
    try:
        return build(raw)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(
            "malformed-document",
            f"{kind} {raw!r}: missing or invalid field ({exc!r})") from None


def _read_record(kind, raw, build):
    """A vertex or edge record read by _read, with an order >= 1."""
    record = _read(f"{kind} record", raw, build)
    if record.order < 1:
        raise GraphFormatError("order-divisibility",
                               f"{kind} {record.id!r} has order {record.order}")
    return record


def load_validate(document):
    """Build a GraphOfGroups from a schema document (dict or JSON text)."""
    if isinstance(document, str):
        import json

        try:
            document = json.loads(document)
        except ValueError as exc:
            raise GraphFormatError("malformed-document",
                                   f"document is not JSON: {exc}") from None
    try:
        vraw = list(document["vertices"])
        eraw = list(document["edges"])
    except (KeyError, TypeError):
        raise GraphFormatError("dangling-reference",
                               "document needs 'vertices' and 'edges'") from None

    vertices = [_read_record("vertex", v, lambda v: Vertex(
        _ident(v["id"]), int(v.get("order", 1)))) for v in vraw]
    _one_id_type("vertex", vertices)
    vmap = {v.id: v for v in vertices}
    if len(vmap) != len(vertices):
        raise GraphFormatError("dangling-reference", "duplicate vertex id")

    edges = [_read_record("edge", e, lambda e: Edge(
        _ident(e["id"]), _ident(e["from"]), _ident(e["to"]),
        _ident(e["reverse"]), int(e.get("order", 1)),
        float(e.get("conductance", 0.0)))) for e in eraw]
    _one_id_type("edge", edges)
    emap = {e.id: e for e in edges}
    if len(emap) != len(edges):
        raise GraphFormatError("dangling-reference", "duplicate edge id")

    for e in edges:
        for end in (e.origin, e.terminus):
            if end not in vmap:
                raise GraphFormatError(
                    "dangling-reference",
                    f"edge {e.id!r} references unknown vertex {end!r}")
        if e.reverse not in emap:
            raise GraphFormatError(
                "dangling-reference",
                f"edge {e.id!r} references unknown reverse {e.reverse!r}")

    for e in edges:
        r = emap[e.reverse]
        if r.id == e.id:
            raise GraphFormatError("bad-involution",
                                   f"edge {e.id!r} is its own reverse")
        if r.reverse != e.id:
            raise GraphFormatError("bad-involution",
                                   f"reversal of {e.id!r} is not involutive")
        if r.origin != e.terminus or r.terminus != e.origin:
            raise GraphFormatError(
                "bad-involution",
                f"reverse of {e.id!r} does not swap endpoints")
        if r.order != e.order:
            raise GraphFormatError("order-divisibility",
                                   f"orders of {e.id!r} and its reverse differ")

    for e in edges:
        for vid in (e.origin, e.terminus):
            if vmap[vid].order % e.order != 0:
                raise GraphFormatError(
                    "order-divisibility",
                    f"edge {e.id!r} order does not divide vertex {vid!r} order")

    if not vertices:
        raise GraphFormatError("disconnected", "graph has no vertices")

    # connectivity (the involution makes directed and undirected agree)
    seen = _reached(vertices[0].id, [(e.origin, e.terminus) for e in edges])
    if len(seen) != len(vertices):
        missing = sorted(set(vmap) - seen)[0]
        raise GraphFormatError("disconnected",
                               f"vertex {missing!r} unreachable")

    subgraphs = {}
    for name, sub in _read("subgraphs", document.get("subgraphs") or {},
                           lambda raw: list(raw.items())):
        sv, se = _read(f"subgraph {name!r}", sub, lambda sub: (
            [_ident(v) for v in sub.get("vertices", [])],
            [_ident(e) for e in sub.get("edges", [])]))
        for vid in sv:
            if vid not in vmap:
                raise GraphFormatError(
                    "dangling-reference",
                    f"subgraph {name!r} references unknown vertex {vid!r}")
        for eid in se:
            if eid not in emap:
                raise GraphFormatError(
                    "dangling-reference",
                    f"subgraph {name!r} references unknown edge {eid!r}")
        eset = set(se)
        for eid in se:
            if emap[eid].reverse not in eset:
                raise GraphFormatError(
                    "bad-involution",
                    f"subgraph {name!r} is not closed under reversal")
            if emap[eid].origin not in sv or emap[eid].terminus not in sv:
                raise GraphFormatError(
                    "dangling-reference",
                    f"subgraph {name!r} edge {eid!r} leaves its vertex set")
        arcs = [(emap[eid].origin, emap[eid].terminus) for eid in se]
        if sv and len(_reached(sv[0], arcs)) != len(sv):
            raise GraphFormatError("disconnected",
                                   f"subgraph {name!r} is not connected")
        subgraphs[name] = {"vertices": sv, "edges": se}

    return GraphOfGroups(vertices, edges, subgraphs)

