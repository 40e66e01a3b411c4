"""Construction, summary and export of the Koehler graph of an abelian group.

Vertices are the triple orbits in the family T, edges the quadruple orbits in
the family E; the orbit of {0, a, b, a+b} joins the orbits of {0, a, b} and
{0, a, a+b}, which are always two distinct vertices.  Degrees never exceed 3:
the only possible neighbours of [a, b] are [a, a+b], [b, a-b] and [a, b-a].

Construction meets each orbit at its canonical pair, with no set of bases
and no canonicalization, in O(v^2) steps on element codes.  For each a the
translation rows of a and -a give a+b and b-a for every b; every difference
within {0, a, b, a+b} is one of +-a, +-b, +-(b-a), +-(a+b).

* A T orbit has six members through 0, {0, a, b}, {0, -a, -b},
  {0, -a, b-a}, {0, a, a-b}, {0, -b, a-b} and {0, b, b-a}, over six
  pairwise distinct values, each in two members.  So with a < b the pair
  (a, b) is canonical exactly when a is the least of the six values and
  b < a-b, the partner of a in its other member.  Scanning a and then b in
  increasing order meets the vertices in lexicographic order.
* An E orbit has four members through 0, {0, a, b, a+b}, {0, -a, -b, -a-b},
  {0, -a, b, b-a} and {0, a, -b, a-b}, over eight distinct nonzero values.
  Its canonical base holds the least value m, and a pair is kept only when
  m = min(a, a+b).  Then a+b lies in the first member alone, and a in the
  first and the last, so the base is read off without sorting; an orbit
  can be met twice this way, so edges are deduplicated and then sorted.
* An involution a (2a = 0) lies in no member of a T or E orbit, so it is
  skipped before its rows are built: on an elementary abelian 2-group no
  row is built at all.

Endpoints are read from an index: each vertex, once found, enters its six
through-0 pairs, packed as x*v + y with x < y, into a map to its index, and
an edge met at the pair (a, b) joins the entries of {a, b} and {a, a+b}.  A
missed entry, an edge joining a vertex to itself and two edges between the
same vertices cannot occur; each is checked and raised as an
:class:`~kohler_sqs.errors.InternalInconsistencyError`.

The graph keeps its vertex and edge bases as code tuples, indexed in
lexicographic order, which makes every downstream artifact (matchings,
designs, JSON exports) reproducible run to run; :attr:`KohlerGraph.vertices`
and :attr:`KohlerGraph.edges` decode them to :class:`OrbitRep` on first
read.  The graph has one adjacency representation, ``KohlerGraph.adjacency``:
per vertex, a tuple of ``(edge_index, neighbour)`` pairs sorted by
neighbour.  The matcher and the component search in
:mod:`kohler_sqs.matching` take these rows as they are.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .errors import InternalInconsistencyError
from .groups import Group
from .matching import components
from .orbits import Codes, OrbitRep, _decoded, _in_E, _in_T, _triple_pairs


@dataclass(frozen=True)
class KohlerGraph:
    group: Group
    #: per-vertex canonical base (0, a, b) as element codes, in lexicographic order
    vertex_codes: tuple[Codes, ...]
    #: per-edge canonical base (0, p, q, r) as element codes, in lexicographic order
    edge_codes: tuple[Codes, ...]
    #: per-edge pair of vertex indices (i, j), i < j
    endpoints: tuple[tuple[int, int], ...]
    #: per-vertex tuple of (edge index, other vertex index), sorted by the other
    adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False)

    @cached_property
    def vertices(self) -> tuple[OrbitRep, ...]:
        return _reps(self.group, self.vertex_codes)

    @cached_property
    def edges(self) -> tuple[OrbitRep, ...]:
        return _reps(self.group, self.edge_codes)

    def __str__(self) -> str:
        return f"KohlerGraph({self.group}, V={len(self.vertex_codes)}, E={len(self.edge_codes)})"


def _reps(g: Group, bases) -> tuple[OrbitRep, ...]:
    """The orbit representatives of code ``bases``, decoded to tuples."""
    elements = g.elements()
    return tuple(OrbitRep(g, _decoded(elements, base)) for base in bases)


def _edge_base(a: int, b: int, s: int, nb: int, nba: int) -> Codes:
    """Canonical base of the E orbit of {0, a, b, s}, given ``s = a + b``,
    ``nb = -b`` and ``nba = a - b``, when a is the least of the orbit's eight
    nonzero through-0 values: a lies in {0, a, b, s} and {0, a, -b, a-b}
    only, and the base is the lesser of the two."""
    first = (0, a, b, s) if b < s else (0, a, s, b)
    last = (0, a, nb, nba) if nb < nba else (0, a, nba, nb)
    return first if first < last else last


def build_graph(g: Group) -> KohlerGraph:
    """Build the Koehler graph of ``g`` with deterministic indexing."""
    g.check_capacity()
    v = g.order
    neg, double = g.neg_table, g.double_table

    vertex_codes: list[Codes] = []
    #: packed through-0 pair x*v + y, x < y -> index of its vertex
    vertex_of: dict[int, int] = {}
    #: edge base -> the packed pairs of its two endpoints
    edge_ends: dict[Codes, tuple[int, int]] = {}
    for a in range(1, v):
        na = neg[a]
        if na == a:
            continue  # 2a = 0: a lies in no member of a T or E orbit
        plus, minus = g.translation(a), g.translation(na)
        if a < na:
            # pairs whose least value is a: a vertex at its canonical pair, or
            # an edge whose base holds a
            for b, ba, s in zip(range(a + 1, v), minus[a + 1 :], plus[a + 1 :]):
                nba = neg[ba]
                if a < ba and a < nba:
                    nb = neg[b]
                    if a < nb:
                        if b < nba and _in_T(neg, double, a, b):
                            i = len(vertex_codes)
                            vertex_codes.append((0, a, b))
                            for x, y in _triple_pairs(neg, a, b, ba):
                                vertex_of[x * v + y] = i
                        if a < s and a < neg[s] and _in_E(neg, double, a, b):
                            base = _edge_base(a, b, s, nb, nba)
                            if base not in edge_ends:
                                edge_ends[base] = (a * v + b, a * v + s)
        # pairs whose least value is s = a + b, which lies in one member only
        for b, s in zip(range(a + 1, v), plus[a + 1 :]):
            if 0 < s < a and s < na and s < neg[s]:
                ba = minus[b]
                if s < ba and s < neg[ba] and s < neg[b] and _in_E(neg, double, a, b):
                    base = (0, s, a, b)
                    if base not in edge_ends:
                        edge_ends[base] = (a * v + b, s * v + a)

    edge_codes = sorted(edge_ends)
    endpoints = []
    seen_pairs: dict[tuple[int, int], Codes] = {}
    for base in edge_codes:
        ku, kw = edge_ends[base]
        iu, iw = vertex_of.get(ku), vertex_of.get(kw)
        if iu is None or iw is None:
            raise InternalInconsistencyError(f"edge {_decoded(g.elements(), base)!r} has an endpoint outside T")
        if iu == iw:
            raise InternalInconsistencyError(f"edge {_decoded(g.elements(), base)!r} joins a vertex to itself")
        i, j = (iu, iw) if iu < iw else (iw, iu)
        if (i, j) in seen_pairs:
            raise InternalInconsistencyError(
                f"multiple edges between vertices {i} and {j}: "
                f"{_decoded(g.elements(), seen_pairs[(i, j)])!r} and {_decoded(g.elements(), base)!r}"
            )
        seen_pairs[(i, j)] = base
        endpoints.append((i, j))

    adjacency: list[list[tuple[int, int]]] = [[] for _ in vertex_codes]
    for e, (i, j) in enumerate(endpoints):
        adjacency[i].append((e, j))
        adjacency[j].append((e, i))
    return KohlerGraph(
        group=g,
        vertex_codes=tuple(vertex_codes),
        edge_codes=tuple(edge_codes),
        endpoints=tuple(endpoints),
        adjacency=tuple(tuple(sorted(row, key=lambda t: t[1])) for row in adjacency),
    )


def graph_stats(graph: KohlerGraph) -> dict:
    """Aggregate summary used by the CLI."""
    degrees = Counter(len(row) for row in graph.adjacency)
    comps = components(graph.adjacency)
    return {
        "group": list(graph.group.factors),
        "vertices": len(graph.vertex_codes),
        "edges": len(graph.edge_codes),
        "degrees": {str(d): n for d, n in sorted(degrees.items())},
        "components": sorted((len(c) for c in comps), reverse=True),
        "isolated": degrees.get(0, 0),
    }


def export_graph(graph: KohlerGraph) -> dict:
    """Adjacency-list JSON payload: vertex bases plus edge bases with endpoints."""
    el = [list(x) for x in graph.group.elements()]
    return {
        "group": list(graph.group.factors),
        "vertices": [{"base": [el[c] for c in base]} for base in graph.vertex_codes],
        "edges": [
            {"base": [el[c] for c in base], "endpoints": list(ij)}
            for base, ij in zip(graph.edge_codes, graph.endpoints)
        ],
    }
