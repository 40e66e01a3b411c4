"""Construction, summary and export of the Koehler graph of an abelian group.

Vertices are the triple orbits in the family T, edges the quadruple orbits in
the family E; the orbit of {0, a, b, a+b} joins the orbits of {0, a, b} and
{0, a, a+b}, which are always two distinct vertices.  Degrees never exceed 3:
the only possible neighbours of [a, b] are [a, a+b], [b, a-b] and [a, b-a].

Construction scans all unordered pairs of nonzero elements, canonicalizes,
and deduplicates, so it costs O(v^2) orbit insertions.  It runs on element
codes: for each a, the translation rows of a and -a give a+b and b-a for
every b, and every difference within {0, a, b, a+b} is one of +-a, +-b,
+-(b-a), +-(a+b), so no other arithmetic is needed.  Vertex and edge
indices are assigned by sorting canonical bases lexicographically, which
makes every downstream artifact (matchings, designs, JSON exports)
reproducible run to run.

The graph has one adjacency representation, ``KohlerGraph.adjacency``: per
vertex, a tuple of ``(edge_index, neighbour)`` pairs sorted by neighbour.
The matcher and the component search in :mod:`kohler_sqs.matching` take
these rows as they are.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import InvalidInputError
from .groups import Group
from .matching import components
from .orbits import Codes, OrbitRep, _canonical_edge, _canonical_triple, _decoded, _in_E, _in_T


@dataclass(frozen=True)
class KohlerGraph:
    group: Group
    vertices: tuple[OrbitRep, ...]
    edges: tuple[OrbitRep, ...]
    #: per-edge pair of vertex indices (i, j), i < j
    endpoints: tuple[tuple[int, int], ...]
    #: per-vertex tuple of (edge index, other vertex index), sorted by the other
    adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False)

    def __str__(self) -> str:
        return f"KohlerGraph({self.group}, V={len(self.vertices)}, E={len(self.edges)})"


def build_graph(g: Group, limit: int | None = None) -> KohlerGraph:
    """Build the Koehler graph of ``g`` with deterministic indexing."""
    g.check_capacity(limit)
    v = g.order
    neg, double = g.neg_table, g.double_table

    vertex_bases: set[Codes] = set()
    #: edge base -> the bases of its two endpoints
    edge_ends: dict[Codes, tuple[Codes, Codes]] = {}
    for a in range(1, v):
        plus, minus = g.translation(a), g.translation(neg[a])
        for b in range(a + 1, v):
            ba = minus[b]
            if _in_T(neg, double, a, b):
                vertex_bases.add(_canonical_triple(neg, a, b, ba))
            s = plus[b]
            if s != 0 and s != a and s != b and _in_E(neg, double, a, b):
                base = _canonical_edge(neg, a, b, s, ba)
                if base not in edge_ends:
                    # the triples of {0, a, b, a+b} lie in the orbits [a, b] and
                    # [a, a+b] (the decomposition is unique up to swapping a
                    # and b), and so do those of every member of its orbit
                    edge_ends[base] = (_canonical_triple(neg, a, b, ba), _canonical_triple(neg, a, s, b))

    elements = g.elements()
    vertex_order = sorted(vertex_bases)
    index = {base: i for i, base in enumerate(vertex_order)}
    edge_order = sorted(edge_ends)

    endpoints = []
    seen_pairs: dict[tuple[int, int], Codes] = {}
    for base in edge_order:
        u, w = edge_ends[base]
        if u not in index or w not in index:
            raise InvalidInputError(f"edge {_decoded(elements, base)!r} has an endpoint outside T")
        iu, iw = index[u], index[w]
        if iu == iw:
            raise InvalidInputError(f"edge {_decoded(elements, base)!r} joins a vertex to itself")
        i, j = (iu, iw) if iu < iw else (iw, iu)
        if (i, j) in seen_pairs:
            raise InvalidInputError(
                f"multiple edges between vertices {i} and {j}: "
                f"{_decoded(elements, seen_pairs[(i, j)])!r} and {_decoded(elements, base)!r}"
            )
        seen_pairs[(i, j)] = base
        endpoints.append((i, j))

    adjacency: list[list[tuple[int, int]]] = [[] for _ in vertex_order]
    for e, (i, j) in enumerate(endpoints):
        adjacency[i].append((e, j))
        adjacency[j].append((e, i))
    return KohlerGraph(
        group=g,
        vertices=tuple(OrbitRep(g, _decoded(elements, base)) for base in vertex_order),
        edges=tuple(OrbitRep(g, _decoded(elements, base)) for base in edge_order),
        endpoints=tuple(endpoints),
        adjacency=tuple(tuple(sorted(row, key=lambda t: t[1])) for row in adjacency),
    )


def graph_stats(graph: KohlerGraph) -> dict:
    """Aggregate summary used by the CLI."""
    degrees = Counter(len(row) for row in graph.adjacency)
    comps = components(graph.adjacency)
    return {
        "group": list(graph.group.factors),
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
        "degrees": {str(d): n for d, n in sorted(degrees.items())},
        "components": sorted((len(c) for c in comps), reverse=True),
        "isolated": degrees.get(0, 0),
    }


def export_graph(graph: KohlerGraph) -> dict:
    """Adjacency-list JSON payload: vertex bases plus edge bases with endpoints."""
    return {
        "group": list(graph.group.factors),
        "vertices": [{"base": [list(e) for e in rep.base]} for rep in graph.vertices],
        "edges": [
            {"base": [list(e) for e in rep.base], "endpoints": list(ij)}
            for rep, ij in zip(graph.edges, graph.endpoints)
        ],
    }
