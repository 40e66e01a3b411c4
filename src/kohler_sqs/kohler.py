"""Construction, summary and export of the Koehler graph of an abelian group.

Vertices are the triple orbits in the family T, edges the quadruple orbits in
the family E; the orbit of {0, a, b, a+b} joins the orbits of {0, a, b} and
{0, a, a+b}, which are always two distinct vertices.  Degrees never exceed 3:
the only possible neighbours of [a, b] are [a, a+b], [b, a-b] and [a, b-a].

Construction scans all unordered pairs of nonzero elements, canonicalizes,
and deduplicates, so it costs O(v^2) orbit insertions.  Vertex and edge
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
from itertools import combinations

from .errors import InvalidInputError
from .groups import Group
from .matching import components
from .orbits import OrbitRep, Subset, canonicalize, in_E, in_T


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
    nonzero = g.elements()[1:]
    zero = g.zero

    vertex_bases: set[Subset] = set()
    edge_bases: set[Subset] = set()
    for a, b in combinations(nonzero, 2):
        if in_T(g, a, b):
            vertex_bases.add(canonicalize(g, (zero, a, b)).base)
        s = g.add(a, b)
        if s != zero and s != a and s != b and in_E(g, a, b):
            edge_bases.add(canonicalize(g, (zero, a, b, s)).base)

    vertices = tuple(OrbitRep(g, base) for base in sorted(vertex_bases))
    index = {rep.base: i for i, rep in enumerate(vertices)}
    edges = tuple(OrbitRep(g, base) for base in sorted(edge_bases))

    endpoints = []
    seen_pairs: dict[tuple[int, int], Subset] = {}
    for rep in edges:
        i, j = _edge_endpoints(g, rep.base, index)
        if (i, j) in seen_pairs:
            raise InvalidInputError(
                f"multiple edges between vertices {i} and {j}: "
                f"{seen_pairs[(i, j)]!r} and {rep.base!r}"
            )
        seen_pairs[(i, j)] = rep.base
        endpoints.append((i, j))

    adjacency: list[list[tuple[int, int]]] = [[] for _ in vertices]
    for e, (i, j) in enumerate(endpoints):
        adjacency[i].append((e, j))
        adjacency[j].append((e, i))
    return KohlerGraph(
        group=g,
        vertices=vertices,
        edges=edges,
        endpoints=tuple(endpoints),
        adjacency=tuple(tuple(sorted(row, key=lambda t: t[1])) for row in adjacency),
    )


def _edge_endpoints(g: Group, base: Subset, vertex_index: dict[Subset, int]) -> tuple[int, int]:
    """Endpoint vertex indices of an edge orbit.

    The base is some {0, a, b, a+b}; the endpoints are the orbits of
    {0, a, b} and {0, a, a+b}.  The decomposition of an edge base into
    (a, b, a+b) is unique up to swapping a and b, so the result is
    well-defined.
    """
    zero = g.zero
    rest = base[1:]
    for i, p in enumerate(rest):
        for q in rest[i + 1 :]:
            s = g.add(p, q)
            if s in rest:
                u = canonicalize(g, (zero, p, q)).base
                w = canonicalize(g, (zero, p, s)).base
                if u not in vertex_index or w not in vertex_index:
                    raise InvalidInputError(f"edge {base!r} has an endpoint outside T")
                iu, iw = vertex_index[u], vertex_index[w]
                if iu == iw:
                    raise InvalidInputError(f"edge {base!r} joins a vertex to itself")
                return (iu, iw) if iu < iw else (iw, iu)
    raise InvalidInputError(f"edge base {base!r} admits no sum decomposition")


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
