"""Maximum matching and 1-factors on general undirected graphs.

A graph is given by its adjacency rows, the representation
:class:`kohler_sqs.kohler.KohlerGraph` builds: ``rows[v]`` is a sequence of
``(edge_index, neighbour)`` pairs sorted by neighbour, on vertices
``0..len(rows)-1``.  The rows are trusted to describe a simple graph (the
graph builder rejects loops and parallel edges); matched edge indices are read
off them, and every matching is checked to be symmetric and to use only edges
of the rows before it is returned.

The matcher is the classic augmenting-path algorithm with blossom
contraction, O(V^3).  Koehler graphs of general abelian groups contain
vertices of degree 1 and 2, so the 3-regular shortcut (Petersen's theorem)
does not always apply; general matching covers every case.

Everything is deterministic: vertices are scanned in index order, rows are
scanned in neighbour order, and there is no randomization, so repeated runs
produce identical matchings.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from .errors import InvalidInputError
from .groups import Record

#: per-vertex rows of (edge index, neighbour), each row sorted by neighbour
Rows = Sequence[Sequence[tuple[int, int]]]


class Matching(Record):
    """A set of pairwise disjoint edges; mate[v] is v's partner or None."""

    _fields = ("mate", "matched_edges")

    def __init__(self, mate: tuple[int | None, ...], matched_edges: tuple[int, ...]) -> None:
        self.__dict__.update(mate=mate, matched_edges=matched_edges)

    @property
    def size(self) -> int:
        return len(self.matched_edges)


class NoPerfectMatching(Exception):
    """Raised when some connected component admits no perfect matching."""

    def __init__(self, component: tuple[int, ...]):
        self.component = component
        super().__init__(
            f"no perfect matching: component {list(component)} cannot be fully matched"
        )


def maximum_matching(rows: Rows) -> Matching:
    """A maximum-cardinality matching, deterministic given the row ordering."""
    return _as_matching(rows, _blossom_matching(rows))


def components(rows: Rows) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted index tuples, ordered by least vertex."""
    seen = [False] * len(rows)
    out = []
    for start in range(len(rows)):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        comp = []
        while queue:
            v = queue.popleft()
            comp.append(v)
            for _, w in rows[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        out.append(tuple(sorted(comp)))
    return tuple(out)


def one_factor(rows: Rows) -> Matching:
    """A perfect matching, solved component by component.

    Raises :class:`NoPerfectMatching` carrying the first component (by least
    vertex index) that is odd or leaves a vertex unmatched.
    """
    mate: list[int | None] = [None] * len(rows)
    for comp in components(rows):
        if len(comp) % 2 == 1:
            raise NoPerfectMatching(comp)
        # a component is closed under adjacency, and the index map is
        # increasing, so the local rows stay sorted by neighbour
        local = {v: i for i, v in enumerate(comp)}
        sub_rows = tuple(tuple((e, local[w]) for e, w in rows[v]) for v in comp)
        sub_mate = _blossom_matching(sub_rows)
        if any(m is None for m in sub_mate):
            raise NoPerfectMatching(comp)
        for i, m in enumerate(sub_mate):
            mate[comp[i]] = comp[m]
    return _as_matching(rows, mate)


def _as_matching(rows: Rows, mate: list[int | None]) -> Matching:
    edge_ids = []
    for v, m in enumerate(mate):
        if m is None:
            continue
        if mate[m] != v:
            raise InvalidInputError(f"matching is not symmetric at {v}<->{m}")
        if v < m:
            edge = next((e for e, w in rows[v] if w == m), None)
            if edge is None:
                raise InvalidInputError(f"matched pair {(v, m)} is not a graph edge")
            edge_ids.append(edge)
    return Matching(mate=tuple(mate), matched_edges=tuple(sorted(edge_ids)))


def _blossom_matching(rows: Rows) -> list[int | None]:
    """Mate array of a maximum matching (augmenting paths + blossom contraction)."""
    n = len(rows)
    match: list[int] = [-1] * n
    parent = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        used_path = [False] * n
        x = a
        while True:
            x = base[x]
            used_path[x] = True
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if used_path[y]:
                return y
            y = parent[match[y]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting(root: int) -> int:
        nonlocal base, parent
        used = [False] * n
        parent = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for _, to in rows[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # odd cycle: contract the blossom to its base vertex
                    curbase = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    queue.append(match[to])
        return -1

    for v in range(n):
        if match[v] != -1:
            continue
        end = find_augmenting(v)
        while end != -1:
            prev = parent[end]
            nxt = match[prev]
            match[end] = prev
            match[prev] = end
            end = nxt
    return [m if m != -1 else None for m in match]
