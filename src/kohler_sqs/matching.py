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
does not always apply; general matching covers every case.  Its search
state is allocated once per graph: each search resets only the vertices its
tree touched, ``lca`` and the blossom marks compare stamps instead of
clearing arrays, and a contraction scans the tree instead of all vertices.
:func:`one_factor` runs it on each component in place, on the graph's own
rows and indices.

Everything is deterministic: vertices are scanned in index order, rows are
scanned in neighbour order, and there is no randomization, so repeated runs
produce identical matchings.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence

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
    match = [-1] * len(rows)
    augment = _augmenter(rows, match)
    for v in range(len(rows)):
        augment(v)
    return _as_matching(rows, [m if m != -1 else None for m in match])


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
    match = [-1] * len(rows)
    augment = _augmenter(rows, match)
    for comp in components(rows):
        if len(comp) % 2 == 1:
            raise NoPerfectMatching(comp)
        for v in comp:
            augment(v)
        if any(match[v] == -1 for v in comp):
            raise NoPerfectMatching(comp)
    return _as_matching(rows, match)


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


def _augmenter(rows: Rows, match: list[int]) -> Callable[[int], None]:
    """``augment(root)``: if ``root`` is unmatched in ``match`` (-1 for none),
    search for an augmenting path from it (blossom contraction) and flip it.

    A contraction scans the tree in the order its vertices joined it and
    sorts only the vertices it newly queues, so it queues them in index
    order, as a scan of all n vertices would: the search meets the vertices
    in the same order, and finds the same matching, as one that starts from
    fresh arrays.
    """
    n = len(rows)
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    #: lca's path marks and the blossom marks hold the stamp of their pass
    on_path = [0] * n
    in_blossom = [0] * n
    stamp = 0
    tree: list[int] = []

    def lca(a: int, b: int) -> int:
        x = a
        while True:
            x = base[x]
            on_path[x] = stamp
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if on_path[y] == stamp:
                return y
            y = parent[match[y]]

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            in_blossom[base[v]] = stamp
            in_blossom[base[match[v]]] = stamp
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting(root: int) -> int:
        nonlocal stamp
        used[root] = True
        tree.append(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for _, to in rows[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # odd cycle: contract the blossom to its base vertex
                    stamp += 1
                    curbase = lca(v, to)
                    mark_path(v, curbase, to)
                    mark_path(to, curbase, v)
                    fresh = []
                    for i in tree:
                        if in_blossom[base[i]] == stamp:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                fresh.append(i)
                    fresh.sort()
                    queue.extend(fresh)
                elif parent[to] == -1:
                    parent[to] = v
                    tree.append(to)
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    tree.append(match[to])
                    queue.append(match[to])
        return -1

    def augment(root: int) -> None:
        if match[root] != -1:
            return
        end = find_augmenting(root)
        while end != -1:
            prev = parent[end]
            nxt = match[prev]
            match[end] = prev
            match[prev] = end
            end = nxt
        for i in tree:
            parent[i] = -1
            base[i] = i
            used[i] = False
        tree.clear()

    return augment
