"""Shared oracles and enumeration helpers for the test suite.

Everything here is deliberately independent of the library's own algorithms:
brute-force matching enumerates augmenting structure by exhaustive search,
group enumeration goes through prime partitions, and the isolated-vertex
characterization re-derives orbit equality from scratch.  The structural
queries (subgroups, element orders, family membership, neighbour formulas,
quadruple classification) exist only to check the pipeline, so they live
here rather than in the package.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from functools import lru_cache
from itertools import combinations, product

from kohler_sqs import ConstructionFailure, Design, InvalidInputError, construct_design, kohler, make_group, orbits
from kohler_sqs.engine import B0_TAG, FACTOR_TAG_PREFIX
from kohler_sqs.groups import Element, Group
from kohler_sqs.orbits import Codes, OrbitRep, canonicalize

# triple families: the vertex family T, orbits of {0, a, -a} (T1) and orbits
# of {0, a, h} with h an involution (T2)
TRIPLE_T = "T"
TRIPLE_T1 = "T1"
TRIPLE_T2 = "T2"

# quadruple families: the edge family E, the forced families Q1, Q2 and Q3
# that make up B0, and the orbits of asymmetric quadruples
QUAD_E = "E"
QUAD_Q1 = "Q1"
QUAD_Q2 = "Q2"
QUAD_Q3 = "Q3"
QUAD_ASYMMETRIC = "Asymmetric"


def partitions(n: int) -> list[tuple[int, ...]]:
    """All integer partitions of n, parts descending."""
    if n == 0:
        return [()]
    out = []

    def rec(remaining: int, maximum: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, maximum), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def abelian_groups_of_order(v: int) -> list[Group]:
    """One group per isomorphism class, as elementary-divisor factor lists."""
    per_prime = []
    for p, e in sorted(_factorint(v).items()):
        per_prime.append([[p**part for part in partition] for partition in partitions(e)])
    groups = []
    for combo in product(*per_prime):
        factors = [f for chunk in combo for f in chunk]
        groups.append(make_group(factors))
    return groups


def abelian_groups_up_to(n: int) -> list[Group]:
    out = []
    for v in range(2, n + 1):
        out.extend(abelian_groups_of_order(v))
    return out


def brute_force_matching_size(n: int, edges: list[tuple[int, int]]) -> int:
    """Maximum matching size by exhaustive search over edge subsets."""
    best = 0
    m = len(edges)

    def rec(i: int, used: set[int], count: int) -> None:
        nonlocal best
        best = max(best, count)
        if count + (m - i) <= best:
            return
        for j in range(i, m):
            a, b = edges[j]
            if a not in used and b not in used:
                used.add(a)
                used.add(b)
                rec(j + 1, used, count + 1)
                used.discard(a)
                used.discard(b)

    rec(0, set(), 0)
    return best


def blossom_matching_by_full_scans(rows) -> list[int | None]:
    """Mate array of a maximum matching (augmenting paths + blossom
    contraction), the matcher the package used before its search state was
    reused: every search allocates its arrays afresh and every contraction
    scans all n vertices.  The package's matcher must give the same mates."""
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


def is_bipartite(adjacency) -> bool:
    color = [None] * len(adjacency)
    for start in range(len(adjacency)):
        if color[start] is not None:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for _, w in adjacency[v]:
                if color[w] is None:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def edge_lies_on_cycle(graph: kohler.KohlerGraph, edge_index: int) -> bool:
    """True iff the endpoints stay connected after deleting the edge."""
    u, w = graph.endpoints[edge_index]
    seen = {u}
    stack = [u]
    while stack:
        v = stack.pop()
        for e, x in graph.adjacency[v]:
            if e == edge_index or x in seen:
                continue
            seen.add(x)
            stack.append(x)
    return w in seen


def two_edge_connected(graph: kohler.KohlerGraph, component: tuple[int, ...]) -> bool:
    """No bridge inside the component (checked by edge deletion)."""
    comp = set(component)
    for e, (u, w) in enumerate(graph.endpoints):
        if u in comp and not edge_lies_on_cycle(graph, e):
            return False
    return True


def isolated_by_characterization(g: Group, base) -> bool:
    """Independent test of the isolated-vertex conditions.

    A vertex is isolated iff its orbit is some [c, 3c] with 7c = 0 or
    8c = 0, or some [c, -c + h] with 6c = 0 and 2h = 0.
    """
    zero = g.zero
    omega1 = killed_by(g, 2)
    for c in g.elements():
        if c == zero:
            continue
        tc = scale(g, 3, c)
        if scale(g, 7, c) == zero or scale(g, 8, c) == zero:
            if tc not in (zero, c) and canonicalize(g, (zero, c, tc)).base == base:
                return True
        if scale(g, 6, c) == zero:
            for h in omega1:
                d = g.add(g.neg(c), h)
                if d not in (zero, c) and canonicalize(g, (zero, c, d)).base == base:
                    return True
    return False


def subgroup_is_cyclic(g: Group, elements: frozenset) -> bool:
    size = len(elements)
    return any(element_order(g, x) == size for x in elements)


def quadruple_orbit_reps(g: Group):
    """Canonical representatives of every orbit of 4-subsets, via through-0 sets."""
    zero = g.zero
    seen = set()
    nonzero = g.elements()[1:]
    for trio in combinations(nonzero, 3):
        base = canonicalize(g, (zero,) + trio).base
        if base not in seen:
            seen.add(base)
            yield base


def triple_orbit_reps(g: Group):
    zero = g.zero
    seen = set()
    nonzero = g.elements()[1:]
    for duo in combinations(nonzero, 2):
        base = canonicalize(g, (zero,) + duo).base
        if base not in seen:
            seen.add(base)
            yield base


def rows_from_edges(n: int, edges) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Adjacency rows as :class:`KohlerGraph` builds them: per vertex, the
    ``(edge index, neighbour)`` pairs sorted by neighbour."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (i, j) in enumerate(edges):
        rows[i].append((e, j))
        rows[j].append((e, i))
    return tuple(tuple(sorted(row, key=lambda t: t[1])) for row in rows)


# -- group structure -------------------------------------------------------


def scale(g: Group, n: int, x: Element) -> Element:
    return tuple((n * p) % d for p, d in zip(x, g.factors))


def killed_by(g: Group, n: int) -> list[Element]:
    """The elements x with n*x = 0, in lex order: Omega_1 for n = 2, Omega_2 for n = 4."""
    return [x for x in g.elements() if scale(g, n, x) == g.zero]


def exponent(g: Group) -> int:
    """Least n with n*x = 0 for all x, i.e. lcm of the factors."""
    return math.lcm(*g.factors)


def element_order(g: Group, x: Element) -> int:
    """Least n >= 1 with n*x = 0."""
    return math.lcm(*(d // math.gcd(d, c) for c, d in zip(x, g.factors)))


def invariant_factors(g: Group) -> tuple[int, ...]:
    """The canonical decomposition d1 | d2 | ... | dk, e.g. (2, 2, 5) -> (2, 10)."""
    primes: dict[int, list[int]] = {}
    for d in g.factors:
        for p, e in _factorint(d).items():
            primes.setdefault(p, []).append(e)
    out = [1] * max(len(es) for es in primes.values())
    for p, es in primes.items():
        for slot, e in enumerate(sorted(es, reverse=True)):
            out[slot] *= p**e
    return tuple(sorted(out))


def subgroup_generated(g: Group, gens) -> frozenset[Element]:
    """Closure of ``gens`` under addition and negation (the full subgroup)."""
    seen: set[Element] = {g.zero}
    frontier = [g.zero]
    step = list(gens) + [g.neg(x) for x in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for s in step:
                y = g.add(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def all_subgroups(g: Group) -> list[frozenset[Element]]:
    """Every subgroup, as element sets, ordered by (size, sorted elements)."""
    found = {frozenset({g.zero})}
    frontier = list(found)
    while frontier:
        nxt = []
        for sub in frontier:
            for x in g.elements():
                if x in sub:
                    continue
                bigger = subgroup_generated(g, tuple(sub) + (x,))
                if bigger not in found:
                    found.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return sorted(found, key=lambda s: (len(s), sorted(s)))


# -- designs ---------------------------------------------------------------


@lru_cache(maxsize=None)
def constructed_designs(max_v: int) -> tuple[Design, ...]:
    """The design :func:`construct_design` builds for each abelian group of
    order at most ``max_v`` that has one, in order of v."""
    out = []
    for v in range(2, max_v + 1):
        if v % 6 not in (2, 4):
            continue
        for g in abelian_groups_of_order(v):
            try:
                out.append(construct_design(g))
            except ConstructionFailure:
                pass
    return tuple(out)


def design_json_dict(design: Design) -> dict:
    """The design as a JSON object built list by list: the reference for the
    bytes of :meth:`Design.write_json`."""
    elements = design.group.elements()
    return {
        "group": list(design.group.factors),
        "h0": list(design.h0),
        "blocks": [[list(elements[c]) for c in block] for block in design.codes],
        "provenance": list(design.provenance),
    }


def tagged_blocks_by_sorting(g: Group, tagged) -> tuple[tuple[Codes, ...], tuple[str, ...]]:
    """The reference for the blocks and provenance of a design made by
    ``Design._from_orbits(g, h0, tagged)``: every orbit expanded, its blocks
    tagged as its base is, all concatenated and argsorted, as construction
    assembled its design before it rendered the blocks from those through 0."""
    blocks: list[Codes] = []
    tags: list[str] = []
    for base, tag in tagged:
        members = orbits._expand(g, base)
        blocks += members
        tags += [tag] * len(members)
    order = sorted(range(len(blocks)), key=blocks.__getitem__)
    return tuple(map(blocks.__getitem__, order)), tuple(map(tags.__getitem__, order))


def encode_blocks_by_reference(g: Group, blocks) -> tuple[Codes, ...]:
    """The reference for ``engine._encode_blocks``: each block as its sorted
    codes, read point by point.  A point is an element when it is a tuple of
    coordinates that are exactly ``int`` and equal to one of
    ``g.elements()``, whose position is its code.  The first block that is
    not four distinct elements raises the package's message for it."""
    code_of = {x: code for code, x in enumerate(g.elements())}
    out = []
    for block in blocks:
        b = tuple(block)
        if len(b) != 4:
            raise InvalidInputError(f"blocks must have 4 distinct elements: {b!r}")
        codes = []
        for x in b:
            if not (isinstance(x, tuple) and all(type(c) is int for c in x) and x in code_of):
                raise InvalidInputError(f"{x!r} is not an element of {g}")
            codes.append(code_of[x])
        if len(set(codes)) != 4:
            raise InvalidInputError(f"blocks must have 4 distinct elements: {b!r}")
        out.append(tuple(sorted(codes)))
    return tuple(out)


def is_symmetric(g: Group, block: Codes) -> bool:
    """The reference for ``orbits._asymmetric``, one block of four codes at
    a time: is B = -B + x for some x?

    y -> x - y is then an involution of B: its 2-cycles {y, z} have y + z = x and
    its fixed points have 2y = x.  So either two pairs of B have equal sums,
    or one pair sums to the equal doubles of the other two, or all four
    doubles are equal.
    """
    add, double = g.add_codes, g.double_table
    p, q, r, s = block
    for (w, x), (y, z) in (((p, q), (r, s)), ((p, r), (q, s)), ((p, s), (q, r))):
        first, second = add(w, x), add(y, z)
        if first == second or double[y] == double[z] == first or double[w] == double[x] == second:
            return True
    return double[p] == double[q] == double[r] == double[s]


def reversibility_violations_by_sorting(g: Group, codes: tuple[Codes, ...]):
    """The reference for ``engine._reversibility_violations``: every block is
    tested for symmetry, and each image is sorted and looked up as a tuple."""
    block_set = set(codes)
    ordered = sorted(block_set)
    neg, elements = g.neg_table, g.elements()
    asymmetric = tuple(orbits._decoded(elements, b) for b in ordered if not is_symmetric(g, b))
    generators = []
    for i in range(len(g.factors)):
        gen = [0] * len(g.factors)
        gen[i] = 1
        generators.append((f"translate+{tuple(gen)}", g.translation(g.encode(tuple(gen)))))
    violations = []
    for block in ordered:
        p, q, r, s = block
        for label, row in generators:
            if tuple(sorted((row[p], row[q], row[r], row[s]))) not in block_set:
                violations.append((orbits._decoded(elements, block), label))
        if tuple(sorted((neg[p], neg[q], neg[r], neg[s]))) not in block_set:
            violations.append((orbits._decoded(elements, block), "negate"))
    return asymmetric, tuple(violations)


def coverage_violations_by_counting(g: Group, blocks) -> tuple[tuple[tuple[Element, ...], int], ...]:
    """Triples covered other than once, with their counts, in lex order, by
    counting the 3-subsets of every block and listing every triple."""
    counts = Counter(t for block in blocks for t in combinations(sorted(block), 3))
    return tuple((t, counts[t]) for t in combinations(g.elements(), 3) if counts[t] != 1)


# -- design provenance -----------------------------------------------------


def b0_blocks(design: Design) -> tuple[tuple[Element, ...], ...]:
    return tuple(b for b, p in zip(design.blocks, design.provenance) if p == B0_TAG)


def factor_edge_indices(design: Design) -> tuple[int, ...]:
    """Sorted Koehler-graph edge indices named by ``factor:<idx>`` provenance."""
    return tuple(
        sorted({int(p[len(FACTOR_TAG_PREFIX) :]) for p in design.provenance if p.startswith(FACTOR_TAG_PREFIX)})
    )


# -- Koehler graph queries -------------------------------------------------


def neighbors(graph: kohler.KohlerGraph, vertex: OrbitRep) -> set[OrbitRep]:
    """Neighbour set read off the built adjacency."""
    if vertex not in graph.vertices:
        raise InvalidInputError(f"{vertex} is not a vertex of {graph}")
    return {graph.vertices[j] for _, j in graph.adjacency[graph.vertices.index(vertex)]}


def degree(graph: kohler.KohlerGraph, vertex: OrbitRep) -> int:
    return len(neighbors(graph, vertex))


def _canonical_triple(neg, a: int, b: int, ba: int) -> Codes:
    """Canonical base of the orbit of {0, a, b}, given ``ba = b - a``.  The
    members through 0 are {0, a, b}, {0, -a, -b}, {0, -a, b-a},
    {0, a, a-b}, {0, -b, a-b} and {0, b, b-a}."""
    na, nb, nba = neg[a], neg[b], neg[ba]
    pairs = ((a, b), (na, nb), (na, ba), (a, nba), (nb, nba), (b, ba))
    return (0, *min([(x, y) if x < y else (y, x) for x, y in pairs]))


def b0_bases_by_canonicalizing(g: Group, h0: Element) -> set[Codes]:
    """The reference for ``engine._b0_bases``: canonicalize the base of every
    forced quadruple met, {0, a, -a, h0} (Q1), {0, a, h, h+a} (Q2) and
    {0, h, h', h+h'} (Q3), and deduplicate."""
    h0_code = g.encode(h0)
    neg, double, add = g.neg_table, g.double_table, g.add_codes
    involutions = [h for h in range(1, g.order) if double[h] == 0]
    outside = [a for a in range(g.order) if double[a] != 0]
    bases = {orbits._canonical(g, (0, a, neg[a], h0_code)) for a in outside}
    for h in involutions:
        if h != h0_code:
            bases.update(orbits._canonical(g, (0, a, h, add(h, a))) for a in outside if double[a] != h)
    bases.update(orbits._canonical(g, (0, h, hp, add(h, hp))) for h, hp in combinations(involutions, 2))
    return bases


def koehler_graph_by_pair_scan(g: Group) -> kohler.KohlerGraph:
    """The reference for ``kohler.build_graph``: scan all unordered pairs of
    nonzero codes, canonicalize every T triple and E quadruple met, and
    deduplicate.  Each edge's endpoints are the canonical triples of the
    first pair that meets it."""
    g.check_capacity()
    v = g.order
    neg, double = g.neg_table, g.double_table

    vertex_bases: set[Codes] = set()
    #: edge base -> the bases of its two endpoints
    edge_ends: dict[Codes, tuple[Codes, Codes]] = {}
    for a in range(1, v):
        plus, minus = g.translation(a), g.translation(neg[a])
        for b in range(a + 1, v):
            ba = minus[b]
            if orbits._in_T(neg, double, a, b):
                vertex_bases.add(_canonical_triple(neg, a, b, ba))
            s = plus[b]
            if s != 0 and s != a and s != b and orbits._in_E(neg, double, a, b):
                base = orbits._canonical(g, (0, a, b, s))
                if base not in edge_ends:
                    # the triples of {0, a, b, a+b} lie in the orbits [a, b] and
                    # [a, a+b] (the decomposition is unique up to swapping a
                    # and b), and so do those of every member of its orbit
                    edge_ends[base] = (_canonical_triple(neg, a, b, ba), _canonical_triple(neg, a, s, b))

    vertex_order = sorted(vertex_bases)
    index = {base: i for i, base in enumerate(vertex_order)}
    edge_order = sorted(edge_ends)

    endpoints = []
    seen_pairs: set[tuple[int, int]] = set()
    for base in edge_order:
        u, w = edge_ends[base]
        assert u in index and w in index, f"edge {base!r} has an endpoint outside T"
        i, j = sorted((index[u], index[w]))
        assert i != j, f"edge {base!r} joins a vertex to itself"
        assert (i, j) not in seen_pairs, f"multiple edges between vertices {i} and {j}"
        seen_pairs.add((i, j))
        endpoints.append((i, j))

    return kohler.KohlerGraph(
        group=g,
        vertex_codes=tuple(vertex_order),
        edge_codes=tuple(edge_order),
        endpoints=tuple(endpoints),
        adjacency=rows_from_edges(len(vertex_order), endpoints),
    )


def in_T_by_definition(g: Group, a: Element, b: Element) -> bool:
    """The reference for ``orbits._in_T``: is the orbit of {0, a, b} in the
    vertex family T, that is a != +-b, 2a not in {0, b, 2b} and 2b not in
    {0, a}?"""
    ta, tb = g.double(a), g.double(b)
    return a not in (b, g.neg(b)) and ta not in (g.zero, b, tb) and tb not in (g.zero, a)


def in_E_by_definition(g: Group, a: Element, b: Element) -> bool:
    """The reference for ``orbits._in_E``: is the orbit of {0, a, b, a+b} in
    the edge family E, that is 0 not in {2a, 2b} and {+-a, +-2a} disjoint
    from {+-b, +-2b}?"""
    ta, tb = g.double(a), g.double(b)
    if g.zero in (ta, tb):
        return False
    return not {a, g.neg(a), ta, g.neg(ta)} & {b, g.neg(b), tb, g.neg(tb)}


def formula_neighbors(g: Group, vertex: OrbitRep) -> set[OrbitRep]:
    """Neighbours recomputed from scratch: {[a, a+b], [b, a-b], [a, b-a]} in T."""
    _, a, b = vertex.base
    zero = g.zero
    out = set()
    for c, d in ((a, g.add(a, b)), (b, g.sub(a, b)), (a, g.sub(b, a))):
        if d != zero and d != c and in_T_by_definition(g, c, d):
            out.add(canonicalize(g, (zero, c, d)))
    return out


# -- orbit classification --------------------------------------------------


def through_zero_sets(g: Group, points) -> frozenset[tuple[Element, ...]]:
    """All members of the orbit of ``points`` that contain 0, as sorted tuples."""
    pts = tuple(points)
    negs = tuple(g.neg(p) for p in pts)
    return frozenset(tuple(sorted(g.sub(p, x) for p in side)) for side in (pts, negs) for x in side)


def triple_family_by_definition(g: Group, a: Element, b: Element) -> str:
    """The family of the orbit of {0, a, b}, read off its members through 0:
    T1 when one is {0, x, -x}, else T2 when one is {0, x, h} with 2h = 0,
    else T.  T1 wins where the two overlap ({0, x, -x} with 4x = 0 has the
    translate {0, x, 2x})."""
    zero = g.zero
    pairs = [tuple(x for x in member if x != zero) for member in through_zero_sets(g, (zero, a, b))]
    if any(y == g.neg(x) for x, y in pairs):
        return TRIPLE_T1
    if any(g.double(x) == zero for pair in pairs for x in pair):
        return TRIPLE_T2
    return TRIPLE_T


def classify_quadruple(g: Group, rep: OrbitRep, h0: Element | None = None) -> str:
    """Finest applicable tag for a quadruple orbit.

    Priority: E, Q1, Q2, Q3, then the coarse symmetric shapes "Qprime"
    ({0,a,b,a+b}), "Qdprime" ({0,a,-a,h} with 2h = 0) and "Qtprime" (three
    involutions), else Asymmetric.  Q1 and Q2 depend on the distinguished
    involution ``h0``; without it such orbits fall through to the coarse
    tags.  The orbit is symmetric (fixed by negation up to translation) iff
    the result is not Asymmetric.
    """
    base = rep.base
    zero = g.zero
    omega1 = set(killed_by(g, 2))
    base_nonzero = base[1:]

    sum_decompositions = [
        (p, q)
        for i, p in enumerate(base_nonzero)
        for q in base_nonzero[i + 1 :]
        if g.add(p, q) in base_nonzero
    ]
    if any(in_E_by_definition(g, p, q) for p, q in sum_decompositions):
        return QUAD_E

    through_zero = through_zero_sets(g, base)
    if h0 is not None:
        for member in through_zero:
            rest = [x for x in member if x != zero]
            if h0 in rest:
                pair = [x for x in rest if x != h0]
                if len(pair) == 2 and pair[1] == g.neg(pair[0]):
                    return QUAD_Q1
        for member in through_zero:
            rest = [x for x in member if x != zero]
            for h in rest:
                if h in omega1 and h != h0:
                    x, y = (p for p in rest if p != h)
                    if y == g.add(x, h) and x not in omega1 and g.double(x) != h:
                        return QUAD_Q2

    if all(x in omega1 for x in base_nonzero) and sum_decompositions:
        return QUAD_Q3
    if sum_decompositions:
        return "Qprime"
    for member in through_zero:
        rest = [x for x in member if x != zero]
        for h in rest:
            if h in omega1:
                pair = [x for x in rest if x != h]
                if len(pair) == 2 and pair[1] == g.neg(pair[0]):
                    return "Qdprime"
    if all(x in omega1 for x in base_nonzero):
        return "Qtprime"
    return QUAD_ASYMMETRIC
