"""Orbits of 3- and 4-element subsets under translations and negation.

The acting group is the semidirect product of the abelian group A with the
negation map x -> -x, so the orbit of a subset X is
``{X + a} union {-X + a}`` over all a in A.  Every orbit of a triple or
quadruple contains members through 0, and all of them arise as ``X - x`` or
``-X + x`` for x in X; the canonical representative is the lexicographically
least of those candidates.  Two subsets lie in the same orbit exactly when
their canonical forms coincide.

Orbits of triples split into three families: the vertex family T (the
Koehler-graph vertices), the family T1 of orbits of {0, a, -a}, and the
family T2 of orbits of {0, a, h} with h an involution.  Orbits of quadruples
of interest are the edge family E (orbits of {0, a, b, a+b} with
0 not in {2a, 2b} and {+-a, +-2a} disjoint from {+-b, +-2b}) and the forced
families Q1 = [a, -a, h0], Q2 = [a, h, h+a], Q3 = [h, h', h+h'] from which
the base block set of the construction is assembled.

Every function here works on element codes (see :mod:`kohler_sqs.groups`);
the public ones take and return coordinate tuples and convert at the
boundary.  Codes keep lexicographic order, so a canonical base is the least
sorted code tuple among the candidates, exactly as it is among tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError
from .groups import Element, Group

Subset = tuple[Element, ...]
#: a subset as element codes
Codes = tuple[int, ...]

# Triple classification tags.
TRIPLE_T = "T"
TRIPLE_T1 = "T1"
TRIPLE_T2 = "T2"

# Tags of the forced quadruple families.
QUAD_Q1 = "Q1"
QUAD_Q2 = "Q2"
QUAD_Q3 = "Q3"


@dataclass(frozen=True)
class OrbitRep:
    """Canonical representative of an orbit of a 3- or 4-subset.

    ``base`` is sorted, starts with 0, and is the lex-least through-0 member
    of the orbit.
    """

    group: Group
    base: Subset

    def __str__(self) -> str:
        return "[" + ", ".join(str(x) for x in self.base[1:]) + "]"



def _validated_points(g: Group, points) -> Codes:
    pts = tuple(points)
    if len(pts) not in (3, 4):
        raise InvalidInputError(f"orbit subsets must have 3 or 4 elements, got {len(pts)}")
    codes = tuple(g.encode(p) for p in pts)
    if len(set(codes)) != len(codes):
        raise InvalidInputError(f"subset elements must be distinct: {pts!r}")
    return codes


def _decoded(elements: tuple[Element, ...], codes) -> Subset:
    """The subset of ``codes`` as tuples, where ``elements`` is ``g.elements()``."""
    return tuple(map(elements.__getitem__, codes))


def _through_zero_candidates(g: Group, pts: Codes) -> list[Codes]:
    """The orbit members through 0: ``X - x`` and ``-X + x`` for x in X,
    each sorted.  ``(-p) - (-x)`` is ``-(p - x)``, so one difference row per
    x gives both."""
    sub, neg = g.sub_codes, g.neg_table
    out = []
    for x in pts:
        row = [sub(p, x) for p in pts]
        out.append(tuple(sorted(row)))
        out.append(tuple(sorted(neg[d] for d in row)))
    return out


def _canonical(g: Group, pts: Codes) -> Codes:
    return min(_through_zero_candidates(g, pts))


def _triple_pairs(neg, a: int, b: int, ba: int) -> tuple[tuple[int, int], ...]:
    """The members through 0 of the orbit of {0, a, b}, given ``ba = b - a``,
    each as its sorted pair of nonzero codes: {0, a, b}, {0, -a, -b},
    {0, -a, b-a}, {0, a, a-b}, {0, -b, a-b} and {0, b, b-a}."""
    na, nb, nba = neg[a], neg[b], neg[ba]
    pairs = ((a, b), (na, nb), (na, ba), (a, nba), (nb, nba), (b, ba))
    return tuple((x, y) if x < y else (y, x) for x, y in pairs)


def _canonical_edge(neg, a: int, b: int, s: int, ba: int) -> Codes:
    """Canonical base of the orbit of {0, a, b, s} with ``s = a + b``, given
    ``ba = b - a``.  Its differences all lie in +-a, +-b, +-(b-a) and +-s;
    the members through 0 are ``X - x`` and ``-X + x`` for x in {0, a, b},
    since x = s repeats x = 0 with the sides swapped."""
    na, nb, nba = neg[a], neg[b], neg[ba]
    return (
        0,
        *min(
            tuple(sorted(m))
            for m in ((a, b, s), (na, nb, neg[s]), (na, ba, b), (a, nba, nb), (nb, nba, a), (b, ba, na))
        ),
    )


def canonicalize(g: Group, points) -> OrbitRep:
    """Canonical representative of the orbit of a 3- or 4-subset."""
    return OrbitRep(g, _decoded(g.elements(), _canonical(g, _validated_points(g, points))))


def _checked_base(g: Group, rep: OrbitRep) -> Codes:
    if rep.group != g:
        raise InvalidInputError(f"{rep} belongs to {rep.group}, not {g}")
    return _validated_points(g, rep.base)


def _expand(g: Group, base: Codes, symmetric: bool = False) -> set[Codes]:
    """Every member of the orbit of ``base``, as sorted code tuples: one
    translation row per point of ``base`` and of ``-base``.

    A caller that has checked ``base`` is symmetric passes ``symmetric``:
    then ``-base + a = base + (x + a)`` for the x with ``-base = base + x``,
    so the translates of ``base`` are the whole orbit and the rows of
    ``-base`` are skipped."""
    out = {tuple(sorted(member)) for member in zip(*map(g.translation, base))}
    if not symmetric:
        neg = g.neg_table
        out.update(tuple(sorted(member)) for member in zip(*(g.translation(neg[p]) for p in base)))
    return out


def expand_orbit(g: Group, rep: OrbitRep) -> set[Subset]:
    """Every subset in the orbit, as sorted tuples."""
    members = _expand(g, _checked_base(g, rep))
    elements = g.elements()
    return {_decoded(elements, member) for member in members}


def _orbit_size(g: Group, base: Codes) -> int:
    """Size of the orbit of ``base``: counting pairs (x, X) with x in X gives
    |X| * |orbit| = v * n0, n0 the number of members through 0."""
    n0 = len(set(_through_zero_candidates(g, base)))
    size, remainder = divmod(g.order * n0, len(base))
    if remainder:
        raise InvalidInputError(f"orbit size identity failed for {_decoded(g.elements(), base)!r}")
    return size


def _in_T(neg, double, a: int, b: int) -> bool:
    """Is the orbit of {0, a, b} in the vertex family T: a != +-b, 2a not in
    {0, b, 2b} and 2b not in {0, a}?  The same for every through-0 pair."""
    if a == neg[b]:
        return False
    ta, tb = double[a], double[b]
    return not (ta == 0 or ta == b or ta == tb or tb == 0 or tb == a)


def _in_E(neg, double, a: int, b: int) -> bool:
    """Is the orbit of {0, a, b, a+b} in the edge family E: 0 not in
    {2a, 2b} and {+-a, +-2a} disjoint from {+-b, +-2b}?"""
    ta, tb = double[a], double[b]
    if ta == 0 or tb == 0:
        return False
    # {+-a, +-2a} is closed under negation, so testing b and 2b covers -b and -2b
    left = (a, neg[a], ta, neg[ta])
    return b not in left and tb not in left


def _classify_triple(neg, double, a: int, b: int) -> str:
    """The family of the orbit of {0, a, b}: T1 wins where T1 and T2 overlap
    ({0, a, -a} with 4a = 0), and T is disjoint from both."""
    ta, tb = double[a], double[b]
    if b == neg[a] or a == tb or ta == b:
        return TRIPLE_T1
    if ta == 0 or tb == 0 or ta == tb:
        return TRIPLE_T2
    return TRIPLE_T


def _asymmetric(g: Group, blocks) -> list[Codes]:
    """The blocks of four codes that are not symmetric, in the order given.

    B = -B + x for some x exactly when y -> x - y is an involution of B: its
    2-cycles {y, z} have y + z = x and its fixed points have 2y = x.  So B is
    symmetric when two pairs of B have equal sums, or one pair sums to the
    equal doubles of the other two, or all four doubles are equal.  The six
    pair sums are read from the group's spread and fold tables (see
    :meth:`Group.add_codes`), without a call per sum."""
    spread, fold, double = g._spread, g._fold, g.double_table
    out = []
    for block in blocks:
        p, q, r, s = block
        a, b, c, d = spread[p], spread[q], spread[r], spread[s]
        pq, rs, pr, qs, ps, qr = fold[a + b], fold[c + d], fold[a + c], fold[b + d], fold[a + d], fold[b + c]
        dp, dq, dr, ds = double[p], double[q], double[r], double[s]
        if not (
            pq == rs
            or pr == qs
            or ps == qr
            or dr == ds == pq
            or dp == dq == rs
            or dq == ds == pr
            or dp == dr == qs
            or dq == dr == ps
            or dp == ds == qr
            or dp == dq == dr == ds
        ):
            out.append(block)
    return out


def is_symmetric_block(g: Group, block) -> bool:
    """Is B = -B + x for some x?"""
    pts = _validated_points(g, block)
    if len(pts) != 4:
        raise InvalidInputError("is_symmetric_block needs a 4-element block")
    return not _asymmetric(g, [pts])
