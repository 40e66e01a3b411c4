"""Orbits of 3- and 4-element subsets under translations and negation.

The acting group is the semidirect product of the abelian group A with the
negation map x -> -x, so the orbit of a subset X is
``{X + a} union {-X + a}`` over all a in A.  Every orbit of a triple or
quadruple contains members through 0, and all of them arise as ``X - x`` or
``-X + x`` for x in X; the canonical representative is the lexicographically
least of those members.  Two subsets lie in the same orbit exactly when
their canonical forms coincide.

Two families matter to the construction: the vertex family T of triple
orbits (the Koehler-graph vertices, :func:`_in_T`) and the edge family E of
quadruple orbits (:func:`_in_E`).  The triple orbits outside T are the
special ones, which the forced blocks B0 cover.

Every function here works on element codes (see :mod:`kohler_sqs.groups`);
the public ones take and return coordinate tuples and convert at the
boundary.  Codes keep lexicographic order, so a canonical base is the least
sorted code tuple among those members, exactly as it is among tuples.
"""

from __future__ import annotations

from .errors import InternalInconsistencyError, InvalidInputError
from .groups import Element, Group, Record

Subset = tuple[Element, ...]
#: a subset as element codes
Codes = tuple[int, ...]


class OrbitRep(Record):
    """Canonical representative of an orbit of a 3- or 4-subset.

    ``base`` is sorted, starts with 0, and is the lex-least through-0 member
    of the orbit.
    """

    _fields = ("group", "base")

    def __init__(self, group: Group, base: Subset) -> None:
        self.__dict__.update(group=group, base=base)

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


def _members_through_zero(g: Group, pts: Codes) -> set[Codes]:
    """The distinct orbit members through 0: ``X - x`` and ``-X + x`` for x
    in X, each sorted.  Each difference ``p - x`` or ``x - p`` is read from
    the spread codes of X and of -X (see :meth:`Group.add_codes`), without a
    call per difference."""
    spread, fold, neg = g._spread, g._fold, g.neg_table
    plus = [spread[p] for p in pts]
    minus = [spread[neg[p]] for p in pts]
    out = set()
    for x, nx in zip(plus, minus):
        out.add(tuple(sorted([fold[p + nx] for p in plus])))
        out.add(tuple(sorted([fold[x + nq] for nq in minus])))
    return out


def _canonical(g: Group, pts: Codes) -> Codes:
    return min(_members_through_zero(g, pts))


def _triple_pairs(neg, a: int, b: int, ba: int) -> tuple[tuple[int, int], ...]:
    """The members through 0 of the orbit of {0, a, b}, given ``ba = b - a``,
    each as its sorted pair of nonzero codes: {0, a, b}, {0, -a, -b},
    {0, -a, b-a}, {0, a, a-b}, {0, -b, a-b} and {0, b, b-a}."""
    na, nb, nba = neg[a], neg[b], neg[ba]
    pairs = ((a, b), (na, nb), (na, ba), (a, nba), (nb, nba), (b, ba))
    return tuple((x, y) if x < y else (y, x) for x, y in pairs)


def canonicalize(g: Group, points) -> OrbitRep:
    """Canonical representative of the orbit of a 3- or 4-subset."""
    return OrbitRep(g, _decoded(g.elements(), _canonical(g, _validated_points(g, points))))


def _checked_base(g: Group, rep: OrbitRep) -> Codes:
    if rep.group != g:
        raise InvalidInputError(f"{rep} belongs to {rep.group}, not {g}")
    return _validated_points(g, rep.base)


def _expand(g: Group, base: Codes) -> set[Codes]:
    """Every member of the orbit of ``base``, as sorted code tuples: one
    translation row per point of ``base`` and of ``-base``.

    When ``-base`` is among the translates of ``base``, say ``-base = base +
    x``, then ``-base + a = base + (x + a)``: the translates of ``base`` are
    the whole orbit and the rows of ``-base`` are skipped."""
    out = {tuple(sorted(member)) for member in zip(*map(g.translation, base))}
    negated = [g.neg_table[p] for p in base]
    if tuple(sorted(negated)) not in out:
        out.update(tuple(sorted(member)) for member in zip(*map(g.translation, negated)))
    return out


def expand_orbit(g: Group, rep: OrbitRep) -> set[Subset]:
    """Every subset in the orbit, as sorted tuples."""
    members = _expand(g, _checked_base(g, rep))
    elements = g.elements()
    return {_decoded(elements, member) for member in members}


def _family_size(v: int, n: int, k: int) -> int:
    """The size of a family of k-sets invariant under translation, with n
    members through 0: counting pairs (x, X) with x in X gives
    k * |family| = v * n."""
    size, remainder = divmod(v * n, k)
    if remainder:
        raise InternalInconsistencyError(f"no invariant family of {k}-sets on {v} points has {n} members through 0")
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
