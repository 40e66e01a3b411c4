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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError
from .groups import Element, Group

Subset = tuple[Element, ...]

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


def _validated_points(g: Group, points) -> Subset:
    pts = tuple(points)
    if len(pts) not in (3, 4):
        raise InvalidInputError(f"orbit subsets must have 3 or 4 elements, got {len(pts)}")
    if len(set(pts)) != len(pts):
        raise InvalidInputError(f"subset elements must be distinct: {pts!r}")
    for p in pts:
        g.validate_element(p)
    return pts


def _through_zero_candidates(g: Group, pts: Subset) -> list[Subset]:
    neg_pts = tuple(g.neg(p) for p in pts)
    out = []
    for x in pts:
        out.append(tuple(sorted(g.sub(p, x) for p in pts)))
    for x in neg_pts:
        out.append(tuple(sorted(g.sub(np, x) for np in neg_pts)))
    return out


def canonicalize(g: Group, points) -> OrbitRep:
    """Canonical representative of the orbit of a 3- or 4-subset."""
    pts = _validated_points(g, points)
    return OrbitRep(g, min(_through_zero_candidates(g, pts)))


def _checked_base(g: Group, rep: OrbitRep) -> Subset:
    if rep.group != g:
        raise InvalidInputError(f"{rep} belongs to {rep.group}, not {g}")
    return _validated_points(g, rep.base)


def expand_orbit(g: Group, rep: OrbitRep) -> set[Subset]:
    """Every subset in the orbit, as sorted tuples."""
    base = _checked_base(g, rep)
    neg_base = tuple(g.neg(p) for p in base)
    out: set[Subset] = set()
    for a in g.elements():
        out.add(tuple(sorted(g.add(p, a) for p in base)))
        out.add(tuple(sorted(g.add(p, a) for p in neg_base)))
    return out


def orbit_size(g: Group, rep: OrbitRep) -> int:
    """Orbit cardinality via the through-0 counting identity.

    Counting pairs (x, X) with x in X gives |X| * |orbit| = v * n0 where n0
    is the number of orbit members containing 0.
    """
    base = _checked_base(g, rep)
    n0 = len(set(_through_zero_candidates(g, base)))
    size, remainder = divmod(g.order * n0, len(base))
    if remainder:
        raise InvalidInputError(f"orbit size identity failed for {base!r}")
    return size


def in_T(g: Group, a: Element, b: Element) -> bool:
    """Does the orbit of {0, a, b} belong to the vertex family T?

    Tests a != +-b, 2a not in {0, b, 2b} and 2b not in {0, a, 2a}; the answer
    is independent of which through-0 pair of the orbit is supplied.
    """
    zero = g.zero
    if a == zero or b == zero or a == b:
        raise InvalidInputError("in_T needs two distinct nonzero elements")
    if a == g.neg(b):
        return False
    ta, tb = g.double(a), g.double(b)
    if ta == zero or ta == b or ta == tb:
        return False
    if tb == zero or tb == a:
        return False
    return True


def in_E(g: Group, a: Element, b: Element) -> bool:
    """Does the orbit of {0, a, b, a+b} belong to the edge family E?

    Tests 0 not in {2a, 2b} and {+-a, +-2a} disjoint from {+-b, +-2b};
    orbit-invariant for the same reason as :func:`in_T`.
    """
    zero = g.zero
    s = g.add(a, b)
    if a == zero or b == zero or a == b or s == zero:
        raise InvalidInputError("in_E needs {0, a, b, a+b} to have four distinct elements")
    ta, tb = g.double(a), g.double(b)
    if ta == zero or tb == zero:
        return False
    left = {a, g.neg(a), ta, g.neg(ta)}
    right = {b, g.neg(b), tb, g.neg(tb)}
    return not (left & right)


def classify_triple(g: Group, rep: OrbitRep) -> str:
    """Classify a triple orbit as T1, T2 or T.

    T1 and T2 can overlap (the orbit of {0, a, -a} with a killed by 4 is
    also of T2 shape); T1 wins the tag in that case.  T is disjoint from
    both, so exactly one tag comes back.
    """
    base = _checked_base(g, rep)
    if len(base) != 3:
        raise InvalidInputError("classify_triple needs a triple orbit")
    _, a, b = base
    if b == g.neg(a) or a == g.double(b) or g.double(a) == b:
        return TRIPLE_T1
    zero = g.zero
    ta, tb = g.double(a), g.double(b)
    if ta == zero or tb == zero or ta == tb:
        return TRIPLE_T2
    return TRIPLE_T


def is_symmetric_block(g: Group, block) -> bool:
    """Is B = -B + x for some x?  Any such x must be b0 + b for b in B."""
    pts = _validated_points(g, block)
    if len(pts) != 4:
        raise InvalidInputError("is_symmetric_block needs a 4-element block")
    negated = {g.neg(p) for p in pts}
    members = set(pts)
    for b in pts:
        x = g.add(pts[0], b)
        if {g.add(q, x) for q in negated} == members:
            return True
    return False
