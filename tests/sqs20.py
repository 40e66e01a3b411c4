"""A reference reversible SQS(20) over Z2 x Z2 x Z5 used by the verifier tests.

This design is a counterexample to "every reversible system contains the full
forced block set B0": with h0 = (1, 0, 0) it omits the 20 B0 blocks of two Q2
orbits and covers their triples with two symmetric non-edge orbits instead.
No run of the constructive pipeline (B0 plus a 1-factor) can produce it, so
it exercises verifier code paths nothing else reaches.

The design is stored as orbit representatives: each entry lists the three
nonzero elements of a through-0 member, and the block set is the union of
the orbit expansions.  ``SQS20_CORE_ORBITS`` holds seventeen orbits that
expand to 265 distinct blocks and leave exactly 80 triples uncovered;
``SQS20_COMPLETION_ORBIT`` is the unique quadruple orbit whose expansion
covers precisely those triples (uniqueness is established by exhaustive
search in the acceptance suite).  Together they form the 285-block system.
"""

from __future__ import annotations

from kohler_sqs.groups import Group, make_group
from kohler_sqs.orbits import Subset, canonicalize, expand_orbit

SQS20_FACTORS = (2, 2, 5)
SQS20_H0 = (1, 0, 0)

# Orbit representatives as the nonzero elements of a through-0 member, in
# coordinates (x, y, z) for x*(1,0,0) + y*(0,1,0) + z*(0,0,1).
SQS20_CORE_ORBITS: tuple[tuple[tuple[int, int, int], ...], ...] = (
    # the order-4 subgroup of involutions
    ((1, 0, 0), (0, 1, 0), (1, 1, 0)),
    # {0, a, -a, h0} orbits
    ((0, 0, 1), (0, 0, 4), (1, 0, 0)),
    ((0, 0, 2), (0, 0, 3), (1, 0, 0)),
    ((0, 1, 1), (0, 1, 4), (1, 0, 0)),
    ((0, 1, 2), (0, 1, 3), (1, 0, 0)),
    # {0, a, h, h+a} orbits
    ((1, 1, 0), (1, 0, 1), (0, 1, 1)),
    ((1, 1, 0), (0, 0, 1), (1, 1, 1)),
    ((1, 1, 0), (0, 0, 2), (1, 1, 2)),
    ((1, 1, 0), (1, 0, 2), (0, 1, 2)),
    ((0, 1, 0), (1, 0, 1), (1, 1, 1)),
    ((0, 1, 0), (1, 0, 2), (1, 1, 2)),
    # edge orbits
    ((1, 0, 1), (1, 0, 3), (0, 0, 4)),
    ((1, 1, 1), (1, 1, 3), (0, 0, 4)),
    ((1, 0, 2), (1, 1, 1), (0, 1, 3)),
    ((1, 1, 2), (0, 1, 1), (1, 0, 3)),
    # symmetric non-edge orbits replacing two Q2 orbits of B0
    ((0, 0, 1), (0, 1, 4), (0, 1, 0)),
    ((0, 0, 2), (0, 1, 3), (0, 1, 0)),
)

# The unique orbit completing the triple cover of the core seventeen;
# it is a fifth edge orbit.
SQS20_COMPLETION_ORBIT: tuple[tuple[int, int, int], ...] = (
    (0, 1, 2),
    (1, 0, 1),
    (1, 1, 3),
)

SQS20_ORBITS = SQS20_CORE_ORBITS + (SQS20_COMPLETION_ORBIT,)


def sqs20_group() -> Group:
    return make_group(list(SQS20_FACTORS))


def _expand(g: Group, orbit_rows) -> frozenset[Subset]:
    blocks: set[Subset] = set()
    for row in orbit_rows:
        blocks.update(expand_orbit(g, canonicalize(g, (g.zero,) + tuple(row))))
    return frozenset(blocks)


def sqs20_core_blocks() -> frozenset[Subset]:
    """Expansion of the seventeen core orbits alone (265 blocks)."""
    return _expand(sqs20_group(), SQS20_CORE_ORBITS)


def sqs20_blocks() -> frozenset[Subset]:
    """The full 285-block reversible SQS(20)."""
    return _expand(sqs20_group(), SQS20_ORBITS)
