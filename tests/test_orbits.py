import random
from itertools import combinations, product

import pytest

from kohler_sqs import InvalidInputError, make_group
from kohler_sqs import orbits
from kohler_sqs.orbits import (
    OrbitRep,
    canonicalize,
    expand_orbit,
    is_symmetric_block,
)

from util import (
    QUAD_ASYMMETRIC,
    QUAD_E,
    QUAD_Q1,
    QUAD_Q3,
    TRIPLE_T,
    TRIPLE_T1,
    TRIPLE_T2,
    abelian_groups_up_to,
    classify_quadruple,
    in_E_by_definition,
    in_T_by_definition,
    is_symmetric,
    killed_by,
    quadruple_orbit_reps,
    through_zero_sets,
    triple_family_by_definition,
    triple_orbit_reps,
)

Z10 = make_group([10])
Z8 = make_group([8])
Z20 = make_group([20])
Z44 = make_group([4, 4])
Z225 = make_group([2, 2, 5])


def t(*xs):
    return tuple((x,) for x in xs)


def test_canonicalize_negation_and_translation():
    a = canonicalize(Z10, t(0, 1, 3))
    assert canonicalize(Z10, t(0, 9, 7)) == a
    assert canonicalize(Z10, t(2, 3, 5)) == a
    assert a.base == t(0, 1, 3)


def test_through_zero_members_of_013():
    # hand expansion of the six through-0 pairs for (a, b) = (1, 3):
    # {1,3}, {9,2}, {7,8}, {9,7}, {1,8}, {3,2}
    expected = {t(0, 1, 3), t(0, 2, 9), t(0, 7, 8), t(0, 7, 9), t(0, 1, 8), t(0, 2, 3)}
    assert through_zero_sets(Z10, t(0, 1, 3)) == expected


def test_canonicalize_rejects_bad_subsets():
    with pytest.raises(InvalidInputError):
        canonicalize(Z10, t(0, 1))
    with pytest.raises(InvalidInputError):
        canonicalize(Z10, t(0, 1, 1))
    with pytest.raises(InvalidInputError):
        canonicalize(Z10, ((0,), (1,), (11,)))


def test_expand_orbit_sizes():
    assert len(expand_orbit(Z10, canonicalize(Z10, t(0, 1, 3)))) == 20
    assert len(expand_orbit(Z10, canonicalize(Z10, t(0, 1, 3, 4)))) == 10
    sub = ((0, 0), (2, 0), (0, 2), (2, 2))
    assert len(expand_orbit(Z44, canonicalize(Z44, sub))) == 4


def test_expand_matches_the_translates_of_the_subset_and_its_negative():
    for g in (Z10, Z225, Z44, make_group([16])):
        elements = g.elements()
        # the Cayley table and negation in codes, from the tuple arithmetic
        add = [[g.encode(g.add(x, y)) for y in elements] for x in elements]
        neg = [g.encode(g.neg(x)) for x in elements]
        for k in (3, 4):
            for subset in combinations(range(g.order), k):
                expected = {
                    tuple(sorted(add[p][a] for p in side))
                    for side in (subset, [neg[p] for p in subset])
                    for a in range(g.order)
                }
                assert orbits._expand(g, subset) == expected, (str(g), subset)


# In a cyclic group the code of (x,) is x, so the kernels below take the
# residues as they are.


def _orbit_size(g, base):
    """The size of the orbit of ``base``, from its members through 0."""
    return orbits._family_size(g.order, len(orbits._members_through_zero(g, base)), len(base))


def test_orbit_size_examples():
    assert _orbit_size(Z10, (0, 1, 9)) == 10
    assert _orbit_size(Z10, (0, 1, 5, 9)) == 10
    # 2a = h0 halves the orbit: {0, 5, 15, 10} in Z20
    assert _orbit_size(Z20, (0, 5, 10, 15)) == 5


def test_orbit_size_matches_expansion_exhaustively():
    for g in (Z10, Z8, make_group([12]), Z225, Z44):
        for base in [*triple_orbit_reps(g), *quadruple_orbit_reps(g)]:
            size = _orbit_size(g, tuple(map(g.encode, base)))
            assert size == len(expand_orbit(g, OrbitRep(g, base))), (str(g), base)


def test_in_T_examples():
    assert orbits._in_T(Z10.neg_table, Z10.double_table, 1, 3) is True
    assert orbits._in_T(Z10.neg_table, Z10.double_table, 1, 2) is False  # 2a = b
    assert orbits._in_T(Z8.neg_table, Z8.double_table, 1, 3) is True


def test_in_E_examples():
    assert orbits._in_E(Z10.neg_table, Z10.double_table, 1, 3) is True
    assert orbits._in_E(Z10.neg_table, Z10.double_table, 1, 4) is False  # -2a = 2b


def test_membership_kernels_agree_with_the_definitions():
    for g in (Z10, Z225, Z44):
        neg, double = g.neg_table, g.double_table
        seen = set()
        for a, b in product(range(g.order), repeat=2):
            x, y = g.decode(a), g.decode(b)
            in_t, in_e = orbits._in_T(neg, double, a, b), orbits._in_E(neg, double, a, b)
            assert in_t == in_T_by_definition(g, x, y), (str(g), x, y)
            assert in_e == in_E_by_definition(g, x, y), (str(g), x, y)
            seen.add((in_t, in_e))
        assert {t for t, _ in seen} == {e for _, e in seen} == {True, False}, str(g)


def test_classify_triple_examples():
    neg, double = Z10.neg_table, Z10.double_table
    for a, b, family in ((1, 9, TRIPLE_T1), (1, 5, TRIPLE_T2), (1, 3, TRIPLE_T)):
        assert triple_family_by_definition(Z10, (a,), (b,)) == family
        assert orbits._in_T(neg, double, a, b) == (family == TRIPLE_T)
    # {0, 1, 3} in Z4 is {0, x, -x} and has the translate {0, 1, 2} through
    # the involution 2: T1 wins
    Z4 = make_group([4])
    assert t(0, 1, 2) in through_zero_sets(Z4, t(0, 1, 3))
    assert triple_family_by_definition(Z4, (1,), (3,)) == TRIPLE_T1


def test_classify_triple_trichotomy_exhaustive():
    # every triple orbit has exactly one family, the vertex family T is the
    # complement of T1 and T2, and _in_T holds exactly on T
    families = set()
    for g in abelian_groups_up_to(40):
        neg, double = g.neg_table, g.double_table
        by_orbit: dict[frozenset, set[str]] = {}
        for a, b in combinations(range(1, g.order), 2):
            x, y = g.decode(a), g.decode(b)
            family = triple_family_by_definition(g, x, y)
            assert orbits._in_T(neg, double, a, b) == (family == TRIPLE_T) == in_T_by_definition(g, x, y), (
                str(g),
                x,
                y,
            )
            by_orbit.setdefault(through_zero_sets(g, (g.zero, x, y)), set()).add(family)
        assert all(len(seen) == 1 for seen in by_orbit.values()), str(g)
        families.update(*by_orbit.values())
    assert families == {TRIPLE_T, TRIPLE_T1, TRIPLE_T2}


def test_classify_quadruple_examples():
    h0 = (5,)
    assert classify_quadruple(Z10, canonicalize(Z10, t(0, 1, 3, 4)), h0) == QUAD_E
    assert classify_quadruple(Z10, canonicalize(Z10, t(0, 1, 9, 5)), h0) == QUAD_Q1
    rep = canonicalize(Z225, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)))
    assert classify_quadruple(Z225, rep, (0, 1, 0)) == QUAD_Q3


def test_is_symmetric_block_examples():
    assert is_symmetric_block(Z10, t(0, 1, 3, 4)) is True  # B = -B + 4
    assert is_symmetric_block(Z10, t(0, 1, 9, 5)) is True  # fixed by negation
    # block replacing a forced orbit in the reference SQS(20)
    block = ((0, 0, 0), (0, 0, 1), (0, 1, 4), (0, 1, 0))
    assert is_symmetric_block(Z225, block) is True
    assert is_symmetric_block(Z10, t(0, 1, 2, 4)) is False


def test_batched_symmetry_kernel_agrees_with_the_reference():
    for g in (Z10, make_group([16]), Z44, make_group([2, 2, 2, 2]), Z225, make_group([2, 8])):
        blocks = list(combinations(range(g.order), 4))
        asymmetric = orbits._asymmetric(g, blocks)
        assert asymmetric == [b for b in blocks if not is_symmetric(g, b)], str(g)
        # in an elementary abelian 2-group -B = B, so every block is symmetric
        assert len(asymmetric) < len(blocks) and bool(asymmetric) == (g.factors != (2, 2, 2, 2))


def test_canonicalization_constant_on_orbit_images():
    rng = random.Random(20)
    for g in (Z10, Z44, Z225):
        elems = g.elements()
        for _ in range(60):
            pts = rng.sample(elems, rng.choice([3, 4]))
            rep = canonicalize(g, pts)
            assert canonicalize(g, rep.base) == rep  # idempotent
            for _ in range(8):
                shift = rng.choice(elems)
                image = [g.add(p, shift) for p in pts]
                if rng.random() < 0.5:
                    image = [g.neg(p) for p in image]
                assert canonicalize(g, image) == rep


def test_membership_tests_are_orbit_invariant():
    for g in (Z10, Z8, make_group([2, 6])):
        neg, double = g.neg_table, g.double_table
        by_orbit_t: dict[tuple, set[tuple[bool, str]]] = {}
        for a, b in combinations(range(1, g.order), 2):
            base = orbits._canonical(g, (0, a, b))
            tags = (orbits._in_T(neg, double, a, b), triple_family_by_definition(g, g.decode(a), g.decode(b)))
            by_orbit_t.setdefault(base, set()).add(tags)
        assert all(len(vals) == 1 for vals in by_orbit_t.values())
        assert all(in_t == (family == TRIPLE_T) for vals in by_orbit_t.values() for in_t, family in vals)

        by_orbit_e: dict[tuple, set[bool]] = {}
        for a, b in combinations(range(1, g.order), 2):
            s = g.add_codes(a, b)
            if s == 0 or s == a or s == b:
                continue
            base = orbits._canonical(g, (0, a, b, s))
            by_orbit_e.setdefault(base, set()).add(orbits._in_E(neg, double, a, b))
        assert all(len(vals) == 1 for vals in by_orbit_e.values())


def test_unique_containment_in_edge_orbits():
    # For an edge orbit, each 3-subset of a member lies in that member only.
    for g in (Z10, make_group([14]), Z225):
        for base in quadruple_orbit_reps(g):
            rep = canonicalize(g, base)
            if classify_quadruple(g, rep, None) != QUAD_E:
                continue
            seen: dict[tuple, int] = {}
            for block in expand_orbit(g, rep):
                for triple in combinations(block, 3):
                    seen[triple] = seen.get(triple, 0) + 1
            assert all(count == 1 for count in seen.values())


def test_symmetry_classification_equivalence_exhaustive():
    for g in (Z10, make_group([14]), make_group([16]), Z225):
        h0 = min(x for x in killed_by(g, 2) if x != g.zero)
        for quad in combinations(g.elements(), 4):
            rep = canonicalize(g, quad)
            tag = classify_quadruple(g, rep, h0)
            assert (tag != QUAD_ASYMMETRIC) == is_symmetric_block(g, quad)
