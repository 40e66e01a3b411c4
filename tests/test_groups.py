import random
import tracemalloc
from itertools import combinations

import pytest

from kohler_sqs import (
    CapacityError,
    Group,
    InvalidInputError,
    InvalidSpecError,
    canonicalize,
    choose_h0,
    make_group,
    parse_group_spec,
)
from kohler_sqs.groups import MAX_ORDER_ENV_VAR, max_order_limit

from util import (
    abelian_groups_up_to,
    element_order,
    exponent,
    invariant_factors,
    killed_by,
    scale,
    subgroup_generated,
    through_zero_sets,
)


def test_make_group_orders():
    assert make_group([4, 4]).order == 16
    assert make_group([2, 2, 5]).order == 20


def test_make_group_sorts_factors():
    assert make_group([4, 2]).factors == (2, 4)
    assert make_group([2, 4]).factors == (2, 4)
    assert make_group([2, 2, 5]).factors == (2, 2, 5)


@pytest.mark.parametrize("bad", [[3, 1], [0], [2, -4], [], [2.5], [2, "3"]])
def test_make_group_rejects_bad_factors(bad):
    with pytest.raises(InvalidSpecError):
        make_group(bad)
    with pytest.raises(InvalidSpecError):
        Group(tuple(bad))


@pytest.mark.parametrize(
    "spec,factors",
    [
        ("2,2,5", (2, 2, 5)),
        ("Z4xZ4", (4, 4)),
        ("z4 X z4", (4, 4)),
        ("10", (10,)),
        ("Z2,z10", (2, 10)),
        (" 2 , 2 , 5 ", (2, 2, 5)),
    ],
)
def test_parse_group_spec(spec, factors):
    assert parse_group_spec(spec).factors == factors


# digits other than ASCII ones (Arabic-Indic, fullwidth), a token that ends
# in a newline, and spaces inside a factor
@pytest.mark.parametrize(
    "spec", ["", "Z", "4x", "a,b", "2;3", "\u0662,\u0662,\u0665", "Z\uff12", "2,2,5\n", "2 5", "1 0 0", "Z 1 0"]
)
def test_parse_group_spec_rejects(spec):
    with pytest.raises(InvalidSpecError):
        parse_group_spec(spec)


def test_add_neg_examples():
    g = make_group([2, 2, 5])
    assert g.add((1, 0, 3), (1, 1, 4)) == (0, 1, 2)
    g10 = make_group([10])
    assert g10.neg((3,)) == (7,)
    assert g10.neg(g10.zero) == g10.zero


def test_element_order_examples():
    g = make_group([2, 4])
    assert element_order(g, (0, 1)) == 4
    assert element_order(make_group([10]), (5,)) == 2
    assert element_order(g, g.zero) == 1


def test_omega_examples():
    g = make_group([4, 4])
    assert g.omega1_size == 4
    assert g.omega2_size == 16
    g10 = make_group([10])
    assert g10.omega1_size == 2
    assert g10.omega2_size == 2
    g225 = make_group([2, 2, 5])
    assert g225.omega1_size == 4
    assert g225.omega2_size == 4


def test_omega_sets_are_correct():
    # the closed-form sizes against the sets Omega_1 and Omega_2 by definition
    for g in abelian_groups_up_to(64) + [make_group([2, 6, 8]), make_group([3, 12, 20])]:
        assert g.omega1_size == len(killed_by(g, 2)), g
        assert g.omega2_size == len(killed_by(g, 4)), g


def test_subgroup_generated_examples():
    g10 = make_group([10])
    assert subgroup_generated(g10, [(2,)]) == frozenset({(0,), (2,), (4,), (6,), (8,)})
    g = make_group([4, 4])
    assert len(subgroup_generated(g, [(1, 0), (0, 1)])) == 16
    assert subgroup_generated(g, []) == frozenset({g.zero})


def test_sylow_and_exponent_examples():
    assert make_group([2, 2, 5]).is_sylow2_cyclic is False
    assert make_group([20]).is_sylow2_cyclic is True
    assert make_group([4, 5]).is_sylow2_cyclic is True
    g44 = make_group([4, 4])
    assert g44.is_sylow2_cyclic is False
    assert exponent(g44) == 4


def test_invariant_factors_derived():
    assert invariant_factors(make_group([2, 2, 5])) == (2, 10)
    assert invariant_factors(make_group([2, 3])) == (6,)
    assert invariant_factors(make_group([4, 4])) == (4, 4)
    assert invariant_factors(make_group([2, 4, 3])) == (2, 12)


def test_enumerate_elements_lex_order():
    g = make_group([2, 2])
    assert g.elements() == ((0, 0), (0, 1), (1, 0), (1, 1))
    g10 = make_group([10])
    assert g10.elements() == tuple((i,) for i in range(10))
    g44 = make_group([4, 4])
    assert len(g44.elements()) == 16
    assert g44.elements()[0] == (0, 0)


def test_capacity_limit(monkeypatch):
    g = make_group([101, 101])
    with pytest.raises(CapacityError):
        g.elements()
    monkeypatch.setenv(MAX_ORDER_ENV_VAR, "11000")
    assert max_order_limit() == 11000
    assert len(g.elements()) == 10201
    # int() would read the last three as 50, 10 and 50
    for junk in ("junk", "\u0665\u0660", "1_0", "+50"):
        monkeypatch.setenv(MAX_ORDER_ENV_VAR, junk)
        with pytest.raises(InvalidSpecError):
            max_order_limit()


def test_group_axioms_on_samples():
    rng = random.Random(7)
    for g in (make_group([10]), make_group([4, 4]), make_group([2, 2, 5]), make_group([3, 9])):
        elems = g.elements()
        for _ in range(200):
            x, y, z = (rng.choice(elems) for _ in range(3))
            assert g.add(x, y) == g.add(y, x)
            assert g.add(g.add(x, y), z) == g.add(x, g.add(y, z))
            assert g.neg(g.neg(x)) == x
            assert g.add(x, g.neg(x)) == g.zero


def test_cyclic_subgroup_size_equals_element_order():
    for g in abelian_groups_up_to(16):
        for x in g.elements():
            assert len(subgroup_generated(g, [x])) == element_order(g, x)


def test_omega_divisibility_chain():
    for g in abelian_groups_up_to(24):
        w1, w2, v = g.omega1_size, g.omega2_size, g.order
        assert w2 % w1 == 0
        assert v % w2 == 0
        assert w1 & (w1 - 1) == 0, "omega1 must be a power of 2"


def test_element_order_divides_exponent():
    for g in abelian_groups_up_to(20):
        for x in g.elements():
            assert exponent(g) % element_order(g, x) == 0


def test_codes_agree_with_tuple_arithmetic():
    # the code tables against the tuple methods, and canonicalization on codes
    # against the lex-least through-0 member found with tuples
    for g in abelian_groups_up_to(64):
        v, elements = g.order, g.elements()
        assert [g.encode(x) for x in sorted(elements)] == list(range(v))
        assert [g.decode(g.encode(x)) for x in elements] == list(elements)
        assert [elements[c] for c in g.neg_table] == [g.neg(x) for x in elements]
        assert [elements[c] for c in g.double_table] == [g.double(x) for x in elements]
        for a, y in enumerate(elements):
            assert [elements[c] for c in g.translation(a)] == [g.add(x, y) for x in elements]
            for b, z in enumerate(elements):
                assert elements[g.add_codes(a, b)] == g.add(y, z)
                assert elements[g.add_codes(a, g.neg_table[b])] == g.sub(y, z)
        for a, b in combinations(elements[1:], 2):
            triple = (g.zero, a, b)
            assert canonicalize(g, triple).base == min(through_zero_sets(g, triple)), (g.factors, triple)


def test_encode_rejects_non_elements():
    g = make_group([2, 5])
    assert g.encode((1, 4)) == 9
    assert g.decode(9) == (1, 4)
    # the coordinate types are tested, not the tuple's class: a bool is no
    # coordinate, and a tuple subclass of ints is an element
    with pytest.raises(InvalidInputError):
        g.encode((True, 4))
    assert g.encode(type("Point", (tuple,), {})((1, 4))) == 9
    for bad in [(1, 5), (1,), (1.0, 4), [1, 4], ([1], 4), "14"]:
        with pytest.raises(InvalidInputError):
            g.encode(bad)
    for bad in [-1, 10, 1.0]:
        with pytest.raises(InvalidInputError):
            g.decode(bad)
    for bad in [-1, 10]:
        with pytest.raises(InvalidInputError):
            g.translation(bad)


def test_code_tables_honour_capacity(monkeypatch):
    g = make_group([101, 101])
    with pytest.raises(CapacityError):
        g.encode((0, 0))
    with pytest.raises(CapacityError):
        g.neg_table
    # 2^14 elements: h0 is looked for in the doubling table, which is refused
    with pytest.raises(CapacityError):
        choose_h0(make_group([2] * 14))
    monkeypatch.setenv(MAX_ORDER_ENV_VAR, "11000")
    assert g.encode((100, 100)) == 10200
    assert g.neg_table[1] == 100


def test_pair_sum_table_shares_one_int_per_code():
    # Z2^12 has a 3^12-entry pair-sum table over 4,096 codes; one int object
    # per entry held 17.8 MB and peaked at 23.7 MB
    g = make_group([2] * 12)
    g._strides
    tracemalloc.start()
    try:
        fold = g._fold
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fold) == 3**12 and len(set(map(id, fold))) <= g.order
    assert [fold[g._spread[a] + g._spread[b]] for a in (0, 1, 4095) for b in (0, 2, 4095)] == [
        a ^ b for a in (0, 1, 4095) for b in (0, 2, 4095)
    ]
    assert peak < 12_000_000, peak
