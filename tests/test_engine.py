import io
import json
import tracemalloc
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest

from kohler_sqs import (
    ConstructionFailure,
    InternalInconsistencyError,
    InvalidInputError,
    InvalidOrderError,
    InvalidSpecError,
    NoInvolutionError,
    make_group,
)
from kohler_sqs import cli, engine, kohler, matching, orbits
from kohler_sqs.engine import (
    B0_TAG,
    Design,
    build_B0,
    choose_h0,
    condition_iv_diagnostics,
    construct_design,
    count_B0_formula,
    count_special_triples_formula,
    design_from_json_dict,
    existence_check,
    verify_design,
)
from kohler_sqs.groups import MAX_ORDER_ENV_VAR
from kohler_sqs.kohler import build_graph
from kohler_sqs.orbits import OrbitRep, canonicalize, expand_orbit

from sqs20 import SQS20_CORE_ORBITS, SQS20_ORBITS, sqs20_blocks, sqs20_group
from util import (
    QUAD_ASYMMETRIC,
    QUAD_E,
    QUAD_Q1,
    QUAD_Q2,
    QUAD_Q3,
    abelian_groups_up_to,
    b0_bases_by_canonicalizing,
    b0_blocks,
    classify_quadruple,
    constructed_designs,
    coverage_violations_by_counting,
    design_json_dict,
    encode_blocks_by_reference,
    factor_edge_indices,
    formula_neighbors,
    is_symmetric,
    killed_by,
    quadruple_orbit_reps,
    reversibility_violations_by_sorting,
    tagged_blocks_by_sorting,
)

Z10 = make_group([10])
Z44 = make_group([4, 4])
Z20 = make_group([20])
Z225 = make_group([2, 2, 5])


def t(*xs):
    return tuple((x,) for x in xs)


def test_choose_h0():
    assert choose_h0(Z10) == (5,)
    assert choose_h0(Z225) == (0, 1, 0)
    with pytest.raises(NoInvolutionError):
        choose_h0(make_group([15]))
    # 3^10000 has more digits than str() writes; the message gives its bit length
    with pytest.raises(NoInvolutionError, match=r"has odd order <15850-bit number>, no element of order 2$"):
        choose_h0(make_group([3] * 10000))


@pytest.mark.parametrize(
    "factors,b0,special",
    [
        ([10], 20, 80),
        ([4, 4], 76, 304),
        ([20], 85, 340),
        ([2, 2, 5], 165, 660),
        ([14], 42, 168),
    ],
)
def test_counting_formulas_and_enumeration(factors, b0, special):
    g = make_group(factors)
    assert count_B0_formula(g) == b0
    assert count_special_triples_formula(g) == special
    assert special == 4 * b0
    h0 = choose_h0(g)
    assert len(build_B0(g, h0)) == b0
    assert engine.count_B0(g, h0) == b0
    enumerated = sum(
        1
        for triple in combinations(range(g.order), 3)
        if not orbits._in_T(g.neg_table, g.double_table, *orbits._canonical(g, triple)[1:])
    )
    assert enumerated == special


def test_b0_matches_quadruple_classification():
    for g in (Z10, make_group([14]), Z44):
        h0 = choose_h0(g)
        expected = {
            tuple(sorted(quad))
            for quad in combinations(g.elements(), 4)
            if classify_quadruple(g, canonicalize(g, quad), h0) in (QUAD_Q1, QUAD_Q2, QUAD_Q3)
        }
        assert build_B0(g, h0) == expected


def test_counting_rejects_bad_order():
    with pytest.raises(InvalidOrderError):
        count_B0_formula(make_group([12]))
    with pytest.raises(InvalidOrderError):
        build_B0(make_group([18]), (0,))


def test_construct_design_z10():
    d = construct_design(Z10)
    assert d.block_count == 30
    assert len(b0_blocks(d)) == 20
    factor_blocks = [b for b, p in zip(d.blocks, d.provenance) if p != B0_TAG]
    assert set(factor_blocks) == expand_orbit(Z10, canonicalize(Z10, t(0, 1, 3, 4)))
    assert factor_edge_indices(d) == (0,)


def test_construct_design_z44():
    d = construct_design(Z44)
    assert d.block_count == 140
    assert len(b0_blocks(d)) == 76
    assert len(factor_edge_indices(d)) == 4  # 1-factor of the 3-cube
    report = verify_design(Z44, d.blocks)
    assert report.is_sqs and report.is_reversible


def test_construct_design_z8_fails_with_witness():
    with pytest.raises(ConstructionFailure) as exc:
        construct_design(make_group([8]))
    assert [rep.base for rep in exc.value.component] == [t(0, 1, 3)]


def test_construct_rejects_bad_order():
    with pytest.raises(InvalidOrderError):
        construct_design(make_group([7]))
    with pytest.raises(InvalidOrderError):
        construct_design(make_group([12]))


def test_block_count_identity():
    for g in (Z10, Z44, Z20, Z225, make_group([2, 4])):
        d = construct_design(g)
        v = g.order
        assert d.block_count == v * (v - 1) * (v - 2) // 24
        graph = build_graph(g)
        assert d.block_count == len(b0_blocks(d)) + v * (len(graph.vertices) // 2)


def test_every_count_reads_the_listing_construction_checks():
    # count_B0 and block_count count the blocks through 0 that
    # Design._from_orbits checks, so each meets its closed form
    for g in abelian_groups_up_to(64):
        if not engine.sqs_order_ok(g.order):
            continue
        assert engine.count_B0(g, choose_h0(g)) == count_B0_formula(g), str(g)
        try:
            design = construct_design(g)
        except ConstructionFailure:
            continue
        assert design.block_count == len(design.codes) == comb(g.order, 3) // 4, str(g)


def test_family_size_refuses_a_remainder():
    assert orbits._family_size(10, 3, 3) == 10
    assert orbits._family_size(20, 1, 4) == 5
    with pytest.raises(InternalInconsistencyError):
        orbits._family_size(10, 1, 4)
    with pytest.raises(InternalInconsistencyError):
        orbits._family_size(10, 2, 3)


def test_factor_blocks_are_edge_orbits():
    # outside B0 everything comes from the edge family
    for g in (Z10, Z20, Z44):
        d = construct_design(g)
        h0 = d.h0
        for block, prov in zip(d.blocks, d.provenance):
            if prov != B0_TAG:
                assert classify_quadruple(g, canonicalize(g, block), h0) == QUAD_E


def test_unique_cover_of_special_triples():
    # every special triple lies in exactly one forced block, and every
    # 3-subset of a forced block is special
    for g in (Z10, make_group([14]), Z44, make_group([2, 2, 2])):
        h0 = choose_h0(g)
        b0 = build_B0(g, h0)
        special = {
            triple
            for triple in combinations(range(g.order), 3)
            if not orbits._in_T(g.neg_table, g.double_table, *orbits._canonical(g, triple)[1:])
        }
        cover: dict[tuple, int] = {}
        for block in b0:
            for triple in combinations(map(g.encode, block), 3):
                cover[triple] = cover.get(triple, 0) + 1
                assert triple in special
        for triple in combinations(range(g.order), 3):
            assert cover.get(triple, 0) == (1 if triple in special else 0)


def test_b0_contained_in_cyclic_sylow2_designs():
    for g in (Z10, Z20, make_group([26])):
        assert g.is_sylow2_cyclic
        d = construct_design(g)
        assert build_B0(g, d.h0) <= set(d.blocks)


def test_h0_override():
    d = construct_design(Z225, h0=(1, 0, 0))
    assert d.h0 == (1, 0, 0)
    report = verify_design(Z225, d.blocks)
    assert report.is_sqs and report.is_reversible
    with pytest.raises(InvalidInputError):
        construct_design(Z10, h0=(2,))


def test_verify_sqs_detects_deleted_block():
    d = construct_design(Z10)
    damaged = d.blocks[1:]
    report = verify_design(Z10, damaged)
    assert report.is_sqs is False
    missing = [t_ for t_, c in report.triple_coverage_violations if c == 0]
    assert len(missing) == 4
    assert set(missing) == set(combinations(d.blocks[0], 3))


def test_verify_sqs_detects_duplicate_coverage():
    d = construct_design(Z10)
    report = verify_design(Z10, d.blocks + (d.blocks[0],))
    assert report.is_sqs is False
    assert all(c == 2 for _, c in report.triple_coverage_violations)


def test_verify_rejects_malformed_block():
    with pytest.raises(InvalidInputError):
        verify_design(Z10, [t(0, 1, 2)])
    with pytest.raises(InvalidInputError):
        verify_design(Z10, [((0,), (1,), (2,), (11,))])


def test_single_edge_orbit_is_reversible_but_not_sqs():
    blocks = sorted(expand_orbit(Z10, canonicalize(Z10, t(0, 1, 3, 4))))
    report = verify_design(Z10, blocks)
    assert report.is_reversible is True
    assert report.is_sqs is False


def test_verify_reversible_detects_violations():
    d = construct_design(Z10)
    report = verify_design(Z10, d.blocks[1:])
    assert report.is_reversible is False
    assert report.invariance_violations
    asym = [t(0, 1, 2, 4)]
    rep = verify_design(Z10, asym)
    assert rep.asymmetric_blocks == (t(0, 1, 2, 4),)


def test_design_json_round_trip():
    d = construct_design(Z225)
    payload = design_json_dict(d)
    restored = design_from_json_dict(payload)
    assert restored == d
    with pytest.raises(InvalidInputError):
        design_from_json_dict({"group": [10]})
    unsorted = dict(payload, group=[5, 2, 2])
    with pytest.raises(InvalidInputError):
        design_from_json_dict(unsorted)
    infinite = dict(payload, blocks=[[[0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 0, float("inf")]]])
    with pytest.raises(InvalidInputError):
        design_from_json_dict(infinite)
    # a factor, h0 coordinate or block coordinate that is not an integer is
    # refused, not coerced: a float (integral or not), a string or a bool
    point = [[0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 0, 3]]
    for bad in (
        dict(payload, group=[2, 2, 5.9]),
        dict(payload, group=[2, 2, 5.0]),
        dict(payload, group=[2, 2, "5"]),
        dict(payload, h0=[0, "1", 0]),
        dict(payload, h0=[0, 1.0, 0]),
        dict(payload, h0=[0, True, 0]),
        dict(payload, blocks=[point[:3] + [[0, 0, 0.5]]]),
        dict(payload, blocks=[point[:3] + [[0, 0, 3.0]]]),
        dict(payload, blocks=[point[:3] + [[0, 0, "3"]]]),
        dict(payload, blocks=[point[:3] + [[0, True, 3]]]),
    ):
        with pytest.raises((InvalidInputError, InvalidSpecError)):
            design_from_json_dict(bad)


# Edits of the Z2xZ2xZ5 design's JSON (285 blocks), each a list of (path,
# value) pairs, with the error that ``design_from_json_dict`` raised for it
# when every block went through the per-block loop.  Block 270 is
# [[1,0,1],[1,0,3],[1,0,4],[1,1,1]] and block 100 is
# [[0,0,1],[0,1,4],[1,0,0],[1,0,4]]; with two faults the first is named.
JSON_FAULTS = {
    "bool": ([(("blocks", 270, 1, 2), True)], "(1, 0, True) is not an element of Z2xZ2xZ5"),
    "float": ([(("blocks", 270, 1, 2), 0.5)], "(1, 0, 0.5) is not an element of Z2xZ2xZ5"),
    "integral-float": ([(("blocks", 270, 1, 2), 1.0)], "(1, 0, 1.0) is not an element of Z2xZ2xZ5"),
    "string": ([(("blocks", 270, 1, 2), "1")], "(1, 0, '1') is not an element of Z2xZ2xZ5"),
    "short-point": ([(("blocks", 270, 1), [0, 1])], "(0, 1) is not an element of Z2xZ2xZ5"),
    "long-point": ([(("blocks", 270, 1), [0, 0, 1, 0])], "(0, 0, 1, 0) is not an element of Z2xZ2xZ5"),
    "out-of-range": ([(("blocks", 270, 1, 2), 5)], "(1, 0, 5) is not an element of Z2xZ2xZ5"),
    "negative": ([(("blocks", 270, 1, 2), -1)], "(1, 0, -1) is not an element of Z2xZ2xZ5"),
    "3-point": (
        [(("blocks", 270), [[1, 0, 1], [1, 0, 3], [1, 0, 4]])],
        "blocks must have 4 distinct elements: ((1, 0, 1), (1, 0, 3), (1, 0, 4))",
    ),
    "5-point": (
        [(("blocks", 270), [[1, 0, 1], [1, 0, 3], [1, 0, 4], [1, 1, 1], [1, 1, 4]])],
        "blocks must have 4 distinct elements: ((1, 0, 1), (1, 0, 3), (1, 0, 4), (1, 1, 1), (1, 1, 4))",
    ),
    "repeated-point": (
        [(("blocks", 270, 1), [1, 0, 1])],
        "blocks must have 4 distinct elements: ((1, 0, 1), (1, 0, 1), (1, 0, 4), (1, 1, 1))",
    ),
    "unsorted-repeated-point": (
        [(("blocks", 270), [[0, 0, 3], [0, 0, 1], [0, 0, 3], [0, 0, 2]])],
        "blocks must have 4 distinct elements: ((0, 0, 3), (0, 0, 1), (0, 0, 3), (0, 0, 2))",
    ),
    "block-number": ([(("blocks", 270), 7)], "malformed design payload: 'int' object is not iterable"),
    "block-null": ([(("blocks", 270), None)], "malformed design payload: 'NoneType' object is not iterable"),
    "block-object": ([(("blocks", 270), {"a": 1, "b": 2, "c": 3, "d": 4})], "('a',) is not an element of Z2xZ2xZ5"),
    "point-number": ([(("blocks", 270, 1), 3)], "malformed design payload: 'int' object is not iterable"),
    "point-null": ([(("blocks", 270, 1), None)], "malformed design payload: 'NoneType' object is not iterable"),
    "point-object": (
        [(("blocks", 270, 1), {"x": 0, "y": 0, "z": 1})],
        "('x', 'y', 'z') is not an element of Z2xZ2xZ5",
    ),
    "blocks-number": ([(("blocks",), 7)], "design blocks must be a list of blocks"),
    "blocks-object": ([(("blocks",), {"a": 1})], "design blocks must be a list of blocks"),
    "blocks-empty-object": ([(("blocks",), {})], "design blocks must be a list of blocks"),
    "blocks-string": ([(("blocks",), "")], "design blocks must be a list of blocks"),
    "blocks-null": ([(("blocks",), None)], "design blocks must be a list of blocks"),
    "short-block-then-point-number": (
        [(("blocks", 100), [[0, 0, 1], [0, 1, 4], [1, 0, 0]]), (("blocks", 270, 1), 3)],
        "blocks must have 4 distinct elements: ((0, 0, 1), (0, 1, 4), (1, 0, 0))",
    ),
    "point-number-then-short-block": (
        [(("blocks", 100, 1), 3), (("blocks", 270), [[1, 0, 1], [1, 0, 3], [1, 0, 4]])],
        "malformed design payload: 'int' object is not iterable",
    ),
    "float-then-block-number": (
        [(("blocks", 100, 0, 0), 0.0), (("blocks", 270), 5)],
        "(0.0, 0, 1) is not an element of Z2xZ2xZ5",
    ),
    "repeated-point-then-point-null": (
        [(("blocks", 20, 2), [0, 0, 3]), (("blocks", 40, 0), None)],
        "blocks must have 4 distinct elements: ((0, 0, 0), (0, 0, 3), (0, 0, 3), (1, 0, 2))",
    ),
    "bool-after-out-of-range": (
        [(("blocks", 30, 2, 1), True), (("blocks", 20, 3, 2), 9)],
        "(1, 0, 9) is not an element of Z2xZ2xZ5",
    ),
}


@pytest.mark.parametrize("fault", list(JSON_FAULTS))
def test_design_from_json_names_the_first_fault(tmp_path, capsys, fault):
    # the encoder names the first bad block, with the message it always had
    payload = design_json_dict(construct_design(Z225))
    edits, message = JSON_FAULTS[fault]
    for path, value in edits:
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    with pytest.raises(InvalidInputError) as exc:
        design_from_json_dict(payload)
    assert str(exc.value) == message
    # and verify names it in a file laid out as the design writer lays one out
    path = tmp_path / "design.json"
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    assert cli.main(["verify", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


_DELETED = object()

# edits of the Z2xZ2xZ5 design's JSON whose faults Design finds in an order
# of its own (h0, then the blocks, then the tags), each with the error the
# JSON path gave when it checked h0, the blocks and the tags list itself; an
# edit to _DELETED removes the key
PRECEDENCE_FAULTS = {
    "bad-h0-then-blocks-number": (
        [(("h0",), [0, 0, 1]), (("blocks",), 7)],
        "h0 must have order 2, got (0, 0, 1)",
    ),
    "bad-h0-then-no-blocks": (
        [(("h0",), [0, 0, 1]), (("blocks",), _DELETED)],
        "h0 must have order 2, got (0, 0, 1)",
    ),
    "no-h0-then-short-block": (
        [(("h0",), _DELETED), (("blocks", 270), [[0, 0, 1]])],
        "malformed design payload: 'h0'",
    ),
    "block-number-then-no-provenance": (
        [(("blocks", 270), 7), (("provenance",), _DELETED)],
        "malformed design payload: 'int' object is not iterable",
    ),
    "short-block-then-provenance-string": (
        [(("blocks", 270), [[0, 0, 1]]), (("provenance",), "B0")],
        "blocks must have 4 distinct elements: ((0, 0, 1),)",
    ),
    "provenance-object": ([(("provenance",), {"B0": 0})], "design provenance must be a list of strings"),
}


@pytest.mark.parametrize("fault", list(PRECEDENCE_FAULTS))
def test_design_from_json_keeps_the_precedence_of_its_faults(tmp_path, capsys, fault):
    payload = design_json_dict(construct_design(Z225))
    edits, message = PRECEDENCE_FAULTS[fault]
    for path, value in edits:
        target = payload
        for key in path[:-1]:
            target = target[key]
        if value is _DELETED:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    with pytest.raises(InvalidInputError) as exc:
        design_from_json_dict(payload)
    assert str(exc.value) == message
    path = tmp_path / "design.json"
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    assert cli.main(["verify", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_each_reader_packs_once_and_checks_h0_once(monkeypatch):
    # Design is the one packer of a design read from outside, and the one
    # check of its h0, whether it is read as JSON or in the writer's layout
    design = construct_design(make_group([4, 25]))
    payload = design_json_dict(design)
    data = io.StringIO()
    design.write_json(data)
    stores = []

    class Counted(engine._Packed):
        __slots__ = ()

        def __init__(self, flat):
            stores.append(self)
            super().__init__(flat)

    monkeypatch.setattr(engine, "_Packed", Counted)
    checks = _count_calls(monkeypatch, engine, "_validate_h0")
    made = design_from_json_dict(payload)
    assert (len(stores), len(checks)) == (1, 1)
    del stores[:], checks[:]
    read = engine._design_from_bytes(data.getvalue().encode("utf-8"))
    assert (len(stores), len(checks)) == (1, 1)
    assert made == read == design


def test_block_encoder_agrees_with_the_reference():
    g20 = sqs20_group()
    cases = [(d.group, list(d.blocks)) for d in constructed_designs(64)]
    cases.append((g20, sorted(sqs20_blocks())))
    for g, blocks in cases:
        # as given (sorted), with each block's points reversed and rotated
        for mutated in (blocks, [b[::-1] for b in blocks], [b[1:] + b[:1] for b in blocks]):
            assert tuple(engine._encode_blocks(g, mutated)) == encode_blocks_by_reference(g, mutated), str(g)
    for design in constructed_designs(64):
        assert design_from_json_dict(design_json_dict(design)).codes == design.codes


Point = namedtuple("Point", "a b c")

# blocks of Z2xZ2xZ5 that are not four distinct elements, and one whose
# second point is a namedtuple, which is a tuple of ints and so an element
FAULT_BLOCKS = {
    "float": ((0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 0, 4.0)),
    "bool": ((0, 0, 1), (0, True, 2), (0, 0, 3), (0, 0, 4)),
    "list-point": ((0, 0, 1), [0, 0, 2], (0, 0, 3), (0, 0, 4)),
    "namedtuple-point": ((0, 0, 1), Point(0, 0, 2), (0, 0, 3), (0, 0, 4)),
    "3-point": ((0, 0, 1), (0, 0, 2), (0, 0, 3)),
    "5-point": ((0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 0, 4), (0, 1, 0)),
    "repeated-point": ((0, 0, 1), (0, 0, 2), (0, 0, 1), (0, 0, 4)),
    "out-of-range": ((0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 0, 5)),
}


def _encoded_or_message(encode, g, blocks):
    try:
        return encode(g, blocks)
    except InvalidInputError as exc:
        return str(exc)


@pytest.mark.parametrize("fault", list(FAULT_BLOCKS))
def test_block_encoder_words_each_fault_as_the_reference(fault):
    # alone, after 100 good blocks, and with a short block after it, which
    # is named only when the block before it passes
    g = sqs20_group()
    blocks = sorted(sqs20_blocks())
    block = FAULT_BLOCKS[fault]
    def encode(g, blocks):
        return tuple(engine._encode_blocks(g, blocks))

    alone = _encoded_or_message(encode, g, [block])
    assert isinstance(alone, str) == (fault != "namedtuple-point")
    for placed in ([block], [*blocks[:100], block, *blocks[100:]], [*blocks[:100], block, blocks[200][:3]]):
        assert _encoded_or_message(encode, g, placed) == _encoded_or_message(
            encode_blocks_by_reference, g, placed
        )


def test_public_verifiers_take_any_iterable_of_tuple_blocks():
    design = construct_design(Z10)
    b0 = build_B0(Z10, design.h0)  # a frozenset
    for blocks in (design.blocks, design.blocks[1:], b0):
        expected = verify_design(Z10, tuple(blocks))
        assert verify_design(Z10, blocks) == expected
        assert verify_design(Z10, (block for block in blocks)) == expected
        assert verify_design(Z10, [iter(block) for block in blocks]) == expected
    # only the JSON path reads a list as a point
    with pytest.raises(InvalidInputError) as exc:
        verify_design(Z10, design.blocks[:3] + (((0,), (1,), [3], (4,)),))
    assert str(exc.value) == "[3] is not an element of Z10"


def test_coverage_listing_agrees_with_counting():
    g = make_group([4, 25])
    design = construct_design(g)
    kinds = []
    for codes in _single_block_mutations(design.codes, g.order):
        got = engine._coverage_violations(g, codes)
        assert got == coverage_violations_by_counting(g, [tuple(map(g.decode, b)) for b in codes])
        kinds.append((any(c == 0 for _, c in got), any(c > 1 for _, c in got)))
    # a dropped block only leaves triples missing, a duplicated one only
    # over-covers, and a moved point does both
    assert kinds == [(True, False), (False, True), (True, True)]
    # counts past one byte, one block alone, and no block at all
    design = construct_design(Z225)
    block = design.codes[0]
    repeated = design.codes + (block,) * 300
    for codes in (repeated, (block,), ()):
        got = engine._coverage_violations(Z225, codes)
        assert got == coverage_violations_by_counting(Z225, [tuple(map(Z225.decode, b)) for b in codes])
    assert [c for _, c in engine._coverage_violations(Z225, repeated)] == [301] * 4
    assert len(engine._coverage_violations(Z225, ())) == comb(Z225.order, 3)


def test_determinism_of_construction():
    assert construct_design(Z225) == construct_design(Z225)
    assert construct_design(Z20) == construct_design(Z20)


def test_existence_yes_cases():
    for factors in ([2, 4], [4, 4], [10], [2, 2, 5]):
        verdict = existence_check(make_group(factors))
        assert verdict.verdict == "yes"
        assert verdict.design is not None
        v = verdict.design.group.order
        assert verdict.design.block_count == v * (v - 1) * (v - 2) // 24


def test_existence_z20_decisive_with_diagnostics():
    # cyclic Sylow 2-subgroup: matching decides, and the per-prime check
    # reproduces the order-10 result
    verdict = existence_check(Z20)
    assert verdict.verdict == "yes"
    assert verdict.diagnostics["residues_ok"] is True
    assert {"p": 5, "order": 10, "has_one_factor": True} in verdict.diagnostics["prime_checks"]


def test_existence_no_cases():
    v8 = existence_check(make_group([8]))
    assert v8.verdict == "no"
    assert v8.reason["rule"] == "no-1-factor-cyclic-sylow2"
    assert v8.witness_component == ("[(1,), (3,)]",)
    assert v8.diagnostics["v_mod_8"] == 0
    assert v8.diagnostics["residues_ok"] is False

    v12 = existence_check(make_group([12]))
    assert v12.verdict == "no"
    assert v12.reason["rule"] == "order-residue"

    v7 = existence_check(make_group([7]))
    assert v7.verdict == "no"
    assert v7.reason["rule"] == "order-residue"
    assert "odd" in v7.reason["detail"]


def test_condition_iv_diagnostics():
    diag = condition_iv_diagnostics(make_group([70]))  # 70 = 2 * 5 * 7
    assert diag["residues_ok"] is True
    checks = {entry["p"]: entry["has_one_factor"] for entry in diag["prime_checks"]}
    # Z10's graph is a single matchable edge; Z14's has seven vertices (odd)
    assert checks == {5: True, 7: False}


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_b0_is_built_only_once_a_one_factor_exists(monkeypatch):
    calls = _count_calls(monkeypatch, engine, "_b0_bases")
    for factors in ([14], [22]):
        with pytest.raises(ConstructionFailure):
            construct_design(make_group(factors))
        assert existence_check(make_group(factors)).verdict == "no"
    assert calls == []
    construct_design(Z10)
    assert len(calls) == 1


@pytest.mark.parametrize("factors", [[22], [2, 11]])
def test_existence_check_builds_one_graph_for_order_2p(monkeypatch, factors):
    # every abelian group of order 2p is cyclic, so the group's own matching
    # answers the per-prime check of p
    g = make_group(factors)
    expected = condition_iv_diagnostics(g)
    calls = _count_calls(monkeypatch, kohler, "build_graph")
    verdict = existence_check(g)
    assert [args[0] for args in calls] == [g]
    assert verdict.verdict == "no"
    assert verdict.diagnostics == expected
    assert expected["prime_checks"] == [{"p": 11, "order": 22, "has_one_factor": False}]


def test_diagnostics_respect_capacity(monkeypatch):
    monkeypatch.setenv(MAX_ORDER_ENV_VAR, "100")
    diag = condition_iv_diagnostics(make_group([2, 101]))
    assert diag["unevaluated_primes"] == [101]


def test_b0_bases_meet_each_forced_orbit_once():
    # one base per orbit of the canonicalize-and-deduplicate reference, for
    # up to three choices of h0 on every admissible group
    cases = 0
    for g in abelian_groups_up_to(64):
        if not engine.sqs_order_ok(g.order):
            continue
        for h0 in [x for x in killed_by(g, 2) if x != g.zero][:3]:
            bases = engine._b0_bases(g, h0)
            canonical = {orbits._canonical(g, base) for base in bases}
            assert canonical == b0_bases_by_canonicalizing(g, h0), (g, h0)
            assert len(canonical) == len(bases), (g, h0)
            cases += 1
    assert cases == 116


def test_pipeline_canonicalizes_nothing(monkeypatch):
    calls = _count_calls(monkeypatch, orbits, "_canonical")
    construct_design(Z225)
    g26 = make_group([2] * 6)
    engine.count_B0(g26, choose_h0(g26))
    existence_check(make_group([196]))
    assert calls == []


def test_b0_on_an_elementary_abelian_2_group_builds_no_translation_row(monkeypatch):
    g = make_group([2] * 6)
    calls = _count_calls(monkeypatch, type(g), "translation")
    assert engine.count_B0(g, choose_h0(g)) == count_B0_formula(g)
    assert calls == []


def test_b0_orbit_reps_tags():
    h0 = (1, 0, 0)
    bases = engine._b0_bases(Z225, h0)
    tags = Counter(classify_quadruple(Z225, OrbitRep(Z225, tuple(map(Z225.decode, base))), h0) for base in bases)
    assert tags == {QUAD_Q1: 4, QUAD_Q2: 8, QUAD_Q3: 1}
    total = sum(len(orbits._expand(Z225, base)) for base in bases)
    assert total == count_B0_formula(Z225)


def test_design_provenance_alignment_checked():
    with pytest.raises(InvalidInputError):
        Design(group=Z10, h0=(5,), codes=((0, 1, 3, 4),), provenance=())


@pytest.mark.parametrize("tag", [1, None, b"B0", ("B0",)], ids=repr)
def test_design_rejects_provenance_tags_that_are_not_strings(tag):
    # such a design would be written as JSON that design_from_json_dict refuses
    with pytest.raises(InvalidInputError, match="provenance must be a list of strings"):
        Design(group=make_group([4]), h0=(2,), codes=((0, 1, 2, 3),), provenance=(tag,))


@pytest.mark.parametrize("h0", [(3,), (0,), (5.0,), (True,), [5], "x"], ids=repr)
def test_design_rejects_an_h0_that_is_no_involution(h0):
    # write_json would write it, and verify refuses the file it makes
    with pytest.raises(InvalidInputError):
        Design(group=Z10, h0=h0, codes=(), provenance=())


@pytest.mark.parametrize("block", [(0, 1, 3, 10), (1, 0, 3, 4), (0, 1, 1, 4), (0, 1, 3)])
def test_design_rejects_bad_codes(block):
    # a code outside range(v), codes out of order, a repeated code, three codes
    with pytest.raises(InvalidInputError):
        Design(group=Z10, h0=(5,), codes=(block,), provenance=("B0",))


def test_design_takes_any_iterable_of_blocks_and_renders_its_codes():
    codes = construct_design(Z10).codes
    tags = ("B0",) * len(codes)
    made = Design(Z10, (5,), iter(codes), tags)
    assert made == Design(Z10, (5,), list(codes), tags) and made.codes == codes
    assert made.block_count == len(codes) and made.blocks == tuple(tuple(map(Z10.decode, b)) for b in codes)
    # codes past the range of the packed array's items are kept as they are
    g = make_group([2, 1 << 32])
    huge = Design(g, (1, 0), ((0, 1, 2, (1 << 32) + 1),), ("B0",))
    assert huge.codes == ((0, 1, 2, (1 << 32) + 1),) and huge.block_count == 1


def test_construction_encodes_no_block(monkeypatch):
    # blocks stay codes from B0 to the design: nothing is decoded and encoded back
    calls = _count_calls(monkeypatch, engine, "_encode_blocks")
    tuple_b0 = _count_calls(monkeypatch, engine, "build_B0")
    design = construct_design(Z44)
    verdict = existence_check(Z10)
    assert verdict.verdict == "yes"
    assert calls == []
    assert tuple_b0 == []
    assert design.blocks == tuple(tuple(map(Z44.decode, block)) for block in design.codes)
    assert len(verdict.design.codes) == 30


@lru_cache(maxsize=None)
def _one_factor_outcomes(max_v: int) -> tuple:
    """(group, witness) for every admissible abelian group of order at most
    ``max_v``: the witness component of its Koehler graph as representatives,
    or None when the graph has a 1-factor."""
    out = []
    for g in abelian_groups_up_to(max_v):
        if not engine.sqs_order_ok(g.order):
            continue
        graph = build_graph(g)
        try:
            matching.one_factor(graph.adjacency)
            out.append((g, None))
        except matching.NoPerfectMatching as exc:
            out.append((g, ConstructionFailure(graph, exc.component).component))
    return tuple(out)


def test_per_prime_criterion_decides_cyclic_sylow2_groups():
    # a group with cyclic Sylow 2-subgroup has a 1-factor exactly when its
    # residues allow one and so does Z_2p for every odd prime p dividing v
    cyclic = [(g, witness) for g, witness in _one_factor_outcomes(130) if g.is_sylow2_cyclic]
    assert len(cyclic) == 47
    for g, witness in cyclic:
        diag = condition_iv_diagnostics(g)
        assert diag["unevaluated_primes"] == [], g
        criterion = diag["residues_ok"] and all(c["has_one_factor"] for c in diag["prime_checks"])
        assert (witness is None) == criterion, g


def test_witness_component_is_a_tutte_certificate():
    # the failing component, with neighbours recomputed from its
    # representatives alone, is closed, connected and odd: a set of vertices
    # whose removal (none) leaves an odd component, so no 1-factor exists
    failures = [(g, witness) for g, witness in _one_factor_outcomes(130) if witness is not None]
    assert len(failures) == 62
    for g, witness in failures:
        members = set(witness)
        assert len(members) == len(witness) and len(witness) % 2 == 1, g
        assert all(canonicalize(g, rep.base) == rep for rep in witness), g
        nbrs = {rep: formula_neighbors(g, rep) for rep in witness}
        assert all(n <= members for n in nbrs.values()), g
        reached, stack = {witness[0]}, [witness[0]]
        while stack:
            for n in nbrs[stack.pop()] - reached:
                reached.add(n)
                stack.append(n)
        assert reached == members, g


def test_existence_sweep_is_coherent():
    # cyclic Sylow 2-subgroup makes the matching decisive: never "unknown";
    # every "yes" carries a design of the exact block count
    from util import abelian_groups_of_order

    for v in range(2, 35):
        if v % 6 not in (2, 4):
            continue
        for g in abelian_groups_of_order(v):
            verdict = existence_check(g)
            if verdict.verdict == "yes":
                assert verdict.design is not None
                assert verdict.design.block_count == v * (v - 1) * (v - 2) // 24
            elif verdict.verdict == "no":
                assert g.is_sylow2_cyclic
                assert verdict.witness_component
            else:
                assert verdict.verdict == "unknown"
                assert not g.is_sylow2_cyclic
                assert verdict.witness_component


def test_small_orders_degenerate_designs():
    # v = 2 has no triples at all; v = 4 is covered by a single block
    d2 = construct_design(make_group([2]))
    assert d2.block_count == 0
    assert verify_design(make_group([2]), d2.blocks).is_sqs is True
    d4 = construct_design(make_group([4]))
    assert d4.block_count == 1
    assert verify_design(make_group([4]), d4.blocks).is_sqs is True
    assert comb(4, 3) == 4


def _single_block_mutations(codes: tuple, v: int):
    """``codes`` with its middle block dropped, duplicated, and moved (when
    v > 4): the block's last point replaced by the least code outside it."""
    k = len(codes) // 2
    block = codes[k]
    yield codes[:k] + codes[k + 1 :]
    yield codes + (block,)
    if v > 4:
        moved = tuple(sorted(block[:3] + (min(set(range(v)) - set(block)),)))
        yield codes[:k] + (moved,) + codes[k + 1 :]


def _kernel_cases():
    """(group, codes) pairs on which the block verifier must agree with the
    counting and sorting references."""
    g20 = sqs20_group()
    designs = [(d.group, d.codes) for d in constructed_designs(64)]
    designs.append((g20, tuple(engine._encode_blocks(g20, sorted(sqs20_blocks())))))
    for g, codes in designs:
        yield g, codes
        if codes:
            yield from ((g, mutated) for mutated in _single_block_mutations(codes, g.order))
            # the first block, through 0, and the last, which misses 0, listed twice
            yield g, codes + codes[:1]
            yield g, codes + codes[-1:]
    for g, codes in designs:
        if g.order >= 10:
            # a whole orbit removed leaves an invariant set of symmetric blocks
            orbit = orbits._expand(g, codes[len(codes) // 2])
            yield g, tuple(b for b in codes if b not in orbit)
    # an invariant set whose blocks are all asymmetric
    asymmetric = next(
        base for base in quadruple_orbit_reps(Z10) if classify_quadruple(Z10, OrbitRep(Z10, base)) == QUAD_ASYMMETRIC
    )
    yield Z10, tuple(sorted(orbits._expand(Z10, tuple(map(Z10.encode, asymmetric)))))
    yield from _relabelled_systems()


def _relabelled_systems():
    """The SQS(10) on Z10 and the SQS(16) on Z4xZ4 with the points 1 and 2
    swapped: each stays an SQS and is no longer invariant."""
    swap = {1: 2, 2: 1}
    for g in (Z10, Z44):
        codes = construct_design(g).codes
        yield g, tuple(sorted(tuple(sorted(swap.get(x, x) for x in block)) for block in codes))


def _reference_report(g, codes) -> engine.VerificationReport:
    """The report on ``codes`` built from the counting and sorting references."""
    elements = g.elements()
    coverage = coverage_violations_by_counting(g, [orbits._decoded(elements, b) for b in codes])
    asymmetric, invariance = reversibility_violations_by_sorting(g, codes)
    return engine.VerificationReport(
        is_sqs=not coverage,
        is_reversible=not asymmetric and not invariance,
        triple_coverage_violations=coverage,
        asymmetric_blocks=asymmetric,
        invariance_violations=invariance,
    )


def test_reversibility_kernel_agrees_with_the_sorting_reference():
    outcomes, verdicts = set(), set()
    for g, codes in _kernel_cases():
        expected = _reference_report(g, codes)
        got = engine._reversibility_violations(g, codes, engine._missing_images(g, codes)[1])
        assert got == (expected.asymmetric_blocks, expected.invariance_violations), (str(g), len(codes))
        outcomes.add((bool(got[0]), bool(got[1])))
        report = _design(g, codes).verify()
        assert report == expected, (str(g), len(codes))
        verdicts.add((report.is_sqs, report.is_reversible))
    # valid sets, sets missing an image (some with an asymmetric block), and
    # the invariant asymmetric orbit
    assert outcomes == {(False, False), (False, True), (True, True), (True, False)}
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}
    # only counting accepts the relabelled systems
    for g, codes in _relabelled_systems():
        report = verify_design(g, [orbits._decoded(g.elements(), b) for b in codes])
        assert report.is_sqs and not report.is_reversible and report.invariance_violations, str(g)


def test_symmetry_is_tested_on_blocks_through_zero_only_when_invariant(monkeypatch):
    g = make_group([4, 25])
    calls = []
    original = orbits._asymmetric

    def counted(group, blocks):
        blocks = list(blocks)
        calls.extend(blocks)
        return original(group, blocks)

    monkeypatch.setattr(orbits, "_asymmetric", counted)

    def refuse(*args, **kwargs):
        raise AssertionError("construction checks its orbits, not its blocks")

    with monkeypatch.context() as patched:
        patched.setattr(engine.Design, "__init__", refuse)
        design = construct_design(g)
    # construction tests each of its 405 orbit bases once, and no block
    assert len(calls) == 405
    calls.clear()
    assert design.verify().is_reversible is True
    # an SQS(100) has C(99, 2) / 3 blocks through 0
    assert len(calls) == comb(99, 2) // 3 == 1617
    calls.clear()
    dropped = Design(group=g, h0=design.h0, codes=design.codes[1:], provenance=design.provenance[1:])
    assert dropped.verify().is_reversible is False
    assert len(calls) == len(design.codes) - 1


def test_the_block_verifier_reads_the_packed_store(monkeypatch):
    # a constructed design, a design made from codes and verify_design all
    # hand the verifier the one store
    handed = []
    original = engine._design_report

    def checked(g, codes):
        assert isinstance(codes, engine._Packed)
        handed.append(len(codes))
        return original(g, codes)

    monkeypatch.setattr(engine, "_design_report", checked)
    design = construct_design(Z225)
    made = Design(group=Z225, h0=design.h0, codes=design.codes, provenance=design.provenance)
    for report in (design.verify(), made.verify(), verify_design(Z225, design.blocks)):
        assert report.is_sqs and report.is_reversible
    assert handed == [285] * 3


def test_a_constructed_design_holds_its_blocks_packed_after_verify():
    # verify() renders the 40,425 Z4xZ25 blocks once into the packed store,
    # about 0.7 MB held; a list of their codes holds about 1.3 MB, and a
    # 4-tuple per block about 3.2 MB
    design = construct_design(make_group([4, 25]))
    tracemalloc.start()
    try:
        assert design.verify().is_reversible
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1_000_000, held
    assert design.codes == tuple(design._packed) and len(design.codes) == 40425


def _tagged_bases(g, h0) -> list:
    """The tagged orbit bases construction assembles its design on ``g`` from."""
    graph = build_graph(g)
    return engine._design_bases(g, h0, graph, matching.one_factor(graph.adjacency))


def _design_bases(design: Design) -> list:
    """The orbit bases construction assembled ``design`` from."""
    return [base for base, _ in _tagged_bases(design.group, design.h0)]


def _orbits_form_sqs(g, bases) -> bool:
    """The orbit verifier's verdict on ``bases``, their members through 0
    listed as construction lists them."""
    through_zero = engine._through_zero(g, [(base, B0_TAG) for base in bases])
    return engine._orbits_form_sqs(g, bases, [block for block, _ in through_zero])


def _verdicts(g, bases) -> tuple[bool, bool]:
    """Whether the orbit verifier accepts ``bases``, and whether the block
    verifier accepts every block of every orbit, an orbit listed twice
    listing its blocks twice; its report must equal :func:`_reference_report`."""
    accepted = _orbits_form_sqs(g, bases)
    blocks = tuple(block for base in bases for block in orbits._expand(g, base))
    report = _design(g, blocks).verify()
    assert report == _reference_report(g, blocks)
    if accepted:
        assert len(blocks) == comb(g.order, 3) // 4
    return accepted, bool(report.is_sqs and report.is_reversible)


def _base_mutations(g, bases: list):
    """``bases`` with its middle base dropped, duplicated, replaced by an
    asymmetric base, replaced by a symmetric base of another orbit with as
    many members through 0 (which keeps the number of pairs through 0 and
    repeats one), and joined by another member of its orbit."""
    k = len(bases) // 2
    yield bases[:k] + bases[k + 1 :]
    yield bases + [bases[k]]
    asymmetric = next(
        (b for b in combinations(range(g.order), 4) if not is_symmetric(g, b)),
        None,
    )
    if asymmetric is not None:
        yield bases[:k] + [asymmetric] + bases[k + 1 :]
    orbits_met = {orbits._canonical(g, base) for base in bases}
    n0 = len(orbits._members_through_zero(g, bases[k]))
    twin = next(
        (
            base
            for base in ((0, *rest) for rest in combinations(range(1, g.order), 3))
            if is_symmetric(g, base)
            and orbits._canonical(g, base) not in orbits_met
            and len(orbits._members_through_zero(g, base)) == n0
        ),
        None,
    )
    if twin is not None:
        yield bases[:k] + [twin] + bases[k + 1 :]
    other = next((m for m in sorted(orbits._expand(g, bases[k])) if m != bases[k]), None)
    if other is not None:
        yield bases + [other]


def _sqs20_bases(rows) -> list:
    g = sqs20_group()
    return [orbits._canonical(g, (0, *map(g.encode, row))) for row in rows]


def test_orbit_verifier_agrees_with_the_block_verifier():
    for design in constructed_designs(64):
        g, bases = design.group, _design_bases(design)
        # the checked constructor accepts what construction made, as an equal record
        assert Design(group=g, h0=design.h0, codes=design.codes, provenance=design.provenance) == design
        assert _verdicts(g, bases) == (True, True), str(g)
        for mutated in _base_mutations(g, bases) if bases else ():
            assert _verdicts(g, mutated) == (False, False), str(g)
    g20 = sqs20_group()
    assert _verdicts(g20, _sqs20_bases(SQS20_ORBITS)) == (True, True)
    assert _verdicts(g20, _sqs20_bases(SQS20_CORE_ORBITS)) == (False, False)
    for mutated in _base_mutations(g20, _sqs20_bases(SQS20_ORBITS)):
        assert _verdicts(g20, mutated) == (False, False)
    # an SQS(16) invariant under translations and negation whose last two
    # orbits are asymmetric: only the symmetry test tells it apart
    rows = (
        ((0, 2), (2, 0), (2, 2)), ((1, 1), (2, 2), (3, 3)), ((0, 1), (0, 2), (0, 3)), ((1, 3), (2, 2), (3, 1)),
        ((0, 2), (1, 0), (3, 0)), ((0, 2), (2, 1), (2, 3)), ((0, 1), (1, 1), (1, 2)), ((0, 2), (1, 1), (1, 3)),
        ((1, 1), (2, 3), (3, 2)), ((0, 1), (1, 0), (2, 1)), ((0, 1), (1, 3), (2, 3)),
    )
    bases = [tuple(sorted(map(Z44.encode, ((0, 0), *row)))) for row in rows]
    report = engine._design_report(Z44, tuple(b for base in bases for b in orbits._expand(Z44, base)))
    assert report.is_sqs is True and len(report.asymmetric_blocks) == 64
    assert _verdicts(Z44, bases) == (False, False)


def test_construction_refuses_bases_that_fail_the_orbit_verifier(monkeypatch):
    bases = _design_bases(construct_design(Z44))
    mutations = list(_base_mutations(Z44, bases))
    # dropped, duplicated, asymmetric, twin-orbit and second member
    assert len(mutations) == 5
    for mutated in [bases[1:], *mutations]:
        monkeypatch.setattr(engine, "_design_bases", lambda *args, m=mutated: [(base, B0_TAG) for base in m])
        with pytest.raises(InternalInconsistencyError):
            construct_design(Z44)


def test_a_constructed_design_renders_the_sorted_expansion_of_its_orbits():
    # the blocks rendered from those through 0, and their tags, against every
    # orbit expanded, tagged and argsorted
    Z425, Z2225 = make_group([4, 25]), make_group([2, 2, 25])
    cases = [(d.group, d.h0) for d in constructed_designs(64)]
    cases += [(Z425, choose_h0(Z425)), (Z2225, choose_h0(Z2225)), (Z2225, (1, 1, 0))]
    assert choose_h0(Z2225) != (1, 1, 0)
    for g, h0 in cases:
        tagged = _tagged_bases(g, h0)
        design = Design._from_orbits(g, h0, tagged)
        assert (design.codes, design.provenance) == tagged_blocks_by_sorting(g, tagged), str(g)
        assert design.block_count == len(design.codes), str(g)


def test_a_constructed_design_equals_the_design_of_its_codes_before_they_are_read():
    for g in (Z10, Z44, make_group([2, 2, 5])):
        h0 = choose_h0(g)
        tagged = _tagged_bases(g, h0)
        from_codes = Design(g, h0, *tagged_blocks_by_sorting(g, tagged))
        # equality, hash and repr each on a design whose codes are not read yet
        made = [Design._from_orbits(g, h0, tagged) for _ in range(3)]
        assert not any("codes" in d.__dict__ or "provenance" in d.__dict__ for d in made)
        assert made[0] == from_codes and from_codes == made[0]
        assert hash(made[1]) == hash(from_codes)
        assert repr(made[2]) == repr(from_codes)
    # a design that differs in one tag is another design
    g = Z10
    codes, provenance = tagged_blocks_by_sorting(g, _tagged_bases(g, (5,)))
    other = Design(g, (5,), codes, ("factor:9",) + provenance[1:])
    assert construct_design(g) != other


def test_a_constructed_design_renders_no_block_to_be_counted_or_decided():
    # existence and the block count need the blocks through 0, not the codes
    verdict = existence_check(make_group([2, 2, 25]))
    design = verdict.design
    assert verdict.verdict == "yes" and "with 40425 blocks" in verdict.reason["detail"]
    assert "codes" not in design.__dict__ and "provenance" not in design.__dict__
    assert design.block_count == 40425
    assert "codes" not in design.__dict__ and "provenance" not in design.__dict__


def _design(g, codes) -> Design:
    return Design(group=g, h0=choose_h0(g), codes=tuple(codes), provenance=(B0_TAG,) * len(codes))


def test_valid_designs_are_decided_through_zero_without_counting(monkeypatch):
    # each construction with v <= 64, and the SQS(20) fixture
    g20 = sqs20_group()
    designs = [*constructed_designs(64), _design(g20, tuple(engine._encode_blocks(g20, sorted(sqs20_blocks()))))]

    def refuse(*args):
        raise AssertionError("a valid invariant design needs no triple count")

    tested = []
    original = orbits._asymmetric

    def counted(group, blocks):
        blocks = list(blocks)
        tested.extend(blocks)
        return original(group, blocks)

    monkeypatch.setattr(engine, "_coverage_violations", refuse)
    monkeypatch.setattr(orbits, "_asymmetric", counted)
    for design in designs:
        tested.clear()
        assert design.verify() == engine.VerificationReport(is_sqs=True, is_reversible=True), str(design.group)
        # only the blocks through 0, C(v-1, 2)/3 of them, are tested for symmetry
        assert len(tested) <= comb(design.group.order - 1, 2) // 3, str(design.group)


def test_verify_design_flags_every_single_block_mutation():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    designs = [d for d in constructed_designs(50) if d.group.order >= 10]
    bases_of = {design: _design_bases(design) for design in designs}

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(
        design=st.sampled_from(designs),
        mutation=st.sampled_from(["drop", "duplicate", "perturb"]),
        index=st.integers(min_value=0),
        point=st.integers(min_value=0),
        code=st.integers(min_value=0),
    )
    def check(design, mutation, index, point, code):
        g, blocks = design.group, list(design.blocks)
        i = index % len(blocks)
        if mutation == "drop":
            del blocks[i]
        elif mutation == "duplicate":
            blocks.append(blocks[i])
        else:
            block = list(blocks[i])
            outside = [x for x in g.elements() if x not in block]
            block[point % 4] = outside[code % len(outside)]
            blocks[i] = tuple(block)
        # the same mutation of the orbit bases: both verifiers reject it, or
        # (a perturbed base) agree
        bases = list(bases_of[design])
        j = index % len(bases)
        if mutation == "drop":
            del bases[j]
        elif mutation == "duplicate":
            bases.append(bases[j])
        else:
            base = list(bases[j])
            base[point % 4] = [x for x in range(g.order) if x not in base][code % (g.order - 4)]
            bases[j] = tuple(sorted(base))
        by_orbits, by_blocks = _verdicts(g, bases)
        assert by_orbits == by_blocks
        assert not by_orbits or mutation == "perturb"
        report = verify_design(g, blocks)
        assert not (report.is_sqs and report.is_reversible)
        coverage = coverage_violations_by_counting(g, blocks)
        asymmetric, invariance = reversibility_violations_by_sorting(g, engine._encode_blocks(g, blocks))
        assert report == engine.VerificationReport(
            is_sqs=not coverage,
            is_reversible=not asymmetric and not invariance,
            triple_coverage_violations=coverage,
            asymmetric_blocks=asymmetric,
            invariance_violations=invariance,
        )

    check()
