from itertools import combinations
from math import comb

import pytest

from kohler_sqs import (
    ConstructionFailure,
    InvalidInputError,
    InvalidOrderError,
    NoInvolutionError,
    make_group,
)
from kohler_sqs import engine, kohler
from kohler_sqs.engine import (
    B0_TAG,
    Design,
    b0_orbit_reps,
    build_B0,
    choose_h0,
    condition_iv_diagnostics,
    construct_design,
    count_B0_formula,
    count_special_triples_formula,
    design_from_json_dict,
    existence_check,
    verify_design,
    verify_reversible,
    verify_sqs,
)
from kohler_sqs.kohler import build_graph
from kohler_sqs.orbits import canonicalize, classify_triple, expand_orbit

from util import QUAD_E, b0_blocks, classify_quadruple, factor_edge_indices

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
    enumerated = sum(
        1
        for triple in combinations(g.elements(), 3)
        if classify_triple(g, canonicalize(g, triple)) in ("T1", "T2")
    )
    assert enumerated == special


def test_b0_matches_quadruple_classification():
    for g in (Z10, make_group([14]), Z44):
        h0 = choose_h0(g)
        expected = {
            tuple(sorted(quad))
            for quad in combinations(g.elements(), 4)
            if classify_quadruple(g, canonicalize(g, quad), h0) in ("Q1", "Q2", "Q3")
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
        cover: dict[tuple, int] = {}
        for block in b0:
            for triple in combinations(block, 3):
                cover[triple] = cover.get(triple, 0) + 1
                assert classify_triple(g, canonicalize(g, triple)) in ("T1", "T2")
        for triple in combinations(g.elements(), 3):
            special = classify_triple(g, canonicalize(g, triple)) in ("T1", "T2")
            assert cover.get(triple, 0) == (1 if special else 0)


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
    report = verify_sqs(Z10, damaged)
    assert report.is_sqs is False
    missing = [t_ for t_, c in report.triple_coverage_violations if c == 0]
    assert len(missing) == 4
    assert set(missing) == set(combinations(d.blocks[0], 3))


def test_verify_sqs_detects_duplicate_coverage():
    d = construct_design(Z10)
    report = verify_sqs(Z10, d.blocks + (d.blocks[0],))
    assert report.is_sqs is False
    assert all(c == 2 for _, c in report.triple_coverage_violations)


def test_verify_rejects_malformed_block():
    with pytest.raises(InvalidInputError):
        verify_sqs(Z10, [t(0, 1, 2)])
    with pytest.raises(InvalidInputError):
        verify_reversible(Z10, [((0,), (1,), (2,), (11,))])


def test_single_edge_orbit_is_reversible_but_not_sqs():
    blocks = sorted(expand_orbit(Z10, canonicalize(Z10, t(0, 1, 3, 4))))
    report = verify_reversible(Z10, blocks)
    assert report.is_reversible is True
    assert verify_sqs(Z10, blocks).is_sqs is False


def test_verify_reversible_detects_violations():
    d = construct_design(Z10)
    report = verify_reversible(Z10, d.blocks[1:])
    assert report.is_reversible is False
    assert report.invariance_violations
    asym = [t(0, 1, 2, 4)]
    rep = verify_reversible(Z10, asym)
    assert rep.asymmetric_blocks == (t(0, 1, 2, 4),)


def test_verification_report_merging():
    d = construct_design(Z10)
    full = verify_design(Z10, d.blocks)
    assert full.is_sqs is True and full.is_reversible is True
    sqs_only = verify_sqs(Z10, d.blocks)
    assert sqs_only.is_reversible is None


def test_design_json_round_trip():
    d = construct_design(Z225)
    payload = d.to_json_dict()
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
    calls = _count_calls(monkeypatch, engine, "build_B0")
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


def test_diagnostics_respect_capacity():
    diag = condition_iv_diagnostics(make_group([2, 101]), limit=100)
    assert diag["unevaluated_primes"] == [101]


def test_b0_orbit_reps_tags():
    reps = b0_orbit_reps(Z225, (1, 0, 0))
    tags = sorted(reps.values())
    assert tags.count("Q1") == 4
    assert tags.count("Q2") == 8
    assert tags.count("Q3") == 1
    total = sum(len(expand_orbit(Z225, rep)) for rep in reps)
    assert total == count_B0_formula(Z225)


def test_design_provenance_alignment_checked():
    with pytest.raises(InvalidInputError):
        Design(group=Z10, h0=(5,), blocks=(t(0, 1, 3, 4),), provenance=())


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
