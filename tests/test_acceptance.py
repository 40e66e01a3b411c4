"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Every tolerance is exact integer equality; the only non-exact
assertions are the stated wall-clock budgets.
"""

import random
import time
from itertools import combinations

from kohler_sqs import cli, make_group, orbits
from kohler_sqs.engine import (
    build_B0,
    choose_h0,
    condition_iv_diagnostics,
    construct_design,
    count_B0_formula,
    count_special_triples,
    count_special_triples_formula,
    verify_design,
)
from kohler_sqs.fixtures import (
    SQS20_COMPLETION_ORBIT,
    SQS20_H0,
    sqs20_blocks,
    sqs20_core_blocks,
    sqs20_group,
)
from kohler_sqs.kohler import build_graph
from kohler_sqs.matching import NoPerfectMatching, components, maximum_matching, one_factor
from kohler_sqs.orbits import QUAD_Q2, OrbitRep, canonicalize, expand_orbit, is_symmetric_block

from util import (
    QUAD_ASYMMETRIC,
    abelian_groups_of_order,
    abelian_groups_up_to,
    all_subgroups,
    b0_blocks,
    brute_force_matching_size,
    classify_quadruple,
    in_T_by_definition,
    is_bipartite,
    isolated_by_characterization,
    quadruple_orbit_reps,
    rows_from_edges,
    scale,
    triple_orbit_reps,
)


def _criterion(number: int, description: str, fn) -> None:
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_z4xz4_end_to_end():
    def check():
        start = time.perf_counter()
        g = make_group([4, 4])
        graph = build_graph(g)
        assert len(graph.vertices) == 8
        assert len(graph.edges) == 12
        assert all(len(row) == 3 for row in graph.adjacency)
        assert len(components(graph.adjacency)) == 1
        assert is_bipartite(graph.adjacency)
        factor = one_factor(graph.adjacency)
        assert None not in factor.mate and factor.size == 4
        design = construct_design(g)
        assert design.block_count == 140
        report = verify_design(g, design.blocks)
        assert report.is_sqs is True
        assert report.is_reversible is True
        assert time.perf_counter() - start < 1.0

    _criterion(1, "Z4xZ4 graph is the 3-cube and yields a verified 140-block design", check)


def test_criterion_2_single_vertex_graphs(capsys):
    def check():
        for v in (7, 8):
            graph = build_graph(make_group([v]))
            assert len(graph.vertices) == 1
            assert len(graph.edges) == 0
        code = cli.main(["exists", "--group", "8"])
        out8 = capsys.readouterr().out
        assert code == 2
        assert '"verdict":"no"' in out8
        code = cli.main(["exists", "--group", "7"])
        out7 = capsys.readouterr().out
        assert code == 2
        assert '"verdict":"no"' in out7
        assert "odd" in out7

    _criterion(2, "Z7 and Z8 graphs are single vertices; exists 8 -> no, 7 -> invalid odd", check)


def test_criterion_3_two_group_sweep():
    def check():
        start = time.perf_counter()
        cases = []
        for n in range(3, 7):
            for b in range(n // 2 + 1):
                a = n - 2 * b
                cases.append([2] * a + [4] * b)
        assert len(cases) == 12
        for factors in cases:
            g = make_group(factors)
            design = construct_design(g)
            v = g.order
            assert design.block_count == v * (v - 1) * (v - 2) // 24
            report = verify_design(g, design.blocks)
            assert report.is_sqs is True, factors
            assert report.is_reversible is True, factors
        assert time.perf_counter() - start < 30.0

    _criterion(3, "every Z2^a x Z4^b with 8 <= v <= 64 yields a verified reversible SQS", check)


def test_criterion_4_counting_oracle():
    def check():
        start = time.perf_counter()
        for v in (10, 14, 16, 20, 22, 26, 28):
            for g in abelian_groups_of_order(v):
                h0 = choose_h0(g)
                neg, double = g.neg_table, g.double_table
                formula_b0 = count_B0_formula(g)
                formula_special = count_special_triples_formula(g)
                assert formula_special == 4 * formula_b0, g.factors

                enumerated_special = sum(
                    1
                    for triple in combinations(range(g.order), 3)
                    if orbits._classify_triple(neg, double, *orbits._canonical(g, triple)[1:]) in ("T1", "T2")
                )
                assert enumerated_special == formula_special, g.factors
                assert count_special_triples(g) == enumerated_special, g.factors

                forced = build_B0(g, h0)
                assert len(forced) == formula_b0, g.factors
                brute_forced = {
                    quad
                    for quad in combinations(g.elements(), 4)
                    if classify_quadruple(g, canonicalize(g, quad), h0)
                    in ("Q1", "Q2", "Q3")
                }
                assert brute_forced == forced, g.factors

                # the pairing behind special = 4*|B0|: every special triple
                # lies in exactly one forced block and every 3-subset of a
                # forced block is special
                cover: dict[tuple, int] = {}
                for block in forced:
                    for triple in combinations(block, 3):
                        cover[triple] = cover.get(triple, 0) + 1
                        _, a, b = orbits._canonical(g, tuple(map(g.encode, triple)))
                        assert orbits._classify_triple(neg, double, a, b) in ("T1", "T2"), (g.factors, triple)
                assert all(c == 1 for c in cover.values()), g.factors
                assert len(cover) == formula_special, g.factors
        assert time.perf_counter() - start < 60.0

    _criterion(4, "closed-form counts match brute force for every group with v <= 28", check)


def test_criterion_5_reference_sqs20():
    def check():
        g = sqs20_group()
        core = sqs20_core_blocks()
        assert len(core) == 265
        report = verify_design(g, sorted(core))
        assert report.is_sqs is False
        uncovered = {t for t, c in report.triple_coverage_violations if c == 0}
        overcovered = [t for t, c in report.triple_coverage_violations if c > 1]
        assert len(uncovered) == 80
        assert overcovered == []

        # the completion orbit is the unique one covering exactly the gap
        completions = []
        for base in quadruple_orbit_reps(g):
            rep = canonicalize(g, base)
            covered: list[tuple] = []
            for block in expand_orbit(g, rep):
                covered.extend(combinations(block, 3))
            if len(covered) == len(set(covered)) and set(covered) == uncovered:
                completions.append(base)
        expected = canonicalize(g, (g.zero,) + SQS20_COMPLETION_ORBIT).base
        assert completions == [expected]

        blocks = sqs20_blocks()
        assert len(blocks) == 285
        full_report = verify_design(g, sorted(blocks))
        assert full_report.is_sqs is True
        assert full_report.is_reversible is True

        forced = build_B0(g, SQS20_H0)
        absent = forced - blocks
        assert absent, "at least one forced block must be missing"
        assert len(absent) == 20
        absent_orbits = {canonicalize(g, b) for b in absent}
        assert {classify_quadruple(g, rep, SQS20_H0) for rep in absent_orbits} == {QUAD_Q2}

    _criterion(5, "reference SQS(20) verifies with 285 blocks and omits forced blocks", check)


def test_criterion_6_z10_end_to_end():
    def check():
        g = make_group([10])
        graph = build_graph(g)
        assert len(graph.vertices) == 2
        assert len(graph.edges) == 1
        design = construct_design(g)
        assert design.block_count == 30
        forced = set(b0_blocks(design))
        assert len(forced) == 20
        edge_orbit = expand_orbit(g, canonicalize(g, ((0,), (1,), (3,), (4,))))
        assert set(design.blocks) - forced == edge_orbit
        assert len(edge_orbit) == 10
        report = verify_design(g, design.blocks)
        assert report.is_sqs is True
        assert report.is_reversible is True

    _criterion(6, "Z10 gives the 30-block S-cyclic SQS(10) through edge [1,3,4]", check)


def test_criterion_7_property_suite():
    def check():
        groups = abelian_groups_up_to(40)
        for g in groups:
            graph = build_graph(g)
            vertex_bases = {rep.base for rep in graph.vertices}

            seen_pairs = set()
            for i, j in graph.endpoints:
                assert i != j, (g.factors, "edge endpoints must differ")
                assert (i, j) not in seen_pairs, (g.factors, "multiple edges")
                seen_pairs.add((i, j))

            for i, rep in enumerate(graph.vertices):
                row = graph.adjacency[i]
                assert len(row) <= 3, (g.factors, rep.base)
                _, a, b = rep.base
                combos = (
                    g.add(g.double(a), b),
                    g.add(a, g.double(b)),
                    g.double(g.add(a, b)),
                    g.sub(scale(g, 3, a), b),
                    g.sub(scale(g, 3, a), g.double(b)),
                    g.sub(scale(g, 4, a), g.double(b)),
                    g.sub(scale(g, 3, b), a),
                    g.sub(scale(g, 3, b), g.double(a)),
                    g.sub(scale(g, 4, b), g.double(a)),
                )
                assert (len(row) == 3) == (g.zero not in combos), (g.factors, rep.base)
                assert (len(row) == 0) == isolated_by_characterization(g, rep.base), (
                    g.factors,
                    rep.base,
                )

            for edge in graph.edges:
                cover: dict[tuple, int] = {}
                for block in expand_orbit(g, edge):
                    for triple in combinations(block, 3):
                        cover[triple] = cover.get(triple, 0) + 1
                assert all(c == 1 for c in cover.values()), (g.factors, edge.base)

            for base in triple_orbit_reps(g):
                size = orbits._orbit_size(g, tuple(map(g.encode, base)))
                assert size == len(expand_orbit(g, OrbitRep(g, base))), (g.factors, base)

            h0 = None
            if g.order % 2 == 0:
                h0 = choose_h0(g)
            for base in quadruple_orbit_reps(g):
                rep = OrbitRep(g, base)
                size = orbits._orbit_size(g, tuple(map(g.encode, base)))
                assert size == len(expand_orbit(g, rep)), (g.factors, base)
                tag = classify_quadruple(g, rep, h0)
                assert (tag != QUAD_ASYMMETRIC) == is_symmetric_block(g, base), (
                    g.factors,
                    base,
                )

            index_of = {rep.base: i for i, rep in enumerate(graph.vertices)}
            for sub in all_subgroups(g):
                nonzero = [x for x in sorted(sub) if x != g.zero]
                image = set()
                for a, b in combinations(nonzero, 2):
                    if in_T_by_definition(g, a, b):
                        image.add(canonicalize(g, (g.zero, a, b)).base)
                assert image <= vertex_bases, (g.factors, len(sub))
                for base in image:
                    ambient = {
                        graph.vertices[j].base for _, j in graph.adjacency[index_of[base]]
                    }
                    # adjacency computed inside the subgroup must coincide
                    # with the ambient adjacency (image = union of components)
                    _, a, b = base
                    inner = set()
                    for c, d in ((a, g.add(a, b)), (b, g.sub(a, b)), (a, g.sub(b, a))):
                        if d != g.zero and d != c and in_T_by_definition(g, c, d):
                            inner.add(canonicalize(g, (g.zero, c, d)).base)
                    assert inner == ambient, (g.factors, base)
                    assert inner <= image, (g.factors, base)

    _criterion(7, "structural invariants hold with zero violations for every group with v <= 40", check)


def test_criterion_8_matching_oracle():
    def check():
        rng = random.Random(1729)
        for trial in range(200):
            n = rng.randint(2, 10)
            possible = list(combinations(range(n), 2))
            density = rng.choice([0.1, 0.2, 0.35, 0.5, 0.7])
            edges = tuple(e for e in possible if rng.random() < density)
            got = maximum_matching(rows_from_edges(n, edges))
            assert got.size == brute_force_matching_size(n, list(edges)), (n, edges)
        for g in abelian_groups_up_to(16):
            graph = build_graph(g)
            got = maximum_matching(graph.adjacency)
            size = brute_force_matching_size(len(graph.vertices), list(graph.endpoints))
            assert got.size == size, g.factors

    _criterion(8, "blossom matching agrees with brute force on 200 random + Koehler graphs", check)


def test_small_prime_diagnostics():
    # report which cyclic orders 2p admit a 1-factor; only p = 5 carries an
    # asserted expectation
    results = {}
    for p in (5, 7, 11, 13):
        graph = build_graph(make_group([2 * p]))
        try:
            one_factor(graph.adjacency)
            results[p] = True
        except NoPerfectMatching:
            results[p] = False
    assert results[5] is True
    diag = condition_iv_diagnostics(make_group([10]))
    assert diag["prime_checks"] == [{"p": 5, "order": 10, "has_one_factor": True}]
    print(f"INFO small-prime 1-factor results: {results}")
