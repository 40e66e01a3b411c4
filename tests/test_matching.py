import random
from itertools import combinations

import pytest

from kohler_sqs import make_group
from kohler_sqs.kohler import build_graph
from kohler_sqs.matching import (
    Matching,
    NoPerfectMatching,
    components,
    maximum_matching,
    one_factor,
)

from util import (
    abelian_groups_up_to,
    blossom_matching_by_full_scans,
    brute_force_matching_size,
    rows_from_edges,
    two_edge_connected,
)


def cube_graph():
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            w = v ^ bit
            if v < w:
                edges.append((v, w))
    return rows_from_edges(8, edges)


def assert_valid(edges, m: Matching) -> None:
    used = set()
    for v, mate in enumerate(m.mate):
        if mate is None:
            continue
        assert m.mate[mate] == v
        used.add(v)
    assert len(used) == 2 * m.size
    assert sorted(tuple(edges[e]) for e in m.matched_edges) == sorted(
        (v, mate) for v, mate in enumerate(m.mate) if mate is not None and v < mate
    )


def test_cube_has_perfect_matching():
    m = maximum_matching(cube_graph())
    assert m.size == 4
    assert None not in m.mate


def test_trivial_graphs():
    assert maximum_matching(rows_from_edges(1, ())).size == 0
    path3 = rows_from_edges(3, ((0, 1), (1, 2)))
    assert maximum_matching(path3).size == 1


def test_blossom_on_odd_cycles():
    # triangle with a pendant: matching size 2
    g = rows_from_edges(4, ((0, 1), (1, 2), (2, 0), (2, 3)))
    assert maximum_matching(g).size == 2
    # two triangles joined by a bridge: perfect matching exists
    g2 = rows_from_edges(6, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)))
    m = maximum_matching(g2)
    assert m.size == 3 and None not in m.mate


def test_against_brute_force_random():
    rng = random.Random(99)
    for trial in range(120):
        n = rng.randint(2, 10)
        possible = list(combinations(range(n), 2))
        edges = tuple(e for e in possible if rng.random() < rng.choice([0.15, 0.3, 0.5]))
        m = maximum_matching(rows_from_edges(n, edges))
        assert_valid(edges, m)
        assert m.size == brute_force_matching_size(n, list(edges))


def test_against_brute_force_kohler_graphs():
    for g in abelian_groups_up_to(16):
        graph = build_graph(g)
        m = maximum_matching(graph.adjacency)
        assert_valid(graph.endpoints, m)
        assert m.size == brute_force_matching_size(len(graph.vertices), list(graph.endpoints))


def test_matching_size_agrees_with_networkx_on_kohler_graphs():
    nx = pytest.importorskip("networkx")
    for g in abelian_groups_up_to(48):
        graph = build_graph(g)
        reference = nx.Graph()
        reference.add_nodes_from(range(len(graph.vertices)))
        reference.add_edges_from(graph.endpoints)
        expected = len(nx.max_weight_matching(reference, maxcardinality=True))
        assert maximum_matching(graph.adjacency).size == expected, g.factors


def test_one_factor_examples():
    g44 = build_graph(make_group([4, 4]))
    factor = one_factor(g44.adjacency)
    assert None not in factor.mate and factor.size == 4

    g8 = build_graph(make_group([8]))
    with pytest.raises(NoPerfectMatching) as exc:
        one_factor(g8.adjacency)
    assert exc.value.component == (0,)

    g10 = build_graph(make_group([10]))
    factor = one_factor(g10.adjacency)
    assert factor.matched_edges == (0,)


def test_one_factor_witness_is_first_failing_component():
    # component {0,1} is matchable, component {2,3,4} is an odd path
    g = rows_from_edges(5, ((0, 1), (2, 3), (3, 4)))
    with pytest.raises(NoPerfectMatching) as exc:
        one_factor(g)
    assert exc.value.component == (2, 3, 4)


def test_components_ordering():
    g = rows_from_edges(5, ((3, 4), (0, 2)))
    assert components(g) == ((0, 2), (1,), (3, 4))


def test_petersen_consistency_on_kohler_components():
    # 3-regular 2-edge-connected components coming from groups with cyclic
    # Sylow 2-subgroup always admit a perfect matching
    checked = 0
    for g in (make_group([3, 6]), make_group([20]), make_group([3, 12])):
        assert g.is_sylow2_cyclic
        graph = build_graph(g)
        m = maximum_matching(graph.adjacency)
        for comp in components(graph.adjacency):
            if any(len(graph.adjacency[v]) != 3 for v in comp):
                continue
            if not two_edge_connected(graph, comp):
                continue
            assert all(m.mate[v] is not None for v in comp)
            checked += 1
    assert checked > 0


def test_determinism():
    rng = random.Random(5)
    n = 9
    edges = tuple(e for e in combinations(range(n), 2) if rng.random() < 0.4)
    g = rows_from_edges(n, edges)
    first = maximum_matching(g)
    for _ in range(3):
        again = maximum_matching(g)
        assert again == first


@pytest.mark.parametrize(
    "groups",
    [abelian_groups_up_to(130), [make_group(f) for f in ([158], [196], [2, 2, 49], [250])]],
    ids=["v<=130", "v<=250"],
)
def test_mates_equal_the_full_scan_matcher_on_every_component(groups):
    # the reused search state must pick the same 1-factor as a matcher that
    # starts every search afresh, or construct would write other blocks
    for g in groups:
        rows = build_graph(g).adjacency
        mate = maximum_matching(rows).mate
        try:
            factor = one_factor(rows).mate
        except NoPerfectMatching:
            factor = None
        for comp in components(rows):
            local = {v: i for i, v in enumerate(comp)}
            sub_rows = tuple(tuple((e, local[w]) for e, w in rows[v]) for v in comp)
            expected = [None if m is None else comp[m] for m in blossom_matching_by_full_scans(sub_rows)]
            assert [mate[v] for v in comp] == expected, (g, comp[0])
        assert factor is None or factor == mate, g
