from itertools import combinations

import pytest

from kohler_sqs import InternalInconsistencyError, InvalidInputError, kohler, make_group, orbits
from kohler_sqs.engine import sqs_order_ok
from kohler_sqs.kohler import build_graph, export_graph, graph_stats
from kohler_sqs.matching import components
from kohler_sqs.orbits import OrbitRep, canonicalize

from util import (
    abelian_groups_up_to,
    all_subgroups,
    degree,
    edge_lies_on_cycle,
    formula_neighbors,
    in_E_by_definition,
    in_T_by_definition,
    isolated_by_characterization,
    koehler_graph_by_pair_scan,
    neighbors,
    scale,
    subgroup_generated,
    subgroup_is_cyclic,
    through_zero_sets,
)

Z44 = make_group([4, 4])
Z10 = make_group([10])
Z7 = make_group([7])
Z8 = make_group([8])
Z225 = make_group([2, 2, 5])


def t(*xs):
    return tuple((x,) for x in xs)


def test_three_cube_shape():
    g = build_graph(Z44)
    assert len(g.vertices) == 8
    assert len(g.edges) == 12
    assert all(len(row) == 3 for row in g.adjacency)
    assert len(components(g.adjacency)) == 1


def test_three_cube_worked_adjacency():
    # the eight vertices written via generators g1 = (1,0), g2 = (0,1)
    g = build_graph(Z44)
    zero = (0, 0)
    labels = {
        1: ((1, 0), (0, 1)),
        2: ((1, 0), (1, 1)),
        3: ((1, 0), (2, 1)),
        4: ((1, 0), (3, 1)),
        5: ((1, 2), (1, 3)),
        6: ((1, 2), (2, 1)),
        7: ((1, 2), (3, 3)),
        8: ((1, 2), (0, 1)),
    }
    v = {i: canonicalize(Z44, (zero,) + pair) for i, pair in labels.items()}
    assert len({rep.base for rep in v.values()}) == 8
    assert {rep.base for rep in v.values()} == {rep.base for rep in g.vertices}
    expected = {
        1: {2, 4, 5},
        2: {1, 3, 8},
        3: {2, 4, 7},
        4: {1, 3, 6},
        5: {1, 8, 6},
        6: {4, 7, 5},
        7: {3, 8, 6},
        8: {2, 7, 5},
    }
    for i, nbrs in expected.items():
        assert neighbors(g, v[i]) == {v[j] for j in nbrs}


def test_single_vertex_graphs():
    for group in (Z7, Z8):
        g = build_graph(group)
        assert len(g.vertices) == 1
        assert len(g.edges) == 0
        rep = canonicalize(group, t(0, 1, 3))
        assert g.vertices[0] == rep
        assert degree(g, rep) == 0
        assert neighbors(g, rep) == set()


def test_z10_graph():
    g = build_graph(Z10)
    assert [rep.base for rep in g.vertices] == [t(0, 1, 3), t(0, 1, 4)]
    assert [rep.base for rep in g.edges] == [t(0, 1, 3, 4)]
    assert neighbors(g, canonicalize(Z10, t(0, 1, 3))) == {canonicalize(Z10, t(0, 1, 4))}
    assert components(g.adjacency) == ((0, 1),)


def test_twelve_vertex_pairs_of_z10():
    # the code of (x,) is x
    neg, double = Z10.neg_table, Z10.double_table
    pairs = [(a, b) for a, b in combinations(range(1, 10), 2) if orbits._in_T(neg, double, a, b)]
    assert len(pairs) == 12
    orbit_count = len({orbits._canonical(Z10, (0, a, b)) for a, b in pairs})
    assert orbit_count == 2


def test_unknown_vertex_rejected():
    g = build_graph(Z10)
    with pytest.raises(InvalidInputError):
        neighbors(g, OrbitRep(Z10, t(0, 2, 6)))


def test_graph_stats_examples():
    assert graph_stats(build_graph(Z44)) == {
        "group": [4, 4],
        "vertices": 8,
        "edges": 12,
        "degrees": {"3": 8},
        "components": [8],
        "isolated": 0,
    }
    assert graph_stats(build_graph(Z8)) == {
        "group": [8],
        "vertices": 1,
        "edges": 0,
        "degrees": {"0": 1},
        "components": [1],
        "isolated": 1,
    }
    assert graph_stats(build_graph(Z10)) == {
        "group": [10],
        "vertices": 2,
        "edges": 1,
        "degrees": {"1": 2},
        "components": [2],
        "isolated": 0,
    }


def test_z16_stats_recorded():
    # one isolated vertex (an element of order 8 obstructs)
    stats = graph_stats(build_graph(make_group([16])))
    assert stats["vertices"] == 11
    assert stats["edges"] == 12
    assert stats["isolated"] == 1
    assert stats["components"] == [10, 1]


def test_adjacency_matches_neighbor_formula():
    for group in (Z10, Z8, Z44, Z225, make_group([16]), make_group([2, 6])):
        g = build_graph(group)
        for rep in g.vertices:
            assert neighbors(g, rep) == formula_neighbors(group, rep)


def test_degree_three_criterion():
    # degree is 3 iff none of the nine combinations hits zero
    for group in (Z10, Z44, Z225, make_group([18])):
        g = build_graph(group)
        for rep in g.vertices:
            _, a, b = rep.base
            combos = [
                group.add(group.double(a), b),
                group.add(a, group.double(b)),
                group.double(group.add(a, b)),
                group.sub(scale(group, 3, a), b),
                group.sub(scale(group, 3, a), group.double(b)),
                group.sub(scale(group, 4, a), group.double(b)),
                group.sub(scale(group, 3, b), a),
                group.sub(scale(group, 3, b), group.double(a)),
                group.sub(scale(group, 4, b), group.double(a)),
            ]
            assert (degree(g, rep) == 3) == (group.zero not in combos)


def test_neighbor_membership_criterion():
    # [a, a+b] is a vertex iff 0 not in {2a+b, a+2b, 2a+2b}
    for group in (Z10, Z44, make_group([14])):
        neg, double = group.neg_table, group.double_table
        for rep in build_graph(group).vertices:
            _, a, b = rep.base
            s = group.add(a, b)
            member = s != group.zero and s != a and orbits._in_T(neg, double, group.encode(a), group.encode(s))
            criterion = group.zero not in (
                group.add(group.double(a), b),
                group.add(a, group.double(b)),
                group.double(s),
            )
            assert member == criterion


def test_isolated_vertex_characterization():
    for group in (Z7, Z8, Z44, make_group([16]), make_group([24]), make_group([2, 6])):
        g = build_graph(group)
        for rep in g.vertices:
            assert (degree(g, rep) == 0) == isolated_by_characterization(group, rep.base)


def test_components_share_generated_subgroup():
    for group in (Z10, Z44, Z225, make_group([16])):
        g = build_graph(group)
        for comp in components(g.adjacency):
            subgroups = {
                subgroup_generated(group, [g.vertices[i].base[1], g.vertices[i].base[2]])
                for i in comp
            }
            assert len(subgroups) == 1


def test_subgraph_embedding_for_subgroups():
    for group in (Z44, Z225, make_group([16])):
        g = build_graph(group)
        vertex_set = {rep.base for rep in g.vertices}
        for sub in all_subgroups(group):
            members = sorted(sub)
            image = set()
            for a, b in combinations([x for x in members if x != group.zero], 2):
                if in_T_by_definition(group, a, b):
                    image.add(canonicalize(group, (group.zero, a, b)).base)
            assert image <= vertex_set
            # image is a union of components: closed under adjacency
            for base in image:
                for nbr in neighbors(g, OrbitRep(group, base)):
                    assert nbr.base in image


def test_edges_lie_on_cycles_when_doubles_escape():
    # whenever 2a is outside <b> and 2b outside <a>, the edge of {0,a,b,a+b}
    # lies on a cycle
    for group in (Z225, Z44):
        g = build_graph(group)
        edge_index = {rep.base: i for i, rep in enumerate(g.edges)}
        for a, b in combinations(group.elements()[1:], 2):
            s = group.add(a, b)
            if s in (group.zero, a, b):
                continue
            if group.double(a) in subgroup_generated(group, [b]):
                continue
            if group.double(b) in subgroup_generated(group, [a]):
                continue
            base = canonicalize(group, (group.zero, a, b, s)).base
            assert base in edge_index
            assert edge_lies_on_cycle(g, edge_index[base])


def test_noncyclic_two_generated_gives_degree_three():
    # cyclic Sylow 2-subgroup: every pair generating a non-cyclic subgroup
    # is a vertex, and that vertex has full degree
    checked = 0
    for group in (make_group([3, 6]), make_group([3, 12]), make_group([20])):
        assert group.is_sylow2_cyclic
        g = build_graph(group)
        for a, b in combinations(group.elements()[1:], 2):
            sub = subgroup_generated(group, [a, b])
            if subgroup_is_cyclic(group, sub):
                continue
            assert orbits._in_T(group.neg_table, group.double_table, group.encode(a), group.encode(b))
            assert degree(g, canonicalize(group, (group.zero, a, b))) == 3
            checked += 1
    assert checked > 0


def test_export_graph_structure():
    g = build_graph(Z10)
    payload = export_graph(g)
    assert payload["group"] == [10]
    assert payload["vertices"] == [{"base": [[0], [1], [3]]}, {"base": [[0], [1], [4]]}]
    assert payload["edges"] == [{"base": [[0], [1], [3], [4]], "endpoints": [0, 1]}]


def test_every_edge_has_two_distinct_endpoints():
    for group in (Z10, Z44, Z225, make_group([16]), make_group([2, 6])):
        g = build_graph(group)
        seen_pairs = set()
        for i, j in g.endpoints:
            assert i != j
            assert 0 <= i < len(g.vertices) and 0 <= j < len(g.vertices)
            assert (i, j) not in seen_pairs, "multiple edges"
            seen_pairs.add((i, j))


# every order up to 64 too: on some groups whose order 3 divides, such as
# Z3xZ3, the vertex test's a < -b rejects pairs the rest of it accepts
@pytest.mark.parametrize(
    "group",
    [g for g in abelian_groups_up_to(100) if sqs_order_ok(g.order) or g.order <= 64]
    + [make_group(f) for f in ([158], [196], [2, 2, 49], [250])],
    ids=str,
)
def test_graph_matches_the_pair_scan(group):
    graph, reference = build_graph(group), koehler_graph_by_pair_scan(group)
    assert export_graph(graph) == export_graph(reference)
    assert graph.endpoints == reference.endpoints
    assert graph.adjacency == reference.adjacency


def test_through_zero_members_of_t_and_e_orbits():
    # the counts the canonical-pair scan of build_graph relies on, checked
    # once per orbit
    for group in abelian_groups_up_to(64):
        zero = group.zero
        seen: set = set()
        for a, b in combinations(group.elements()[1:], 2):
            if (zero, a, b) not in seen and in_T_by_definition(group, a, b):
                members = through_zero_sets(group, (zero, a, b))
                assert len(members) == 6, (group, a, b)
                values = (a, b, group.neg(a), group.neg(b), group.sub(b, a), group.sub(a, b))
                assert len(set(values)) == 6, (group, a, b)
                seen |= members
            s = group.add(a, b)
            if s in (zero, a, b) or tuple(sorted((zero, a, b, s))) in seen or not in_E_by_definition(group, a, b):
                continue
            members = through_zero_sets(group, (zero, a, b, s))
            assert len(members) == 4, (group, a, b)
            assert len({x for m in members for x in m} - {zero}) == 8, (group, a, b)
            seen |= members


def test_missed_endpoint_is_an_internal_inconsistency(monkeypatch):
    # with no vertex found, the one edge of Z10 has no endpoint entry
    monkeypatch.setattr(kohler, "_in_T", lambda neg, double, a, b: False)
    with pytest.raises(InternalInconsistencyError, match="has an endpoint outside T"):
        build_graph(Z10)


def test_self_joining_edge_is_an_internal_inconsistency(monkeypatch):
    # every vertex claims every pair, so the last one found owns them all
    all_pairs = tuple(combinations(range(1, Z44.order), 2))
    monkeypatch.setattr(kohler, "_triple_pairs", lambda neg, a, b, ba: all_pairs)
    with pytest.raises(InternalInconsistencyError, match="joins a vertex to itself"):
        build_graph(Z44)


def test_parallel_edges_are_an_internal_inconsistency(monkeypatch):
    # without the choice between {0, a, b, a+b} and {0, a, -b, a-b}, an edge
    # met at both pairs is listed twice between the same two vertices
    monkeypatch.setattr(kohler, "_edge_base", lambda a, b, s, nb, nba: (0, a, *sorted((b, s))))
    with pytest.raises(InternalInconsistencyError, match="multiple edges between vertices"):
        build_graph(Z44)


def test_elementary_abelian_2_group_builds_no_translation_row():
    g = make_group([2] * 10)
    graph = build_graph(g)
    assert graph.vertex_codes == graph.edge_codes == ()
    assert "_fold" not in g.__dict__
