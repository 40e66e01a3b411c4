"""The package's value records: construction, equality, hashing, repr and
immutability, for each of the seven record classes."""

import pickle

import pytest

from kohler_sqs import (
    Design,
    ExistenceVerdict,
    Group,
    InvalidInputError,
    InvalidSpecError,
    KohlerGraph,
    Matching,
    OrbitRep,
    VerificationReport,
    build_graph,
    make_group,
)

Z10 = make_group([10])
Z4 = make_group([4])
Z2x4 = make_group([2, 4])
_graph = build_graph(Z10)

# per class: its field names in parameter order, the fields repr leaves out,
# and two value lists that differ in every field; every field is given
RECORDS = {
    Group: (("factors",), (), [(2, 5)], [(10,)]),
    OrbitRep: (("group", "base"), (), [Z10, ((0,), (1,), (3,))], [Z4, ((0,), (1,), (2,))]),
    Matching: (("mate", "matched_edges"), (), [(1, 0), (0,)], [(None, None), ()]),
    KohlerGraph: (
        ("group", "vertex_codes", "edge_codes", "endpoints", "adjacency"),
        ("adjacency",),
        [Z10, _graph.vertex_codes, _graph.edge_codes, _graph.endpoints, _graph.adjacency],
        [Z4, (), (), (), ()],
    ),
    Design: (
        ("group", "h0", "codes", "provenance"),
        (),
        [Z2x4, (1, 0), ((0, 1, 2, 3),), ("B0",)],
        [make_group([2, 6]), (0, 2), ((0, 1, 2, 4),), ("factor:0",)],
    ),
    VerificationReport: (
        ("is_sqs", "is_reversible", "triple_coverage_violations", "asymmetric_blocks", "invariance_violations"),
        (),
        [True, True, (), (), ()],
        [
            False,
            False,
            ((((0,), (1,), (2,)), 0),),
            (((0,), (1,), (2,), (4,)),),
            ((((0,), (1,), (2,), (4,)), "negate"),),
        ],
    ),
    ExistenceVerdict: (
        ("verdict", "reason", "design", "witness_component", "diagnostics"),
        (),
        ["yes", {"rule": "constructed"}, None, (), {"v": 10}],
        ["no", {"rule": "order-residue"}, Design(Z4, (2,), ((0, 1, 2, 3),), ("B0",)), ("[1, 2]",), {}],
    ),
}

# the defaults of the trailing parameters
DEFAULTS = {
    VerificationReport: {"triple_coverage_violations": (), "asymmetric_blocks": (), "invariance_violations": ()},
    ExistenceVerdict: {"design": None, "witness_component": ()},
}

CLASSES = list(RECORDS)


def _fields(record):
    names = RECORDS[type(record)][0]
    return tuple(getattr(record, name) for name in names)


def _pair(cls):
    names, _, values, _ = RECORDS[cls]
    return cls(*values), cls(**dict(zip(names, values)))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    names, _, values, _ = RECORDS[cls]
    by_position, by_keyword = _pair(cls)
    for record in (by_position, by_keyword):
        assert type(record) is cls
        for name, value in zip(names, values):
            if (cls, name) == (Design, "codes"):
                # a design packs its codes and renders them anew when read
                assert getattr(record, name) == value
            else:
                assert getattr(record, name) is value
    assert by_position == by_keyword
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(**dict(zip(names, values)), unknown=None)


def test_a_design_holds_its_tags_as_a_tuple():
    # a list or a generator of tags makes the design the tuple makes, which hashes
    codes = ((0, 1, 2, 3),)
    by_tuple = Design(Z2x4, (1, 0), codes, ("B0",))
    for tags in (["B0"], (tag for tag in ("B0",))):
        design = Design(Z2x4, (1, 0), codes, tags)
        assert design.provenance == ("B0",)
        assert design == by_tuple and hash(design) == hash(by_tuple)
    with pytest.raises(InvalidInputError, match="design provenance must be a list of strings"):
        Design(Z2x4, (1, 0), codes, 5)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_trailing_parameters_have_their_defaults(cls):
    names, _, values, _ = RECORDS[cls]
    defaults = DEFAULTS.get(cls, {})
    required = len(names) - len(defaults) - (cls is ExistenceVerdict)
    with pytest.raises(TypeError):
        cls(*values[: required - 1])
    record = cls(*values[:required])
    for name, value in defaults.items():
        assert getattr(record, name) == value
    if cls is ExistenceVerdict:
        assert record.diagnostics == {}


def test_each_verdict_gets_its_own_diagnostics():
    first, second = ExistenceVerdict("no", {}), ExistenceVerdict("no", {})
    assert first.diagnostics == second.diagnostics == {}
    assert first.diagnostics is not second.diagnostics
    first.diagnostics["v"] = 7
    assert second.diagnostics == {}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_compares_the_class_and_every_field(cls):
    names, _, values, others = RECORDS[cls]
    record, same = _pair(cls)
    assert record == same and not record != same
    for i in range(len(names)):
        changed = list(values)
        changed[i] = others[i]
        other = cls(*changed)
        assert record != other and not record == other, names[i]
    assert record != _fields(record)
    assert record.__eq__(_fields(record)) is NotImplemented
    for other_cls in CLASSES:
        if other_cls is not cls:
            assert record != _pair(other_cls)[0]
            assert record.__eq__(_pair(other_cls)[0]) is NotImplemented


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_records_hash_equal(cls):
    record, same = _pair(cls)
    if cls is ExistenceVerdict:
        # its reason and diagnostics are dicts, so it hashes as they do
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(record) == hash(same)
    assert len({record, same}) == 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    names, _, _, others = RECORDS[cls]
    record, _ = _pair(cls)
    before = _fields(record)
    for name, other in zip(names, others):
        with pytest.raises(AttributeError):
            setattr(record, name, other)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "extra")
    assert _fields(record) == before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_names_the_class_and_its_shown_fields(cls):
    names, hidden, _, _ = RECORDS[cls]
    record, _ = _pair(cls)
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in names if name not in hidden)
    assert repr(record) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_records_survive_a_pickle_round_trip(cls):
    record, _ = _pair(cls)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record


def test_cached_properties_are_computed_once_per_record():
    g = make_group([2, 5])
    assert g.order == 10 and g.order == 10
    assert g.neg_table is g.neg_table
    design = Design(Z4, (2,), ((0, 1, 2, 3),), ("B0",))
    assert design.blocks == (((0,), (1,), (2,), (3,)),)
    assert design.blocks is design.blocks
    assert _graph.vertices is _graph.vertices
    assert _graph.vertices[0] == OrbitRep(Z10, tuple(map(Z10.decode, _graph.vertex_codes[0])))
    # a cached value does not take part in equality
    assert design == Design(Z4, (2,), ((0, 1, 2, 3),), ("B0",))


def test_a_design_refuses_a_string_or_a_mapping_of_tags():
    # iterated, a string gives its characters and a mapping its keys, which
    # are no list of tags even when they align with the blocks
    codes = ((0, 1, 2, 3), (0, 1, 2, 4))
    for tags in ("B0", {"B0": 0, "B1": 1}):
        with pytest.raises(InvalidInputError, match="design provenance must be a list of strings"):
            Design(Z2x4, (1, 0), codes, tags)


def test_the_checks_run_in_order_when_a_record_is_made():
    for factors, message in (
        ((), "at least one cyclic factor"),
        ((2, 1.5), "integers >= 2"),
        ((5, 2), "sorted ascending"),
    ):
        with pytest.raises(InvalidSpecError, match=message):
            Group(factors)
    # h0 first, then the blocks, then the tags, each case with every later fault
    for codes, provenance, h0, message in (
        (((0, 1, 2, 3), (3, 2, 1, 0)), (1,), (1,), "order 2"),
        (((0, 1, 2, 3), (3, 2, 1, 0)), (1,), (2,), "4 increasing element codes"),
        (((0, 1, 2, 3),), (1,), (2,), "list of strings"),
        (((0, 1, 2, 3),), (), (2,), "align"),
    ):
        with pytest.raises(InvalidInputError, match=message):
            Design(Z4, h0, codes, provenance)
