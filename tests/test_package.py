import kohler_sqs

# the package's public names; a change to this list is an API change
PUBLIC_NAMES = [
    "CapacityError",
    "ConstructionFailure",
    "Design",
    "Element",
    "ExistenceVerdict",
    "Group",
    "InternalInconsistencyError",
    "InvalidInputError",
    "InvalidOrderError",
    "InvalidSpecError",
    "KohlerGraph",
    "KohlerSqsError",
    "Matching",
    "NoInvolutionError",
    "NoPerfectMatching",
    "OrbitRep",
    "VerificationReport",
    "build_B0",
    "build_graph",
    "canonicalize",
    "choose_h0",
    "construct_design",
    "count_B0_formula",
    "count_special_triples_formula",
    "design_from_json_dict",
    "existence_check",
    "expand_orbit",
    "graph_stats",
    "is_symmetric_block",
    "make_group",
    "maximum_matching",
    "one_factor",
    "parse_group_spec",
    "verify_design",
]


def test_public_names_are_pinned():
    assert kohler_sqs.__all__ == PUBLIC_NAMES
    assert all(hasattr(kohler_sqs, name) for name in PUBLIC_NAMES)
