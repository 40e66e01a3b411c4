"""Reversible Steiner quadruple systems over finite abelian groups.

Builds the Koehler graph of a group, finds a 1-factor, assembles the block
set, and independently verifies every design-theoretic claim.
"""

from .engine import (
    ConstructionFailure,
    Design,
    ExistenceVerdict,
    VerificationReport,
    build_B0,
    choose_h0,
    construct_design,
    count_B0_formula,
    count_special_triples_formula,
    design_from_json_dict,
    existence_check,
    verify_design,
)
from .errors import (
    CapacityError,
    InternalInconsistencyError,
    InvalidInputError,
    InvalidOrderError,
    InvalidSpecError,
    KohlerSqsError,
    NoInvolutionError,
)
from .groups import Element, Group, make_group, parse_group_spec
from .kohler import KohlerGraph, build_graph, graph_stats
from .matching import Matching, NoPerfectMatching, maximum_matching, one_factor
from .orbits import (
    OrbitRep,
    canonicalize,
    expand_orbit,
    is_symmetric_block,
)

__all__ = [
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

__version__ = "0.1.0"
