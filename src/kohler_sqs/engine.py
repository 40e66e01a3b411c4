"""Assembly, verification and existence decisions for reversible quadruple systems.

The construction: fix an involution h0, expand the three forced orbit
families

* Q1 = orbits of {0, a, -a, h0} over a outside the involution layer,
* Q2 = orbits of {0, a, h, h+a} with h an involution outside <h0>, 2a != h,
* Q3 = orbits of {0, h, h', h+h'} over distinct involutions,

into the base block set B0, then complete it with the expansions of the edge
orbits of any 1-factor of the Koehler graph.  The result is a Steiner
quadruple system on the group in which every block is symmetric and the block
set is invariant under translations and negation.  For groups with cyclic
Sylow 2-subgroup the 1-factor is also necessary, which turns the construction
into a decision procedure; otherwise a failed matching leaves existence open
(reversible systems that do not contain all of B0 exist, see the bundled
SQS(20) fixture).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from . import kohler, matching, orbits
from .errors import (
    InternalInconsistencyError,
    InvalidInputError,
    InvalidOrderError,
    NoInvolutionError,
)
from .groups import Element, Group, make_group, max_order_limit
from .orbits import OrbitRep, Subset

Block = Subset

B0_TAG = "B0"
FACTOR_TAG_PREFIX = "factor:"


class ConstructionFailure(Exception):
    """The Koehler graph has no 1-factor; carries the witness component."""

    def __init__(self, group: Group, component_indices: tuple[int, ...], graph: kohler.KohlerGraph):
        self.group = group
        self.component_indices = component_indices
        self.component = tuple(graph.vertices[i] for i in component_indices)
        self.graph = graph
        if len(self.component) == 1:
            detail = f"isolated vertex {self.component[0]}"
        else:
            detail = f"unmatched component {[str(v) for v in self.component]}"
        super().__init__(f"Koehler graph of {group} has no 1-factor; {detail}")


def sqs_order_ok(v: int) -> bool:
    """Quadruple systems exist only for v congruent to 2 or 4 mod 6."""
    return v % 6 in (2, 4)


def require_sqs_order(g: Group) -> None:
    if not sqs_order_ok(g.order):
        raise InvalidOrderError(
            f"no SQS({g.order}) exists: order must be 2 or 4 mod 6, got {g.order % 6}"
        )


def choose_h0(g: Group) -> Element:
    """The lexicographically least element of order 2.

    Unique when the Sylow 2-subgroup is cyclic; an explicit override is
    accepted everywhere h0 matters, since any involution yields a valid
    construction.
    """
    if g.order % 2 == 1:
        raise NoInvolutionError(f"{g} has odd order {g.order}, no element of order 2")
    return min(x for x in g.omega1 if x != g.zero)


def _validate_h0(g: Group, h0: Element) -> Element:
    g.validate_element(h0)
    if h0 == g.zero or g.double(h0) != g.zero:
        raise InvalidInputError(f"h0 must have order 2, got {h0!r}")
    return h0


def b0_orbit_reps(g: Group, h0: Element) -> dict[OrbitRep, str]:
    """Canonical representatives of the forced orbits, tagged Q1/Q2/Q3."""
    require_sqs_order(g)
    _validate_h0(g, h0)
    zero = g.zero
    omega1 = set(g.omega1)
    reps: dict[OrbitRep, str] = {}
    for a in g.elements():
        if a in omega1:
            continue
        rep = orbits.canonicalize(g, (zero, a, g.neg(a), h0))
        reps.setdefault(rep, orbits.QUAD_Q1)
    for h in g.omega1:
        if h == zero or h == h0:
            continue
        for a in g.elements():
            if a in omega1 or g.double(a) == h:
                continue
            rep = orbits.canonicalize(g, (zero, a, h, g.add(h, a)))
            reps.setdefault(rep, orbits.QUAD_Q2)
    involutions = [h for h in g.omega1 if h != zero]
    for h, hp in combinations(involutions, 2):
        rep = orbits.canonicalize(g, (zero, h, hp, g.add(h, hp)))
        reps.setdefault(rep, orbits.QUAD_Q3)
    return reps


def build_B0(g: Group, h0: Element) -> frozenset[Block]:
    """The forced block set B0 (union of the expanded Q1, Q2, Q3 orbits)."""
    blocks: set[Block] = set()
    for rep in b0_orbit_reps(g, h0):
        blocks.update(orbits.expand_orbit(g, rep))
    return frozenset(blocks)


def count_B0_formula(g: Group) -> int:
    """Closed form for |B0|: v^2*w1/8 - v*(2*w1^2 + 3*w2 - 2)/24."""
    require_sqs_order(g)
    v, w1, w2 = g.order, g.omega1_size, g.omega2_size
    numerator = 3 * v * v * w1 - v * (2 * w1 * w1 + 3 * w2 - 2)
    size, remainder = divmod(numerator, 24)
    if remainder:
        raise InternalInconsistencyError(f"|B0| formula is not integral for {g}")
    return size


def count_special_triples_formula(g: Group) -> int:
    """Closed form for the number of triples with orbit in T1 or T2.

    Equals v^2*w1/2 - v*(2*w1^2 + 3*w2 - 2)/6, which is 4 |B0|: each forced
    block covers four special triples and each special triple lies in exactly
    one forced block.
    """
    require_sqs_order(g)
    v, w1, w2 = g.order, g.omega1_size, g.omega2_size
    numerator = 3 * v * v * w1 - v * (2 * w1 * w1 + 3 * w2 - 2)
    count, remainder = divmod(numerator, 6)
    if remainder:
        raise InternalInconsistencyError(f"special-triple formula is not integral for {g}")
    return count


def count_special_triples(g: Group) -> int:
    """Number of triples with orbit in T1 or T2, counted orbit by orbit.

    Every triple orbit has a member {0, a, b}, so canonicalizing those over
    the pairs of nonzero elements finds each special orbit; their sizes sum
    to the count in O(v^2) canonicalizations instead of one per triple.
    """
    zero = g.zero
    reps = {orbits.canonicalize(g, (zero, a, b)) for a, b in combinations(g.elements()[1:], 2)}
    special = (orbits.TRIPLE_T1, orbits.TRIPLE_T2)
    return sum(orbits.orbit_size(g, rep) for rep in reps if orbits.classify_triple(g, rep) in special)


@dataclass(frozen=True)
class Design:
    """An assembled block set with per-block provenance.

    ``provenance[i]`` is ``"B0"`` or ``"factor:<edge-index>"`` where the edge
    index refers to the Koehler graph's deterministic edge ordering.  Blocks
    are sorted lexicographically.
    """

    group: Group
    h0: Element
    blocks: tuple[Block, ...]
    provenance: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.provenance):
            raise InvalidInputError("provenance must align with blocks")

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def to_json_dict(self) -> dict:
        return {
            "group": list(self.group.factors),
            "h0": list(self.h0),
            "blocks": [[list(e) for e in block] for block in self.blocks],
            "provenance": list(self.provenance),
        }


def design_from_json_dict(payload: dict) -> Design:
    try:
        factors = [int(d) for d in payload["group"]]
        if factors != sorted(factors):
            # coordinates are relative to the factor order; refuse to reinterpret
            raise InvalidInputError(
                f"design group factors must be sorted ascending, got {factors}"
            )
        g = make_group(factors)
        h0 = tuple(int(c) for c in payload["h0"])
        blocks = tuple(
            tuple(tuple(int(c) for c in e) for e in block) for block in payload["blocks"]
        )
        provenance = tuple(str(p) for p in payload["provenance"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed design payload: {exc}") from exc
    _validate_h0(g, h0)
    for block in blocks:
        _validate_block(g, block)
    return Design(group=g, h0=h0, blocks=blocks, provenance=provenance)


def _validate_block(g: Group, block) -> Block:
    b = tuple(block)
    if len(b) != 4 or len(set(b)) != 4:
        raise InvalidInputError(f"blocks must have 4 distinct elements: {b!r}")
    for x in b:
        g.validate_element(x)
    return tuple(sorted(b))


def construct_design(g: Group, h0: Element | None = None, limit: int | None = None) -> Design:
    """Assemble a reversible SQS on ``g``: B0 plus one expanded edge per
    1-factor edge of the Koehler graph.

    Raises :class:`ConstructionFailure` when the graph has no 1-factor (which
    disproves existence only if the Sylow 2-subgroup is cyclic) and verifies
    the result before returning it.
    """
    require_sqs_order(g)
    g.check_capacity(limit)
    h0 = choose_h0(g) if h0 is None else _validate_h0(g, h0)

    tagged: dict[Block, str] = {}
    for block in build_B0(g, h0):
        tagged[block] = B0_TAG

    graph = kohler.build_graph(g, limit)
    try:
        factor = matching.one_factor(graph.adjacency)
    except matching.NoPerfectMatching as exc:
        raise ConstructionFailure(g, exc.component, graph) from exc
    for edge_idx in factor.matched_edges:
        expansion = orbits.expand_orbit(g, graph.edges[edge_idx])
        tag = f"{FACTOR_TAG_PREFIX}{edge_idx}"
        for block in expansion:
            if block in tagged:
                raise InternalInconsistencyError(
                    f"block {block!r} produced twice ({tagged[block]} and {tag})"
                )
            tagged[block] = tag

    ordered = tuple(sorted(tagged))
    design = Design(
        group=g,
        h0=h0,
        blocks=ordered,
        provenance=tuple(tagged[b] for b in ordered),
    )
    report = verify_design(g, design.blocks)
    if not (report.is_sqs and report.is_reversible):
        raise InternalInconsistencyError(f"constructed design for {g} failed verification")
    return design


# -- verification ----------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the design axioms; None means the aspect was not checked."""

    is_sqs: bool | None = None
    is_reversible: bool | None = None
    triple_coverage_violations: tuple[tuple[Subset, int], ...] = ()
    asymmetric_blocks: tuple[Block, ...] = ()
    invariance_violations: tuple[tuple[Block, str], ...] = ()

    def merged_with(self, other: VerificationReport) -> VerificationReport:
        return VerificationReport(
            is_sqs=self.is_sqs if self.is_sqs is not None else other.is_sqs,
            is_reversible=(
                self.is_reversible if self.is_reversible is not None else other.is_reversible
            ),
            triple_coverage_violations=(
                self.triple_coverage_violations or other.triple_coverage_violations
            ),
            asymmetric_blocks=self.asymmetric_blocks or other.asymmetric_blocks,
            invariance_violations=self.invariance_violations or other.invariance_violations,
        )

    def to_json_dict(self) -> dict:
        return {
            "is_sqs": self.is_sqs,
            "is_reversible": self.is_reversible,
            "triple_coverage_violations": [
                {"triple": [list(e) for e in t], "count": c}
                for t, c in self.triple_coverage_violations
            ],
            "asymmetric_blocks": [[list(e) for e in b] for b in self.asymmetric_blocks],
            "invariance_violations": [
                {"block": [list(e) for e in b], "action": action}
                for b, action in self.invariance_violations
            ],
        }


def verify_sqs(g: Group, blocks) -> VerificationReport:
    """Exact triple-coverage check: every 3-subset in exactly one block.

    Over- and under-covered triples are reported with their counts (0 for
    missing triples).
    """
    block_list = [_validate_block(g, b) for b in blocks]
    counts: dict[Subset, int] = {}
    for block in block_list:
        for triple in combinations(block, 3):
            counts[triple] = counts.get(triple, 0) + 1
    violations = [(t, c) for t, c in counts.items() if c != 1]
    total = comb(g.order, 3)
    if len(counts) < total:
        covered = counts.keys()
        violations.extend(
            (t, 0) for t in combinations(g.elements(), 3) if t not in covered
        )
    violations.sort()
    return VerificationReport(
        is_sqs=not violations,
        triple_coverage_violations=tuple(violations),
    )


def verify_reversible(g: Group, blocks) -> VerificationReport:
    """Check that every block is symmetric and the block set is invariant
    under the coordinate generators and negation (hence under the whole
    translation/negation group)."""
    block_list = [_validate_block(g, b) for b in blocks]
    block_set = set(block_list)
    asymmetric = tuple(
        b for b in sorted(block_set) if not orbits.is_symmetric_block(g, b)
    )
    generators = []
    for i, d in enumerate(g.factors):
        gen = [0] * len(g.factors)
        gen[i] = 1
        generators.append((f"translate+{tuple(gen)}", tuple(gen)))
    violations = []
    for block in sorted(block_set):
        for label, gen in generators:
            image = tuple(sorted(g.add(x, gen) for x in block))
            if image not in block_set:
                violations.append((block, label))
        image = tuple(sorted(g.neg(x) for x in block))
        if image not in block_set:
            violations.append((block, "negate"))
    return VerificationReport(
        is_reversible=not asymmetric and not violations,
        asymmetric_blocks=asymmetric,
        invariance_violations=tuple(violations),
    )


def verify_design(g: Group, blocks) -> VerificationReport:
    """Full verification: coverage plus reversibility."""
    return verify_sqs(g, blocks).merged_with(verify_reversible(g, blocks))


# -- existence -------------------------------------------------------------


@dataclass(frozen=True)
class ExistenceVerdict:
    """Yes always carries a verified design; No carries the reason, and for
    matching-based refusals the witness component."""

    verdict: str  # "yes" | "no" | "unknown"
    reason: dict
    design: Design | None = None
    witness_component: tuple[str, ...] = ()
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        payload: dict = {
            "verdict": self.verdict,
            "reason": self.reason,
            "diagnostics": self.diagnostics,
        }
        payload["witness"] = self.design.to_json_dict() if self.design else None
        if self.witness_component:
            payload["witness_component"] = list(self.witness_component)
        return payload


def condition_iv_diagnostics(g: Group, limit: int | None = None) -> dict:
    """Residue conditions and per-prime cyclic checks behind the
    existence criterion for cyclic Sylow 2-subgroups.

    For each odd prime p dividing v the Koehler graph of the cyclic group of
    order 2p is matched directly; primes whose graph exceeds the capacity
    limit are reported as unevaluated rather than guessed.
    """
    v = g.order
    diagnostics = {
        "v": v,
        "v_mod_2": v % 2,
        "v_mod_3": v % 3,
        "v_mod_8": v % 8,
        "residues_ok": v % 2 == 0 and v % 3 != 0 and v % 8 != 0,
        "prime_checks": [],
        "unevaluated_primes": [],
    }
    cap = max_order_limit() if limit is None else limit
    for p in _odd_prime_divisors(v):
        if 2 * p > cap:
            diagnostics["unevaluated_primes"].append(p)
            continue
        cyclic = make_group([2 * p])
        graph = kohler.build_graph(cyclic, limit)
        try:
            matching.one_factor(graph.adjacency)
            has_factor = True
        except matching.NoPerfectMatching:
            has_factor = False
        diagnostics["prime_checks"].append(
            {"p": p, "order": 2 * p, "has_one_factor": has_factor}
        )
    return diagnostics


def _odd_prime_divisors(v: int) -> list[int]:
    out = []
    n = v
    p = 3
    while n % 2 == 0:
        n //= 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 2
    if n > 1:
        out.append(n)
    return out


def existence_check(g: Group, limit: int | None = None) -> ExistenceVerdict:
    """Decide whether a reversible SQS exists on ``g``.

    * order not 2 or 4 mod 6: no SQS at all, verdict "no";
    * cyclic Sylow 2-subgroup: the 1-factor is necessary and sufficient, so
      the matching outcome is decisive either way;
    * otherwise: a found design proves "yes", a failed matching only yields
      "unknown" (designs avoiding B0 can exist).
    """
    v = g.order
    if not sqs_order_ok(v):
        reason = {
            "rule": "order-residue",
            "detail": f"no SQS({v}) exists for any block set: v mod 6 = {v % 6},"
            " but 2 or 4 is required",
        }
        if v % 2 == 1:
            reason["detail"] += " (v is odd)"
        return ExistenceVerdict(verdict="no", reason=reason)

    sylow_cyclic = g.is_sylow2_cyclic
    diagnostics = condition_iv_diagnostics(g, limit) if sylow_cyclic else {}
    try:
        design = construct_design(g, limit=limit)
    except ConstructionFailure as exc:
        witness = tuple(str(vtx) for vtx in exc.component)
        if sylow_cyclic:
            return ExistenceVerdict(
                verdict="no",
                reason={
                    "rule": "no-1-factor-cyclic-sylow2",
                    "detail": "a 1-factor of the Koehler graph is necessary when the"
                    " Sylow 2-subgroup is cyclic, and none exists",
                },
                witness_component=witness,
                diagnostics=diagnostics,
            )
        return ExistenceVerdict(
            verdict="unknown",
            reason={
                "rule": "no-1-factor-noncyclic-sylow2",
                "detail": "the Koehler graph has no 1-factor, but that is only an"
                " obstruction to designs containing all of B0",
            },
            witness_component=witness,
        )
    return ExistenceVerdict(
        verdict="yes",
        reason={
            "rule": "constructed",
            "detail": f"verified reversible SQS({v}) with {design.block_count} blocks",
        },
        design=design,
        diagnostics=diagnostics,
    )
