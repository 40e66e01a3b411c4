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

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
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
from .orbits import Codes, OrbitRep, Subset

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


def _b0_bases(g: Group, h0: Element) -> dict[Codes, str]:
    """Canonical bases of the forced orbits as codes, tagged Q1/Q2/Q3."""
    require_sqs_order(g)
    _validate_h0(g, h0)
    h0_code = g.encode(h0)
    neg, double = g.neg_table, g.double_table
    involutions = [h for h in range(1, g.order) if double[h] == 0]
    outside = [a for a in range(g.order) if double[a] != 0]
    bases: dict[Codes, str] = {}
    for a in outside:
        bases.setdefault(orbits._canonical(g, (0, a, neg[a], h0_code)), orbits.QUAD_Q1)
    # Q2 and Q3 blocks have the shape {0, a, b, a+b}, with b - a = h - a and
    # b - a = h' + h (an involution is its own negative)
    for h in involutions:
        if h == h0_code:
            continue
        plus = g.translation(h)
        for a in outside:
            if double[a] != h:
                base = orbits._canonical_edge(neg, a, h, plus[a], plus[neg[a]])
                bases.setdefault(base, orbits.QUAD_Q2)
    for h, hp in combinations(involutions, 2):
        s = g.add_codes(h, hp)
        bases.setdefault(orbits._canonical_edge(neg, h, hp, s, s), orbits.QUAD_Q3)
    return bases


def b0_orbit_reps(g: Group, h0: Element) -> dict[OrbitRep, str]:
    """Canonical representatives of the forced orbits, tagged Q1/Q2/Q3."""
    bases = _b0_bases(g, h0)
    elements = g.elements()
    return {OrbitRep(g, orbits._decoded(elements, base)): tag for base, tag in bases.items()}


def build_B0(g: Group, h0: Element) -> frozenset[Block]:
    """The forced block set B0 (union of the expanded Q1, Q2, Q3 orbits)."""
    blocks: set[Codes] = set()
    for base in _b0_bases(g, h0):
        blocks.update(orbits._expand(g, base))
    elements = g.elements()
    return frozenset(orbits._decoded(elements, block) for block in blocks)


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
    to the count in O(v^2) canonicalizations instead of one per triple.  An
    orbit with n0 members through 0 has v * n0 / 3 members.
    """
    v = g.order
    neg, double = g.neg_table, g.double_table
    through_zero: dict[Codes, int] = {}
    for a in range(1, v):
        minus = g.translation(neg[a])
        for b in range(a + 1, v):
            candidates = orbits._triple_candidates(neg, a, b, minus[b])
            base = (0, *min(candidates))
            if base not in through_zero:
                through_zero[base] = len(set(candidates))
    special = (orbits.TRIPLE_T1, orbits.TRIPLE_T2)
    total = 0
    for (_, a, b), n0 in through_zero.items():
        if orbits._classify_triple(neg, double, a, b) in special:
            size, remainder = divmod(v * n0, 3)
            if remainder:
                raise InternalInconsistencyError(f"orbit size identity failed for {(0, a, b)!r} in {g}")
            total += size
    return total


@dataclass(frozen=True)
class Design:
    """An assembled block set with per-block provenance.

    ``provenance[i]`` is ``"B0"`` or ``"factor:<edge-index>"`` where the edge
    index refers to the Koehler graph's deterministic edge ordering.  Blocks
    are sorted lexicographically.  Every block is validated when the design
    is made, which also encodes it once for :meth:`verify`.
    """

    group: Group
    h0: Element
    blocks: tuple[Block, ...]
    provenance: tuple[str, ...]

    def __post_init__(self) -> None:
        _ = self._codes  # validate every block now, not on first use
        if len(self.blocks) != len(self.provenance):
            raise InvalidInputError("provenance must align with blocks")

    @cached_property
    def _codes(self) -> list[Codes]:
        return _encode_blocks(self.group, self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def verify(self) -> VerificationReport:
        """Triple coverage and reversibility of the blocks, as
        :func:`verify_design` reports them."""
        return _design_report(self.group, self._codes)

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
        intern = g.intern
        blocks = tuple(
            tuple(intern(tuple(map(int, e))) for e in block) for block in payload["blocks"]
        )
        provenance = tuple(str(p) for p in payload["provenance"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"malformed design payload: {exc}") from exc
    _validate_h0(g, h0)
    return Design(group=g, h0=h0, blocks=blocks, provenance=provenance)


def _encode_blocks(g: Group, blocks) -> list[Codes]:
    """Validate each block and return it as a sorted 4-tuple of codes."""
    out = []
    encode = g.encode
    for block in blocks:
        b = tuple(block)
        if len(b) != 4:
            raise InvalidInputError(f"blocks must have 4 distinct elements: {b!r}")
        p, q, r, s = sorted(map(encode, b))
        if not p < q < r < s:
            raise InvalidInputError(f"blocks must have 4 distinct elements: {b!r}")
        out.append((p, q, r, s))
    return out


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
    graph = kohler.build_graph(g, limit)
    return _assemble(g, h0, graph, _one_factor(g, graph))


def _one_factor(g: Group, graph: kohler.KohlerGraph) -> matching.Matching:
    try:
        return matching.one_factor(graph.adjacency)
    except matching.NoPerfectMatching as exc:
        raise ConstructionFailure(g, exc.component, graph) from exc


def _assemble(
    g: Group, h0: Element, graph: kohler.KohlerGraph, factor: matching.Matching
) -> Design:
    """B0 plus the expansions of the 1-factor's edge orbits, verified.

    B0 is built only here, once a 1-factor exists, so a failed matching
    wastes no B0 work."""
    encode, elements = g.encode, g.elements()
    # B0 comes from the public build_B0, one stage a tracer can wrap, so its
    # tuple blocks are encoded back here
    tagged: dict[Codes, str] = {tuple(map(encode, block)): B0_TAG for block in build_B0(g, h0)}
    for edge_idx in factor.matched_edges:
        base = tuple(map(encode, graph.edges[edge_idx].base))
        tag = f"{FACTOR_TAG_PREFIX}{edge_idx}"
        for block in orbits._expand(g, base):
            if block in tagged:
                raise InternalInconsistencyError(
                    f"block {orbits._decoded(elements, block)!r} produced twice ({tagged[block]} and {tag})"
                )
            tagged[block] = tag

    ordered = sorted(tagged)
    design = Design(
        group=g,
        h0=h0,
        blocks=tuple(orbits._decoded(elements, block) for block in ordered),
        provenance=tuple(tagged[b] for b in ordered),
    )
    report = design.verify()
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
    violations = _coverage_violations(g, _encode_blocks(g, blocks))
    return VerificationReport(is_sqs=not violations, triple_coverage_violations=violations)


def verify_reversible(g: Group, blocks) -> VerificationReport:
    """Check that every block is symmetric and the block set is invariant
    under the coordinate generators and negation (hence under the whole
    translation/negation group)."""
    asymmetric, violations = _reversibility_violations(g, _encode_blocks(g, blocks))
    return VerificationReport(
        is_reversible=not asymmetric and not violations,
        asymmetric_blocks=asymmetric,
        invariance_violations=violations,
    )


def verify_design(g: Group, blocks) -> VerificationReport:
    """Full verification: coverage plus reversibility."""
    return _design_report(g, _encode_blocks(g, blocks))


def _design_report(g: Group, codes: list[Codes]) -> VerificationReport:
    coverage = _coverage_violations(g, codes)
    asymmetric, violations = _reversibility_violations(g, codes)
    return VerificationReport(
        is_sqs=not coverage,
        is_reversible=not asymmetric and not violations,
        triple_coverage_violations=coverage,
        asymmetric_blocks=asymmetric,
        invariance_violations=violations,
    )


def _coverage_violations(g: Group, codes: list[Codes]) -> tuple[tuple[Subset, int], ...]:
    """Triples covered other than once, with their counts, in lex order.

    A triple x < y < z of codes is packed as ``(x*v + y)*v + z``, which keeps
    lexicographic order."""
    v = g.order
    packed = []
    for p, q, r, s in codes:
        pq, pr = (p * v + q) * v, (p * v + r) * v
        packed += (pq + r, pq + s, pr + s, (q * v + r) * v + s)
    total = comb(v, 3)
    if len(packed) == total and len(set(packed)) == total:
        return ()
    counts = Counter(packed)
    violations = [(t, c) for t, c in counts.items() if c != 1]
    if len(counts) < total:
        violations.extend((t, 0) for t in _packed_triples(v) if t not in counts)
    violations.sort()
    elements = g.elements()
    return tuple(
        ((elements[t // (v * v)], elements[t // v % v], elements[t % v]), c) for t, c in violations
    )


def _packed_triples(v: int):
    """Every packed triple x < y < z < v, in increasing order."""
    for x in range(v):
        for y in range(x + 1, v):
            start = (x * v + y) * v
            yield from range(start + y + 1, start + v)


def _reversibility_violations(
    g: Group, codes: list[Codes]
) -> tuple[tuple[Block, ...], tuple[tuple[Block, str], ...]]:
    """Asymmetric blocks, and blocks whose image under a coordinate
    generator or negation is missing, both in lex order of the distinct
    blocks."""
    block_set = set(codes)
    ordered = sorted(block_set)
    add, neg, double, elements = g.add_codes, g.neg_table, g.double_table, g.elements()
    asymmetric = tuple(
        orbits._decoded(elements, b) for b in ordered if not orbits._is_symmetric(add, double, b)
    )
    generators = []
    for i in range(len(g.factors)):
        gen = [0] * len(g.factors)
        gen[i] = 1
        generators.append((f"translate+{tuple(gen)}", g.translation(g.encode(tuple(gen)))))
    violations = []
    for block in ordered:
        p, q, r, s = block
        for label, row in generators:
            if tuple(sorted((row[p], row[q], row[r], row[s]))) not in block_set:
                violations.append((orbits._decoded(elements, block), label))
        if tuple(sorted((neg[p], neg[q], neg[r], neg[s]))) not in block_set:
            violations.append((orbits._decoded(elements, block), "negate"))
    return asymmetric, tuple(violations)


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
    return _condition_iv(g, limit, None)


def _condition_iv(g: Group, limit: int | None, own_one_factor: bool | None) -> dict:
    """:func:`condition_iv_diagnostics`; ``own_one_factor`` is whether g's own
    Koehler graph has a 1-factor, when the caller has matched it already.
    Every abelian group of order 2p is cyclic, so for v = 2p that answers the
    check of p without building the graph again."""
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
        if 2 * p == v and own_one_factor is not None:
            has_factor = own_one_factor
        else:
            graph = kohler.build_graph(make_group([2 * p]), limit)
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
    graph = kohler.build_graph(g, limit)
    try:
        factor = _one_factor(g, graph)
    except ConstructionFailure as exc:
        factor, failure = None, exc
    diagnostics = _condition_iv(g, limit, factor is not None) if sylow_cyclic else {}
    if factor is None:
        witness = tuple(str(vtx) for vtx in failure.component)
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
    design = _assemble(g, choose_h0(g), graph, factor)
    return ExistenceVerdict(
        verdict="yes",
        reason={
            "rule": "constructed",
            "detail": f"verified reversible SQS({v}) with {design.block_count} blocks",
        },
        design=design,
        diagnostics=diagnostics,
    )
