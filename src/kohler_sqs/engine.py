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

import json
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, filterfalse, islice
from math import comb

from . import kohler, matching, orbits
from .errors import (
    InternalInconsistencyError,
    InvalidInputError,
    InvalidOrderError,
    NoInvolutionError,
)
from .groups import Element, Group, make_group, max_order_limit
from .orbits import Codes, Subset

Block = Subset

B0_TAG = "B0"
FACTOR_TAG_PREFIX = "factor:"


class ConstructionFailure(Exception):
    """The Koehler graph has no 1-factor; carries the witness component."""

    def __init__(self, group: Group, component_indices: tuple[int, ...], graph: kohler.KohlerGraph):
        self.component = kohler._reps(group, (graph.vertex_codes[i] for i in component_indices))
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


def build_B0(g: Group, h0: Element) -> frozenset[Block]:
    """The forced block set B0 (union of the expanded Q1, Q2, Q3 orbits)."""
    elements = g.elements()
    return frozenset(
        orbits._decoded(elements, block) for base in _b0_bases(g, h0) for block in orbits._expand(g, base)
    )


def count_B0(g: Group, h0: Element) -> int:
    """|B0| counted orbit by orbit: the forced orbits are distinct, so their
    sizes sum to the number of blocks, without expanding any of them."""
    return sum(orbits._orbit_size(g, base) for base in _b0_bases(g, h0))


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
    return 4 * count_B0_formula(g)


def count_special_triples(g: Group) -> int:
    """Number of triples with orbit in T1 or T2, counted through 0.

    The family of a triple is constant on its orbit, and each triple has
    exactly three translates through 0, one per point; so the v translates
    of the special triples {0, a, b}, 0 < a < b, cover every special triple
    three times, in O(v^2) classifications instead of one per triple.
    """
    v = g.order
    neg, double = g.neg_table, g.double_table
    special = (orbits.TRIPLE_T1, orbits.TRIPLE_T2)
    through_zero = sum(
        orbits._classify_triple(neg, double, a, b) in special for a in range(1, v) for b in range(a + 1, v)
    )
    count, remainder = divmod(v * through_zero, 3)
    if remainder:
        raise InternalInconsistencyError(f"special-triple count is not integral for {g}")
    return count


#: blocks (and provenance tags) per write when a design is written as JSON
JSON_CHUNK = 4096


def _dumps(value) -> str:
    """Compact JSON, as every document the package writes is."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Design:
    """An assembled block set with per-block provenance.

    ``codes[i]`` is block i as a sorted 4-tuple of element codes, checked
    when the design is made; ``provenance[i]`` is ``"B0"`` or
    ``"factor:<edge-index>"``, an index into the Koehler graph's edges.  A
    constructed design lists its blocks in lexicographic order, and
    :attr:`blocks` decodes them to coordinate tuples on first read.
    """

    group: Group
    h0: Element
    codes: tuple[Codes, ...]
    provenance: tuple[str, ...]

    def __post_init__(self) -> None:
        v = self.group.order
        for block in self.codes:
            if type(block) is tuple and len(block) == 4:
                p, q, r, s = block
                if type(p) is type(q) is type(r) is type(s) is int and 0 <= p < q < r < s < v:
                    continue
            raise InvalidInputError(f"blocks must be 4 increasing element codes below {v}: {block!r}")
        if len(self.codes) != len(self.provenance):
            raise InvalidInputError("provenance must align with blocks")

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        elements = self.group.elements()
        return tuple(orbits._decoded(elements, block) for block in self.codes)

    @property
    def block_count(self) -> int:
        return len(self.codes)

    def verify(self) -> VerificationReport:
        """Triple coverage and reversibility of the blocks, as
        :func:`verify_design` reports them."""
        return _design_report(self.group, self.codes)

    def write_json(self, fh) -> None:
        """Write the design to ``fh`` as one compact JSON object with sorted
        keys ``blocks``, ``group``, ``h0`` and ``provenance``, each block a
        list of coordinate lists, without a trailing newline.

        The bytes are those of ``json.dumps(..., sort_keys=True,
        separators=(",", ":"))`` on that object, but no block is built as a
        list: each element is rendered once, and blocks and provenance go to
        ``fh`` in chunks of :data:`JSON_CHUNK` entries."""
        el = [_dumps(x) for x in self.group.elements()]
        codes, provenance = self.codes, self.provenance
        fh.write('{"blocks":[')
        for start in range(0, len(codes), JSON_CHUNK):
            chunk = codes[start : start + JSON_CHUNK]
            fh.write(("," if start else "") + ",".join([f"[{el[p]},{el[q]},{el[r]},{el[s]}]" for p, q, r, s in chunk]))
        fh.write(f'],"group":{_dumps(self.group.factors)},"h0":{_dumps(self.h0)},"provenance":[')
        for start in range(0, len(provenance), JSON_CHUNK):
            fh.write(("," if start else "") + _dumps(provenance[start : start + JSON_CHUNK])[1:-1])
        fh.write("]}")


def design_from_json_dict(payload: dict) -> Design:
    # no value is coerced: a factor or coordinate that is not a JSON integer
    # (a float, a string, a bool) is no element and is rejected
    try:
        factors = list(payload["group"])
        if factors != sorted(factors):
            # coordinates are relative to the factor order; refuse to reinterpret
            raise InvalidInputError(
                f"design group factors must be sorted ascending, got {factors}"
            )
        g = make_group(factors)
        h0 = _validate_h0(g, tuple(payload["h0"]))
        blocks = (map(tuple, block) for block in payload["blocks"])
        codes = _encode_blocks(g, blocks)
        provenance = tuple(str(p) for p in payload["provenance"])
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed design payload: {exc}") from exc
    return Design(group=g, h0=h0, codes=codes, provenance=provenance)


#: blocks per bulk pass when blocks are validated and encoded
ENCODE_CHUNK = 256


def _encode_blocks(g: Group, blocks) -> tuple[Codes, ...]:
    """Validate each block and return it as a sorted 4-tuple of codes.

    ``blocks`` is read in chunks of :data:`ENCODE_CHUNK` blocks, each block
    as a tuple, and a bulk pass encodes each chunk at once.  A chunk that
    fails one of its checks goes through the per-block loop instead, whose
    error names the chunk's first bad block: every earlier chunk passed, so
    that is the first bad block of the input.  Only one chunk's tuples are
    held at a time."""
    out: list[Codes] = []
    blocks = iter(blocks)
    while True:
        chunk: list[tuple] = []
        try:
            for block in islice(blocks, ENCODE_CHUNK):
                chunk.append(tuple(block))
        except TypeError:
            # a block or point that is not iterable: a bad block before it comes first
            _encode_each(g, chunk)
            raise
        if not chunk:
            return tuple(out)
        codes = _encode_bulk(g, chunk)
        out += _encode_each(g, chunk) if codes is None else codes


def _encode_bulk(g: Group, blocks: list[tuple]) -> list[Codes] | None:
    """The codes of ``blocks``, or None when some block is not four distinct
    elements.  Each check runs over all blocks at once: four points per
    block, each a tuple whose coordinates are exactly ``int`` (so neither
    ``1.0`` nor ``True`` can match an element), then one index lookup per
    point, and a sort only for a block whose codes are out of order."""
    points = list(chain.from_iterable(blocks))
    if (
        set(map(len, blocks)) - {4}
        or set(map(type, points)) - {tuple}
        or set(map(type, chain.from_iterable(points))) - {int}
    ):
        return None
    codes = list(map(g._index.get, points))
    if None in codes:  # a point of the wrong length or out of range
        return None
    out = []
    quads = iter(codes)
    for block in zip(quads, quads, quads, quads):
        if not block[0] < block[1] < block[2] < block[3]:
            block = tuple(sorted(block))
            if not block[0] < block[1] < block[2] < block[3]:
                return None
        out.append(block)
    return out


def _encode_each(g: Group, blocks: list[tuple]) -> list[Codes]:
    """:func:`_encode_blocks` one block at a time, raising InvalidInputError
    for the first block that is not four distinct elements."""
    out = []
    encode = g.encode
    for b in blocks:
        if len(b) != 4:
            raise InvalidInputError(f"blocks must have 4 distinct elements: {b!r}")
        p, q, r, s = sorted(map(encode, b))
        if not p < q < r < s:
            raise InvalidInputError(f"blocks must have 4 distinct elements: {b!r}")
        out.append((p, q, r, s))
    return out


def construct_design(g: Group, h0: Element | None = None) -> Design:
    """Assemble a reversible SQS on ``g``: B0 plus one expanded edge per
    1-factor edge of the Koehler graph.

    Raises :class:`ConstructionFailure` when the graph has no 1-factor (which
    disproves existence only if the Sylow 2-subgroup is cyclic) and verifies
    the result before returning it.
    """
    require_sqs_order(g)
    graph = kohler.build_graph(g)  # checks the capacity before h0 is looked for
    h0 = choose_h0(g) if h0 is None else _validate_h0(g, h0)
    return _assemble(g, h0, graph, _one_factor(g, graph))


def _one_factor(g: Group, graph: kohler.KohlerGraph) -> matching.Matching:
    try:
        return matching.one_factor(graph.adjacency)
    except matching.NoPerfectMatching as exc:
        raise ConstructionFailure(g, exc.component, graph) from exc


def _assemble(
    g: Group, h0: Element, graph: kohler.KohlerGraph, factor: matching.Matching
) -> Design:
    """B0 plus the expansions of the 1-factor's edge orbits, verified orbit
    by orbit before any block is made.

    B0 is built only here, once a 1-factor exists, so a failed matching
    wastes no B0 work.  Distinct orbits share no block, so the expansions
    are concatenated, and the sorted blocks must increase strictly and
    number C(v, 3)/4, as the blocks of every SQS(v) do: that ties them to
    the verified orbits."""
    tagged = _design_bases(g, h0, graph, factor)
    if not _orbits_form_sqs(g, [base for base, _ in tagged]):
        raise InternalInconsistencyError(f"the orbits assembled for {g} do not form a reversible SQS")
    blocks: list[Codes] = []
    tags: list[str] = []
    for base, tag in tagged:
        members = orbits._expand(g, base, symmetric=True)
        blocks += members
        tags += [tag] * len(members)
    order = sorted(range(len(blocks)), key=blocks.__getitem__)
    codes = tuple(map(blocks.__getitem__, order))
    if len(codes) != comb(g.order, 3) // 4 or not all(map(operator.lt, codes, islice(codes, 1, None))):
        raise InternalInconsistencyError(f"the orbits assembled for {g} expand to other blocks than verified")
    return Design(group=g, h0=h0, codes=codes, provenance=tuple(map(tags.__getitem__, order)))


def _design_bases(
    g: Group, h0: Element, graph: kohler.KohlerGraph, factor: matching.Matching
) -> list[tuple[Codes, str]]:
    """The canonical base of each orbit of the design, with the provenance
    of its blocks: B0's forced orbits, then one edge orbit per 1-factor edge."""
    tagged = [(base, B0_TAG) for base in _b0_bases(g, h0)]
    tagged += [(graph.edge_codes[i], f"{FACTOR_TAG_PREFIX}{i}") for i in factor.matched_edges]
    return tagged


# -- verification ----------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the design axioms, with the violations behind each verdict."""

    is_sqs: bool
    is_reversible: bool
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


def verify_design(g: Group, blocks) -> VerificationReport:
    """Full verification: coverage plus reversibility."""
    return _design_report(g, _encode_blocks(g, blocks))


def _design_report(g: Group, codes: tuple[Codes, ...]) -> VerificationReport:
    # a group over the limit is refused before any Θ(v³) triple work
    g.check_capacity()
    coverage = _coverage_violations(g, codes)
    asymmetric, violations = _reversibility_violations(g, codes)
    return VerificationReport(
        is_sqs=not coverage,
        is_reversible=not asymmetric and not violations,
        triple_coverage_violations=coverage,
        asymmetric_blocks=asymmetric,
        invariance_violations=violations,
    )


def _orbits_form_sqs(g: Group, bases: list[Codes]) -> bool:
    """Are the orbits of ``bases`` the blocks of a reversible SQS on ``g``?

    Every base must be symmetric.  The union of the orbits is invariant, and
    its blocks are symmetric, by construction.  Translating by -x maps the
    blocks on a triple {x, y, z} onto those on {0, y-x, z-x}, so every
    triple lies in exactly one block when every triple through 0 does.  The
    blocks through 0 are the distinct through-0 members of the orbits, each
    {0, p, q, r} covering the pairs {p, q}, {p, r} and {q, r}: the orbits
    form an SQS exactly when those pairs number C(v-1, 2) and none repeats.
    A base listed twice, or two bases of one orbit, repeat every pair."""
    if orbits._asymmetric(g, bases):
        return False
    v = g.order
    pairs: list[int] = []
    for base in bases:
        for _, p, q, r in set(orbits._through_zero_candidates(g, base)):
            pairs += (p * v + q, p * v + r, q * v + r)
    return len(pairs) == comb(v - 1, 2) and len(set(pairs)) == len(pairs)


def _coverage_violations(g: Group, codes: tuple[Codes, ...]) -> tuple[tuple[Subset, int], ...]:
    """Triples covered other than once, with their counts, in lex order.

    A triple x < y < z of codes is packed as ``(x*v + y)*v + z``, which keeps
    lexicographic order.  The set of packed triples answers a valid design
    and, when no triple repeats, lists the missing ones; only a repeated
    triple needs the counts, and the set is freed before they are made, so
    that the two are never held together."""
    v = g.order
    packed = []
    for p, q, r, s in codes:
        pq, pr = (p * v + q) * v, (p * v + r) * v
        packed += (pq + r, pq + s, pr + s, (q * v + r) * v + s)
    total = comb(v, 3)
    covered: set[int] | Counter[int] = set(packed)
    if len(covered) == len(packed):
        if len(packed) == total:
            return ()
        violations = []
    else:
        del covered
        covered = Counter(packed)
        violations = [(t, c) for t, c in covered.items() if c != 1]
    del packed
    if len(covered) < total:
        violations += ((t, 0) for t in filterfalse(covered.__contains__, _packed_triples(v)))
    violations.sort()
    elements = g.elements()
    return tuple(
        ((elements[t // (v * v)], elements[t // v % v], elements[t % v]), c) for t, c in violations
    )


def _packed_triples(v: int):
    """Every packed triple x < y < z < v, in increasing order: one range of z
    per pair x < y."""
    return chain.from_iterable(
        range((x * v + y) * v + y + 1, (x * v + y + 1) * v) for x in range(v) for y in range(x + 1, v)
    )


def _reversibility_violations(
    g: Group, codes: tuple[Codes, ...]
) -> tuple[tuple[Block, ...], tuple[tuple[Block, str], ...]]:
    """Asymmetric blocks, and blocks whose image under a coordinate
    generator or negation is missing, both in lex order of the distinct
    blocks.

    A block is looked up by its bitmask ``bit[p] | bit[q] | bit[r] | bit[s]``
    with ``bit[x] = 1 << x``: four distinct codes give one mask in any order,
    so an image needs no sort.  One pass per map collects the blocks whose
    image is missing.  Once every image is present the set is invariant under
    all translations and negation, both of which preserve symmetry, and every
    block has a translate through code 0; so the blocks through 0 are all
    symmetric exactly when every block is, and only they are tested.
    Otherwise every block is tested, to list the asymmetric ones."""
    bit = [1 << x for x in range(g.order)]
    present = {bit[p] | bit[q] | bit[r] | bit[s] for p, q, r, s in codes}
    images = []
    for i in range(len(g.factors)):
        gen = [0] * len(g.factors)
        gen[i] = 1
        row = g.translation(g.encode(tuple(gen)))
        images.append((f"translate+{tuple(gen)}", [bit[y] for y in row]))
    images.append(("negate", [bit[y] for y in g.neg_table]))
    missing = [
        (label, {(p, q, r, s) for p, q, r, s in codes if image[p] | image[q] | image[r] | image[s] not in present})
        for label, image in images
    ]
    violators = set().union(*(blocks for _, blocks in missing))
    if not violators and not orbits._asymmetric(g, [b for b in codes if b[0] == 0]):
        return (), ()
    elements = g.elements()
    asymmetric = tuple(orbits._decoded(elements, b) for b in sorted(set(orbits._asymmetric(g, codes))))
    violations = tuple(
        (orbits._decoded(elements, b), label) for b in sorted(violators) for label, blocks in missing if b in blocks
    )
    return asymmetric, violations


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
        """The verdict as a JSON object, except that ``witness`` is the
        :class:`Design` itself (or None), which :meth:`Design.write_json`
        writes without building its blocks as lists."""
        payload: dict = {
            "verdict": self.verdict,
            "reason": self.reason,
            "diagnostics": self.diagnostics,
            "witness": self.design,
        }
        if self.witness_component:
            payload["witness_component"] = list(self.witness_component)
        return payload


def condition_iv_diagnostics(g: Group) -> dict:
    """Residue conditions and per-prime cyclic checks behind the
    existence criterion for cyclic Sylow 2-subgroups.

    For each odd prime p dividing v the Koehler graph of the cyclic group of
    order 2p is matched directly; primes whose graph exceeds the capacity
    limit are reported as unevaluated rather than guessed.
    """
    return _condition_iv(g, None)


def _condition_iv(g: Group, own_one_factor: bool | None) -> dict:
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
    for p in _odd_prime_divisors(v):
        if 2 * p > max_order_limit():
            diagnostics["unevaluated_primes"].append(p)
            continue
        if 2 * p == v and own_one_factor is not None:
            has_factor = own_one_factor
        else:
            graph = kohler.build_graph(make_group([2 * p]))
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


def existence_check(g: Group) -> ExistenceVerdict:
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
    graph = kohler.build_graph(g)
    try:
        factor = _one_factor(g, graph)
    except ConstructionFailure as exc:
        factor, failure = None, exc
    diagnostics = _condition_iv(g, factor is not None) if sylow_cyclic else {}
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
