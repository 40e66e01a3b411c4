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
(reversible systems that do not contain all of B0 exist, such as an SQS(20)
over Z2 x Z2 x Z5).
"""

from __future__ import annotations

import gc
import io
import json
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property
from itertools import chain, combinations, islice
from math import comb

from . import kohler, matching, orbits
from .errors import (
    InternalInconsistencyError,
    InvalidInputError,
    InvalidOrderError,
    KohlerSqsError,
    NoInvolutionError,
)
from .groups import Element, Group, Record, _order_text, make_group, max_order_limit
from .orbits import Codes, Subset

Block = Subset

B0_TAG = "B0"
FACTOR_TAG_PREFIX = "factor:"


class ConstructionFailure(Exception):
    """The Koehler graph has no 1-factor; carries the witness component."""

    def __init__(self, graph: kohler.KohlerGraph, component_indices: tuple[int, ...]):
        self.component = kohler._reps(graph.group, (graph.vertex_codes[i] for i in component_indices))
        if len(self.component) == 1:
            detail = f"isolated vertex {self.component[0]}"
        else:
            detail = f"unmatched component {[str(v) for v in self.component]}"
        super().__init__(f"Koehler graph of {graph.group} has no 1-factor; {detail}")


def sqs_order_ok(v: int) -> bool:
    """Quadruple systems exist only for v congruent to 2 or 4 mod 6."""
    return v % 6 in (2, 4)


def require_sqs_order(g: Group) -> None:
    if not sqs_order_ok(g.order):
        raise InvalidOrderError(
            f"no SQS({_order_text(g.order)}) exists: order must be 2 or 4 mod 6, got {g.order % 6}"
        )


def choose_h0(g: Group) -> Element:
    """The lexicographically least element of order 2.

    Unique when the Sylow 2-subgroup is cyclic; an explicit override is
    accepted everywhere h0 matters, since any involution yields a valid
    construction.  Code order is lex order, so this is the least code h > 0
    with 2h = 0.
    """
    if g.order % 2 == 1:
        raise NoInvolutionError(f"{g} has odd order {_order_text(g.order)}, no element of order 2")
    return g.decode(g.double_table.index(0, 1))


def _validate_h0(g: Group, h0: Element) -> Element:
    g.validate_element(h0)
    if h0 == g.zero or g.double(h0) != g.zero:
        raise InvalidInputError(f"h0 must have order 2, got {h0!r}")
    return h0


def _b0_bases(g: Group, h0: Element) -> list[Codes]:
    """One base of each forced orbit Q1, Q2 and Q3, as codes, each orbit met
    once: no canonical form, no set.

    For an involution h and a with 2a != 0, the members through 0 that
    contain h of the orbit of {0, a, -a, h0} (Q1, h = h0) or of {0, a, h,
    h+a} (Q2, h != h0, 2a != h) are those made by replacing a with -a, h+a
    or h-a, so the orbit is kept when a is the least of the four; h-a = a
    only when 2a = h, which Q1 alone allows.  A Q3 block {0, h, h', h+h'} is
    a subgroup, its orbit's only member through 0, kept when h' < h+h'.
    """
    require_sqs_order(g)
    neg, double = g.neg_table, g.double_table  # the capacity is checked before h0
    h0_code = g.encode(_validate_h0(g, h0))
    involutions = [h for h in range(1, g.order) if double[h] == 0]
    outside = [a for a in range(g.order) if double[a] != 0]
    bases: list[Codes] = []
    for h in involutions if outside else ():  # no row when nothing lies outside
        plus = g.translation(h)
        if h == h0_code:
            keep = [a for a in outside if a < neg[a] and a < plus[a] and a <= plus[neg[a]]]
            bases += [tuple(sorted((0, a, neg[a], h))) for a in keep]
        else:
            keep = [a for a in outside if double[a] != h and a < neg[a] and a < plus[a] and a < plus[neg[a]]]
            bases += [tuple(sorted((0, a, h, plus[a]))) for a in keep]
    for h, hp in combinations(involutions, 2):
        s = g.add_codes(h, hp)
        if hp < s:
            bases.append((0, h, hp, s))
    return bases


def build_B0(g: Group, h0: Element) -> frozenset[Block]:
    """The forced block set B0 (union of the expanded Q1, Q2, Q3 orbits)."""
    elements = g.elements()
    return frozenset(
        orbits._decoded(elements, block) for base in _b0_bases(g, h0) for block in orbits._expand(g, base)
    )


def count_B0(g: Group, h0: Element) -> int:
    """|B0| from its blocks through 0, the list :meth:`Design._from_orbits`
    checks (see :func:`_through_zero`), without expanding any orbit."""
    through_zero = _through_zero(g, [(base, B0_TAG) for base in _b0_bases(g, h0)])
    return orbits._family_size(g.order, len(through_zero), 4)


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
    """Closed form for the number of triples with orbit outside T.

    Equals v^2*w1/2 - v*(2*w1^2 + 3*w2 - 2)/6, which is 4 |B0|: each forced
    block covers four special triples and each special triple lies in exactly
    one forced block.
    """
    return 4 * count_B0_formula(g)


def count_special_triples(g: Group) -> int:
    """Number of triples with orbit outside T, counted through 0.

    Membership in T is constant on an orbit, and each triple has exactly
    three translates through 0, one per point; so the v translates of the
    special triples {0, a, b}, 0 < a < b, cover every special triple three
    times, in O(v^2) membership tests instead of one per triple.
    """
    v = g.order
    neg, double = g.neg_table, g.double_table
    through_zero = sum(not orbits._in_T(neg, double, a, b) for a in range(1, v) for b in range(a + 1, v))
    return orbits._family_size(v, through_zero, 3)


#: blocks (and provenance tags) per write when a design is written as JSON;
#: a constructed design's blocks are rendered for the chunk that writes them,
#: so each chunk holds its blocks, their tags and their text at once
JSON_CHUNK = 1024


def _dumps(value) -> str:
    """Compact JSON, as every document the package writes is."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class _Packed:
    """The one block store: the codes of the blocks, four per block, packed
    in one ``array("I")``.  Each iteration reads the codes afresh and yields
    each block as a 4-tuple, so the tuples of all the blocks never exist at
    once."""

    __slots__ = ("flat",)

    def __init__(self, flat: Iterable[int]) -> None:
        # imported here, as construct and exists build no store: loading the
        # extension would add to their peak memory
        from array import array

        try:
            self.flat = array("I", flat)
        except OverflowError:  # codes past the array's range keep the list given; an iterator would be spent
            self.flat = flat

    def __len__(self) -> int:
        return len(self.flat) // 4

    def __iter__(self) -> Iterator[Codes]:
        codes = iter(self.flat)
        return zip(codes, codes, codes, codes)


class Design(Record):
    """An assembled block set with per-block provenance.

    ``codes[i]`` is block i as a sorted 4-tuple of element codes, and
    ``provenance[i]`` is ``"B0"`` or ``"factor:<edge-index>"``, an index into
    the Koehler graph's edges.  The blocks are read from one store, a
    :class:`_Packed`.  A design made from codes checks ``h0``, then the
    codes, packing each block as it reads it, then the tags.  A constructed
    design holds only its blocks through 0, each with its base's tag, its
    orbits checked instead: its blocks are rendered from those in lexicographic order on
    demand, into the store once it is read, and ``provenance`` on first
    read.  ``codes`` renders the store as tuples, and :attr:`blocks` decodes
    it to coordinate tuples, on first read; :meth:`verify` reads it packed.
    """

    _fields = ("group", "h0", "codes", "provenance")

    def __init__(self, group: Group, h0: Element, codes: Iterable[Codes], provenance: Iterable[str]) -> None:
        _validate_h0(group, h0)
        v = group.order
        flat: list[int] = []
        for block in codes:
            if type(block) is tuple and len(block) == 4:
                p, q, r, s = block
                if type(p) is type(q) is type(r) is type(s) is int and 0 <= p < q < r < s < v:
                    flat += block
                    continue
            raise InvalidInputError(f"blocks must be 4 increasing element codes below {v}: {block!r}")
        try:
            # a string or a mapping would give its characters or its keys
            tags = (None,) if isinstance(provenance, (str, Mapping)) else tuple(provenance)
        except TypeError:  # not iterable: refused below, as a tag that is no string
            tags = (None,)
        if set(map(type, tags)) - {str}:
            raise InvalidInputError("design provenance must be a list of strings")
        if len(flat) != 4 * len(tags):
            raise InvalidInputError("provenance must align with blocks")
        self.__dict__.update(group=group, h0=h0, provenance=tags, _packed=_Packed(flat))

    @classmethod
    def _from_orbits(cls, group: Group, h0: Element, tagged: list[tuple[Codes, str]]) -> Design:
        """The design made of the orbits of the bases in ``tagged``, each block
        tagged as its base is.  :func:`_orbits_form_sqs` checks the orbits on
        their blocks through 0, and the design keeps those, sorted, to render
        its blocks from; no block is checked again."""
        through_zero = _through_zero(group, tagged)
        if not _orbits_form_sqs(group, [base for base, _ in tagged], [block for block, _ in through_zero]):
            raise InternalInconsistencyError(f"the orbits assembled for {group} do not form a reversible SQS")
        design = cls.__new__(cls)
        design.__dict__.update(group=group, h0=h0, _through_zero=tuple(sorted(through_zero)))
        return design

    def _tagged_blocks(self) -> Iterator[tuple[Codes, str]]:
        """Each block with its tag, in order.

        A constructed design renders them from its blocks through 0.  Its
        blocks are a union of orbits, so each block B is p + C for exactly
        one pair: p the least code of B and C = B - p a block through 0.  The
        blocks whose least code is p are thus the translates by p of the
        blocks {0, a, b, c} through 0 with a + p, b + p and c + p all above
        p; each block is met once per point of it and kept once."""
        through_zero = self.__dict__.get("_through_zero")
        if through_zero is None:
            yield from zip(self._packed, self.provenance)
            return
        g = self.group
        for p in range(g.order):
            row = g.translation(p)
            kept = []
            for (_, a, b, c), tag in through_zero:
                x, y, z = row[a], row[b], row[c]
                if x > p and y > p and z > p:
                    kept.append(((p, *sorted((x, y, z))), tag))
            kept.sort()
            yield from kept

    @cached_property
    def _packed(self) -> _Packed:
        """The store of a constructed design, which renders its blocks into
        it once; a design made from codes sets it as it is made.  The codes
        rendered are below v, so they fit the array, or the rows of v codes
        that render them could not have been built."""
        return _Packed(chain.from_iterable(block for block, _ in self._tagged_blocks()))

    @cached_property
    def codes(self) -> tuple[Codes, ...]:
        return tuple(self._packed)

    @cached_property
    def provenance(self) -> tuple[str, ...]:
        return tuple(tag for _, tag in self._tagged_blocks())

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        elements = self.group.elements()
        return tuple(orbits._decoded(elements, block) for block in self._packed)

    @property
    def block_count(self) -> int:
        """The number of blocks, which a constructed design counts without
        rendering them: v blocks per block through 0, over its four points."""
        through_zero = self.__dict__.get("_through_zero")
        if through_zero is None:
            return len(self._packed)
        return orbits._family_size(self.group.order, len(through_zero), 4)

    def verify(self) -> VerificationReport:
        """Triple coverage and reversibility of the blocks, as
        :func:`verify_design` reports them, read from the store."""
        return _design_report(self.group, self._packed)

    def write_json(self, fh) -> None:
        """Write the design to ``fh`` as one compact JSON object with sorted
        keys ``blocks``, ``group``, ``h0`` and ``provenance``, each block a
        list of coordinate lists, without a trailing newline.

        The bytes are those of ``json.dumps(..., sort_keys=True,
        separators=(",", ":"))`` on that object, but no block is built as a
        list: each element is rendered once, and blocks and provenance go to
        ``fh`` in chunks of :data:`JSON_CHUNK` entries.  The blocks are
        streamed as :meth:`_tagged_blocks` renders them, and their tags kept
        for the provenance that follows."""
        el = [_dumps(x) for x in self.group.elements()]
        tagged = self._tagged_blocks()
        tags: list[str] = []
        fh.write('{"blocks":[')
        while chunk := list(islice(tagged, JSON_CHUNK)):
            text = ",".join([f"[{el[p]},{el[q]},{el[r]},{el[s]}]" for (p, q, r, s), _ in chunk])
            fh.write(("," if tags else "") + text)
            tags += [tag for _, tag in chunk]
        fh.write(f'],"group":{_dumps(self.group.factors)},"h0":{_dumps(self.h0)},"provenance":[')
        for start in range(0, len(tags), JSON_CHUNK):
            fh.write(("," if start else "") + _dumps(tags[start : start + JSON_CHUNK])[1:-1])
        fh.write("]}")


def design_from_json_dict(payload: dict) -> Design:
    # no value is coerced: a factor or coordinate that is not a JSON integer
    # (a float, a string, a bool) is no element and is rejected.  Design reads
    # the blocks and the tags as it checks them, after h0, so each fault is
    # named only once all that Design checks before it has passed
    try:
        factors = list(payload["group"])
        if factors != sorted(factors):
            # coordinates are relative to the factor order; refuse to reinterpret
            raise InvalidInputError(f"design group factors must be sorted ascending, got {factors}")
        g = make_group(factors)
        h0 = tuple(payload["h0"])
        blocks = _listed(payload, "blocks", "design blocks must be a list of blocks")
        codes = _encode_blocks(g, (map(tuple, block) for block in blocks))
        provenance = _listed(payload, "provenance", "design provenance must be a list of strings")
        return Design(group=g, h0=h0, codes=codes, provenance=provenance)
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed design payload: {exc}") from exc


def _listed(payload: dict, key: str, message: str) -> Iterator:
    """The items of the list ``payload[key]``, looked up when the first is
    read; a value that is not a list raises InvalidInputError(message)."""
    items = payload[key]
    if type(items) is not list:
        raise InvalidInputError(message)
    yield from items


def _design_from_file(fh) -> Design:
    """The design in the open binary file ``fh``, read once, so a pipe or a
    FIFO serves as well as a file: by :func:`_design_from_bytes`, or else as
    JSON text, decoded as a text-mode ``open`` decodes it.  A file that is
    not UTF-8 JSON raises InvalidInputError."""
    data = fh.read()
    design = _design_from_bytes(data)
    if design is not None:
        return design
    # the parsed document is freed once the design is made from it; it holds
    # no cycles, so the cyclic collector is paused until then (paused for
    # the parse alone, it would walk the document while the design is made)
    enabled = gc.isenabled()
    gc.disable()
    try:
        # the bytes are dropped once decoded, and the text once parsed
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        del data
        payload = json.loads(text)
        del text
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bytes that are not UTF-8 and integer
        # literals past int()'s digit limit; RecursionError, deep nesting
        raise InvalidInputError(f"cannot read {fh.name} as JSON: {exc}") from exc
    else:
        return design_from_json_dict(payload)
    finally:
        if enabled:
            gc.enable()


_BLOCKS_HEAD = b'{"blocks":['
_BLOCKS_TAIL = b'],"group":'
_TAGS_HEAD = b',"provenance":['

#: bytes of block text, or of tag text, per chunk, at least, when the
#: writer's layout is read; a chunk runs on to the end of the block, or of
#: the tag, it stops in
READ_CHUNK = 1 << 16


def _design_from_bytes(data: bytes) -> Design | None:
    """The design in ``data`` when it is laid out as :meth:`Design.write_json`
    writes one, else None; never an error.

    The keys must be ``blocks``, ``group``, ``h0`` and ``provenance``, once
    each and in that order, and every point of the blocks must be written as
    the writer writes it: no space, no sign, no leading zero.  The blocks
    are never parsed as JSON: :func:`_read_blocks` maps them to codes one
    chunk at a time, as :class:`Design` reads and packs them.  ``group`` and
    ``h0`` are parsed as JSON, and the tags in pieces (see :func:`_read_tags`),
    equal tags kept as one object.  :class:`Design` is the one check of what
    is read: h0, the codes and the tags.  Every other input gets None, and
    the caller reads it as JSON, which names its fault; a design read here
    is the one that path would build."""
    end = data.find(_BLOCKS_TAIL)
    tags = data.find(_TAGS_HEAD, end)
    if not data.startswith(_BLOCKS_HEAD) or min(end, tags) < 0:
        return None
    try:
        # decoded as strictly as a text-mode read, so no byte the fallback
        # refuses is read here.  A key "provenance" nested in group or h0
        # leaves a bracket open, which does not parse
        head = '{"group":' + data[end + len(_BLOCKS_TAIL) : tags].decode("utf-8") + "}"
        (group_key, factors), (h0_key, h0) = json.loads(head, object_pairs_hook=list)
        if (group_key, h0_key) != ("group", "h0") or not (
            type(factors) is type(h0) is list and factors == sorted(factors)
        ):
            return None
        provenance = _read_tags(data, tags + len(_TAGS_HEAD))
        g = make_group(factors)
        return Design(g, tuple(h0), chain.from_iterable(_read_blocks(data, end, g)), provenance)
    except (KohlerSqsError, ValueError, TypeError, RecursionError):
        return None


def _read_tags(data: bytes, start: int) -> tuple:
    """The tags of the provenance array that opens before ``data[start]``
    and closes at the end of ``data``, but for ``}`` and JSON whitespace;
    ValueError when the text holds a backslash or does not end so.

    The text is cut into pieces (see :func:`_pieces`) after the first quote
    of a ``","``, and each piece is parsed as a JSON list.  With no
    backslash, every quote opens or closes a string, in turn: a cut after a
    quote that opens one leaves that string unterminated, so a piece that
    parses was cut between two tags, and the pieces' tags are those of the
    whole array.  A piece that does not parse raises ValueError.  Equal tags
    are kept as one object, shared through one dict as the pieces are read;
    no string equals a non-string, so sharing swaps no string tag for a tag
    of another type, which Design refuses either way."""
    close = data.rfind(b"]", start)
    # JSON whitespace is these four bytes
    if close < 0 or data[close + 1 :].strip(b" \t\n\r") != b"}" or data.find(b"\\", start, close) >= 0:
        raise ValueError("not the writer's layout")
    shared: dict = {}
    tags: list = []
    for text in _pieces(data, start, close, b'","'):
        piece = json.loads("[" + text.decode("utf-8") + "]")
        tags += map(shared.setdefault, piece, piece)
    return tuple(tags)


def _read_blocks(data: bytes, end: int, g: Group) -> Iterator[Iterator[Codes]]:
    """The blocks written in ``data`` before ``end`` as 4-tuples of codes,
    one iterator per chunk, each cut (see :func:`_pieces`) between two
    blocks.  Its digits removed, a chunk must be copies of one block
    skeleton (``[[,],[,],[,],[,]]`` for two coordinates) joined by commas,
    or ValueError is raised.  Inside its outer brackets, split at ``],[``
    and ``]],[[``, it must give four points per copy, and each point's text
    (``0,3``) is looked up in a table of the v elements' texts, so anything
    but an element misses and reads as None: a digit outside the points
    leaves a bracket in some point's text."""
    point = b"[" + b"," * (len(g.factors) - 1) + b"]"
    unit = b"[" + b",".join([point] * 4) + b"]"
    table = {_dumps(x)[1:-1].encode(): code for code, x in enumerate(g.elements())}
    for chunk in _pieces(data, len(_BLOCKS_HEAD), end, b"]],[["):
        skeleton = chunk.translate(None, b"0123456789")
        units = (len(skeleton) + 1) // (len(unit) + 1)
        points = chunk[2:-2].replace(b"]],[[", b"],[").split(b"],[")
        if skeleton != b",".join([unit] * units) or len(points) != 4 * units:
            raise ValueError("not the writer's layout")
        quads = map(table.get, points)
        yield zip(quads, quads, quads, quads)


def _pieces(data: bytes, start: int, end: int, separator: bytes) -> Iterator[bytes]:
    """``data[start:end]`` in pieces of :data:`READ_CHUNK` bytes or more,
    each cut at the comma of the first ``separator`` past that size, which
    is in no piece."""
    keep = separator.index(b",")
    while start < end:
        cut = data.find(separator, start + READ_CHUNK, end)
        stop = end if cut < 0 else cut + keep
        yield data[start:stop]
        start = stop + 1


def _encode_blocks(g: Group, blocks) -> Iterator[Codes]:
    """Each block's sorted codes, validated as it is read.

    ``blocks`` is read one block at a time, each block as a tuple of four
    points that :meth:`Group.encode` reads, which raises the error; every
    earlier block passed, so the error names the first bad block of the
    input."""
    for block in blocks:
        b = tuple(block)  # a block or point that is not iterable raises TypeError here
        if len(b) != 4:
            raise InvalidInputError(f"blocks must have 4 distinct elements: {b!r}")
        p, q, r, s = sorted(map(g.encode, b))
        if not p < q < r < s:
            raise InvalidInputError(f"blocks must have 4 distinct elements: {b!r}")
        yield p, q, r, s


def construct_design(g: Group, h0: Element | None = None) -> Design:
    """Assemble a reversible SQS on ``g``: B0 plus one expanded edge per
    1-factor edge of the Koehler graph.

    Raises :class:`ConstructionFailure` when the graph has no 1-factor (which
    disproves existence only if the Sylow 2-subgroup is cyclic) and checks
    its orbits before any block is made.  B0 is built only once a 1-factor
    exists, so a failed matching wastes no B0 work.
    """
    require_sqs_order(g)
    graph = kohler.build_graph(g)  # checks the capacity before h0 is looked for
    h0 = choose_h0(g) if h0 is None else _validate_h0(g, h0)
    try:
        factor = matching.one_factor(graph.adjacency)
    except matching.NoPerfectMatching as exc:
        raise ConstructionFailure(graph, exc.component) from exc
    return Design._from_orbits(g, h0, _design_bases(g, h0, graph, factor))


def _design_bases(
    g: Group, h0: Element, graph: kohler.KohlerGraph, factor: matching.Matching
) -> list[tuple[Codes, str]]:
    """One base of each orbit of the design, with the provenance
    of its blocks: B0's forced orbits, then one edge orbit per 1-factor edge."""
    tagged = [(base, B0_TAG) for base in _b0_bases(g, h0)]
    tagged += [(graph.edge_codes[i], f"{FACTOR_TAG_PREFIX}{i}") for i in factor.matched_edges]
    return tagged


# -- verification ----------------------------------------------------------


class VerificationReport(Record):
    """Outcome of the design axioms, with the violations behind each verdict."""

    _fields = ("is_sqs", "is_reversible", "triple_coverage_violations", "asymmetric_blocks", "invariance_violations")

    def __init__(
        self,
        is_sqs: bool,
        is_reversible: bool,
        triple_coverage_violations: tuple[tuple[Subset, int], ...] = (),
        asymmetric_blocks: tuple[Block, ...] = (),
        invariance_violations: tuple[tuple[Block, str], ...] = (),
    ) -> None:
        self.__dict__.update(
            is_sqs=is_sqs,
            is_reversible=is_reversible,
            triple_coverage_violations=triple_coverage_violations,
            asymmetric_blocks=asymmetric_blocks,
            invariance_violations=invariance_violations,
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


def verify_design(g: Group, blocks) -> VerificationReport:
    """Full verification: coverage plus reversibility."""
    return _design_report(g, _Packed(list(chain.from_iterable(_encode_blocks(g, blocks)))))


def _design_report(g: Group, codes: _Packed) -> VerificationReport:
    """The report on ``codes``.  Distinct blocks with no image missing form a
    set invariant under translations and negation, which preserve symmetry,
    and each block has a translate through 0: the set is a reversible SQS
    exactly when its blocks through 0 are symmetric and pass
    :func:`_covers_pairs_once`.  A repeated block that misses 0 changes
    neither the images nor the pairs through 0.  Anything else is listed."""
    # a group over the limit is refused before any Θ(v³) triple work
    g.check_capacity()
    distinct, missing = _missing_images(g, codes)
    if distinct and not any(blocks for _, blocks in missing):
        through_zero = [b for b in codes if b[0] == 0]
        if _orbits_form_sqs(g, through_zero, through_zero):
            return VerificationReport(is_sqs=True, is_reversible=True)
    coverage = _coverage_violations(g, codes)
    asymmetric, violations = _reversibility_violations(g, codes, missing)
    return VerificationReport(
        is_sqs=not coverage,
        is_reversible=not asymmetric and not violations,
        triple_coverage_violations=coverage,
        asymmetric_blocks=asymmetric,
        invariance_violations=violations,
    )


def _covers_pairs_once(v: int, through_zero: list[Codes]) -> bool:
    """Do the blocks {0, p, q, r} cover C(v-1, 2) pairs {p, q}, {p, r}, {q, r}
    of nonzero codes with none repeated?  For a translation-invariant block
    set that is exact triple coverage: translating by -x maps the blocks on
    {x, y, z} onto those on {0, y-x, z-x}."""
    pairs: list[int] = []
    for _, p, q, r in through_zero:
        pairs += (p * v + q, p * v + r, q * v + r)
    return len(pairs) == comb(v - 1, 2) and len(set(pairs)) == len(pairs)


def _through_zero(g: Group, tagged: list[tuple[Codes, str]]) -> list[tuple[Codes, str]]:
    """The distinct through-0 members of the orbit of each base in
    ``tagged``, each with its base's tag: the blocks through 0 of the union
    of the orbits, each once when the orbits are distinct."""
    return [(member, tag) for base, tag in tagged for member in orbits._members_through_zero(g, base)]


def _orbits_form_sqs(g: Group, bases: list[Codes], through_zero: list[Codes]) -> bool:
    """Are the orbits of ``bases`` the blocks of a reversible SQS on ``g``,
    given ``through_zero``, their members through 0 as :func:`_through_zero`
    lists them?  Their union is invariant, and symmetric when every base is;
    its blocks through 0 must pass :func:`_covers_pairs_once`, which a base
    listed twice, or two bases of one orbit, fail by repeating every pair."""
    return not orbits._asymmetric(g, bases) and _covers_pairs_once(g.order, through_zero)


def _missing_images(g: Group, codes: _Packed) -> tuple[bool, list[tuple[str, set[Codes]]]]:
    """Whether the blocks are distinct, and per coordinate generator and
    negation the blocks whose image under that map is missing.  A block is
    looked up by its key ``((p*v + q)*v + r)*v + s``, which packs its sorted
    codes into one int, summed from tables of ``x*v``, ``x*v**2`` and
    ``x*v**3``; an image's four codes are sorted first, by a network of five
    comparisons."""
    v = g.order
    v1 = [x * v for x in range(v)]
    v2 = [x * v for x in v1]
    v3 = [x * v for x in v2]
    present = {v3[p] + v2[q] + v1[r] + s for p, q, r, s in codes}
    rows = []
    for i in range(len(g.factors)):
        gen = [0] * len(g.factors)
        gen[i] = 1
        rows.append((f"translate+{tuple(gen)}", g.translation(g.encode(tuple(gen)))))
    rows.append(("negate", g.neg_table))
    missing = []
    for label, row in rows:
        lost = set()
        for p, q, r, s in codes:
            a, b, c, d = row[p], row[q], row[r], row[s]
            if a > b:
                a, b = b, a
            if c > d:
                c, d = d, c
            if a > c:
                a, c = c, a
            if b > d:
                b, d = d, b
            if b > c:
                b, c = c, b
            if v3[a] + v2[b] + v1[c] + d not in present:
                lost.add((p, q, r, s))
        missing.append((label, lost))
    return len(present) == len(codes), missing


def _coverage_violations(g: Group, codes: _Packed) -> tuple[tuple[Subset, int], ...]:
    """Triples covered other than once, with their counts, in lex order.

    Each triple x < y < z of codes has one count, at its lexicographic rank
    ``off[x*v + y] + z`` in a flat array.  The cells of one pair x < y form a
    run, compared whole with a run of ones; only a run that differs is read
    cell by cell."""
    # imported here, as in _Packed: loading the extension would add to the
    # peak memory of every command
    from array import array

    v = g.order
    off = [0] * (v * v)
    rank = 0
    for x in range(v):
        for y in range(x + 1, v):
            off[x * v + y] = rank - y - 1
            rank += v - 1 - y
    counts = array("I", [0]) * rank
    for p, q, r, s in codes:
        pq, pr = off[p * v + q], off[p * v + r]
        counts[pq + r] += 1
        counts[pq + s] += 1
        counts[pr + s] += 1
        counts[off[q * v + r] + s] += 1
    ones = array("I", [1]) * v
    elements = g.elements()
    violations = []
    rank = 0
    for x in range(v):
        for y in range(x + 1, v):
            run = counts[rank : rank + v - 1 - y]
            if run != ones[: v - 1 - y]:
                violations += (
                    ((elements[x], elements[y], elements[z]), c) for z, c in enumerate(run, y + 1) if c != 1
                )
            rank += v - 1 - y
    return tuple(violations)


def _reversibility_violations(
    g: Group, codes: _Packed, missing: list[tuple[str, set[Codes]]]
) -> tuple[tuple[Block, ...], tuple[tuple[Block, str], ...]]:
    """Asymmetric blocks, and blocks whose image under a map is missing (as
    :func:`_missing_images` lists them), both in lex order of the distinct
    blocks."""
    elements = g.elements()
    asymmetric = tuple(orbits._decoded(elements, b) for b in sorted(set(orbits._asymmetric(g, codes))))
    violators = set().union(*(blocks for _, blocks in missing))
    violations = tuple(
        (orbits._decoded(elements, b), label) for b in sorted(violators) for label, blocks in missing if b in blocks
    )
    return asymmetric, violations


# -- existence -------------------------------------------------------------


class ExistenceVerdict(Record):
    """Yes always carries a verified design; No carries the reason, and for
    matching-based refusals the witness component.  ``diagnostics`` is a
    new empty dict unless one is given."""

    _fields = ("verdict", "reason", "design", "witness_component", "diagnostics")

    def __init__(
        self,
        verdict: str,  # "yes" | "no" | "unknown"
        reason: dict,
        design: Design | None = None,
        witness_component: tuple[str, ...] = (),
        diagnostics: dict | None = None,
    ) -> None:
        self.__dict__.update(
            verdict=verdict,
            reason=reason,
            design=design,
            witness_component=witness_component,
            diagnostics={} if diagnostics is None else diagnostics,
        )

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


def condition_iv_diagnostics(g: Group, own_one_factor: bool | None = None) -> dict:
    """Residue conditions and per-prime cyclic checks behind the
    existence criterion for cyclic Sylow 2-subgroups.

    For each odd prime p dividing v the Koehler graph of the cyclic group of
    order 2p is matched directly; primes whose graph exceeds the capacity
    limit are reported as unevaluated rather than guessed.  ``own_one_factor``
    is whether g's own Koehler graph has a 1-factor, when the caller has
    matched it already.  Every abelian group of order 2p is cyclic, so for
    v = 2p that answers the check of p without building the graph again.
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
            "detail": f"no SQS({_order_text(v)}) exists for any block set: v mod 6 = {v % 6},"
            " but 2 or 4 is required",
        }
        if v % 2 == 1:
            reason["detail"] += " (v is odd)"
        return ExistenceVerdict(verdict="no", reason=reason)

    sylow_cyclic = g.is_sylow2_cyclic
    try:
        design = construct_design(g)
    except ConstructionFailure as exc:
        design, failure = None, exc
    diagnostics = condition_iv_diagnostics(g, design is not None) if sylow_cyclic else {}
    if design is None:
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
    return ExistenceVerdict(
        verdict="yes",
        reason={
            "rule": "constructed",
            "detail": f"verified reversible SQS({v}) with {design.block_count} blocks",
        },
        design=design,
        diagnostics=diagnostics,
    )
