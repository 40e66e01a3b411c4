"""Independent checks of kohler_sqs CLI output.

Nothing here imports kohler_sqs: the group arithmetic, the design axioms and
the verification report are recomputed from their definitions.  A point of
Z_d1 x ... x Z_dk is handled as the mixed-radix integer of its coordinate
tuple (first coordinate most significant), so integer order is the CLI's
lexicographic tuple order.

Every ``check_*`` function takes the expected values first and then the
child's exit code, stdout and stderr, and returns a list of problems; an
empty list means the output is right.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cache
from itertools import combinations, product
from math import comb, prod

Problems = list[str]


class Group:
    """Z_d1 x ... x Z_dk with points encoded as integers 0..v-1."""

    def __init__(self, factors):
        self.factors = tuple(sorted(int(d) for d in factors))
        self.points = list(product(*(range(d) for d in self.factors)))
        self.order = len(self.points)
        self._index = {p: i for i, p in enumerate(self.points)}
        self.neg = [self.encode(tuple(-c % d for c, d in zip(p, self.factors))) for p in self.points]
        self._sum = [
            [self.encode(tuple((s + t) % d for s, t, d in zip(a, b, self.factors))) for b in self.points]
            for a in self.points
        ]
        self.generators = []  # (label, translation by a coordinate generator)
        for k in range(len(self.factors)):
            unit = tuple(int(k == j) for j in range(len(self.factors)))
            self.generators.append((f"translate+{unit}", self._sum[self.encode(unit)]))

    def encode(self, coords) -> int:
        index = self._index.get(tuple(coords))
        if index is None:
            raise ValueError(f"{coords!r} is not an element of Z{self.factors}")
        return index

    def add(self, x: int, y: int) -> int:
        return self._sum[x][y]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg[y])

    def is_symmetric(self, block: tuple[int, ...]) -> bool:
        """B = -B + x for some x; such an x is b0 + b for some b in B."""
        total, neg = self._sum, self.neg
        members = set(block)
        first = total[block[0]]
        return any({total[first[b]][neg[p]] for p in block} == members for b in block)


def _block(g: Group, raw) -> tuple[int, ...]:
    points = tuple(sorted(g.encode(p) for p in raw))
    if len(points) != 4 or len(set(points)) != 4:
        raise ValueError(f"block {raw!r} does not have 4 distinct points")
    return points


def verification_report(factors, raw_blocks) -> dict:
    """The report ``kohler-sqs verify`` must print for these blocks.

    Coverage counts every listed block; symmetry and invariance look at the
    set of distinct blocks.  Violations are listed in the CLI's order.
    """
    g = Group(factors)
    blocks = [_block(g, b) for b in raw_blocks]
    counts = Counter(t for b in blocks for t in combinations(b, 3))
    coverage = [(t, c) for t, c in counts.items() if c != 1]
    if len(counts) < comb(g.order, 3):
        coverage.extend((t, 0) for t in combinations(range(g.order), 3) if t not in counts)
    coverage.sort()
    distinct = sorted(set(blocks))
    present = set(distinct)
    asymmetric = [b for b in distinct if not g.is_symmetric(b)]
    invariance = []
    for b in distinct:
        for label, image_of in g.generators:
            if tuple(sorted(image_of[p] for p in b)) not in present:
                invariance.append((b, label))
        if tuple(sorted(g.neg[p] for p in b)) not in present:
            invariance.append((b, "negate"))

    def coords(points):
        return [list(g.points[p]) for p in points]

    return {
        "is_sqs": not coverage,
        "is_reversible": not asymmetric and not invariance,
        "triple_coverage_violations": [{"triple": coords(t), "count": c} for t, c in coverage],
        "asymmetric_blocks": [coords(b) for b in asymmetric],
        "invariance_violations": [{"block": coords(b), "action": a} for b, a in invariance],
    }


def design_problems(factors, payload: dict) -> Problems:
    """Why ``payload`` is not a reversible SQS on the group, or []."""
    g = Group(factors)
    problems = []
    if payload.get("group") != list(g.factors):
        problems.append(f"group {payload.get('group')!r}, expected {list(g.factors)}")
    blocks = payload.get("blocks", [])
    if len(payload.get("provenance", ())) != len(blocks):
        problems.append("provenance does not align with blocks")
    expected = comb(g.order, 3) // 4
    if len(blocks) != expected:
        problems.append(f"{len(blocks)} blocks, expected {expected}")
    h0 = g.encode(payload["h0"])
    if h0 == 0 or g.add(h0, h0) != 0:
        problems.append(f"h0 {payload['h0']!r} is not an involution")
    listed = [_block(g, b) for b in blocks]
    if listed != sorted(set(listed)):
        problems.append("blocks are not listed once each in ascending order")
    report = verification_report(factors, blocks)
    for key in ("triple_coverage_violations", "asymmetric_blocks", "invariance_violations"):
        if report[key]:
            problems.append(f"{len(report[key])} {key.replace('_', ' ')}, first {report[key][0]}")
    return problems


def _exit_problems(code: int, expected: int) -> Problems:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def _json(stdout: bytes) -> dict:
    return json.loads(stdout.decode("utf-8"))


def check_help(code: int, stdout: bytes, stderr: bytes) -> Problems:
    problems = _exit_problems(code, 0)
    if not stdout.startswith(b"usage:"):
        problems.append("--help did not print usage")
    return problems


def check_construct(factors, code: int, stdout: bytes, stderr: bytes) -> Problems:
    problems = _exit_problems(code, 0)
    return problems or design_problems(factors, _json(stdout))


def check_exists(expected: dict, code: int, stdout: bytes, stderr: bytes) -> Problems:
    """``expected`` holds verdict, rule, exit and the group factors."""
    problems = _exit_problems(code, expected["exit"])
    payload = _json(stdout)
    if payload["verdict"] != expected["verdict"]:
        problems.append(f"verdict {payload['verdict']!r}, expected {expected['verdict']!r}")
    if payload["reason"]["rule"] != expected["rule"]:
        problems.append(f"rule {payload['reason']['rule']!r}, expected {expected['rule']!r}")
    if payload["verdict"] != "yes" and (payload["witness"] is not None or not payload["witness_component"]):
        problems.append("a failed matching must name its component and carry no design")
    v = prod(expected["factors"])
    if payload["diagnostics"] and payload["diagnostics"]["residues_ok"] != (v % 2 == 0 and v % 3 != 0 and v % 8 != 0):
        problems.append("residues_ok disagrees with v mod 2, 3 and 8")
    return problems


@cache
def special_triples(factors: tuple[int, ...]) -> int:
    """Triples in the orbit of some {0, a, -a} or {0, a, h} with 2h = 0, by enumeration.

    Such a triple has a point that is the mean of the other two, or two
    points that differ by an involution.
    """
    g = Group(factors)
    double = [g.add(x, x) for x in range(g.order)]
    involution = [x != 0 and double[x] == 0 for x in range(g.order)]
    count = 0
    for a, b, c in combinations(range(g.order), 3):
        if (
            involution[g.sub(a, b)]
            or involution[g.sub(a, c)]
            or involution[g.sub(b, c)]
            or g.add(a, b) == double[c]
            or g.add(a, c) == double[b]
            or g.add(b, c) == double[a]
        ):
            count += 1
    return count


def check_count(factors, code: int, stdout: bytes, stderr: bytes) -> Problems:
    problems = _exit_problems(code, 0)
    payload = _json(stdout)
    special = special_triples(tuple(factors))
    expected = {"b0_size": special // 4, "special_triples": special}
    for key in ("formula_values", "enumeration_values"):
        if payload[key] != expected:
            problems.append(f"{key} {payload[key]}, expected {expected}")
    if not payload["agree"]:
        problems.append("count reports disagreement")
    g = Group(factors)
    h0 = g.encode(payload["h0"])
    if h0 == 0 or g.add(h0, h0) != 0:
        problems.append(f"h0 {payload['h0']!r} is not an involution")
    return problems


def check_graph_stats(expected: dict, code: int, stdout: bytes, stderr: bytes) -> Problems:
    """``expected`` holds factors, vertices and edges."""
    problems = _exit_problems(code, 0)
    stats = _json(stdout)
    v, e = stats["vertices"], stats["edges"]
    if (v, e) != (expected["vertices"], expected["edges"]):
        problems.append(f"|V|, |E| = {v}, {e}; expected {expected['vertices']}, {expected['edges']}")
    degrees = {int(d): n for d, n in stats["degrees"].items()}
    if sum(degrees.values()) != v or sum(d * n for d, n in degrees.items()) != 2 * e or max(degrees) > 3:
        problems.append(f"degree distribution {stats['degrees']} does not fit |V|, |E|")
    if sum(stats["components"]) != v or stats["isolated"] != degrees.get(0, 0):
        problems.append("component sizes or isolated count do not fit the degrees")
    return problems


def check_verify(expected_report: dict, code: int, stdout: bytes, stderr: bytes) -> Problems:
    ok = expected_report["is_sqs"] and expected_report["is_reversible"]
    problems = _exit_problems(code, 0 if ok else 3)
    if _json(stdout) != expected_report:
        problems.append("verification report differs from the independent one")
    return problems


def check_usage_error(code: int, stdout: bytes, stderr: bytes) -> Problems:
    problems = _exit_problems(code, 1)
    if stdout:
        problems.append("a usage error must print nothing on stdout")
    if not stderr.startswith(b"error:") or b"Traceback" in stderr:
        problems.append("a usage error must print one error line and no traceback")
    return problems
