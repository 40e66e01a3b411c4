"""The benchmark's workloads: fixed lists of CLI operations and their inputs.

Each operation carries its argv, the subtotal it counts towards and an
independent check of its output (see ``checker``).  The ``verify`` workload
reads design files made in set-up: two constructions made by the CLI under
test, the bundled SQS(20), one seeded mutation of each construction and one
malformed file.  The constructions and the fixed files are pinned by sha256,
so every commit measured is fed the same bytes; the seed only chooses which
block is dropped and which point is moved.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable

import checker

BENCH = Path(__file__).resolve().parent

CONSTRUCT_GROUPS = ["2,2,5", "50", "2,2,2,2,2,2", "4,25", "2,2,25"]

EXISTS_CASES = [
    ("196", {"verdict": "no", "rule": "no-1-factor-cyclic-sylow2", "exit": 2}),
    ("158", {"verdict": "no", "rule": "no-1-factor-cyclic-sylow2", "exit": 2}),
    ("2,2,49", {"verdict": "unknown", "rule": "no-1-factor-noncyclic-sylow2", "exit": 4}),
]
COUNT_GROUP = "2,2,2,2,2,2"
GRAPH_CASE = ("250", {"vertices": 5022, "edges": 7441})

#: sha256 of each fixed or constructed verify input; the valid
#: constructions are the CLI's ``construct --group`` stdout.
PINNED = {
    "construct-4,25.json": "add4c005d9d53e7bbe7bee705ade87b5c7a93b36dd2d9576b354a67d71d3a596",
    "construct-2,2,25.json": "01eb9e38c132e2a19cf373e2186b60491b79db4f325c2011f506c9fba7034002",
    "sqs20.json": "5af76bffc5db99f46a9513c75fc7cf95ca13fa6154bc2f6fe18710a1812eadaf",
    "malformed.json": "b865ad0adc3ec489d66e05c145c017dcb1d8da7a2b8a0dcaeecedab40825bcba",
}
MALFORMED = b'{"blocks":[[[0,0,0],[0,0,0],[0,0,1],[0,0,2]]],"group":[2,2,5],"h0":[1,0,0],"provenance":["B0"]}\n'

WORKLOADS = ["construct", "decide", "verify"]


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    #: which per-command subtotal the op's time counts towards
    subtotal: str
    check: Callable[[int, bytes, bytes], list[str]]


def _factors(spec: str) -> list[int]:
    return sorted(int(d) for d in spec.split(","))


def construct_ops() -> list[Op]:
    return [
        Op(f"construct {g}", ("construct", "--group", g), "construct", partial(checker.check_construct, _factors(g)))
        for g in CONSTRUCT_GROUPS
    ]


def decide_ops() -> list[Op]:
    ops = [
        Op(f"exists {g}", ("exists", "--group", g), "exists", partial(checker.check_exists, {**expect, "factors": _factors(g)}))
        for g, expect in EXISTS_CASES
    ]
    ops.append(
        Op(f"count {COUNT_GROUP}", ("count", "--group", COUNT_GROUP), "count", partial(checker.check_count, _factors(COUNT_GROUP)))
    )
    g, expect = GRAPH_CASE
    ops.append(
        Op(f"graph --stats {g}", ("graph", "--stats", "--group", g), "graph", partial(checker.check_graph_stats, expect))
    )
    return ops


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dump(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def drop_block(data: bytes, rng: random.Random) -> bytes:
    payload = json.loads(data)
    i = rng.randrange(len(payload["blocks"]))
    del payload["blocks"][i]
    del payload["provenance"][i]
    return _dump(payload)


def move_point(data: bytes, rng: random.Random) -> bytes:
    """Replace one point of one block by a point outside that block."""
    payload = json.loads(data)
    i = rng.randrange(len(payload["blocks"]))
    block = payload["blocks"][i]
    outside = [list(p) for p in product(*(range(d) for d in payload["group"])) if list(p) not in block]
    block[rng.randrange(4)] = rng.choice(outside)
    payload["blocks"][i] = sorted(block)
    return _dump(payload)


def verify_ops(seed: int, work: Path, construct: Callable[[str], bytes]) -> tuple[list[Op], dict[Path, str]]:
    """Write the verify workload's files under ``work``; return its ops and
    the sha256 of each file.

    ``construct(spec)`` returns the CLI's ``construct --group spec`` stdout;
    it is called only when no copy with the pinned hash is cached in
    ``work``.  Raises ValueError when a pinned file's bytes differ.
    """
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    files: dict[str, bytes] = {}
    for spec in ("4,25", "2,2,25"):
        name = f"construct-{spec}.json"
        cached = work / name
        data = cached.read_bytes() if cached.is_file() else b""
        if sha256(data) != PINNED[name]:
            data = construct(spec)
        files[name] = data
    files["sqs20.json"] = (BENCH / "data" / "sqs20.json").read_bytes()
    files["malformed.json"] = MALFORMED
    for name, data in files.items():
        if sha256(data) != PINNED[name]:
            raise ValueError(f"{name} has sha256 {sha256(data)}, pinned {PINNED[name]}")
    files["drop-4,25.json"] = drop_block(files["construct-4,25.json"], rng)
    files["move-2,2,25.json"] = move_point(files["construct-2,2,25.json"], rng)

    ops, hashes = [], {}
    for name, data in files.items():
        path = work / name
        if not (path.is_file() and path.read_bytes() == data):
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(data)
            tmp.replace(path)
        hashes[path] = sha256(data)
        argv = ("verify", str(path.relative_to(BENCH.parent)))
        if name == "malformed.json":
            ops.append(Op(f"verify {name}", argv, "verify_bad", checker.check_usage_error))
            continue
        payload = json.loads(data)
        report = checker.verification_report(payload["group"], payload["blocks"])
        subtotal = "verify_ok" if report["is_sqs"] and report["is_reversible"] else "verify_bad"
        ops.append(Op(f"verify {name}", argv, subtotal, partial(checker.check_verify, report)))
    return ops, hashes
