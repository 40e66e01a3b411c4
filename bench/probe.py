"""Run one kohler_sqs CLI command with span and counter recorders installed.

    python3 bench/probe.py TRACE_JSON ARG...

Runs ``kohler_sqs.cli.main(ARGS)`` exactly as ``python -m kohler_sqs ARGS``
would, after wrapping the public functions of each layer module.  Stdout,
stderr and the exit code are the CLI's own; the trace (span totals and
counters) is written to TRACE_JSON when the command returns.
"""

from __future__ import annotations

import json
import sys
from math import comb

from tracer import Hook, Recorder, install

PACKAGE = "kohler_sqs"
LAYERS = ["cli", "groups", "engine", "kohler", "matching", "orbits"]


def hooks() -> dict[str, Hook]:
    """Counters read off function arguments and results."""
    built: set[tuple[int, ...]] = set()

    def build_graph(rec: Recorder, args: tuple, graph) -> None:
        group = graph.group
        rec.count("kohler.vertices", len(graph.vertices))
        rec.count("kohler.edges", len(graph.edges))
        rec.count("kohler.pairs", comb(group.order - 1, 2))
        if group.factors in built:
            rec.count("kohler.duplicate_builds")
        built.add(group.factors)

    return {
        "engine.build_B0": lambda rec, args, blocks: rec.count("engine.b0_blocks", len(blocks)),
        "engine.verify_sqs": lambda rec, args, report: rec.count("engine.verify_blocks", len(args[1])),
        "kohler.build_graph": build_graph,
        "orbits.expand_orbit": lambda rec, args, blocks: rec.count("orbits.expand_blocks", len(blocks)),
        "matching.one_factor": lambda rec, args, m: rec.count("matching.matched_edges", len(m.matched_edges)),
    }


def main(argv: list[str]) -> int:
    trace_path, args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder, PACKAGE, LAYERS, hooks())
    from kohler_sqs import cli

    try:
        return cli.main(args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
