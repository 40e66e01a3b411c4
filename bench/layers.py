"""Per-layer metrics computed from the traces of one traced pass.

A layer is a module of kohler_sqs.  ``<layer>.self_s`` is the self time of
all of that layer's spans, so ``cli.startup_s`` plus the six layer self
times is exactly the pass's traced wall time.  A metric named after one
function, such as ``kohler.build_graph_s``, is that function's whole span:
public functions call one another inside a layer (``build_B0`` calls
``b0_orbit_reps``, which calls ``orbits.canonicalize``), so a stage's time
is its span, children included.  ``.self_s`` names a function's self time.
A function that no longer exists records zero.
"""

from __future__ import annotations

LAYERS = ["cli", "groups", "engine", "kohler", "matching", "orbits"]

#: metric -> function span whose total time it reports
SPAN_TOTAL = {
    "groups.parse_group_spec_s": "groups.parse_group_spec",
    "engine.build_B0_s": "engine.build_B0",
    "engine.condition_iv_s": "engine.condition_iv_diagnostics",
    "engine.design_from_json_s": "engine.design_from_json_dict",
    "engine.verify_sqs_s": "engine.verify_sqs",
    "engine.verify_reversible_s": "engine.verify_reversible",
    "kohler.build_graph_s": "kohler.build_graph",
    "kohler.graph_stats_s": "kohler.graph_stats",
    "orbits.expand_orbit_s": "orbits.expand_orbit",
    "matching.one_factor_s": "matching.one_factor",
}
#: metric -> function span whose self time it reports
SPAN_SELF = {
    "engine.construct_design.self_s": "engine.construct_design",
    "engine.existence_check.self_s": "engine.existence_check",
}
#: metric -> function span whose call count it reports
SPAN_CALLS = {
    "kohler.build_graph_calls": "kohler.build_graph",
    "orbits.canonicalize_calls": "orbits.canonicalize",
    "orbits.expand_orbit_calls": "orbits.expand_orbit",
    "matching.one_factor_calls": "matching.one_factor",
}
#: metric -> counter recorded by the probe's hooks or wrappers
COUNTERS = {
    "engine.b0_blocks": "engine.b0_blocks",
    "engine.verify_blocks": "engine.verify_blocks",
    "kohler.duplicate_builds": "kohler.duplicate_builds",
    "kohler.vertices": "kohler.vertices",
    "kohler.edges": "kohler.edges",
    "orbits.expand_blocks": "orbits.expand_blocks",
    "matching.failures": "matching.one_factor.raised",
    "matching.matched_edges": "matching.matched_edges",
}
#: per-command subtotals of the untraced passes
SUBTOTALS = ["exists", "count", "graph", "verify_ok", "verify_bad"]

UNITS = {
    "cli.startup_s": "s",
    "cli.stdout_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "s" for name in SPAN_TOTAL},
    **{name: "s" for name in SPAN_SELF},
    **{name: "count" for name in SPAN_CALLS},
    **{name: "count" for name in COUNTERS},
    "engine.b0_wasted_frac": "frac",
    "engine.verify_blocks_per_s": "blocks/s",
    "kohler.orbits_per_pair": "orbits/pair",
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
    **{f"{key}_s": "s" for key in SUBTOTALS},
}
PER_LAYER = list(UNITS)


def _span(trace: dict, name: str, field: str) -> float:
    return trace["spans"].get(name, {}).get(field, 0)


def traced_pass(ops: list[tuple[float, int, dict]]) -> dict[str, float]:
    """Metrics of one traced pass from (wall_s, stdout bytes, trace) per op."""
    out = dict.fromkeys([*SPAN_TOTAL, *SPAN_SELF, *SPAN_CALLS, *COUNTERS], 0.0)
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    startup = stdout_bytes = wall = b0_wasted = pairs = 0.0
    for op_wall, op_stdout, trace in ops:
        wall += op_wall
        stdout_bytes += op_stdout
        startup += op_wall - _span(trace, "cli.main", "total_s")
        for name, stats in trace["spans"].items():
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                out[f"{layer}.self_s"] += stats["self_s"]
        for metric, span in SPAN_TOTAL.items():
            out[metric] += _span(trace, span, "total_s")
        for metric, span in SPAN_SELF.items():
            out[metric] += _span(trace, span, "self_s")
        for metric, span in SPAN_CALLS.items():
            out[metric] += _span(trace, span, "calls")
        for metric, counter in COUNTERS.items():
            out[metric] += trace["counters"].get(counter, 0)
        if trace["counters"].get("engine.construct_design.raised"):
            b0_wasted += _span(trace, "engine.build_B0", "total_s")
        pairs += trace["counters"].get("kohler.pairs", 0)
    verify_s = out["engine.verify_sqs_s"] + out["engine.verify_reversible_s"]
    out.update(
        {
            "cli.startup_s": startup,
            "cli.stdout_bytes": stdout_bytes,
            "engine.b0_wasted_frac": b0_wasted / out["engine.build_B0_s"] if out["engine.build_B0_s"] else 0.0,
            "engine.verify_blocks_per_s": out["engine.verify_blocks"] / verify_s if verify_s else 0.0,
            "kohler.orbits_per_pair": (out["kohler.vertices"] + out["kohler.edges"]) / pairs if pairs else 0.0,
            "trace.wall_s": wall,
        }
    )
    return out
