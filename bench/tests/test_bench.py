"""Tests of the benchmark's own logic: checker, tracer, layer metrics.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Recorder, install  # noqa: E402

SQS20 = (BENCH / "data" / "sqs20.json").read_bytes()


def _cli_verify(tmp_path: Path, data: bytes) -> tuple[int, bytes, bytes]:
    path = tmp_path / "design.json"
    path.write_bytes(data)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "kohler_sqs", "verify", str(path)], capture_output=True, env=env, timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_checker_accepts_sqs20_fixture():
    payload = json.loads(SQS20)
    assert checker.design_problems([2, 2, 5], payload) == []
    report = checker.verification_report([2, 2, 5], payload["blocks"])
    assert report["is_sqs"] and report["is_reversible"]
    assert workloads.sha256(SQS20) == workloads.PINNED["sqs20.json"]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mutate", [workloads.drop_block, workloads.move_point])
def test_checker_rejects_each_mutation(mutate, seed):
    payload = json.loads(mutate(SQS20, random.Random(seed)))
    assert checker.design_problems([2, 2, 5], payload)
    assert not checker.verification_report([2, 2, 5], payload["blocks"])["is_sqs"]


def test_checker_rejects_a_duplicated_block():
    payload = json.loads(SQS20)
    doubled = dict(
        payload, blocks=payload["blocks"] + payload["blocks"][:1], provenance=payload["provenance"] + ["B0"]
    )
    problems = checker.design_problems([2, 2, 5], doubled)
    assert any("286 blocks" in p for p in problems)
    assert any("coverage" in p for p in problems)


def test_symmetry_matches_the_package_on_every_block_of_z2xz2xz5():
    orbits = pytest.importorskip("kohler_sqs.orbits")
    from kohler_sqs.groups import make_group

    g, ours = make_group([2, 2, 5]), checker.Group([2, 2, 5])
    verdicts = [
        ours.is_symmetric(block) == orbits.is_symmetric_block(g, [ours.points[p] for p in block])
        for block in combinations(range(ours.order), 4)
    ]
    assert all(verdicts)
    assert not all(ours.is_symmetric(b) for b in combinations(range(ours.order), 4))


@pytest.mark.parametrize("seed", range(3))
def test_independent_report_matches_cli_on_mutations(tmp_path, seed):
    pytest.importorskip("kohler_sqs")
    for mutate in (workloads.drop_block, workloads.move_point):
        data = mutate(SQS20, random.Random(seed))
        payload = json.loads(data)
        report = checker.verification_report(payload["group"], payload["blocks"])
        assert checker.check_verify(report, *_cli_verify(tmp_path, data)) == []


def test_malformed_input_is_a_usage_error(tmp_path):
    pytest.importorskip("kohler_sqs")
    assert workloads.sha256(workloads.MALFORMED) == workloads.PINNED["malformed.json"]
    assert checker.check_usage_error(*_cli_verify(tmp_path, workloads.MALFORMED)) == []
    assert checker.check_usage_error(0, b"{}", b"")


def test_special_triples_match_closed_form():
    engine = pytest.importorskip("kohler_sqs.engine")
    from kohler_sqs.groups import make_group

    for factors in [(10,), (2, 2, 5), (4, 4), (2, 2, 2, 2), (2, 14)]:
        assert checker.special_triples(factors) == engine.count_special_triples_formula(make_group(list(factors)))


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 100] holds a [10, 40] (which holds b [20, 30]) and c [50, 70]
    ticks = iter([0, 10, 20, 30, 40, 50, 70, 100])
    rec = Recorder(clock=lambda: next(ticks))
    rec.enter("root")
    rec.enter("a")
    rec.enter("b")
    rec.exit()
    rec.exit()
    rec.enter("c")
    rec.exit()
    rec.exit()
    assert rec.spans == {"b": [1, 10, 10], "a": [1, 30, 20], "c": [1, 20, 20], "root": [1, 100, 50]}
    assert sum(s[2] for s in rec.spans.values()) == rec.spans["root"][1]


def _write_package(tmp_path: Path) -> str:
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "orbits.py").write_text("def canonicalize(x):\n    return x\n\ndef _private(x):\n    return x\n")
    (pkg / "engine.py").write_text(
        "from .orbits import canonicalize\n\n"
        "def construct_design(n):\n    return [canonicalize(i) for i in range(n)]\n"
    )
    sys.path.insert(0, str(tmp_path))
    return "fakepkg"


def test_install_wraps_imported_names_and_tolerates_missing_functions(tmp_path):
    package = _write_package(tmp_path)
    rec = Recorder()
    called = []
    hooks = {
        "engine.build_B0": lambda r, args, result: called.append("missing"),
        "engine.construct_design": lambda r, args, result: r.count("designs", len(result)),
    }
    try:
        names = install(rec, package, ["engine", "orbits"], hooks)
        import fakepkg.engine

        assert fakepkg.engine.construct_design(3) == [0, 1, 2]
    finally:
        sys.path.remove(str(tmp_path))
        for name in [m for m in sys.modules if m.split(".")[0] == package]:
            del sys.modules[name]
    assert names == ["engine.construct_design", "orbits.canonicalize"]
    assert rec.spans["orbits.canonicalize"][0] == 3
    assert rec.counters["designs"] == 3 and called == []
    trace = rec.to_json()
    metrics = layers.traced_pass([(1.0, 10, trace)])
    assert metrics["engine.build_B0_s"] == 0 and metrics["engine.b0_wasted_frac"] == 0
    assert metrics["orbits.canonicalize_calls"] == 3


def test_layer_self_times_add_up_to_traced_wall():
    trace = {
        "spans": {
            "cli.main": {"calls": 1, "total_s": 0.9, "self_s": 0.1},
            "engine.construct_design": {"calls": 1, "total_s": 0.8, "self_s": 0.2},
            "engine.build_B0": {"calls": 1, "total_s": 0.6, "self_s": 0.1},
            "orbits.expand_orbit": {"calls": 5, "total_s": 0.5, "self_s": 0.5},
        },
        "counters": {"engine.construct_design.raised": 1},
    }
    m = layers.traced_pass([(1.0, 7, trace), (0.5, 0, {"spans": {}, "counters": {}})])
    layer_self = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert m["cli.startup_s"] + layer_self == pytest.approx(m["trace.wall_s"]) == pytest.approx(1.5)
    assert m["engine.b0_wasted_frac"] == 1.0
    assert m["engine.construct_design.self_s"] == pytest.approx(0.2)


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    pytest.importorskip("kohler_sqs")
    ballast = b"x" * 80_000_000  # the benchmark process's own peak, far above a --help child
    with run.Runner(tmp_path) as runner:
        result = runner.run(run.HELP)
    assert result.problems == []
    assert 0 < result.rss_kb < len(ballast) // 2048
