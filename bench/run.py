"""Benchmark of the kohler_sqs command line, one child process per operation.

    python3 bench/run.py --workload construct|decide|verify|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One benchmark process runs the real CLI
(``python -m kohler_sqs ...`` with ``src`` on ``PYTHONPATH``) as one child per
operation, in a closed loop: the next operation starts when the last one has
exited.  The children are started by ``launcher.py``, which times each one
from spawn to exit and reads its peak RSS and CPU time from ``os.wait4``.
Each exit code and output is checked by ``checker``, which does not use
kohler_sqs.

A run first makes the workload's inputs.  With ``--trace 0`` it then cycles
through the workload's operations until the next one would end after
``--seconds`` (every operation runs at least once), timing ``--help``
(interpreter start plus package import) before each one, and reports the
end-to-end metrics.  With ``--trace 1`` it alternates plain passes with
passes under ``probe.py`` while another pair fits, and reports the per-layer
metrics.  Human-readable lines come first, then a JSON record of the run
(machine, seed, input hashes, every metric), and last one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checker
import layers
import workloads
from workloads import Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
HELP = Op("--help", ("--help",), "setup", checker.check_help)


@dataclass
class OpResult:
    op: Op
    wall_s: float
    cpu_s: float
    rss_kb: int
    stdout_bytes: int
    problems: list[str]
    trace: dict | None = None


class Runner:
    """Runs CLI children one at a time through ``launcher.py`` and checks
    what they print."""

    def __init__(self, work: Path):
        self.work = work
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "KOHLER_SQS_MAX_V"}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONHASHSEED"] = "0"
        self._launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        # identical bytes get the identical verdict, so each distinct output is checked once
        self._verdicts: dict[tuple, list[str]] = {}

    def __enter__(self) -> Runner:
        return self

    def __exit__(self, *exc_info) -> None:
        self._launcher.stdin.close()
        try:
            self._launcher.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._launcher.kill()
            self._launcher.wait()

    def spawn(self, argv: tuple[str, ...], trace_path: Path | None = None) -> tuple[dict, bytes, bytes]:
        """Run one child; returns the launcher's reply, stdout and stderr."""
        if trace_path is None:
            cmd = [sys.executable, "-m", "kohler_sqs", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "probe.py"), str(trace_path), *argv]
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        request = {"argv": cmd, "stdout": str(out_path), "stderr": str(err_path)}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("launcher.py exited")
        return json.loads(reply), out_path.read_bytes(), err_path.read_bytes()

    def run(self, op: Op, traced: bool = False) -> OpResult:
        trace_path = self.work / "trace.json"
        if traced:
            trace_path.unlink(missing_ok=True)
        done, out, err = self.spawn(op.argv, trace_path if traced else None)
        key = (op.label, done["code"], hashlib.sha256(out).digest(), hashlib.sha256(err).digest())
        if key not in self._verdicts:
            try:
                self._verdicts[key] = op.check(done["code"], out, err)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self._verdicts[key] = [f"unreadable output: {exc!r}"]
        problems = list(self._verdicts[key])
        trace = None
        if traced:
            try:
                trace = json.loads(trace_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                problems.append(f"no trace: {exc}")
                trace = {"spans": {}, "counters": {}}
        return OpResult(op, done["wall_s"], done["cpu_s"], done["rss_kb"], len(out), problems, trace)

    def construct(self, spec: str) -> bytes:
        done, out, err = self.spawn(("construct", "--group", spec))
        if done["code"] != 0:
            raise ValueError(f"construct --group {spec} exited {done['code']}: {err.decode(errors='replace')}")
        return out


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
    }


def run_workload(runner: Runner, name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.perf_counter() + seconds
    load_start = os.getloadavg()
    hashes = {}
    if name == "verify":
        ops, hashes = workloads.verify_ops(seed, WORK / "inputs", runner.construct)
    elif name == "construct":
        ops = workloads.construct_ops()
    else:
        ops = workloads.decide_ops()

    runner.run(HELP)  # warm-up: writes the bytecode cache on a fresh checkout
    setup: list[OpResult] = []  # one --help before each plain op, so it samples the whole run
    samples: list[list[OpResult]] = [[] for _ in ops]  # plain runs of each op
    traced: list[list[OpResult]] = []  # traced passes

    def plain(k: int) -> None:
        setup.append(runner.run(HELP))
        samples[k].append(runner.run(ops[k]))

    if trace:
        # a plain pass, then a traced pass, while another such pair fits
        while True:
            started = time.perf_counter()
            for k in range(len(ops)):
                plain(k)
            traced.append([runner.run(op, traced=True) for op in ops])
            now = time.perf_counter()
            if now + (now - started) > deadline:
                break
    else:
        # cycle through the ops, stopping before one that would end past the deadline
        for k in itertools.cycle(range(len(ops))):
            if samples[k] and time.perf_counter() + setup[-1].wall_s + samples[k][-1].wall_s > deadline:
                break
            plain(k)
    for path, digest in hashes.items():
        if workloads.sha256(path.read_bytes()) != digest:
            raise ValueError(f"{path.name} changed during the run")

    per_op = [statistics.median(r.wall_s for r in runs) for runs in samples]
    metrics = {
        "setup_s": statistics.median(r.wall_s for r in setup),
        "wall_s": sum(per_op),
        "peak_rss_mb": max(statistics.median(r.rss_kb for r in runs) for runs in samples) / 1024,
    }
    metrics["cpu_s"] = sum(statistics.median(r.cpu_s for r in runs) for runs in samples)
    for key in layers.SUBTOTALS:
        metrics[f"{key}_s"] = sum(t for t, op in zip(per_op, ops) if op.subtotal == key)
    if trace:
        per_pass = [layers.traced_pass([(r.wall_s, r.stdout_bytes, r.trace) for r in p]) for p in traced]
        for key in per_pass[0]:
            metrics[key] = statistics.median(m[key] for m in per_pass)
        metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / metrics["wall_s"] - 1

    results = setup + [r for runs in samples for r in runs] + [r for p in traced for r in p]
    failed = [r for r in results if r.problems]
    metrics["failed_frac"] = len(failed) / len(results)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "samples_per_op": [len(runs) for runs in samples],
        "traced_passes": len(traced),
        "inputs": {path.name: digest for path, digest in hashes.items()},
        "op_wall_s": {op.label: [r.wall_s for r in runs] for op, runs in zip(ops, samples)},
        "attempted": len(results),
        "failed": len(failed),
        "problems": [f"{r.op.label}: {msg}" for r in failed for msg in r.problems][:20],
        "metrics": metrics,
    }


def units() -> dict[str, str]:
    return {**END_TO_END, "cpu_s": "s", **{f"{k}_s": "s" for k in layers.SUBTOTALS}, "failed_frac": "frac", **layers.UNITS}


def print_table(record: dict) -> None:
    unit = units()
    print(f"# {record['workload']}: seed {record['seed']}, {record['samples_per_op']} plain runs per op,"
          f" {record['traced_passes']} traced passes, {record['attempted']} ops, {record['failed']} failed")
    for name, value in record["metrics"].items():
        print(f"{record['workload']:<10} {name:<34} {value:>16.6f} {unit[name]}")
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)


def result_line(records: list[dict], trace: bool) -> dict:
    wanted = layers.PER_LAYER if trace else list(END_TO_END)
    unit = units()
    prefix = len(records) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): {"value": r["metrics"][name], "unit": unit[name]}
        for r in records
        for name in wanted
    }
    failed = sum(r["failed"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kohler_sqs" / "cli.py").is_file():
        print(f"error: no kohler_sqs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    WORK.mkdir(parents=True, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    records = []
    try:
        with Runner(WORK) as runner:
            for name in names:
                records.append(run_workload(runner, name, args.seed, args.seconds, bool(args.trace)))
                print_table(records[-1])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result_line(records, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
