"""Measurement loops of the coco benchmark; benchmark/run.py is the entry.

run.py checks that the checkout holds coco's source and puts it first on
the import path before importing this module.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml
from coco.cli import main as coco_main
from coco.scenario import load_scenario

import scenarios
from ops import OP_METRIC, OPS, Checker, Result, argv
from tracing import Tracer, layer_values

WORK = Path(".bench_work")
OUT = Path(".bench_out")
OP_TIMEOUT_S = 120
STARTUP_PROBES = 15
TAIL_LEVELS = (99.9, 99, 95, 90, 75, 50)
CALIBRATION_LOOPS = 200_000
# The calibration loop's time on an idle 2-core x86_64 host, Python 3.11.
CALIBRATION_REF_S = 0.016


def calibration() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's speed."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - start


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    for p in TAIL_LEVELS:
        if n * (1 - p / 100) >= 10:
            return f"p{p:g}={ordered[math.ceil(p / 100 * n) - 1]:.6g}"
    return "-"


def cycles(ops, seconds: float, run_one) -> None:
    """Run every op in turn, in whole cycles, until `seconds` pass."""
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            run_one(op)
        if time.perf_counter() >= deadline:
            return


class Run:
    """One benchmark run: the checked ops, their timings and failures."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.work = work
        self.scenario = scenarios.write_scenario(workload, seed, work)
        self.checker = Checker(workload, self.scenario, load_scenario(self.scenario))
        self.samples: dict[str, list[float]] = {}
        self.wall: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))

    def checked(self, op: str, execute) -> tuple[float, object]:
        """Run one op in a fresh directory, check it; (seconds, extra)."""
        out_dir = Path(tempfile.mkdtemp(prefix=op + "-", dir=self.work))
        try:
            seconds, result, extra = execute(argv(op, self.scenario, out_dir))
            problems = self.checker.check(op, result, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"check failed: {op}: " + "; ".join(problems[:3]), file=sys.stderr)
        return seconds, extra

    def subprocess_op(self, args: list[str]):
        start = time.perf_counter()
        try:
            p = subprocess.run([sys.executable, "-m", "coco.cli", *args],
                               env=self.env, capture_output=True, text=True,
                               timeout=OP_TIMEOUT_S)
            result = Result(p.returncode, p.stdout, p.stderr)
        except subprocess.TimeoutExpired:
            result = Result(-1, "", f"timed out after {OP_TIMEOUT_S} s")
        return time.perf_counter() - start, result, None

    def record(self, op: str, seconds: float, scale: float = 1.0) -> None:
        """Keep one timed run: its wall time, and that time scaled."""
        self.wall.setdefault(op, []).append(seconds)
        self.samples.setdefault(op, []).append(seconds * scale)


def inprocess_op(args: list[str]):
    """coco.cli.main in this process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = coco_main(args)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a crash is a failed op, not a failed run
            rc = 1
            print(f"{type(e).__name__}: {e}", file=sys.stderr)
    return time.perf_counter() - start, Result(rc, out.getvalue(), err.getvalue()), None


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    for op in OPS:
        run.checked(op, run.subprocess_op)
    before = calibration()

    def timed(op: str) -> None:
        nonlocal before
        seconds, _ = run.checked(op, run.subprocess_op)
        after = calibration()
        run.record(op, seconds, CALIBRATION_REF_S / (0.5 * (before + after)))
        before = after

    cycles(OPS, seconds, timed)
    metrics = {OP_METRIC[op]: statistics.median(run.samples[op]) for op in OPS}
    # ru_maxrss is in KiB on Linux; 1 MB here is 2**20 bytes.
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    for name in ("coco_retainment", "coco_vs_none", "slo_met_frac"):
        metrics[name] = run.checker.outcomes.get(name, 0.0)
    detail = {OP_METRIC[op]: {"n": len(run.samples[op]), "tail": tail(run.samples[op]),
                              "wall_median": statistics.median(run.wall[op])}
              for op in OPS}
    return metrics, detail


def startup_probes(env: dict) -> tuple[float, float]:
    """Medians of `python -c pass` and of `import coco.cli` less that."""
    bare, imported = [], []
    for _ in range(STARTUP_PROBES):
        for code, into in (("pass", bare), ("import coco.cli", imported)):
            start = time.perf_counter()
            # Captured output makes run() wait on the pipes; without it the
            # timeout makes run() poll, which rounds times up by up to 50 ms.
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, timeout=OP_TIMEOUT_S)
            into.append(time.perf_counter() - start)
    python_s = statistics.median(bare)
    return python_s, statistics.median(imported) - python_s


def per_layer(run: Run, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    mapping = json.loads((Path(__file__).parent / "interaction_map.json").read_text())
    python_s, import_s = startup_probes(run.env)
    for op in OPS:
        run.checked(op, inprocess_op)
    tracer = Tracer()
    values: dict[str, list[dict]] = {op: [] for op in OPS}
    tables: dict[str, dict] = {}
    overhead: dict[str, list[float]] = {op: [] for op in OPS}

    def traced(args):
        base = len(tracer.spans)
        tracer.install(f"{args[0]}-{run.attempted}")
        try:
            seconds, result, _ = inprocess_op(args)
        finally:
            counts = tracer.uninstall()
        return seconds, result, layer_values(tracer.spans[base:], base, counts)

    def pair(op: str) -> None:
        untraced_s, _ = run.checked(op, inprocess_op)
        traced_s, (layers, table) = run.checked(op, traced)
        values[op].append(layers)
        tables[op] = table  # the last traced run's span table, for the report
        overhead[op].append(traced_s - untraced_s)
        run.record(op, untraced_s)

    cycles(OPS, seconds, pair)
    per_op = {op: {k: statistics.median(v[k] for v in values[op]) for k in values[op][0]}
              for op in OPS}
    metrics = {"startup.python_s": python_s, "startup.import_s": import_s}
    for name, entry in mapping["metrics"].items():
        if name.startswith(("startup.", "trace.overhead")):
            continue
        metrics[name] = sum(per_op[op][name] for op in entry["measured_in"])
    metrics["trace.overhead_s"] = sum(statistics.median(overhead[op]) for op in OPS)
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / sum(
        statistics.median(run.samples[op]) for op in OPS)
    tracer.write_jsonl(spans_path)
    detail = {"spans_file": str(spans_path),
              "per_op": {op: {"runs": len(values[op]),
                              "spans": {name: {"calls": c, "s": s, "self_s": self_s}
                                        for name, (c, s, self_s) in sorted(tables[op].items())}}
                         for op in OPS}}
    return metrics, detail


def environment(args) -> dict:
    return {"nproc": os.cpu_count(), "cpu": min(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "libyaml": bool(yaml.__with_libyaml__),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def main(root: Path) -> int:
    parser = argparse.ArgumentParser(prog="benchmark/run.py",
                                     description="coco benchmark (see run.py)")
    parser.add_argument("--workload", required=True,
                        choices=("reference", "fleet", "overload"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(root)
    # One client on one CPU: the ops and the calibration loop that scales
    # their times then run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = json.loads(Path("BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=stem + "-", dir=WORK))
    try:
        run = Run(root, args.workload, args.seed, work)
        if args.trace:
            metrics, detail = per_layer(run, args.seconds, OUT / f"spans-{stem}.jsonl")
        else:
            metrics, detail = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args)
    env["ops"] = {op: len(s) for op, s in run.samples.items()}
    env["attempted"], env["failed"] = run.attempted, run.failed
    finite = all(math.isfinite(metrics[m["name"]]) for m in wanted)
    result = {"correct": run.failed == 0 and finite, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}

    print(f"coco benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"{'metric':44} {'value':>14} {'unit':6} {'runs':>5}  {'wall':>10}  tail")
    for m in wanted:
        d = detail.get(m["name"], {}) if not args.trace else {}
        wall = f"{d['wall_median']:10.6g}" if d else ""
        print(f"{m['name']:44} {metrics[m['name']]:14.6g} {m['unit']:6} "
              f"{d.get('n', ''):>5}  {wall:>10}  {d.get('tail', '')}")
    print(f"{'failed_frac':44} {run.failed / run.attempted:14.6g} {'ratio':6} "
          f"{run.attempted:>5}")
    print("env: " + json.dumps(env))
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"env": env, "detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0
