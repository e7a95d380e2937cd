"""coco benchmark: the CLI timed end to end, or traced layer by layer.

Run from the root of a checkout:

    python3 benchmark/run.py --workload fleet --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists): `reference` is the
shipped colocation; `fleet` and `overload` are generated from the seed by
scenarios.py.

Load is a closed loop with one client: one coco command at a time.  For
`--seconds` the run repeats a cycle of the ops validate, simulate, compare,
profile and schemata, so every op has as many samples.  One untimed
warm-up cycle comes first.  Every run of every op is checked (ops.py).
The benchmark and the commands it starts share one CPU.  Every metric is
reported on every workload: `profile` needs `model:` workloads, which only
overload has, so on reference and fleet it times coco's refusal (exit 2,
one line, no file), and `schemata --apply` writes each workload's tree.

--trace 0 runs each op as a `python -m coco.cli` subprocess and reports the
end-to-end metrics.  Each op's time is its wall time scaled by the machine's
speed at that moment: a fixed pure-Python loop is timed before and after
every op, and the wall time is multiplied by CALIBRATION_REF_S over the
mean of the two.  On a shared host the speed of the same code drifts by a
third from one minute to the next; the scaling removes that drift, and
leaves the op's own cost in seconds at the reference speed.  The report
shows the unscaled wall medians beside the metrics.

--trace 1 runs each op in-process through `coco.cli.main`, once untraced
and once with spans (tracing.py), and reports the per-layer metrics in
unscaled seconds; `startup.*` come from subprocesses.

Each metric is a median over the op's runs.  The last line of stdout is
the result as JSON; the lines above it are a readable report and the run
environment.  Results and span files are kept under .bench_out/.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "coco" / "cli.py").is_file():
        print(f"error: no coco source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import coco
    if Path(coco.__file__).resolve().parent != ROOT / "src" / "coco":
        print(f"error: imported coco from {coco.__file__}", file=sys.stderr)
        return 2
    import harness
    return harness.main(ROOT)


if __name__ == "__main__":
    sys.exit(main())
