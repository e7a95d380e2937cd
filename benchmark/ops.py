"""The coco commands a benchmark run times, and the checks on their output.

Every op runs the `coco` CLI on the workload's scenario file.  Each op
writes into a fresh directory of its own, so repeats never see earlier
output.  A check returns a list of problems; an op with any problem counts
as failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from coco.cli import CSV_HEADER
from coco.closconfig import default_partition
from coco.errors import CocoError
from coco.resctrl import parse_schemata, serialize_clos_set
from coco.scenario import LoadedScenario, load_profile_file

# The ops of one cycle, in order, and the end-to-end metric each op's time
# is reported as.
OP_METRIC = {"validate": "setup_s", "simulate": "simulate_s",
             "compare": "compare_s", "profile": "profile_s",
             "schemata": "schemata_s"}
OPS = tuple(OP_METRIC)

# Acceptance criteria 4 and 5 on the reference colocation, and its
# published totals, which the affordable-load search finds to 0.5%.
REFERENCE_TOTALS = {"coco": 0.7008, "none": 0.1998}
SEARCH_TOL = 0.005
REFERENCE_MIN_VS_NONE = 2.0
REFERENCE_OVERHEAD = (0.024, 0.061)


def argv(op: str, scenario: Path, out_dir: Path) -> list[str]:
    """Arguments after `coco` for one run of the op."""
    base = [op, str(scenario)]
    if op in ("simulate", "compare"):
        return base + ["--format", "csv"]
    if op == "profile":
        return base + ["-o", str(out_dir / "profiles.yaml")]
    if op == "schemata":
        return base + ["--apply", "--root", str(out_dir / "resctrl")]
    return base


@dataclass(frozen=True)
class Result:
    rc: int
    stdout: str
    stderr: str


def _csv_rows(stdout: str, problems: list[str]) -> list[list[str]]:
    lines = stdout.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        problems.append("CSV header missing")
        return []
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        if len(row) != 7:
            problems.append(f"CSV row has {len(row)} fields: {row}")
            return []
        for cell in (row[2], row[3], row[6]):
            if not math.isfinite(float(cell)):
                problems.append(f"non-finite value in {row}")
    return rows


class Checker:
    """Checks op outputs against the scenario as coco loads it in-process.

    Also derives the simulated outcome metrics, and holds the first output
    of every op so that repeats can be required to match it byte for byte.
    """

    def __init__(self, workload: str, scenario: Path, loaded: LoadedScenario):
        self.workload = workload
        self.scenario = scenario
        self.loaded = loaded
        self.names = [w.spec.name for w in loaded.workloads]
        self.models = [w.spec.name for w in loaded.workloads if w.model is not None]
        self.clos_set = loaded.clos_set or default_partition(loaded.machine)
        self.first: dict[str, tuple] = {}
        self.outcomes: dict[str, float] = {}

    def check(self, op: str, result: Result, out_dir: Path) -> list[str]:
        problems: list[str] = []
        artifact = getattr(self, "_" + op)(result, out_dir, problems)
        fingerprint = (result.rc, result.stdout, result.stderr, artifact)
        if op not in self.first:
            self.first[op] = fingerprint
        elif fingerprint != self.first[op]:
            problems.append("output differs from the first run of this op")
        return problems

    def _expect_ok(self, result: Result, problems: list[str]) -> None:
        if result.rc != 0:
            problems.append(f"exit status {result.rc}: {result.stderr.strip()[-300:]}")

    def _validate(self, result, out_dir, problems):
        self._expect_ok(result, problems)
        m = self.loaded.machine
        want = (f"{self.scenario}: ok ({len(self.names)} workloads, "
                f"{m.clos_count} CLOSs, {m.llc_ways} ways)\n")
        if result.stdout != want:
            problems.append(f"validate printed {result.stdout!r}")
        return None

    def _simulate(self, result, out_dir, problems):
        self._expect_ok(result, problems)
        rows = _csv_rows(result.stdout, problems)
        policy = self.loaded.sim_params["policy"].value
        if [r[1] for r in rows] != self.names or any(r[0] != policy for r in rows):
            problems.append("simulate rows do not match the scenario's workloads")
        elif not problems:
            met = sum(r[4] == "0" for r in rows)
            self.outcomes["slo_met_frac"] = met / len(rows)
        return None

    def _compare(self, result, out_dir, problems):
        self._expect_ok(result, problems)
        rows = _csv_rows(result.stdout, problems)
        want = [p.value for p in self.loaded.policies]
        if [r[0] for r in rows] != want or any(r[1] != "all" for r in rows):
            problems.append(f"compare rows {[r[:2] for r in rows]}, want {want}")
            return None
        for r in rows:
            if r[4] != "0":
                problems.append(f"{r[0]}: {r[4]} violations at its affordable load")
        total = {r[0]: float(r[3]) for r in rows}
        if total["none"] <= 0:
            problems.append("no-partition total retainment is not positive")
            return None
        vs_none = total["coco"] / total["none"]
        if self.workload == "reference":
            overhead = float(rows[want.index("coco")][6])
            if vs_none < REFERENCE_MIN_VS_NONE:
                problems.append(f"coco/none {vs_none:.4f} < {REFERENCE_MIN_VS_NONE}")
            if not REFERENCE_OVERHEAD[0] <= overhead <= REFERENCE_OVERHEAD[1]:
                problems.append(f"coco overhead_fraction {overhead} outside "
                                f"{list(REFERENCE_OVERHEAD)}")
            for policy, expected in REFERENCE_TOTALS.items():
                if abs(total[policy] - expected) > SEARCH_TOL * expected:
                    problems.append(f"{policy} total {total[policy]} is not "
                                    f"{expected} within {SEARCH_TOL:.1%}")
        if not problems:
            self.outcomes["coco_retainment"] = total["coco"]
            self.outcomes["coco_vs_none"] = vs_none
        return None

    def _profile(self, result, out_dir, problems):
        path = out_dir / "profiles.yaml"
        if not self.models:
            # The documented refusal: exit 2, one line, no output file.
            want = f"error: {self.scenario}: no workload carries a model to profile\n"
            if result.rc != 2 or result.stderr != want or path.exists():
                problems.append(f"profile without models: exit {result.rc}, "
                                f"stderr {result.stderr[-300:]!r}")
            return None
        self._expect_ok(result, problems)
        if not path.is_file():
            problems.append("profile wrote no file")
            return None
        content = path.read_bytes()
        if "profile" in self.first:
            return content  # byte-identical to a file already loaded back
        m = self.loaded.machine
        ways = tuple(range(1, m.llc_ways + 1))
        for name in self.models:
            try:
                p = load_profile_file(path, name)
            except CocoError as e:
                problems.append(f"profile of {name} does not load back: {e}")
                continue
            if (p.way_levels != ways or p.mba_levels != m.mba_levels()
                    or len(p.slowdowns) != len(ways)
                    or any(len(row) != len(p.mba_levels) for row in p.slowdowns)):
                problems.append(f"profile of {name} is not on the machine grid")
        return content

    def _schemata(self, result, out_dir, problems):
        self._expect_ok(result, problems)
        want = serialize_clos_set(self.clos_set)
        if result.stdout != want:
            problems.append("schemata stdout differs from serialize_clos_set")
        root = out_dir / "resctrl"
        chunks, files = [], []
        for cfg in sorted(self.clos_set.lc_configs(), key=lambda c: c.id):
            gdir = root / f"clos{cfg.id}"
            try:
                text = (gdir / "schemata").read_text()
                fragment = parse_schemata(text)
            except (OSError, CocoError) as e:
                problems.append(f"{gdir.name}: {e}")
                continue
            if (fragment.mask() != cfg.mask
                    or fragment.mba_percent() != cfg.mba_percent):
                problems.append(f"{gdir.name}: schemata does not match clos {cfg.id}")
            chunks.append(f"# clos{cfg.id}\n{text}")
            files.append(sorted(p.name for p in gdir.iterdir()))
        if "".join(chunks) != want:
            problems.append("applied tree differs from serialize_clos_set")
        return tuple(map(tuple, files))
