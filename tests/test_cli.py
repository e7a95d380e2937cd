import argparse
import contextlib
import copy
import errno
import gc
import importlib.resources
import io
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coco import cli
from coco.cli import build_parser, main, run
from coco.params import Policy
from coco.scenario import load_scenario
from coco.sim import compare_policies

GOLDEN = Path(__file__).parent / "data" / "schemata_default.golden"

MODEL_SCENARIO = """\
machine: {llc_ways: 8, clos_count: 2, mba_step: 20}
workloads:
  - name: web
    slo: {percentile: 0.99, latency_bound_ms: 20.0}
    offered_load: 100.0
    model:
      base_latency_ms: 1.0
      tail_inflation: 2.0
      capacity: {calibration: nginx, full: 1000.0}
policies: [coco, none]
sim: {duration: 2}
"""


MODEL_WORKLOAD = """\
    model:
      base_latency_ms: 1.0
      tail_inflation: 2.0
      capacity:
        grid: {way_levels: [1, 20], mba_levels: [10, 100], values: %s}
"""

GRID_WORKLOAD = """\
    profile:
      grid: {way_levels: %s, mba_levels: [50, 100], slowdowns: [[2.0, 1.5], [1.2, 1.0]]}
"""

REFERENCE_POLICIES = "policies: [coco, coco-conflicting, cat-only, mba-only, rr, none]"
SMALL_GRID = "{way_levels: [1, 20], mba_levels: [10, 100], slowdowns: [[2.0, 1.5], [1.2, 1.0]]}"
MEMCACHED_PROFILE = "    profile: {calibration: memcached, sl_full: 120000}\n"
HUGE_SLOWDOWNS = """\
    profile:
      grid: {way_levels: [1, 20], mba_levels: [10, 100], sl_full: %s,
             slowdowns: [[1.0e+308, 1.0e+308], [1.0e+308, 1.0]]}
"""
REFERENCE_TEXT = (importlib.resources.files("coco") / "data" / "reference.yaml").read_text()
REFERENCE_WORKLOADS = REFERENCE_TEXT[REFERENCE_TEXT.index("workloads:"):
                                     REFERENCE_TEXT.index("policies:")]
# reference.yaml edits, each leaving one malformed value
MALFORMED = {
    "nan-load": ("offered_load: 3000\n", "offered_load: .nan\n"),
    "inf-load": ("offered_load: 3000\n", "offered_load: .inf\n"),
    "huge-int-load": ("offered_load: 3000\n", "offered_load: 1%s\n" % ("0" * 400)),
    "hex-mask": ("policies: [", "clos_set:\n  configs:\n"
                 "    - {id: 0, mask: \"zz\", mba_percent: 50}\n"
                 "    - {id: 1, mask: \"3\", mba_percent: 50}\n"
                 "policies: ["),
    "ragged-grid": ("    profile: {calibration: mongodb, sl_full: 30000}\n",
                    MODEL_WORKLOAD % "[[1.0, 2.0], [3.0]]"),
    "nested-unknown-key": ("    profile: {calibration: mongodb, sl_full: 30000}\n",
                           MODEL_WORKLOAD % "[[1.0, 2.0], [3.0, 4.0]], extra: 1"),
    "wide-width": ("policies: [", "clos_set:\n  configs:\n"
                   "    - {id: 0, width: 2, mba_percent: 50}\n"
                   "    - {id: 1, width: 100000000, mba_percent: 50}\n"
                   "policies: ["),
    "text-way-level": ("    profile: {calibration: mongodb, sl_full: 30000}\n",
                       GRID_WORKLOAD % '["a", 20]'),
    "fractional-way-level": ("    profile: {calibration: mongodb, sl_full: 30000}\n",
                             GRID_WORKLOAD % "[1.5, 20]"),
    # tags the safe constructor cannot apply
    "tag-int": ("calibration: nginx", "calibration: !!int nginx"),
    "tag-float": ("mba_step: 10\n", "mba_step: !!float x\n"),
    "tag-timestamp": ("machine:\n  llc_ways: 20\n  clos_count: 4\n  mba_step: 10\n",
                      "machine: !!timestamp 2020-13-45\n"),
    "tag-bool": ("seed: 42\n", "seed: !!bool maybe\n"),
    "tag-unmatched-timestamp": ("duration: 10\n", "duration: !!timestamp soon\n"),
    # a list of policies to compare names at least one, each once
    "policies-empty": (REFERENCE_POLICIES, "policies: []"),
    "policies-repeated": (REFERENCE_POLICIES, "policies: [rr, rr]"),
    # a repeated key is an error, not "the last one wins"
    "duplicate-workload-key": ("    offered_load: 12000\n",
                               "    offered_load: 1\n    offered_load: 12000\n"),
    "duplicate-machine-key": ("  mba_step: 10\n", "  mba_step: 10\n  llc_ways: 20\n"),
    "duplicate-top-key": ("\nsim:\n", "\npolicies: [rr]\nsim:\n"),
    # a machine setting nothing reads is an unknown key
    "machine-cores": ("  mba_step: 10\n", "  mba_step: 10\n  cores: 16\n"),
    # finite values whose rates or capacity totals are not: a rate that underflows
    # to 0, a slowdown x interference_alpha that overflows, and overflowing loads
    "rate-underflow": (MEMCACHED_PROFILE, HUGE_SLOWDOWNS % "1.0e-20"),
    "alpha-overflow": (MEMCACHED_PROFILE, HUGE_SLOWDOWNS % "1.0"),
    "capacity-overflow": ("offered_load: 12000\n" + MEMCACHED_PROFILE,
                          "offered_load: 1.7e+308\n"
                          + MEMCACHED_PROFILE.replace("120000", "1.7e+308")),
    # a finite load whose demand, over a finite but tiny rate, is not
    "demand-overflow": ("offered_load: 12000\n" + MEMCACHED_PROFILE,
                        "offered_load: 1.0e+300\n"
                        + MEMCACHED_PROFILE.replace("120000", "1.0e-300")),
    # six workloads on three LC CLOSs: two to a CLOS, a quantum each
    "epoch-underflow": ("epoch_quanta: 20", "epoch_quanta: 1"),
    # a key that only another source reads, which the chosen source would drop
    "grid-beside-sl_full": (MEMCACHED_PROFILE,
                            "    profile: {grid: %s, sl_full: 120000}\n" % SMALL_GRID),
    "file-beside-sl_full": (MEMCACHED_PROFILE,
                            "    profile: {file: profiles.yaml, sl_full: 120000}\n"),
    "calibration-beside-workload": (MEMCACHED_PROFILE, MEMCACHED_PROFILE.replace(
        "}", ", workload: memcached-a}")),
    "capacity-grid-beside-full": (MEMCACHED_PROFILE, """\
    model:
      base_latency_ms: 0.15
      tail_inflation: 2.0
      capacity:
        grid: {way_levels: [1, 20], mba_levels: [10, 100],
               values: [[60000.0, 80000.0], [100000.0, 150000.0]]}
        full: 999999
"""),
    # every load 0 but one subnormal load, whose demand underflows: m* = 1 / peak
    # demand was inf, and inf x 0 the affordable load nan for the others
    "demand-underflow": (REFERENCE_WORKLOADS,
                         re.sub(r"offered_load: \d+", "offered_load: 0", REFERENCE_WORKLOADS)
                         .replace("offered_load: 0", "offered_load: 1.0e-310", 1)),
}

# one leaf of a base document at a time is replaced by each of these, or deleted
FUZZ_VALUES = (0, -1, 1e308, math.nan, math.inf, "x", None, [], 10**400, True)
DELETE = object()
# covers the sections reference.yaml lacks: grid profile, models, clos_set, warmup
MIXED_DOC = yaml.safe_load("""\
machine: {llc_ways: 20, clos_count: 4, mba_step: 10}
workloads:
  - name: grid
    slo: {percentile: 0.99, latency_bound_ms: 5.0}
    offered_load: 100
    dominance: balanced
    profile:
      grid: {way_levels: [1, 10, 20], mba_levels: [50, 100], sl_full: 5000,
             slowdowns: [[3.0, 2.0], [1.5, 1.2], [1.1, 1.0]]}
  - name: model-grid
    slo: {percentile: 0.99, latency_bound_ms: 20.0}
    offered_load: 50
    model:
      base_latency_ms: 1.0
      tail_inflation: 2.0
      capacity:
        grid: {way_levels: [1, 20], mba_levels: [10, 100],
               values: [[1000.0, 2000.0], [3000.0, 4000.0]]}
  - name: model-calibrated
    slo: {percentile: 0.99, latency_bound_ms: 20.0}
    offered_load: 50
    model:
      base_latency_ms: 2.0
      tail_inflation: 1.5
      capacity: {calibration: nginx, full: 1000.0}
  - name: calibrated
    slo: {percentile: 0.99, latency_bound_ms: 15.0}
    offered_load: 300
    profile: {calibration: mongodb, sl_full: 30000}
policies: [coco, rr]
clos_set:
  reserved_id: 0
  configs:
    - {id: 0, width: 2, mba_percent: 10}
    - {id: 1, width: 3, mba_percent: 10}
    - {id: 2, mask: 2016, mba_percent: 30}
    - {id: 3, mask: "ff800", mba_percent: 50}
sim:
  policy: coco
  epoch_quanta: 20
  duration: 2
  seed: 3
  warmup: {window: 1, factor: 1.2}
  load_jitter: 0.1
""")
FUZZ_BASES = {
    "reference": yaml.safe_load(REFERENCE_TEXT),
    "mixed": MIXED_DOC,
}


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaf_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaf_paths(child, path + (i,))
    else:
        yield path


FUZZ_LEAVES = tuple((base, leaf) for base, doc in FUZZ_BASES.items()
                    for leaf in _leaf_paths(doc))


@pytest.fixture()
def reference_copy(tmp_path, reference_path):
    dst = tmp_path / "reference.yaml"
    shutil.copy(reference_path, dst)
    return str(dst)


class TestValidate:
    def test_reference_ok(self, reference_copy, capsys):
        assert main(["validate", reference_copy]) == 0
        assert "ok" in capsys.readouterr().out

    def test_malformed_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("machine: {llc_ways: 20\n")
        assert main(["validate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.yaml")]) == 2

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_value_one_line_error(self, case, reference_copy, capsys):
        old, new = MALFORMED[case]
        path = Path(reference_copy)
        path.write_text(path.read_text().replace(old, new))
        assert main(["compare", reference_copy]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.count(reference_copy) == 1  # the path is named once

    @pytest.mark.parametrize("case, key", [("duplicate-workload-key", "offered_load"),
                                           ("duplicate-machine-key", "llc_ways"),
                                           ("duplicate-top-key", "policies")])
    def test_duplicate_key_names_key_and_line(self, case, key, reference_copy, capsys):
        old, new = MALFORMED[case]
        path = Path(reference_copy)
        text = path.read_text().replace(old, new)
        path.write_text(text)
        # the second of the two keys is the one reported
        line = [i for i, row in enumerate(text.splitlines(), 1)
                if row.lstrip(" -").startswith(f"{key}:")][1]
        assert main(["validate", reference_copy]) == 2
        assert capsys.readouterr().err == (
            f"error: {reference_copy}, line {line}: invalid YAML: duplicate key '{key}'\n")

    @pytest.mark.parametrize("case, message", [
        ("policies-empty", "policies: expected at least one policy"),
        ("policies-repeated", "policies: policy 'rr' named twice")])
    def test_policy_list_error_names_the_key(self, case, message, reference_copy, capsys):
        old, new = MALFORMED[case]
        path = Path(reference_copy)
        path.write_text(path.read_text().replace(old, new))
        assert main(["validate", reference_copy]) == 2
        assert capsys.readouterr().err == f"error: {reference_copy}: {message}\n"

    @pytest.mark.parametrize("case, message", [
        ("grid-beside-sl_full", "profile: sl_full is read only with calibration, not with grid"),
        ("file-beside-sl_full", "profile: sl_full is read only with calibration, not with file"),
        ("calibration-beside-workload",
         "profile: workload is read only with file, not with calibration"),
        ("capacity-grid-beside-full",
         "model.capacity: full is read only with calibration, not with grid")])
    def test_key_the_source_does_not_read_is_named(self, case, message, reference_copy,
                                                   capsys):
        old, new = MALFORMED[case]
        path = Path(reference_copy)
        path.write_text(path.read_text().replace(old, new))
        # the file source's own entries, so the stray key is the only fault
        (path.parent / "profiles.yaml").write_text("profiles:\n" + "".join(
            f"- {{workload: {name}, sl_full: 120000, {SMALL_GRID[1:-1]}}}\n"
            for name in ("memcached-a", "memcached-b")))
        assert main(["validate", reference_copy]) == 2
        assert capsys.readouterr().err == f"error: {reference_copy}: workloads[0].{message}\n"

    @pytest.mark.parametrize("lines, keys", [
        (MALFORMED["machine-cores"][1], "['cores']"),
        ("  mba_step: 10\n  max_bandwidth: 2.048e+11\n  cores: 16\n",
         "['cores', 'max_bandwidth']")])
    def test_unread_machine_keys_rejected(self, lines, keys, reference_copy, capsys):
        path = Path(reference_copy)
        path.write_text(path.read_text().replace("  mba_step: 10\n", lines))
        for command in ("validate", "simulate", "compare"):
            assert main([command, reference_copy]) == 2, command
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", f"error: {reference_copy}: machine: unknown keys {keys}\n"), command

    def test_removed_overhead_margin_rejected(self, reference_copy, capsys):
        # admission rates the jittered load's bound: sim has no margin to set
        path = Path(reference_copy)
        path.write_text(path.read_text() + "  overhead_margin: 0.05\n")
        for command in ("validate", "simulate", "compare"):
            assert main([command, reference_copy]) == 2, command
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", f"error: {reference_copy}: sim: unknown keys ['overhead_margin']\n"), command

    def test_removed_quantum_ms_rejected(self, reference_copy, capsys):
        # the simulator counts time in quanta and epochs only: a quantum has no length
        path = Path(reference_copy)
        path.write_text(path.read_text() + "  quantum_ms: 100.0\n")
        for command in ("validate", "simulate", "compare", "schemata"):
            assert main([command, reference_copy]) == 2, command
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", f"error: {reference_copy}: sim: unknown keys ['quantum_ms']\n"), command

    def test_absent_policies_compare_all_six(self, reference_copy, capsys):
        path = Path(reference_copy)
        path.write_text(path.read_text().replace(REFERENCE_POLICIES, ""))
        assert main(["compare", reference_copy, "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [r.split(",")[0] for r in rows if ",all," in r] == [
            "coco", "coco-conflicting", "cat-only", "mba-only", "rr", "none"]

    def test_wide_width_names_its_entry(self, reference_copy, capsys):
        old, new = MALFORMED["wide-width"]
        path = Path(reference_copy)
        path.write_text(path.read_text().replace(old, new))
        assert main(["validate", reference_copy]) == 2
        assert "configs[1].width: must be <= llc_ways (20)" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["text-way-level", "fractional-way-level"])
    def test_profile_level_names_its_entry(self, case, reference_copy, capsys):
        old, new = MALFORMED[case]
        path = Path(reference_copy)
        path.write_text(path.read_text().replace(old, new, 1))
        assert main(["validate", reference_copy]) == 2
        assert "profile.grid.way_levels[0]: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [c for c in MALFORMED if c.startswith("tag-")])
    def test_bad_tag_is_a_yaml_error(self, case, reference_copy, capsys):
        old, new = MALFORMED[case]
        path = Path(reference_copy)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        assert main(["validate", reference_copy]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {reference_copy}: invalid YAML: bad tagged value: ")
        assert err.count("\n") == 1

    def test_infeasible_model_slo_names_its_workload(self, tmp_path, capsys):
        # load-time profiling runs before Scenario checks the sim ranges
        path = tmp_path / "scenario.yaml"
        path.write_text(MODEL_SCENARIO.replace("latency_bound_ms: 20.0", "latency_bound_ms: 1.5")
                        .replace("duration: 2", "duration: 0"))
        assert main(["validate", str(path)]) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: workloads[0].model: SLO bound 1.5 ms below zero-load "
            "latency 2.0 ms\n")

    def test_grid_within_slowdown_slack_runs(self, reference_copy, capsys):
        # a slowdown that rounds just below 1 loads, and so it also schedules
        low = 0.9999999999995
        path = Path(reference_copy)
        path.write_text(path.read_text().replace(
            "    profile: {calibration: mongodb, sl_full: 30000}\n",
            "    profile:\n      grid: {way_levels: [1, 20], mba_levels: [50, 100], "
            f"slowdowns: [[{low}, {low}], [{low}, 1.0]]}}\n", 1))
        for command in ("validate", "simulate", "compare"):
            assert main([command, reference_copy]) == 0, command
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("values, mbas, message", [
        ("[[1000.0, 900.0], [2000.0, 3000.0]]", "[10, 100]",
         "values[0][1]: capacity falls along mba_levels"),
        ("[[2000.0, 2000.0], [1000.0, 1000.0]]", "[10, 100]",
         "values[1][0]: capacity falls along way_levels"),
        ("[[0.0, 1000.0], [1000.0, 1000.0]]", "[10, 100]", "values[0][0]: capacity must be > 0"),
        # no machine state lands on MBA 5%: the grid is checked as written, not as resampled
        ("[[0.0, 1000.0], [1000.0, 1000.0]]", "[5, 100]", "values[0][0]: capacity must be > 0")],
        ids=["falls-along-mba", "falls-along-ways", "zero", "unsampled-zero"])
    def test_bad_model_grid_names_its_grid_point(self, values, mbas, message, reference_copy,
                                                 capsys):
        workload = (MODEL_WORKLOAD % values).replace("mba_levels: [10, 100]",
                                                     f"mba_levels: {mbas}")
        path = Path(reference_copy)
        path.write_text(path.read_text().replace(
            "    profile: {calibration: mongodb, sl_full: 30000}\n", workload, 1))
        for command in ("validate", "simulate", "compare", "profile"):
            assert main([command, reference_copy]) == 2, command
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", f"error: {reference_copy}: workloads[4].model.capacity.grid.{message}\n"
            ), command

    def test_mixed_fuzz_base_loads(self, tmp_path, capsys):
        path = tmp_path / "mixed.yaml"
        path.write_text(yaml.safe_dump(MIXED_DOC))
        assert main(["simulate", str(path)]) == 0


# Documents nested 100,000 levels deep.  yaml.CSafeLoader dies with SIGSEGV
# on each one, so each runs in its own process.  In "quoted-closers" the
# brackets inside the strings cancel the real ones in a bracket count.
DEEP = {
    "flow-sequence": "machine: " + "[" * 100_000 + "]" * 100_000,
    "flow-mapping": "machine: " + "{a: " * 100_000 + "x" + "}" * 100_000,
    "block-sequence": "- " * 100_000 + "x",
    "explicit-key": "? " * 100_000 + "x",
    "quoted-closers": ("machine: " + ("[" * 100 + '"' + "]" * 100 + '", ') * 1000
                       + "x" + "]" * 100_000),
}


def coco_process(*argv: str, flags=(), env=(), text=True, stdout=subprocess.PIPE,
                 stderr=subprocess.PIPE, **kwargs) -> subprocess.CompletedProcess:
    """`python flags -m coco.cli argv` in a child process, its stdout and stderr
    captured unless ``stdout`` or ``stderr`` names another file, as bytes if
    not ``text``; ``env`` adds to this process's environment."""
    src = str(Path(importlib.resources.files("coco")).parent)
    env = {**os.environ, **dict(env),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *flags, "-m", "coco.cli", *argv],
                          stdout=stdout, stderr=stderr, text=text, env=env,
                          timeout=120, **kwargs)


@pytest.mark.parametrize("case", sorted(DEEP))
def test_deep_input_one_line_error(case, tmp_path):
    path = tmp_path / "deep.yaml"
    path.write_text(DEEP[case] + "\n")
    run = coco_process("validate", str(path))
    assert run.returncode == 2  # a signal gives a negative code
    assert run.stderr == f"error: {path}: invalid YAML: nested too deeply\n"
    assert run.stdout == ""


@pytest.mark.parametrize("name", ["a\0b", "\ud800"], ids=["nul", "surrogate"])
def test_unusable_profile_file_path_one_line_error(name, tmp_path):
    # neither name can be encoded as a path: reading it raised ValueError
    doc = copy.deepcopy(MIXED_DOC)
    doc["workloads"][3]["profile"] = {"file": name}
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    run = coco_process("validate", str(path))
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == (f"error: {path}: workloads[3].profile.file: "
                          f"{name!r} is not a valid file path\n")
    assert "\0" not in run.stderr


@settings(max_examples=60, deadline=None)
# regressions: the duration ran without end, the epoch_quanta overflowed a float,
# one quantum for two workloads validated but did not compare, a bad policies
# entry named the file twice, a largest slowdown validated but overflowed
# the epoch's split
@example(case=("reference", ("sim", "duration")), value=10**400, command="simulate")
@example(case=("reference", ("sim", "epoch_quanta")), value=10**400, command="simulate")
@example(case=("reference", ("sim", "epoch_quanta")), value=1, command="compare")
@example(case=("reference", ("policies", 0)), value=7, command="validate")
@example(case=("mixed", ("workloads", 0, "profile", "grid", "slowdowns", 0, 0)), value=1e308,
         command="simulate")
@given(case=st.sampled_from(FUZZ_LEAVES), value=st.sampled_from(FUZZ_VALUES + (DELETE,)),
       command=st.sampled_from(("validate", "simulate", "compare")))
def test_fuzz_one_leaf(case, value, command):
    base, leaf = case
    doc = copy.deepcopy(FUZZ_BASES[base])
    node = doc
    for key in leaf[:-1]:
        node = node[key]
    if value is DELETE:
        del node[leaf[-1]]
    else:
        node[leaf[-1]] = value

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # a traceback would propagate out of main
        return code, out.getvalue(), err.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        argv = [command, str(path)] + (["--format", "csv"] if command != "validate" else [])
        code, out, err = run(argv)
        assert code in (0, 2, 3)
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1)
        assert err.count(str(path)) <= 1
        if command == "validate":
            return
        # a file validate accepts also simulates and compares; one it refuses,
        # every command refuses alike
        validated, _, validate_err = run(["validate", str(path)])
        want = (0, "") if validated == 0 else (validated, validate_err)
        assert (code, err) == want
        if code == 0:
            for row in out.splitlines()[1:]:
                assert all(math.isfinite(float(x)) for x in row.split(",")[2:]), row
        if code == 0 and command == "compare":
            # each workload offered a load affords a positive share of it
            loaded = load_scenario(path)
            result = compare_policies(loaded.scenario(), list(loaded.policies) or list(Policy))
            for policy, metrics in result.rows:
                for w in loaded.workloads:
                    m = metrics.per_workload[w.spec.name]
                    assert w.spec.offered_load == 0 or m.affordable_load > 0, (policy, m)


# each range rule the value types own, broken once in MIXED_DOC:
# (leaf, out-of-range value, what the message names)
OUT_OF_RANGE = {
    "llc_ways": (("machine", "llc_ways"), 0, "machine: llc_ways must be >= 1"),
    "llc_ways-wide": (("machine", "llc_ways"), 65, "machine: llc_ways must be <= 64"),
    "clos_count": (("machine", "clos_count"), 1, "machine: clos_count must be >= 2"),
    "mba_step": (("machine", "mba_step"), 3, "machine: mba_step must divide 100"),
    "duration": (("sim", "duration"), 0, "duration must be in [1, "),
    "epoch_quanta": (("sim", "epoch_quanta"), 0, "epoch_quanta must be in [1, "),
    "warmup-window": (("sim", "warmup", "window"), -1, "sim.warmup: warmup window"),
    "warmup-factor": (("sim", "warmup", "factor"), 0.5, "sim.warmup: warmup factor"),
    "interference_alpha": (("sim", "interference_alpha"), 0.5,
                           "interference_alpha must be finite and >= 1"),
    "pairing_penalty": (("sim", "pairing_penalty"), 0.5,
                        "pairing_penalty must be finite and >= 1"),
    "load_jitter": (("sim", "load_jitter"), 1, "load_jitter must be in [0, 1)"),
    "offered_load": (("workloads", 0, "offered_load"), -1,
                     "workloads[0]: offered_load must be finite and >= 0"),
    "grid-sl_full": (("workloads", 0, "profile", "grid", "sl_full"), 0,
                     "workloads[0].profile.grid: sl_full must be finite and > 0"),
    "calibration-sl_full": (("workloads", 3, "profile", "sl_full"), 0,
                            "workloads[3].profile: sl_full must be finite and > 0"),
    "base_latency_ms": (("workloads", 1, "model", "base_latency_ms"), 0,
                        "workloads[1].model: base_latency_ms must be finite and > 0"),
    "tail_inflation": (("workloads", 1, "model", "tail_inflation"), 0.5,
                       "workloads[1].model: tail_inflation must be finite and >= 1"),
    "capacity-full": (("workloads", 2, "model", "capacity", "full"), 0,
                      "workloads[2].model.capacity: full must be > 0"),
    "way_levels": (("workloads", 0, "profile", "grid", "way_levels"), [0, 20],
                   "workloads[0].profile.grid: way_levels must be strictly ascending"),
    "clos-id": (("clos_set", "configs", 0, "id"), -1,
                "clos_set: clos id out of range: clos -1"),
    "mask-negative": (("clos_set", "configs", 2, "mask"), -1, "clos_set: negative mask: clos 2"),
    "width-0": (("clos_set", "configs", 0, "width"), 0, "configs[0].width: must be >= 1"),
    "width-negative": (("clos_set", "configs", 0, "width"), -1,
                       "configs[0].width: must be >= 1"),
    "mba_percent": (("clos_set", "configs", 0, "mba_percent"), 0,
                    "clos_set: mba_percent out of range: clos 0"),
    "reserved_id": (("clos_set", "reserved_id"), -1, "clos_set: reserved_id -1 not present"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_field_one_line_error(case, tmp_path, capsys):
    leaf, value, names = OUT_OF_RANGE[case]
    doc = copy.deepcopy(MIXED_DOC)
    node = doc
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert err.count(str(path)) == 1
    assert names in err


class TestFlags:
    @pytest.mark.parametrize("command", ["validate", "profile", "simulate", "compare",
                                         "schemata"])
    def test_seed_only_where_it_is_read(self, command, capsys):
        parser = build_parser()
        argv = [command, "scenario.yaml", "--seed", "7"]
        if command in ("simulate", "compare"):
            assert parser.parse_args(argv).seed == 7
            return
        with pytest.raises(SystemExit) as e:
            parser.parse_args(argv)
        assert e.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err

    def test_validate_names_seed(self, reference_copy, capsys):
        with pytest.raises(SystemExit) as e:
            main(["validate", reference_copy, "--seed", "1"])
        assert e.value.code == 2
        assert "--seed" in capsys.readouterr().err.splitlines()[-1]


# argv words for the property test: each command with its options, as README
# lists them; abbreviations, `=` forms, help, `--` and other words; values
ARGV_COMMANDS = {"validate": (), "profile": ("-o", "--output"),
                 "simulate": ("-o", "--output", "--seed", "--format"),
                 "compare": ("-o", "--output", "--seed", "--policies", "--format"),
                 "schemata": ("--apply", "--root")}
ARGV_OPTIONS = ("-o", "--output", "--seed", "--format", "--policies", "--apply", "--root")
ARGV_OTHERS = ("bogus", "--out", "--se", "--form", "--app", "-h", "--help", "--", "-",
               "--format=csv", "--seed=1", "-ox", "-1", "1e3")
ARGV_VALUES = ("1", " 2", "٣", "", "csv", "table", "x", "coco,rr", "compare")


def _argv(heads: tuple, flags: tuple, values: tuple) -> st.SearchStrategy:
    """A command and a scenario, then up to three options with or without a value."""
    option = st.tuples(st.sampled_from(flags)) | st.tuples(st.sampled_from(flags),
                                                             st.sampled_from(values))
    return st.builds(lambda head, options: [*head, *(w for o in options for w in o)],
                     st.tuples(st.sampled_from(heads), st.sampled_from(values)),
                     st.lists(option, max_size=3))


ANY_WORD = (*ARGV_COMMANDS, *ARGV_OPTIONS, *ARGV_OTHERS, *ARGV_VALUES)
# mostly a command's own options, to reach the plain form; or any words anywhere
ARGV = (st.sampled_from(sorted(ARGV_COMMANDS)).flatmap(
            lambda c: _argv((c,), ARGV_COMMANDS[c] or ARGV_OPTIONS, ARGV_VALUES))
        | _argv(ANY_WORD, ANY_WORD, ANY_WORD))


class TestPlainArgs:
    """``_plain_args`` reads the plain form as argparse does, and only that."""

    @settings(max_examples=400, deadline=None)
    @example(argv=["simulate", "x", "--seed", "3", "--format", "csv", "-o", "out"])
    @example(argv=["compare", "", "--policies", "coco,rr", "--output", "1", "--seed", " 2"])
    @example(argv=["schemata", "x", "--root", "csv", "--apply"])
    @example(argv=["profile", "compare", "-o", "٣"])
    @given(argv=ARGV)
    def test_namespace_is_argparses(self, argv):
        args = cli._plain_args(argv)
        if args is not None:
            assert vars(args) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        ["validate", "x"],
        ["profile", "x", "-o", "y"],
        ["simulate", "x", "--format", "csv", "--seed", "0"],
        ["compare", "x", "--seed", "1", "--policies", "coco", "--format", "table"],
        ["schemata", "x", "--apply", "--root", "r"],
    ])
    def test_plain_form_is_read(self, argv):
        assert vars(cli._plain_args(argv)) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["validate"], ["validate", "-h"], ["validate", "x", "-h"],
        ["validate", "x", "--seed", "1"], ["validate", "x", "y"], ["simulate", "--", "x"],
        ["simulate", "-", "--format", "csv"], ["simulate", "x", "--seed", "-1"],
        ["simulate", "x", "--seed", "x"], ["simulate", "x", "--format", "xml"],
        ["simulate", "x", "--format"], ["simulate", "x", "--form", "csv"],
        ["simulate", "x", "--format=csv"], ["simulate", "x", "-ocsv"],
        ["simulate", "x", "--seed", "1", "--seed", "2"], ["schemata", "x", "--apply", "--apply"],
        ["bogus", "x"],
    ])
    def test_other_forms_are_left_to_argparse(self, argv):
        assert cli._plain_args(argv) is None


def test_clos_set_reported_before_sim_ranges(tmp_path, capsys):
    # the loader builds the set, which checks itself, before the Scenario
    doc = copy.deepcopy(MIXED_DOC)
    doc["clos_set"]["configs"][0]["mba_percent"] = 60
    doc["sim"]["duration"] = 0
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: clos_set: mba shares exceed 100\n"


class TestSchemata:
    def test_golden_bytes(self, reference_copy, capsys):
        assert main(["schemata", reference_copy]) == 0
        assert capsys.readouterr().out == GOLDEN.read_text()

    def test_apply_builds_mock_tree(self, reference_copy, tmp_path, capsys):
        root = tmp_path / "resctrl"
        assert main(["schemata", reference_copy, "--apply",
                     "--root", str(root)]) == 0
        assert sorted(p.name for p in root.iterdir()) == ["clos1", "clos2", "clos3"]


class TestCompare:
    def test_csv_three_rows_coco_largest(self, reference_copy, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", reference_copy, "--policies", "coco,rr,none",
                     "--format", "csv", "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("policy,workload,affordable_load,retainment")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        retainment = {r[0]: float(r[3]) for r in rows}
        assert retainment["coco"] == max(retainment.values())

    def test_csv_byte_stable(self, reference_copy, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["compare", reference_copy, "--policies", "coco,none",
                         "--format", "csv", "-o", str(out), "--seed", "7"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_policy_names_the_option(self, reference_copy, capsys):
        assert main(["compare", reference_copy, "--policies", "coco,bogus"]) == 2
        assert capsys.readouterr().err == (
            "error: --policies: unknown policy 'bogus'; expected one of coco, "
            "coco-conflicting, cat-only, mba-only, rr, none\n")

    def test_unknown_policy_reported_before_the_file_is_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.yaml"
        assert main(["compare", str(missing), "--policies", "coco,bogus"]) == 2
        assert capsys.readouterr().err == (
            "error: --policies: unknown policy 'bogus'; expected one of coco, "
            "coco-conflicting, cat-only, mba-only, rr, none\n")

    @pytest.mark.parametrize("flag, message", [
        (",", "--policies: expected at least one policy"),
        ("", "--policies: expected at least one policy"),
        ("coco,coco", "--policies: policy 'coco' named twice"),
        ("rr, none ,rr", "--policies: policy 'rr' named twice")])
    def test_empty_or_repeated_policies_rejected(self, flag, message, reference_copy, capsys):
        assert main(["compare", reference_copy, "--policies", flag]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_table_has_ratios(self, reference_copy, capsys):
        assert main(["compare", reference_copy, "--policies", "coco,none"]) == 0
        out = capsys.readouterr().out
        assert "vs_none" in out and "total_retainment" in out


class TestSimulate:
    def test_csv_columns(self, reference_copy, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", reference_copy, "--format", "csv",
                     "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ("policy,workload,affordable_load,retainment,"
                            "violations,migrations,overhead_fraction")
        assert len(lines) == 7  # header + six workloads
        assert all(line.startswith("coco,") for line in lines[1:])

    def test_fewer_quanta_than_workloads(self, reference_copy, capsys):
        # six workloads on three LC CLOSs: each CLOS needs one quantum per member
        path = Path(reference_copy)
        path.write_text(path.read_text().replace("epoch_quanta: 20", "epoch_quanta: 4"))
        assert main(["simulate", reference_copy]) == 0
        assert main(["compare", reference_copy]) == 0
        assert capsys.readouterr().err == ""

    def test_one_quantum_per_epoch(self, reference_copy, capsys):
        # one quantum for two workloads per CLOS: every command refuses the
        # file as validate does (admission's own eviction of the last-ranked
        # is test_scheduler's test_reference_one_quantum_evicts_the_last_ranked)
        path = Path(reference_copy)
        path.write_text(path.read_text().replace("epoch_quanta: 20", "epoch_quanta: 1"))
        for command in ("validate", "simulate", "compare"):
            assert main([command, reference_copy]) == 2, command
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", (
                f"error: {reference_copy}: epoch_quanta must be >= 2: "
                "6 workloads on 3 LC CLOSs need a quantum each\n")), command

    def test_demand_overflow_refused(self, reference_copy, capsys):
        # validated, this file compared to affordable load 0 for every policy
        old, new = MALFORMED["demand-overflow"]
        path = Path(reference_copy)
        path.write_text(path.read_text().replace(old, new))
        for command in ("validate", "simulate", "compare"):
            assert main([command, reference_copy]) == 2, command
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", (
                f"error: {reference_copy}: workload 'memcached-a': offered_load x "
                "epoch_quanta over its smallest rate overflows\n")), command

    def test_demand_underflow_refused(self, reference_copy, capsys):
        # validated, this file compared to affordable load nan with exit 0
        old, new = MALFORMED["demand-underflow"]
        path = Path(reference_copy)
        path.write_text(path.read_text().replace(old, new))
        for command in ("validate", "simulate", "compare"):
            assert main([command, reference_copy]) == 2, command
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", (
                f"error: {reference_copy}: workload 'memcached-a': offered_load over its "
                "largest rate underflows\n")), command

    def test_no_partial_output_on_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("not: [valid\n")
        out = tmp_path / "out.csv"
        assert main(["simulate", str(bad), "-o", str(out)]) == 2
        assert not out.exists()


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["simulate", "compare", "profile"])
    @pytest.mark.parametrize("target, code", [("missing-dir", errno.ENOENT),
                                              ("directory", errno.EISDIR),
                                              ("occupied-tmp", errno.EISDIR)])
    def test_one_line_error_and_no_files(self, command, target, code, tmp_path, capsys):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(MODEL_SCENARIO)
        out = tmp_path / "out"
        if target == "directory":
            out.mkdir()
        else:
            out = out / "x.csv"
        at_fault = out
        if target == "occupied-tmp":  # a directory where the temporary file goes
            at_fault = Path(f"{out}.tmp")
            at_fault.mkdir(parents=True)
        assert main([command, str(scenario), "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {at_fault}: {os.strerror(code)}\n")
        if target == "occupied-tmp":  # named, left as it was, and nothing else written
            assert sorted(out.parent.rglob("*")) == [at_fault]
            return
        assert list(tmp_path.rglob("*.tmp")) == []
        if target == "directory":  # left as it was
            assert list(out.iterdir()) == []
        else:
            assert not out.parent.exists()


class TestProfileCommand:
    def test_profile_then_ingest(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(MODEL_SCENARIO)
        profiles = tmp_path / "profiles.yaml"
        assert main(["profile", str(scenario), "-o", str(profiles)]) == 0
        assert profiles.exists()
        ingest = MODEL_SCENARIO.replace(
            """model:
      base_latency_ms: 1.0
      tail_inflation: 2.0
      capacity: {calibration: nginx, full: 1000.0}""",
            "profile: {file: profiles.yaml}")
        scenario2 = tmp_path / "scenario2.yaml"
        scenario2.write_text(ingest)
        assert main(["validate", str(scenario2)]) == 0
        # the file carries the model's sl_full beside its grid: every outcome is the same
        for command in ("simulate", "compare"):
            outputs = []
            for path in (scenario, scenario2):
                capsys.readouterr()
                assert main([command, str(path), "--format", "csv"]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1], command

    @pytest.mark.parametrize("values", ["[[1000.0, 1000.0], [1000.0, 1000.0]]",
                                        "[[673.0, 1016.3], [673.0, 1016.3]]"],
                             ids=["constant", "flat-along-ways"])
    def test_flat_capacity_grid_runs(self, values, reference_copy, capsys):
        # bilinear rounding wobbles a flat direction by an ulp: within the grid slack
        path = Path(reference_copy)
        text = path.read_text()
        path.write_text(text.replace(
            "    profile: {calibration: mongodb, sl_full: 30000}\n", MODEL_WORKLOAD % values, 1))
        profiles = path.parent / "profiles.yaml"
        for command in ("validate", "simulate", "compare"):
            assert main([command, reference_copy]) == 0, command
        assert main(["profile", reference_copy, "-o", str(profiles)]) == 0
        assert capsys.readouterr().err == ""
        # the written grid loads back as the workload's profile file
        path.write_text(text.replace("    profile: {calibration: mongodb, sl_full: 30000}\n",
                                     "    profile: {file: profiles.yaml}\n", 1))
        for command in ("validate", "simulate"):
            assert main([command, reference_copy]) == 0, command
        assert capsys.readouterr().err == ""

    def test_profile_file_sl_full_out_of_range(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(MODEL_SCENARIO)
        profiles = tmp_path / "profiles.yaml"
        assert main(["profile", str(scenario), "-o", str(profiles)]) == 0
        text = profiles.read_text()
        profiles.write_text(re.sub(r"sl_full: .*", "sl_full: 0.0", text))
        scenario.write_text(MODEL_SCENARIO.replace(
            MODEL_SCENARIO[MODEL_SCENARIO.index("    model:"):MODEL_SCENARIO.index("policies:")],
            "    profile: {file: profiles.yaml}\n"))
        assert main(["validate", str(scenario)]) == 2
        assert capsys.readouterr().err == (
            f"error: {profiles}: profiles[0]: sl_full must be finite and > 0\n")

    def test_no_models_rejected(self, reference_copy, tmp_path, capsys):
        out = tmp_path / "p.yaml"
        assert main(["profile", reference_copy, "-o", str(out)]) == 2
        assert not out.exists()

    def test_infeasible_slo_exit_code(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.yaml"
        # zero-load tail latency 2ms already exceeds the 1.5ms bound
        scenario.write_text(MODEL_SCENARIO.replace("latency_bound_ms: 20.0",
                                                   "latency_bound_ms: 1.5"))
        assert main(["profile", str(scenario), "-o", str(tmp_path / "p.yaml")]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "simulate", "compare", "profile"])
    def test_unknown_calibration_app(self, command, tmp_path, capsys):
        # the capacity function refuses the name where it is built, before profiling
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(MODEL_SCENARIO.replace("capacity: {calibration: nginx, full: 1000.0}",
                                                   "capacity: {calibration: bogus}"))
        assert main([command, str(scenario)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", (
            f"error: {scenario}: workloads[0].model.capacity: unknown calibration app 'bogus'; "
            "have ('memcached', 'mongodb', 'nginx')\n"))


# every command that writes to stdout; MODEL_SCENARIO runs each to exit 0
STDOUT_COMMANDS = ("validate", "profile", "simulate", "compare", "schemata")
# command lines that write to stderr: coco's error line, argparse's usage error and
# the group lines of schemata --apply; with the exit status each ends in
STDERR_ARGV = {
    "error": (["validate", "MISSING"], 2),
    "policy-error": (["compare", "REFERENCE", "--policies", "bogus"], 2),
    "usage-error": (["validate", "REFERENCE", "--seed", "1"], 2),
    "apply-groups": (["schemata", "REFERENCE", "--apply", "--root", "ROOT"], 0),
}


def stderr_case(case: str, reference_path: str, tmp_path: Path) -> tuple[list[str], int]:
    """The command line of ``STDERR_ARGV[case]`` with its files named, and its exit status."""
    argv, code = STDERR_ARGV[case]
    files = {"REFERENCE": reference_path, "MISSING": str(tmp_path / "missing.yaml"),
             "ROOT": str(tmp_path / "resctrl")}
    return [files.get(a, a) for a in argv], code


class TestProcessExit:
    """The command as a process: ``run`` ends it, with ``main``'s exit code."""

    @pytest.mark.parametrize("argv, code", [
        (["validate", "REFERENCE"], 0),
        (["validate", "MISSING"], 2),
        (["validate", "REFERENCE", "--seed", "1"], 2),  # argparse's usage exit
        (["compare", "UNLOADED"], 3),
    ])
    def test_exit_code(self, argv, code, reference_copy, tmp_path):
        unloaded = tmp_path / "unloaded.yaml"
        unloaded.write_text(re.sub(r"offered_load: \d+", "offered_load: 0", REFERENCE_TEXT))
        files = {"REFERENCE": reference_copy, "MISSING": str(tmp_path / "missing.yaml"),
                 "UNLOADED": str(unloaded)}
        done = coco_process(*(files.get(a, a) for a in argv))
        assert done.returncode == code, done.stderr
        assert (done.stdout != "") == (code == 0)
        assert (done.stderr != "") == (code != 0) and "Traceback" not in done.stderr

    def test_closed_stdout(self, tmp_path):
        # started without stdout, each command writes nothing and exits 0, as print does
        scenario = tmp_path / "model.yaml"
        scenario.write_text(MODEL_SCENARIO)
        for command in STDOUT_COMMANDS:
            done = coco_process(command, str(scenario), preexec_fn=lambda: os.close(1))
            assert (done.returncode, done.stderr) == (0, ""), command

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("command", STDOUT_COMMANDS)
    def test_full_stdout_one_line_error(self, command, tmp_path):
        # one line and exit 2: no traceback, and no failed flush at exit
        # ("Exception ignored ...", exit 120) after it
        scenario = tmp_path / "model.yaml"
        scenario.write_text(MODEL_SCENARIO)
        with open("/dev/full", "w") as full:
            done = coco_process(command, str(scenario), stdout=full)
        assert (done.returncode, done.stderr) == (
            2, f"error: <stdout>: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [["--help"], ["validate", "-h"]])
    def test_help_to_full_stdout_one_line_error(self, argv):
        # argparse alone drops the failed write and exits 0
        with open("/dev/full", "w") as full:
            done = coco_process(*argv, stdout=full)
        assert (done.returncode, done.stderr) == (
            2, f"error: <stdout>: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("case", sorted(STDERR_ARGV))
    def test_full_stderr_keeps_the_exit_status(self, case, unbuffered, reference_path,
                                               tmp_path):
        # the text is lost, and neither the failed write (exit 1) nor the failed
        # flush at exit (exit 120) replaces the command's own exit status
        argv, code = stderr_case(case, reference_path, tmp_path)
        with open("/dev/full", "w") as full:
            done = coco_process(*argv, env={"PYTHONUNBUFFERED": unbuffered}, stderr=full)
        assert (done.returncode, done.stdout) == (code, GOLDEN.read_text() if code == 0 else "")

    @pytest.mark.parametrize("case", sorted(STDERR_ARGV))
    def test_closed_stderr_keeps_stdout_clean(self, case, reference_path, tmp_path):
        # started without stderr, nothing meant for it lands on stdout, as print's would
        argv, code = stderr_case(case, reference_path, tmp_path)
        done = coco_process(*argv, preexec_fn=lambda: os.close(2))
        assert (done.returncode, done.stdout, done.stderr) == (
            code, GOLDEN.read_text() if code == 0 else "", "")

    @pytest.mark.parametrize("argv", [["--help"], ["validate", "-h"]])
    def test_help_exits_0_as_argparse_prints_it(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(cli._parser_class(), "print_help", argparse.ArgumentParser.print_help)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0 and out.getvalue().startswith("usage: coco")
        done = coco_process(*argv, env={"COLUMNS": "80"})
        assert (done.returncode, done.stdout, done.stderr) == (0, out.getvalue(), "")

    def test_piped_output_equals_in_process(self):
        scenario = str(Path(__file__).parent / "data" / "overload-101.yaml")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["simulate", scenario, "--format", "table"]) == 0
        done = coco_process("simulate", scenario, "--format", "table")
        assert (done.returncode, done.stdout, done.stderr) == (0, out.getvalue(), "")

    def test_files_are_utf8_whatever_the_locale(self, tmp_path, capsys):
        # in the C locale without UTF-8 mode the locale's encoding is ASCII
        path, out = tmp_path / "scenario.yaml", tmp_path / "out.csv"
        path.write_text(REFERENCE_TEXT.replace("memcached-a", "memcached-\u00e9"),
                        encoding="utf-8")
        c_locale = {"flags": ("-X", "utf8=0"), "env": {"LC_ALL": "C"}}
        done = coco_process("validate", str(path), **c_locale)
        assert (done.returncode, done.stderr) == (0, "")
        done = coco_process("simulate", str(path), "-o", str(out), **c_locale)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        assert main(["simulate", str(path)]) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")
        assert "memcached-\u00e9" in out.read_text(encoding="utf-8")
        assert sorted(tmp_path.iterdir()) == [out, path]  # no .tmp left

    @pytest.mark.parametrize("command", [["simulate", "--format", "csv"], ["compare"]])
    def test_stdout_is_utf8_whatever_the_locale(self, command, tmp_path):
        # the report on stdout is the -o file's bytes, not an encoding error
        path, out = tmp_path / "r\u00e9f.yaml", tmp_path / "out"
        path.write_text(REFERENCE_TEXT.replace("memcached-a", "memcached-\u00e9"),
                        encoding="utf-8")
        c_locale = {"flags": ("-X", "utf8=0"), "env": {"LC_ALL": "C"}, "text": False}
        done = coco_process(*command, str(path), **c_locale)
        assert (done.returncode, done.stderr) == (0, b"")
        assert coco_process(*command, str(path), "-o", str(out), **c_locale).returncode == 0
        assert done.stdout == out.read_bytes()
        assert "memcached-\u00e9".encode("utf-8") in done.stdout
        # a path in the locale's bytes still prints as given
        done = coco_process("validate", str(path), **c_locale)
        assert done.stdout.startswith(os.fsencode(path) + b": ok (")

    def test_main_leaves_the_collector_alone(self, reference_copy, capsys):
        frozen = gc.get_freeze_count()
        assert main(["validate", reference_copy]) == 0
        with pytest.raises(SystemExit):
            main(["validate", reference_copy, "--seed", "1"])
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("extra, code", [([], 0), (["--seed", "1"], 2)])
    def test_run_exits_with_main_and_freezes(self, extra, code, reference_copy,
                                             monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["coco", "validate", reference_copy, *extra])
        try:
            with pytest.raises(SystemExit) as e:
                run()
            assert e.value.code == code
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()  # give this process's objects back to the collector

    def test_console_script_is_run(self):
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        assert 'coco = "coco.cli:run"' in pyproject.read_text().splitlines()
