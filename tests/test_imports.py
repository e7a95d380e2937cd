"""Each command imports only what it runs, and `coco` resolves its names lazily."""

import importlib
import importlib.resources
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coco

from test_cli import MODEL_SCENARIO

SRC = str(Path(importlib.resources.files("coco")).parent)
REFERENCE = str(importlib.resources.files("coco") / "data" / "reference.yaml")
# runs the CLI, then prints its exit code (argparse's too) and which of the
# named modules it imported
PROBE = ("import sys\nfrom coco.cli import main\ntry:\n    code = main(sys.argv[2:])\n"
         "except SystemExit as e:\n    code = e.code\n"
         "print(code, *(m for m in sys.argv[1].split(',') if m in sys.modules))")
SIMULATOR = "coco.sim,coco.scheduler"
# the value types are slotted classes: no command generates code for them
CODEGEN = "dataclasses,inspect"

PUBLIC = {
    "AllocationState", "Dominance", "MachineSpec", "SensitivityProfile", "SloSpec",
    "WorkloadSpec", "dominance_of", "retainment_at", "slowdown_at", "weights_of",
    "ClosConfig", "ClosSet", "MigrationEvent", "ReconfigPlan", "default_partition",
    "diff", "GroundTruthModel", "build_profile", "max_sustainable_load",
    "EpochPlan", "QueueState", "TimeSlice", "admission_control", "pair_compatible",
    "plan_epoch", "round_robin_plan", "Policy", "Scenario", "SimMetrics",
    "WarmupParams", "compare_policies", "max_affordable_load", "run_scenario",
}


def _python(*args: str) -> list[str]:
    """The words of the last line the interpreter prints."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1].split() if run.stdout else []


def _argv(argv: list[str], tmp_path: Path) -> list[str]:
    """`argv` with MODEL a model scenario file and OUT a path in `tmp_path`."""
    model = tmp_path / "model.yaml"
    model.write_text(MODEL_SCENARIO)
    return [str(model) if a == "MODEL" else str(tmp_path / "out") if a == "OUT" else a
            for a in argv]


@pytest.mark.parametrize("argv, code", [
    (["validate", REFERENCE], 0),
    (["profile", REFERENCE], 2),  # reference.yaml has no model to profile
    (["profile", "MODEL", "-o", "OUT"], 0),
    (["schemata", REFERENCE, "--apply", "--root", "OUT"], 0),
])
def test_non_simulating_commands_skip_the_simulator(argv, code, tmp_path):
    assert _python("-c", PROBE, SIMULATOR, *_argv(argv, tmp_path)) == [str(code)]


@pytest.mark.parametrize("argv", [
    ["validate", REFERENCE],
    ["simulate", REFERENCE],
    ["compare", REFERENCE],
    ["profile", "MODEL", "-o", "OUT"],
    ["schemata", REFERENCE, "--apply", "--root", "OUT"],
], ids=lambda argv: argv[0])
def test_no_command_imports_dataclasses_or_inspect(argv, tmp_path):
    assert _python("-c", PROBE, CODEGEN, *_argv(argv, tmp_path)) == ["0"]


@pytest.mark.parametrize("argv", [
    ["validate", REFERENCE],
    ["simulate", REFERENCE],
    ["compare", REFERENCE],
    ["profile", "MODEL", "-o", "OUT"],
    ["schemata", REFERENCE, "--apply", "--root", "OUT"],
], ids=lambda argv: argv[0])
def test_plain_files_are_read_and_written_without_pyyaml(argv, tmp_path):
    assert _python("-c", PROBE, "yaml", *_argv(argv, tmp_path)) == ["0"]


@pytest.mark.parametrize("argv", [
    ["validate", REFERENCE],
    ["simulate", REFERENCE, "--seed", "3", "--format", "csv"],
    ["compare", REFERENCE, "--policies", "coco,none", "-o", "OUT"],
    ["profile", "MODEL", "-o", "OUT"],
    ["schemata", REFERENCE, "--apply", "--root", "OUT"],
], ids=lambda argv: argv[0])
def test_plain_command_lines_are_read_without_argparse(argv, tmp_path):
    assert _python("-c", PROBE, "argparse,gettext", *_argv(argv, tmp_path)) == ["0"]


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["validate", REFERENCE, "--seed", "1"], 2),  # validate reads no seed
    (["simulate", REFERENCE, "--format=csv"], 0),
])
def test_other_command_lines_go_through_argparse(argv, code):
    assert _python("-c", PROBE, "argparse", *argv) == [str(code), "argparse"]


@pytest.mark.parametrize("argv, code", [
    (["validate", REFERENCE], 0),
    (["profile", REFERENCE], 2),
    (["profile", "MODEL", "-o", "OUT"], 0),
])
def test_a_file_without_clos_set_skips_closconfig(argv, code, tmp_path):
    assert _python("-c", PROBE, "coco.closconfig", *_argv(argv, tmp_path)) == [str(code)]


def test_a_file_with_an_anchor_loads_through_pyyaml(tmp_path):
    anchored = tmp_path / "anchored.yaml"
    anchored.write_text(Path(REFERENCE).read_text().replace("machine:\n", "machine: &m\n", 1))
    assert _python("-c", PROBE, "yaml", "validate", str(anchored)) == ["0", "yaml"]


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_simulating_commands_load_the_simulator(command):
    assert _python("-c", PROBE, SIMULATOR, command, REFERENCE) == [
        "0", "coco.sim", "coco.scheduler"]


def test_import_coco_loads_no_submodule():
    code = "import sys, coco; print(*sorted(m for m in sys.modules if m.startswith('coco.')))"
    assert _python("-c", code) == []


def test_public_names_resolve_to_their_home_objects():
    assert set(coco.__all__) == PUBLIC and len(coco.__all__) == len(PUBLIC)
    for name in coco.__all__:
        obj = getattr(coco, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import():
    namespace = {}
    exec("from coco import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == {
        name: getattr(coco, name) for name in PUBLIC}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        coco.nonexistent  # noqa: B018
    with pytest.raises(ImportError):
        from coco import nonexistent  # noqa: F401


def test_scenario_types_are_shared_with_the_simulator():
    from coco import params, sim
    for name in ("Policy", "PolicySpec", "POLICIES", "Scenario", "WarmupParams",
                 "MAX_DURATION", "MAX_EPOCH_QUANTA", "anti_monotone_set"):
        assert getattr(sim, name) is getattr(params, name)
