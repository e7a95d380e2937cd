"""Byte-for-byte regression net for the reference and overload outputs.

The golden files under ``tests/data`` hold the `compare` reports and every
policy's `run_scenario` serialization on the shipped reference colocation,
which admits every workload, and the `simulate` and `compare` CSV reports
on two of the benchmark's scenarios at seed 101: overload, where admission
evicts 90 of 156 workloads, and fleet, with 60 workloads on the default
16-CLOS partition at `mba_step` 5, where rr runs fewer epochs (10) than
there are LC CLOSs (15); and on `pairs.yaml`, where coco deals LLC- and
MB-dominant neighbours into shared segments.  The 151 KB profile file
`coco profile` writes for overload is pinned by its sha256.  To regenerate
the golden files deliberately, run this module as a script from the repo root:
``PYTHONPATH=src:tests python tests/test_golden.py``; it prints the
profile file's sha256 for ``PROFILE_SHA256``.
"""

import contextlib
import hashlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest

from coco.cli import main
from coco.core import replace
from coco.scenario import load_scenario
from coco.scheduler import _deal, _ranked, rated
from coco.sim import Policy, run_scenario

DATA = Path(__file__).parent / "data"
COMPARE_GOLDENS = {"csv": DATA / "reference_compare.golden.csv",
                   "table": DATA / "reference_compare.golden.txt"}
POLICIES_GOLDEN = DATA / "reference_policies.golden"
# (load_jitter, seed) pairs each policy runs at
JITTER_RUNS = ((0.0, 7), (0.2, 7))
# benchmark/scenarios.py's scenarios at seed 101, as it writes them
GENERATED = ("overload-101", "fleet-101")
# the one fixture whose coco deal pairs workloads (see its header)
PAIRED = "pairs"
CSV_GOLDENS = {(name, command): DATA / f"{name}_{command}.golden.csv"
               for name in GENERATED + (PAIRED,) for command in ("simulate", "compare")}
# sha256 of `coco profile tests/data/overload-101.yaml -o profiles.yaml`
PROFILE_SHA256 = "2aea206286e348565e371d2263b2a9b0c504525bb88ad1fc2c80a2d23118ec5c"


def csv_report(name: str, command: str) -> str:
    """The CSV report of ``command`` on a generated scenario."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, str(DATA / f"{name}.yaml"), "--format", "csv"]) == 0
    return out.getvalue()


def profile_sha256(out_dir: Path) -> str:
    """The sha256 of the profile file of overload's six models."""
    out = out_dir / "profiles.yaml"
    assert main(["profile", str(DATA / "overload-101.yaml"), "-o", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def policies_text(reference_path) -> str:
    """Every policy's run_scenario serialization, with and without jitter."""
    base = load_scenario(reference_path).scenario()
    parts = []
    for jitter, seed in JITTER_RUNS:
        for policy in Policy:
            s = replace(base, policy=policy, load_jitter=jitter,
                        seed=seed)
            parts.append(f"[{policy.value} load_jitter={jitter} seed={seed}]\n"
                         + run_scenario(s).serialize())
    return "".join(parts)


@pytest.mark.parametrize("fmt", sorted(COMPARE_GOLDENS))
def test_reference_compare(fmt, tmp_path, reference_path, capsys):
    scenario = tmp_path / "reference.yaml"
    shutil.copy(reference_path, scenario)
    assert main(["compare", str(scenario), "--format", fmt]) == 0
    assert capsys.readouterr().out == COMPARE_GOLDENS[fmt].read_text()


def test_reference_policies(reference_path):
    assert policies_text(reference_path) == POLICIES_GOLDEN.read_text()


@pytest.mark.parametrize("command", ["compare", "simulate"])
def test_overload_csv(command):
    assert csv_report("overload-101", command) == CSV_GOLDENS["overload-101", command].read_text()


def test_overload_profile_file(tmp_path):
    assert profile_sha256(tmp_path) == PROFILE_SHA256


@pytest.mark.parametrize("command", ["compare", "simulate"])
def test_fleet_csv(command):
    assert csv_report("fleet-101", command) == CSV_GOLDENS["fleet-101", command].read_text()


@pytest.mark.parametrize("command", ["compare", "simulate"])
def test_pairs_csv(command):
    assert csv_report(PAIRED, command) == CSV_GOLDENS[PAIRED, command].read_text()


def test_pairs_share_segments_at_a_penalty():
    scenario = load_scenario(DATA / f"{PAIRED}.yaml").scenario()
    penalty = scenario.pairing_penalty
    assert scenario.policy is Policy.COCO and penalty > 1
    lc, ranked, weights = _ranked(scenario.workloads, scenario.effective_clos_set())
    dealt = _deal(ranked, weights, lc, scenario.epoch_quanta, True)
    pairs = {tuple(w.name for w in members)
             for *_, segments in dealt for members, _ in segments if len(members) == 2}
    assert pairs == {("mongodb-a", "nginx-b"), ("nginx-a", "memcached-b")}
    paired = {name for pair in pairs for name in pair}
    views = {cfg.id: (cfg.width, cfg.mba_percent) for cfg in lc}

    def base_rates(penalty):
        return {w.name: base for *_, rates in rated(dealt, scenario.epoch_quanta, views, {},
                                                    penalty=penalty)
                for w, base, _ in rates}

    plain, penalised = base_rates(1.0), base_rates(penalty)
    for name, base in plain.items():
        if name in paired:
            assert penalised[name] == pytest.approx(base / penalty) and penalised[name] < base
        else:
            assert penalised[name] == base
    # and the simulator serves the paired members less, the others alike
    served = {p: {name: m.affordable_load for name, m in
                  run_scenario(replace(scenario, pairing_penalty=p)).per_workload.items()}
              for p in (1.0, penalty)}
    for name, load in served[1.0].items():
        assert served[penalty][name] < load if name in paired else served[penalty][name] == load


if __name__ == "__main__":
    import importlib.resources

    ref = str(importlib.resources.files("coco") / "data" / "reference.yaml")
    for fmt, path in COMPARE_GOLDENS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["compare", ref, "--format", fmt]) == 0
        path.write_text(out.getvalue())
    POLICIES_GOLDEN.write_text(policies_text(ref))
    for (name, command), path in CSV_GOLDENS.items():
        path.write_text(csv_report(name, command))
    with tempfile.TemporaryDirectory() as tmp:
        print("PROFILE_SHA256 =", profile_sha256(Path(tmp)))
