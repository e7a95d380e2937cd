"""An independent walk of the simulator, quantum by quantum.

``_simulate`` folds its walk: it tallies a segment once as count x rate and
simulates an epoch that recurs once, weighted by how often it recurs.  This
walk folds nothing.  It takes every epoch's schedule from the public
planners, rates each member from ``slowdown_xy`` at its CLOS's ways and MBA
percent as README's "Simulator model" states, and steps through every
quantum.  It covers the policies that partition both axes, without load
jitter, and checks migrations, quanta, violations and the run's warmup
overhead against ``run_scenario``.
"""

import importlib.resources
import math
from pathlib import Path

import pytest

from coco.core import replace, slowdown_xy
from coco.params import POLICIES
from coco.scenario import load_scenario
from coco.scheduler import admission_control, plan_epoch, round_robin_plan
from coco.sim import VIOLATION_SLACK, Policy, Scenario, run_scenario

FILES = {
    "reference": importlib.resources.files("coco") / "data" / "reference.yaml",
    "pairs": Path(__file__).parent / "data" / "pairs.yaml",
    "swap-binds": Path(__file__).parent / "data" / "swap-binds.yaml",
}


def _schedule(s: Scenario, workloads, clos_set, epoch: int) -> dict:
    if s.policy is Policy.ROUND_ROBIN:
        return round_robin_plan(workloads, clos_set, s.epoch_quanta, epoch=epoch).schedule
    return plan_epoch(workloads, clos_set, s.epoch_quanta).schedule


def walk(s: Scenario) -> tuple[dict[str, int], dict[str, int], int, float]:
    """Violations and quanta by workload, migrations and the warmup overhead
    of one run without jitter, walked quantum by quantum."""
    clos_set = s.effective_clos_set()
    violations = {w.name: 0 for w in s.workloads}
    quanta = dict(violations)
    admitted = s.workloads
    if POLICIES[s.policy].admission:
        admitted, rejected = admission_control(
            s.workloads, clos_set, s.epoch_quanta, load_jitter=s.load_jitter,
            warmup_window=s.warmup.window, warmup_factor=s.warmup.factor,
            pairing_penalty=s.pairing_penalty)
        for w in rejected:
            if w.offered_load > 0:
                violations[w.name] = s.duration * s.epoch_quanta
    by_name = {w.name: w for w in admitted}
    migrations, ideal, loss = 0, 0.0, 0.0
    working_set = {}  # CLOS id -> the members that ran on it last
    for epoch in range(s.duration if admitted else 0):
        for clos_id, segments in _schedule(s, admitted, clos_set, epoch).items():
            clos = clos_set.by_id(clos_id)
            for segment in segments:
                members = frozenset(segment.members)
                switched = working_set.get(clos_id, members) != members
                working_set[clos_id] = members
                migrations += switched
                paired = s.pairing_penalty if len(members) == 2 else 1.0
                for name in segment.members:
                    w = by_name[name]
                    base = w.sl_full / (
                        slowdown_xy(w.profile, clos.width, clos.mba_percent) * paired)
                    apportioned = w.offered_load / (segment.quanta / s.epoch_quanta)
                    for q in range(segment.quanta):
                        warm = switched and q < s.warmup.window
                        rate = base / s.warmup.factor if warm else base
                        quanta[name] += 1
                        violations[name] += apportioned > rate * (1 + VIOLATION_SLACK)
                        ideal += base
                        loss += base - rate
    return violations, quanta, migrations, loss / ideal if ideal else 0.0


@pytest.mark.parametrize("duration", [1, 2, 7, 37])
@pytest.mark.parametrize("policy", [Policy.COCO, Policy.COCO_CONFLICTING, Policy.ROUND_ROBIN])
@pytest.mark.parametrize("name", list(FILES))
def test_run_totals_equal_the_quantum_walk(name, policy, duration):
    s = replace(load_scenario(str(FILES[name])).scenario(),
                policy=policy, load_jitter=0.0, duration=duration)
    violations, quanta, migrations, overhead = walk(s)
    got = run_scenario(s)
    assert got.migrations == migrations
    assert {n: m.quanta_received for n, m in got.per_workload.items()} == quanta
    assert {n: m.slo_violations for n, m in got.per_workload.items()} == violations
    assert math.isclose(got.overhead_fraction, overhead, rel_tol=1e-12)
    assert overhead > 0  # every case switches, so the comparison is not of zeros
