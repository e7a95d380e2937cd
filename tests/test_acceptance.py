"""Acceptance gate: every criterion prints one PASS line when it holds.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from coco.calibration import (CAT_RETAINMENT, MBA_RETAINMENT, calibrated_profile,
                              reference_machine)
from coco.closconfig import ClosConfig, ClosSet, default_partition, diff
from coco.core import AllocationState, MachineSpec, SloSpec, WorkloadSpec, \
    replace, slowdown_at, weights_of
from coco.profiler import (GroundTruthModel, build_profile, grid_states,
                           max_sustainable_load)
from coco.resctrl import (ResctrlLayout, apply, parse_schemata,
                          serialize_clos_set, serialize_schemata)
from coco.scenario import load_scenario
from coco.scheduler import plan_epoch, round_robin_plan
from coco.sim import (Policy, Scenario, WarmupParams, compare_policies,
                      max_affordable_load, run_scenario)

from conftest import make_workload
from test_closconfig import random_valid_set
from test_profiler import random_monotone_capacity, scan_max_load

GOLDEN = Path(__file__).parent / "data" / "schemata_default.golden"
SLO = SloSpec(0.99, 20.0)


def ok(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


@pytest.fixture(scope="module")
def reference(reference_path):
    return load_scenario(reference_path).scenario()


def test_criterion_1_slowdown_and_weight_arithmetic():
    # hand arithmetic: slowdown = 1 / retainment for every measured cell
    hand_cat = {
        "memcached": {9: 1.135074, 6: 1.193317, 3: 1.25},
        "nginx": {9: 1.333333, 6: 1.612903, 3: 3.030303},
        "mongodb": {9: 1.715266, 6: 2.680965, 3: 3.846154},
    }
    hand_mba = {
        "memcached": {80: 1.094092, 60: 1.146789, 40: 1.219512, 20: 1.275510},
        "nginx": {80: 1.075269, 60: 1.109878, 40: 1.145475, 20: 1.233046},
        "mongodb": {80: 1.212121, 60: 1.351351, 40: 1.430615, 20: 1.557632},
    }
    for app in hand_cat:
        profile = calibrated_profile(app)
        for ways, expected in hand_cat[app].items():
            got = slowdown_at(profile, AllocationState(ways, 100))
            assert abs(got - expected) <= 1e-4, (app, ways)
        for mba, expected in hand_mba[app].items():
            got = slowdown_at(profile, AllocationState(20, mba))
            assert abs(got - expected) <= 1e-4, (app, mba)
        assert slowdown_at(profile, AllocationState(20, 100)) == 1.0
    # spot checks against the shorter hand-rounded values
    assert slowdown_at(calibrated_profile("memcached"),
                       AllocationState(3, 100)) == pytest.approx(1.25, abs=1e-4)
    assert slowdown_at(calibrated_profile("nginx"),
                       AllocationState(3, 100)) == pytest.approx(3.0303, abs=1e-4)
    assert slowdown_at(calibrated_profile("mongodb"),
                       AllocationState(20, 20)) == pytest.approx(1.5576, abs=1e-4)
    # weights of every subset of the measured slowdowns sum to one
    cells = sorted(set(
        1.0 / r for row in itertools.chain(CAT_RETAINMENT.values(),
                                           MBA_RETAINMENT.values())
        for r in row.values()))
    rng = random.Random(1)
    for size in range(1, 6):
        for _ in range(40):
            subset = rng.sample(cells, size)
            assert abs(sum(weights_of(subset)) - 1.0) <= 1e-9
    ok(1, "Table-derived slowdowns match hand arithmetic; weights sum to 1")


def test_criterion_2_profiler_oracle_equivalence():
    machine = MachineSpec(llc_ways=6, clos_count=2, mba_step=20)
    rng = random.Random(2024)
    scan_checks = 0
    for model_idx in range(100):
        model = GroundTruthModel(
            base_latency_ms=rng.uniform(0.5, 3.0),
            tail_inflation=rng.uniform(1.0, 3.0),
            capacity_fn=random_monotone_capacity(rng, machine),
        )
        profile, _ = build_profile(model, machine, SLO)
        full_cap = model.capacity_fn(AllocationState(6, 100))
        for state in grid_states(machine):
            i = profile.way_levels.index(state.llc_ways)
            j = profile.mba_levels.index(state.mba_percent)
            assert profile.slowdowns[i][j] == full_cap / model.capacity_fn(state)
        # closed form vs 0.1%-step linear scan on sampled states
        for _ in range(2):
            state = AllocationState(rng.randint(1, 6), rng.choice((20, 40, 60, 80, 100)))
            got = max_sustainable_load(model, state, SLO)
            oracle = scan_max_load(model, state, SLO)
            assert abs(got - oracle) <= 0.001 * model.capacity_fn(state)
            scan_checks += 1
    assert scan_checks == 200
    ok(2, "100 random monotone models: profile equals capacity ratios, load within one scan step")


def test_criterion_3_scheduler_properties():
    rng = random.Random(3030)
    for _ in range(1000):
        machine = MachineSpec(llc_ways=rng.choice((8, 12, 20)),
                              clos_count=rng.choice((2, 3, 4)), mba_step=10)
        clos_set = default_partition(machine)
        smallest = min(clos_set.lc_configs(), key=lambda c: (c.width, c.id))
        reference = smallest.state()
        n = rng.randint(1, 8)
        workloads = [make_workload(f"w{i:02d}", rng.uniform(1.0, 9.0), reference,
                                   llc_ways=machine.llc_ways) for i in range(n)]
        quanta = rng.randint(n, 40)
        plan = plan_epoch(workloads, clos_set, quanta, pairing=False)
        # starvation floor
        assert all(ts.quanta >= 1 for ts in plan.slices)
        # per-CLOS conservation
        for clos_id, segments in plan.schedule.items():
            assert sum(s.quanta for s in segments) == quanta
            clos_slices = [ts for ts in plan.slices if ts.clos_id == clos_id]
            assert sum(ts.quanta for ts in clos_slices) == quanta
        # weight-monotone slices within each CLOS
        by_clos = {}
        for ts in plan.slices:
            by_clos.setdefault(ts.clos_id, []).append(ts)
        for clos_slices in by_clos.values():
            ordered = sorted(clos_slices, key=lambda t: -plan.weights[t.workload])
            for a, b in zip(ordered, ordered[1:]):
                if plan.weights[a.workload] > plan.weights[b.workload]:
                    assert a.quanta >= b.quanta
        # determinism
        assert plan == plan_epoch(list(workloads), clos_set, quanta, pairing=False)
        # degeneracy: equal slowdowns reproduce round-robin slices exactly
        twins = [make_workload(w.name, 2.5, reference, llc_ways=machine.llc_ways)
                 for w in workloads]
        weighted = plan_epoch(twins, clos_set, quanta, pairing=False)
        rr = round_robin_plan(twins, clos_set, quanta, epoch=0)
        for clos_id in weighted.schedule:
            assert Counter(ts.quanta for ts in weighted.slices if ts.clos_id == clos_id) \
                == Counter(ts.quanta for ts in rr.slices if ts.clos_id == clos_id)
    ok(3, "1000 random scenarios: floor, conservation, monotone, degeneracy, determinism")


def test_criterion_4_policy_ordering(reference):
    result = compare_policies(reference, list(Policy))
    totals = {p: m.total_retainment for p, m in result.rows}
    assert totals[Policy.COCO] >= totals[Policy.ROUND_ROBIN] >= totals[Policy.NO_PARTITION]
    for other in (Policy.CAT_ONLY, Policy.MBA_ONLY, Policy.COCO_CONFLICTING):
        assert totals[Policy.COCO] >= totals[other]
    ratio = result.ratios[Policy.COCO]
    assert ratio is not None and ratio >= 2.0
    ok(4, f"policy ordering holds; coco/no-partition ratio {ratio:.2f} >= 2.0")


def test_criterion_5_overhead_calibration(reference):
    overhead = run_scenario(reference).overhead_fraction
    assert 0.024 <= overhead <= 0.061
    disabled = replace(reference, warmup=WarmupParams(0, 1.0))
    assert run_scenario(disabled).overhead_fraction == 0.0
    ok(5, f"default warmup overhead {overhead:.4f} in [0.024, 0.061]; disabled is 0")


def test_criterion_6_monotonicity_rule():
    rng = random.Random(606)
    opposed_seen = 0
    for _ in range(600):
        machine = MachineSpec(llc_ways=rng.choice((8, 12, 20)),
                              clos_count=rng.choice((2, 3, 4)), mba_step=10)
        old = random_valid_set(rng, machine)
        new = random_valid_set(rng, machine)
        plan = diff(old, new)
        opposed = [e for e in plan.events if e.delta_ways * e.delta_mba < 0]
        if plan.valid:
            assert not opposed
            assert all(e.delta_ways * e.delta_mba >= 0 for e in plan.events)
        else:
            assert opposed
            assert all(e.conflict for e in opposed)
            opposed_seen += 1
    assert opposed_seen > 50  # the generator must actually exercise conflicts
    ok(6, "sign rule holds on every valid plan; opposed pairs always flagged")


def test_criterion_7_serialization(tmp_path):
    rng = random.Random(707)
    for _ in range(1000):
        width = rng.randint(1, 20)
        shift = rng.randint(0, 20 - width)
        cfg = ClosConfig(rng.randint(0, 3), ((1 << width) - 1) << shift,
                         rng.randint(1, 100))
        cache_id = rng.randint(0, 3)
        frag = parse_schemata(serialize_schemata(cfg, cache_id))
        assert frag.mask(cache_id) == cfg.mask
        assert frag.mba_percent(cache_id) == cfg.mba_percent
    clos_set = default_partition(reference_machine())
    assert serialize_clos_set(clos_set) == GOLDEN.read_text()
    layout = ResctrlLayout(tmp_path / "resctrl")
    first = apply(clos_set, layout)
    second = apply(clos_set, layout)
    assert first.ok and first.rewrites == 3
    assert second.ok and second.rewrites == 0
    ok(7, "1000 round-trips; golden bytes exact; apply idempotent on mock root")


def test_criterion_8_single_workload_pinning():
    machine = MachineSpec(llc_ways=20, clos_count=2, mba_step=10)
    clos_set = ClosSet(machine, (
        ClosConfig(0, ((1 << 17) - 1) << 3, 50),
        ClosConfig(1, 0b111, 50),
    ), reserved_id=0)
    workload = WorkloadSpec("memcached-solo", SloSpec(0.99, 1.5),
                            calibrated_profile("memcached"),
                            offered_load=60000.0, sl_full=120000.0)
    scenario = Scenario(machine=machine, workloads=(workload,),
                        policy=Policy.CAT_ONLY, clos_set=clos_set)
    result = max_affordable_load(scenario)
    retainment = result.metrics.per_workload["memcached-solo"].retainment
    assert retainment == pytest.approx(0.80, abs=0.01)
    ok(8, f"memcached pinned to the 3-bit CLOS retains {retainment:.4f} (0.80 +/- 0.01)")
