import ast
import importlib.resources
import inspect
import itertools
import math
import random
import textwrap
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coco import sim
from coco.calibration import calibrated_profile, reference_machine
from coco.closconfig import ClosConfig, ClosSet, default_partition
from coco.core import (AllocationState, MachineSpec, SensitivityProfile, SloSpec,
                       WorkloadSpec, replace, slowdown_xy)
from coco.errors import InfeasibleSloError, ValidationError
from coco.params import MAX_DURATION
from coco.scenario import load_scenario
from coco.scheduler import admission_control, plan_epoch
from coco.sim import (Policy, Scenario, WarmupParams, _simulate, anti_monotone_set,
                      compare_policies, max_affordable_load, run_scenario)

from conftest import SLO, _scaled, _total_violations, make_workload

NO_WARMUP = WarmupParams(window=0, factor=1.0)
REFERENCE = load_scenario(
    str(importlib.resources.files("coco") / "data" / "reference.yaml")).scenario()


def solo_machine():
    return MachineSpec(llc_ways=20, clos_count=2, mba_step=10)


def three_bit_set(machine, lc_mba=50):
    """Reserved CLOS on the upper ways; one 3-bit LC CLOS at the bottom."""
    return ClosSet(machine, (
        ClosConfig(0, ((1 << 17) - 1) << 3, 100 - lc_mba),
        ClosConfig(1, 0b111, lc_mba),
    ), reserved_id=0)


def single_lc_set(machine, width, lc_mba=50):
    reserved = machine.llc_ways - width
    return ClosSet(machine, (
        ClosConfig(0, ((1 << reserved) - 1) << width, 100 - lc_mba),
        ClosConfig(1, (1 << width) - 1, lc_mba),
    ), reserved_id=0)


def memcached_workload(offered=60000.0):
    return WorkloadSpec("memcached-solo", SloSpec(0.99, 1.5),
                        calibrated_profile("memcached"),
                        offered_load=offered, sl_full=120000.0)


@st.composite
def small_scenarios(draw):
    """A few step-profile workloads on a 20-way machine, any policy."""
    machine = MachineSpec(llc_ways=20, clos_count=draw(st.integers(2, 5)),
                          mba_step=10)
    n = draw(st.integers(1, 5))
    workloads = tuple(
        make_workload(f"w{i}", draw(st.floats(1.0, 4.0)),
                      AllocationState(draw(st.integers(1, 19)),
                                      draw(st.sampled_from(range(10, 100, 10)))),
                      offered=draw(st.just(0.0) | st.floats(1.0, 1e4)),
                      sl_full=draw(st.floats(10.0, 1e5)))
        for i in range(n))
    return Scenario(
        machine=machine, workloads=workloads,
        policy=draw(st.sampled_from(list(Policy))),
        epoch_quanta=draw(st.integers(n, 30)), duration=draw(st.integers(1, 4)),
        warmup=WarmupParams(draw(st.integers(0, 3)), draw(st.floats(1.0, 1.5))),
        seed=draw(st.integers(0, 100)),
        load_jitter=draw(st.sampled_from((0.0, 0.2))),
        interference_alpha=draw(st.floats(1.0, 3.0)),
        pairing_penalty=draw(st.floats(1.0, 1.5)))


def assert_exact_boundary(s: Scenario) -> None:
    """m* has no violation and any scaling just above it has one."""
    r = max_affordable_load(s)
    assert sum(m.slo_violations for m in r.metrics.per_workload.values()) == 0
    assert _total_violations(s, r.multiplier) == 0
    assert _total_violations(s, r.multiplier * (1 + 1e-6)) >= 1


@pytest.fixture(scope="module")
def reference(reference_path):
    return load_scenario(reference_path)


class TestRunScenario:
    def test_full_allocation_no_violations(self):
        w = memcached_workload(offered=60000.0)
        s = Scenario(machine=solo_machine(), workloads=(w,),
                     policy=Policy.NO_PARTITION)
        m = run_scenario(s)
        wm = m.per_workload["memcached-solo"]
        assert wm.slo_violations == 0
        assert wm.retainment == pytest.approx(1.0)
        assert m.migrations == 0 and m.overhead_fraction == 0.0

    def test_two_equal_sharers_overloaded_violate_every_quantum(self):
        machine = solo_machine()
        cs = single_lc_set(machine, width=6)
        state = cs.by_id(1).state()
        # slowdown 2 at the CLOS -> SL_S = 500; offered 0.6 * SL_S each
        ws = tuple(make_workload(n, 2.0, state, offered=300.0, sl_full=1000.0)
                   for n in ("a", "b"))
        s = Scenario(machine=machine, workloads=ws, policy=Policy.ROUND_ROBIN,
                     clos_set=cs, warmup=NO_WARMUP, duration=4)
        m = run_scenario(s)
        for wm in m.per_workload.values():
            assert wm.quanta_received > 0
            assert wm.slo_violations == wm.quanta_received

    def test_calibrated_coco_beats_no_partition(self, reference):
        base = reference.scenario()
        coco = run_scenario(base)
        nopart = run_scenario(replace(base, policy=Policy.NO_PARTITION))
        assert coco.total_retainment > nopart.total_retainment

    def test_work_conservation(self, reference):
        base = reference.scenario()
        m = run_scenario(base)
        # six unpaired workloads on three LC CLOSs, every epoch fully used
        total = sum(wm.quanta_received for wm in m.per_workload.values())
        assert total == 3 * base.epoch_quanta * base.duration

    def test_rejected_workload_reported(self):
        machine = solo_machine()
        cs = single_lc_set(machine, width=6)
        state = cs.by_id(1).state()
        ws = tuple(make_workload(n, 2.0, state, offered=300.0, sl_full=1000.0)
                   for n in ("a", "b"))
        s = Scenario(machine=machine, workloads=ws, policy=Policy.COCO,
                     clos_set=cs, warmup=NO_WARMUP)
        m = run_scenario(s)
        received = [n for n, wm in m.per_workload.items() if wm.quanta_received > 0]
        rejected = [n for n, wm in m.per_workload.items() if wm.quanta_received == 0]
        assert len(received) == 1 and len(rejected) == 1
        assert m.per_workload[rejected[0]].slo_violations > 0


class TestAdmission:
    @settings(max_examples=150, deadline=None)
    # at 1.2x its loads memcached-a was admitted and violated 20 quanta, in
    # warm quanta that a capacity rule without the warmup factor let through
    @example(s=_scaled(REFERENCE, 1.2), conflicting=False, jitter=0.0, seed=0)
    # admitted under a 5% margin at the stated load, memcached-a violated 6
    # of its 40 quanta when jitter drew its load up to 10% over
    @example(s=_scaled(REFERENCE, 1.1), conflicting=False, jitter=0.1, seed=0)
    @given(s=small_scenarios(), conflicting=st.booleans(),
           jitter=st.floats(0.0, 0.95), seed=st.integers(0, 2**32 - 1))
    def test_admitted_workloads_never_violate(self, s, conflicting, jitter, seed):
        # for any jitter and any seed: admission rates the jittered load's bound
        s = replace(
            s, load_jitter=jitter, seed=seed,
            policy=Policy.COCO_CONFLICTING if conflicting else Policy.COCO)
        for name, wm in run_scenario(s).per_workload.items():
            if wm.quanta_received:  # admitted
                assert wm.slo_violations == 0, name

    @pytest.mark.parametrize("policy", [Policy.COCO, Policy.COCO_CONFLICTING])
    def test_all_rejected_run_draws_nothing(self, policy):
        # at 50x its capacity no workload is admitted, so the run ends before
        # the walk: even the longest jittered run draws no jitter
        s = replace(REFERENCE, policy=policy, load_jitter=0.2, duration=MAX_DURATION,
                    workloads=tuple(replace(w, offered_load=50 * w.sl_full)
                                    for w in REFERENCE.workloads))
        with mock.patch("coco.sim._jitter_factors", side_effect=AssertionError("drew jitter")):
            metrics = run_scenario(s)
        for name, wm in metrics.per_workload.items():
            assert (wm.quanta_received, wm.slo_violations) == (
                0, MAX_DURATION * s.epoch_quanta), name


class TestNonFiniteRejected:
    def test_nan_offered_load_in_reference(self, reference):
        workloads = list(reference.scenario().workloads)
        with pytest.raises(ValidationError):
            workloads[2] = replace(workloads[2], offered_load=math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("key", ["interference_alpha", "pairing_penalty"])
    def test_scenario_number(self, reference, key, bad):
        with pytest.raises(ValidationError):
            replace(reference.scenario(), **{key: bad})

    def test_quantum_length_is_not_a_parameter(self, reference):
        # time is counted in quanta and epochs only: a quantum has no length to set
        scenario = reference.scenario()
        assert len(Scenario.__slots__) == 11
        with pytest.raises(TypeError, match="quantum_ms"):
            Scenario(scenario.machine, scenario.workloads, scenario.policy, quantum_ms=1.0)

    def test_slowdown_total_overflows(self, reference):
        # each rate is finite and normal, but the weights' total is not
        huge = SensitivityProfile((1, 20), (10, 100), ((1e308, 1e308), (1e308, 1.0)))
        workloads = [replace(w, profile=huge, sl_full=1e10) if w.name.startswith("memcached")
                     else w for w in reference.scenario().workloads]
        with pytest.raises(ValidationError, match="slowdowns overflow their total"):
            replace(reference.scenario(), workloads=tuple(workloads),
                    interference_alpha=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_warmup_factor(self, bad):
        with pytest.raises(ValidationError):
            WarmupParams(window=2, factor=bad)


class TestDeterminism:
    def test_byte_identical_serialization(self, reference):
        base = reference.scenario()
        jittered = replace(base, load_jitter=0.2, seed=99)
        assert run_scenario(jittered).serialize() == run_scenario(jittered).serialize()

    def test_seed_ignored_without_jitter(self, reference):
        base = reference.scenario()
        a = run_scenario(replace(base, seed=1))
        b = run_scenario(replace(base, seed=2))
        assert a.serialize() == b.serialize()


class TestMetamorphic:
    """Outcomes that must not move when the input moves in a way that
    changes nothing the model reads."""

    @pytest.mark.parametrize("path", [
        str(importlib.resources.files("coco") / "data" / "reference.yaml"),
        *(str(Path(__file__).parent / "data" / f"{name}.yaml")
          for name in ("swap-binds", "pairs", "fleet-101", "overload-101"))],
        ids=["reference", "swap-binds", "pairs", "fleet-101", "overload-101"])
    def test_input_order_changes_nothing_without_jitter(self, path):
        # each jitter draw follows input order, so only a jitter-free run is order-free
        loaded = load_scenario(path)
        base = replace(loaded.scenario(), load_jitter=0.0)
        for policy in loaded.policies:
            scenario = replace(base, policy=policy)
            expected = (run_scenario(scenario).serialize(),
                        max_affordable_load(scenario).metrics.serialize())
            for seed in range(3):
                workloads = list(scenario.workloads)
                random.Random(seed).shuffle(workloads)
                shuffled = replace(scenario, workloads=tuple(workloads))
                assert (run_scenario(shuffled).serialize(),
                        max_affordable_load(shuffled).metrics.serialize()) == expected, (
                    policy, seed)

    def test_less_load_admits_more_and_violates_less(self):
        # N workloads cycling reference's six under coco, scaled 0.4..2.0 by 0.1:
        # nesting between each scale and the next nests every pair of scales
        base = replace(REFERENCE, load_jitter=0.0)
        for n in range(6, 17):
            cycled = replace(base, workloads=tuple(
                replace(w, name=f"{w.name}.{i}")
                for i, w in zip(range(n), itertools.cycle(base.workloads))))
            outcomes = []
            for scale in [(4 + k) / 10 for k in range(17)]:
                per = run_scenario(_scaled(cycled, scale)).per_workload
                outcomes.append((scale, {k for k, m in per.items() if m.quanta_received},
                                 {k for k, m in per.items() if m.slo_violations}))
            for (c, admitted, violating), (c2, admitted2, violating2) in zip(outcomes,
                                                                             outcomes[1:]):
                assert admitted2 <= admitted, (n, c, c2)
                assert violating <= violating2, (n, c, c2)


class TestWarmup:
    def test_disabled_warmup_zero_overhead(self, reference):
        s = replace(reference.scenario(), warmup=NO_WARMUP)
        assert run_scenario(s).overhead_fraction == 0.0

    def test_window_zero_zero_overhead(self, reference):
        s = replace(reference.scenario(),
                    warmup=WarmupParams(window=0, factor=1.5))
        assert run_scenario(s).overhead_fraction == 0.0

    def test_default_overhead_in_band(self, reference):
        m = run_scenario(reference.scenario())
        assert 0.024 <= m.overhead_fraction <= 0.061


class TestMaxAffordableLoad:
    def test_single_workload_full_allocation(self):
        w = memcached_workload(offered=60000.0)
        s = Scenario(machine=solo_machine(), workloads=(w,),
                     policy=Policy.NO_PARTITION)
        r = max_affordable_load(s)
        assert r.affordable["memcached-solo"] == pytest.approx(120000.0, rel=0.005)

    def test_memcached_pinned_to_three_bit_clos(self):
        machine = solo_machine()
        s = Scenario(machine=machine, workloads=(memcached_workload(),),
                     policy=Policy.CAT_ONLY, clos_set=three_bit_set(machine))
        r = max_affordable_load(s)
        ret = r.metrics.per_workload["memcached-solo"].retainment
        assert ret == pytest.approx(0.80, abs=0.01)

    def test_two_equal_sharers_get_half(self):
        machine = solo_machine()
        cs = single_lc_set(machine, width=6)
        state = cs.by_id(1).state()
        ws = tuple(make_workload(n, 2.0, state, offered=100.0, sl_full=1000.0)
                   for n in ("a", "b"))
        s = Scenario(machine=machine, workloads=ws, policy=Policy.COCO,
                     clos_set=cs, warmup=NO_WARMUP)
        r = max_affordable_load(s)
        # SL_S = 500 each at slowdown 2; equal shares -> 250 each
        for name in ("a", "b"):
            assert r.affordable[name] == pytest.approx(250.0, rel=0.01)

    def test_bracketing(self, reference):
        for policy in Policy:
            for jitter in (0.0, 0.2):
                assert_exact_boundary(replace(
                    reference.scenario(), policy=policy, load_jitter=jitter))

    @settings(max_examples=60, deadline=None)
    @given(small_scenarios())
    def test_bracketing_random(self, s):
        assume(any(w.offered_load > 0 for w in s.workloads))
        assert_exact_boundary(s)

    def test_zero_offered_everywhere_rejected(self):
        w = replace(memcached_workload(), offered_load=0.0)
        s = Scenario(machine=solo_machine(), workloads=(w,),
                     policy=Policy.NO_PARTITION)
        with pytest.raises(InfeasibleSloError):
            max_affordable_load(s)


class TestPolicies:
    def test_anti_monotone_reverses_lc_mba(self):
        cs = default_partition(reference_machine())
        anti = anti_monotone_set(cs)
        base = {c.id: c for c in cs.configs}
        flipped = {c.id: c for c in anti.configs}
        assert flipped[1].mba_percent == 50 and flipped[3].mba_percent == 10
        assert flipped[2].mba_percent == base[2].mba_percent == 30
        assert all(flipped[i].mask == base[i].mask for i in base)

    def test_mba_only_holds_cache_at_full(self):
        # one workload, one LC CLOS at 50% MBA: mba-only leaves the cache
        # unpartitioned (full 20 ways for the sole tenant), so the memcached
        # row's pure-MBA retainment comes through
        machine = solo_machine()
        cs = single_lc_set(machine, width=3, lc_mba=60)
        s = Scenario(machine=machine, workloads=(memcached_workload(),),
                     policy=Policy.MBA_ONLY, clos_set=cs)
        r = max_affordable_load(s)
        ret = r.metrics.per_workload["memcached-solo"].retainment
        assert ret == pytest.approx(0.872, abs=0.01)

    def test_cat_only_splits_bandwidth_between_actives(self):
        # two tenants on two LC CLOSs: each effectively gets 50% bandwidth
        machine = MachineSpec(llc_ways=20, clos_count=3, mba_step=10)
        cs = ClosSet(machine, (
            ClosConfig(0, 0b11 << 18, 20),
            ClosConfig(1, (1 << 9) - 1, 40),            # 9 ways
            ClosConfig(2, ((1 << 9) - 1) << 9, 40),     # 9 ways
        ), reserved_id=0)
        state = cs.by_id(1).state()
        ws = tuple(make_workload(n, 1.0, state, offered=100.0, sl_full=1000.0)
                   for n in ("a", "b"))
        s = Scenario(machine=machine, workloads=ws, policy=Policy.CAT_ONLY,
                     clos_set=cs, warmup=NO_WARMUP, interference_alpha=2.0)
        r = max_affordable_load(s)
        # flat profile: slowdown 1 everywhere; only the interference factor bites
        for name in ("a", "b"):
            assert r.affordable[name] == pytest.approx(500.0, rel=0.01)

    def test_conflicting_strictly_worse_for_wide_clos_tenant(self):
        # a single cache+bandwidth hungry workload lands on the widest CLOS;
        # the conflicting config starves that CLOS of bandwidth
        machine = reference_machine()
        w = WorkloadSpec("mongo-solo", SloSpec(0.99, 15.0),
                         calibrated_profile("mongodb"),
                         offered_load=15000.0, sl_full=30000.0)
        base = Scenario(machine=machine, workloads=(w,), policy=Policy.COCO)
        good = max_affordable_load(base)
        bad = max_affordable_load(
            replace(base, policy=Policy.COCO_CONFLICTING))
        assert good.metrics.total_retainment > bad.metrics.total_retainment

    def test_conflicting_strictly_worse_where_the_swap_binds(self):
        # the fixture's binding workload keeps its CLOS under both sets, and
        # the anti-monotone swap cuts that CLOS's bandwidth share
        base = load_scenario(str(Path(__file__).parent / "data" / "swap-binds.yaml")).scenario()
        totals, binds = {}, {}
        for policy in (Policy.COCO, Policy.COCO_CONFLICTING):
            s = replace(base, policy=policy)
            tallies, _, _ = _simulate(s, apply_admission=False)
            binding = max(tallies, key=lambda name: tallies[name].peak_demand)
            clos_set = s.effective_clos_set()
            plan = plan_epoch(s.workloads, clos_set, s.epoch_quanta,
                              reference_state=sim._reference_state(s, clos_set))
            binds[policy] = binding, clos_set.by_id(plan.slice_of(binding).clos_id).mba_percent
            totals[policy] = max_affordable_load(s).metrics.total_retainment
        assert binds == {Policy.COCO: ("nginx-b", 50), Policy.COCO_CONFLICTING: ("nginx-b", 10)}
        assert totals[Policy.COCO] > totals[Policy.COCO_CONFLICTING]

    def test_policy_ordering_on_reference(self, reference):
        res = compare_policies(reference.scenario(), list(Policy))
        totals = {p: m.total_retainment for p, m in res.rows}
        assert totals[Policy.COCO] >= totals[Policy.ROUND_ROBIN]
        assert totals[Policy.ROUND_ROBIN] >= totals[Policy.NO_PARTITION]
        assert totals[Policy.COCO] >= totals[Policy.CAT_ONLY]
        assert totals[Policy.COCO] >= totals[Policy.MBA_ONLY]
        assert totals[Policy.COCO] >= totals[Policy.COCO_CONFLICTING]
        assert res.ratios[Policy.COCO] >= 2.0
        assert res.ratios[Policy.NO_PARTITION] == pytest.approx(1.0)

    def test_none_pair_pays_no_pairing_penalty(self):
        # two complementary workloads on the virtual CLOS form a two-member
        # segment, but only the weighted planner's pairs pay the penalty
        from test_scheduler import llc_dominant_workload, mb_dominant_workload
        ws = (llc_dominant_workload("cache-hungry", offered=100.0),
              mb_dominant_workload("bandwidth-hungry", offered=100.0))
        s = Scenario(machine=solo_machine(), workloads=ws,
                     policy=Policy.NO_PARTITION, pairing_penalty=1.0)
        penalized = replace(s, pairing_penalty=1.5)
        assert run_scenario(penalized) == run_scenario(s)
        assert max_affordable_load(penalized) == max_affordable_load(s)

    def test_single_policy_compare(self, reference):
        res = compare_policies(reference.scenario(), [Policy.NO_PARTITION])
        assert len(res.rows) == 1
        assert res.ratios[Policy.NO_PARTITION] == pytest.approx(1.0)


class TestInterference:
    @settings(max_examples=40, deadline=None)
    @example(s=REFERENCE, alpha=5.0)
    @given(s=small_scenarios(), alpha=st.floats(1.0, 100.0))
    def test_shared_axis_totals_scale_as_one_over_alpha(self, s, alpha):
        # alpha multiplies every slowdown of a policy that shares an axis, so
        # alpha * total retainment is constant and a measured coco/none ratio
        # calibrates alpha in one step
        assume(any(w.offered_load > 0 for w in s.workloads))
        shared = [Policy.NO_PARTITION, Policy.CAT_ONLY, Policy.MBA_ONLY]
        at_one = compare_policies(replace(s, interference_alpha=1.0), shared)
        at_alpha = compare_policies(replace(s, interference_alpha=alpha),
                                    shared)
        for (_, one), (_, scaled) in zip(at_one.rows, at_alpha.rows):
            assert scaled.total_retainment * alpha == pytest.approx(
                one.total_retainment, rel=1e-12)


class TestPairingInSim:
    def test_paired_workloads_share_combined_window(self):
        from test_scheduler import llc_dominant_workload, mb_dominant_workload
        machine = solo_machine()
        cs = single_lc_set(machine, width=6)
        a = replace(llc_dominant_workload("cache-hungry"),
                    offered_load=10.0)
        b = replace(mb_dominant_workload("bandwidth-hungry"),
                    offered_load=10.0)
        s = Scenario(machine=machine, workloads=(a, b), policy=Policy.COCO,
                     clos_set=cs, warmup=NO_WARMUP, duration=2)
        m = run_scenario(s)
        # both run concurrently through the whole epoch
        for wm in m.per_workload.values():
            assert wm.quanta_received == s.epoch_quanta * s.duration
        assert m.migrations == 0


def _no_jitter(scenario, rng):
    return {w.name: 1.0 for w in scenario.workloads}


def _admit_unjittered(*args, **kwargs):
    """Admission as the jitter-free run sees it: unit factors draw no load
    above the stated one, so the reference side admits the same set."""
    return admission_control(*args, **{**kwargs, "load_jitter": 0.0})


class TestRepeatedEpochs:
    @settings(max_examples=150, deadline=None)
    # rr with two workloads on three LC CLOSs: a CLOS left empty in epoch 1
    # reaches back past epoch 0, so the cycle is steady only from epoch 3 on
    # (17 migrations; counting cycles from epoch 1 gives 15)
    @example(s=replace(REFERENCE, workloads=REFERENCE.workloads[:2],
                       policy=Policy.ROUND_ROBIN),
             clos_count=REFERENCE.machine.clos_count, duration=10)
    @given(s=small_scenarios(), clos_count=st.integers(2, 7),
           duration=st.integers(1, 20))
    def test_repeat_counts_equal_every_epoch(self, s, clos_count, duration):
        # a jittered run simulates every epoch; with unit jitter factors it is
        # the epoch-by-epoch reference for the same jitter-free run.  Up to six
        # LC CLOSs put rr with fewer workloads than CLOSs in most rr examples.
        s = replace(
            s, machine=replace(s.machine, clos_count=clos_count),
            load_jitter=0.0, duration=duration)
        for admission in (True, False):
            got, got_migrations, got_overhead = _simulate(s, apply_admission=admission)
            with (mock.patch("coco.sim._jitter_factors", _no_jitter),
                  mock.patch("coco.sim.admission_control", _admit_unjittered)):
                want, want_migrations, want_overhead = _simulate(
                    replace(s, load_jitter=0.5), apply_admission=admission)
            assert got_migrations == want_migrations
            assert math.isclose(got_overhead, want_overhead, rel_tol=1e-12)
            for name, t in want.items():
                g = got[name]
                assert (g.violations, g.quanta) == (t.violations, t.quanta), name
                for attr in ("min_affordable", "peak_demand"):
                    assert math.isclose(getattr(g, attr), getattr(t, attr),
                                        rel_tol=1e-12), (name, attr)

    @pytest.mark.parametrize("policy", [Policy.COCO, Policy.ROUND_ROBIN])
    def test_work_does_not_grow_with_duration(self, policy):
        period = (len(REFERENCE.effective_clos_set().lc_configs())
                  if policy is Policy.ROUND_ROBIN else 1)
        lookups = []
        for duration in (2 * period, 50):
            s = replace(REFERENCE, policy=policy, duration=duration)
            with mock.patch("coco.scheduler.slowdown_xy", wraps=slowdown_xy) as counted:
                run_scenario(s)
            lookups.append(counted.call_count)
        assert lookups[0] == lookups[1] > 0


def _refuse(*args, **kwargs):
    raise AssertionError("the simulator built an EpochPlan")


class TestOneRatingPass:
    def test_simulation_builds_no_plan(self):
        # the simulator deals and rates through the scheduler's generator;
        # plan_epoch and round_robin_plan are public wrappers it never calls
        assert not {"plan_epoch", "round_robin_plan", "slowdown_xy"} & vars(sim).keys()
        with (mock.patch("coco.scheduler.plan_epoch", _refuse),
              mock.patch("coco.scheduler.round_robin_plan", _refuse)):
            for jitter in (0.0, 0.2):
                s = replace(REFERENCE, load_jitter=jitter)
                for policy in Policy:
                    run_scenario(replace(s, policy=policy))
                compare_policies(s, list(Policy))


def two_pass(s: Scenario) -> sim.AffordableResult:
    """The affordable-load search as two passes: one at the stated loads
    finds m*, a fresh one at m* gives the metrics and counts no violation."""
    tallies, _, _ = _simulate(s, apply_admission=False)
    m_star = 1.0 / max(t.peak_demand for t in tallies.values())
    tallies, migrations, overhead = _simulate(_scaled(s, m_star), apply_admission=False)
    assert sum(t.violations for t in tallies.values()) == 0
    affordable = {w.name: w.offered_load * m_star for w in s.workloads}
    return sim.AffordableResult(
        m_star, affordable, sim._metrics_from(s, tallies, migrations, overhead, affordable))


class TestOneSearchPass:
    def test_compare_simulates_once_per_policy(self):
        with mock.patch("coco.sim._simulate", wraps=sim._simulate) as passes:
            compare_policies(REFERENCE, list(Policy))
        assert passes.call_count == len(Policy)

    @settings(max_examples=60, deadline=None)
    @given(small_scenarios())
    def test_equals_two_passes(self, s):
        assume(any(w.offered_load > 0 for w in s.workloads))
        assert max_affordable_load(s) == two_pass(s)

    @pytest.mark.parametrize("jitter", [0.0, 0.2])
    @pytest.mark.parametrize("policy", list(Policy))
    def test_equals_two_passes_on_reference(self, policy, jitter):
        s = replace(REFERENCE, policy=policy, load_jitter=jitter)
        assert max_affordable_load(s) == two_pass(s)


class TestPlanThenWalk:
    @pytest.mark.parametrize("path", [
        str(importlib.resources.files("coco") / "data" / "reference.yaml"),
        str(Path(__file__).parent / "data" / "fleet-101.yaml")], ids=["reference", "fleet-101"])
    def test_jittered_rr_deals_once_and_rates_each_rotation_once(self, path):
        # an rr run deals once and rotates the deal by one LC CLOS per epoch;
        # a rotation depends only on the epoch modulo the LC CLOS count, so a
        # jittered run that walks every epoch rates min(LC CLOSs, duration) phases
        base = replace(load_scenario(path).scenario(),
                       policy=Policy.ROUND_ROBIN, load_jitter=0.1)
        n_lc = len(base.effective_clos_set().lc_configs())
        for duration in (3, 2 * n_lc, 2000):
            with (mock.patch("coco.sim._deal", wraps=sim._deal) as deals,
                  mock.patch("coco.sim.rated", wraps=sim.rated) as rates):
                run_scenario(replace(base, duration=duration))
            assert deals.call_count == 1, duration
            assert rates.call_count == min(n_lc, duration), duration

    def test_simulation_never_normalises(self):
        # the scheduler ranks and splits by slowdown; only a reported plan has weights
        s = load_scenario(str(Path(__file__).parent / "data" / "overload-101.yaml")).scenario()
        with mock.patch("coco.scheduler.weights_of", side_effect=AssertionError) as weights:
            run_scenario(s)
            compare_policies(s, list(Policy))
        assert weights.call_count == 0

    def test_epoch_loop_only_tallies(self):
        # every deal, rating and planner test happens before the epoch loop
        tree = ast.parse(textwrap.dedent(inspect.getsource(sim._simulate)))
        loop, = [node for node in ast.walk(tree) if isinstance(node, ast.For)
                 and isinstance(node.target, ast.Name) and node.target.id == "epoch"]
        names = {node.id for node in ast.walk(loop) if isinstance(node, ast.Name)}
        attributes = {node.attr for node in ast.walk(loop) if isinstance(node, ast.Attribute)}
        assert "_jitter_factors" in names
        assert not {"_deal", "rated", "spec"} & names
        assert "planner" not in attributes
