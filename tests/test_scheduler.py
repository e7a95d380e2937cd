import importlib.resources
import random
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coco import scheduler
from coco.calibration import calibrated_profile
from coco.closconfig import default_partition
from coco.core import (Dominance, MachineSpec, SensitivityProfile,
                       WorkloadSpec, replace, slowdown_xy)
from coco.errors import EpochUnderflowError, ValidationError
from coco.params import POLICIES
from coco.scenario import load_scenario
from coco.scheduler import (admission_control, pair_compatible, plan_epoch,
                            round_robin_plan)
from coco.sim import Policy, Scenario, WarmupParams, _reference_state, _simulate, run_scenario

from conftest import SLO, _scaled, make_workload

REFERENCE_X12 = _scaled(load_scenario(
    str(importlib.resources.files("coco") / "data" / "reference.yaml")).scenario(), 1.2)
DATA = Path(__file__).parent / "data"


def machine(ways=20, clos=4, step=10):
    return MachineSpec(llc_ways=ways, clos_count=clos, mba_step=step)


def reference_of(clos_set):
    smallest = min(clos_set.lc_configs(), key=lambda c: (c.width, c.id))
    return smallest.state()


def reference_slowdowns(workloads, clos_set):
    """Each workload's slowdown at the reference state: the scheduler's rank key."""
    ref = reference_of(clos_set)
    return {w.name: slowdown_xy(w.profile, ref.llc_ways, ref.mba_percent) for w in workloads}


def llc_dominant_workload(name, offered=0.0):
    p = SensitivityProfile((3, 20), (20, 100), ((4.0, 3.0), (1.5, 1.0)))
    return WorkloadSpec(name, SLO, p, offered, sl_full=1000.0)


def mb_dominant_workload(name, offered=0.0):
    p = SensitivityProfile((3, 20), (20, 100), ((3.2, 1.1), (3.0, 1.0)))
    return WorkloadSpec(name, SLO, p, offered, sl_full=1000.0)


class TestPlanEpoch:
    def test_single_workload_lands_on_widest(self):
        cs = default_partition(machine())
        ref = reference_of(cs)
        w = make_workload("only", 2.0, ref)
        plan = plan_epoch([w], cs, 10)
        ts = plan.slice_of("only")
        assert ts.quanta == 10
        assert cs.by_id(ts.clos_id).width == 9  # widest LC CLOS

    def test_equal_slowdowns_split_evenly_lexicographic(self):
        m = machine(ways=8, clos=2)
        cs = default_partition(m)
        ref = reference_of(cs)
        ws = [make_workload(n, 2.5, ref, llc_ways=8) for n in ("b", "c", "a")]
        plan = plan_epoch(ws, cs, 9)
        assert sorted(ts.quanta for ts in plan.slices) == [3, 3, 3]
        queue = plan.queues[0]
        members = tuple(sorted(queue.working_set)) + queue.wait_queue
        assert members == ("a", "b", "c")

    def test_table_derived_slices(self):
        m = machine(ways=8, clos=2)
        cs = default_partition(m)
        ref = reference_of(cs)
        heavy = make_workload("heavy", 3.03, ref, llc_ways=8)
        light = make_workload("light", 1.25, ref, llc_ways=8)
        plan = plan_epoch([light, heavy], cs, 10)
        assert plan.slice_of("heavy").quanta == 7
        assert plan.slice_of("light").quanta == 3

    def test_epoch_underflow(self):
        cs = default_partition(machine(ways=8, clos=2))
        ref = reference_of(cs)
        ws = [make_workload(f"w{i}", 2.0, ref, llc_ways=8) for i in range(5)]
        with pytest.raises(EpochUnderflowError):
            plan_epoch(ws, cs, 4)

    def test_compatible_neighbors_merge(self):
        m = machine(ways=8, clos=2)
        cs = default_partition(m)
        a = llc_dominant_workload("cache-hungry")
        b = mb_dominant_workload("bandwidth-hungry")
        plan = plan_epoch([a, b], cs, 10)
        (clos_id, segments), = plan.schedule.items()
        assert len(segments) == 1
        assert set(segments[0].members) == {"cache-hungry", "bandwidth-hungry"}
        assert segments[0].quanta == 10
        assert plan.queues[0].working_set == {"cache-hungry", "bandwidth-hungry"}

    def test_pairing_disabled(self):
        m = machine(ways=8, clos=2)
        cs = default_partition(m)
        a = llc_dominant_workload("cache-hungry")
        b = mb_dominant_workload("bandwidth-hungry")
        plan = plan_epoch([a, b], cs, 10, pairing=False)
        (_, segments), = plan.schedule.items()
        assert len(segments) == 2


class TestPairCompatible:
    def test_opposite_axes_pair(self):
        assert pair_compatible(llc_dominant_workload("a"), mb_dominant_workload("b"))

    def test_same_axis_never_pairs(self):
        assert not pair_compatible(llc_dominant_workload("a"),
                                   llc_dominant_workload("b"))

    def test_balanced_never_pairs(self):
        balanced = WorkloadSpec("c", SLO, calibrated_profile("memcached"), 0.0)
        assert balanced.dominance is Dominance.BALANCED
        assert not pair_compatible(balanced, mb_dominant_workload("b"))


class TestRoundRobin:
    def test_equal_slices(self):
        m = machine(ways=12, clos=3)
        cs = default_partition(m)
        ref = reference_of(cs)
        ws = [make_workload(f"w{i}", float(i + 1), ref, llc_ways=12)
              for i in range(4)]
        plan = round_robin_plan(ws, cs, 8)
        assert all(ts.quanta == 4 for ts in plan.slices)
        with pytest.raises(ValidationError, match="workload names must be unique"):
            round_robin_plan([ws[0], ws[0]], cs, 8)

    def test_rotation_by_one(self):
        m = machine(ways=12, clos=3)
        cs = default_partition(m)
        ref = reference_of(cs)
        ws = [make_workload(f"w{i}", 2.0, ref, llc_ways=12) for i in range(4)]
        lc_ids = [c.id for c in cs.lc_configs()]
        p0 = round_robin_plan(ws, cs, 8, epoch=0)
        p1 = round_robin_plan(ws, cs, 8, epoch=1)
        for w in ws:
            k0 = lc_ids.index(p0.slice_of(w.name).clos_id)
            k1 = lc_ids.index(p1.slice_of(w.name).clos_id)
            assert k1 == (k0 + 1) % len(lc_ids)

    def test_equal_slowdown_degeneracy(self):
        m = machine(ways=12, clos=3)
        cs = default_partition(m)
        ref = reference_of(cs)
        ws = [make_workload(n, 3.3, ref, llc_ways=12) for n in "abcde"]
        weighted = plan_epoch(ws, cs, 17, pairing=False)
        rr = round_robin_plan(ws, cs, 17, epoch=0)
        for clos_id in weighted.schedule:
            w_slices = Counter(ts.quanta for ts in weighted.slices
                               if ts.clos_id == clos_id)
            r_slices = Counter(ts.quanta for ts in rr.slices
                               if ts.clos_id == clos_id)
            assert w_slices == r_slices


def _split_by_names(members, slowdowns, epoch_quanta):
    """The split as it was when ties went by name, not position: the oracle
    for ``_split_quanta`` on a stripe in rank order."""
    if epoch_quanta < len(members):
        raise EpochUnderflowError(
            f"epoch underflow: {epoch_quanta} quanta for {len(members)} workloads")
    ws = [slowdowns[m.name] for m in members]
    total_w = sum(ws)
    quotas = [epoch_quanta * w / total_w for w in ws]
    counts = [int(q) for q in quotas]
    order = sorted(range(len(members)),
                   key=lambda i: (quotas[i] - counts[i], ws[i], members[i].name), reverse=True)
    for k in range(epoch_quanta - sum(counts)):
        counts[order[k % len(counts)]] += 1
    for i in range(len(counts)):
        while counts[i] < 1:
            # take from the largest share; among ties, the least slowed
            donor = max(range(len(counts)),
                        key=lambda j: (counts[j], -ws[j], members[j].name))
            counts[donor] -= 1
            counts[i] += 1
    return counts


@st.composite
def ranked_stripes(draw):
    """A stripe in rank order, (-slowdown, name), with repeated slowdowns and
    distinct names, and an epoch of at least one quantum per member: small
    epochs and far-apart slowdowns leave some member below the floor."""
    n = draw(st.integers(1, 12))
    slowdowns = draw(st.lists(st.sampled_from((1.0, 1.25, 2.0, 3.5, 9.0, 40.0))
                              | st.floats(1.0, 50.0), min_size=n, max_size=n))
    names = draw(st.lists(st.text("abcdef", min_size=1, max_size=3), min_size=n, max_size=n,
                          unique=True))
    stripe = sorted(zip(slowdowns, names), key=lambda m: (-m[0], m[1]))
    return stripe, draw(st.integers(n, 3 * n + 20))


class TestSplitQuanta:
    # the floor path: [2, 0, 0] before the floor, then the first gives twice
    @example(case=([(40.0, "a"), (1.0, "b"), (1.0, "c")], 3))
    # equal remainders and slowdowns: the last name gains the extra quantum
    @example(case=([(2.0, "a"), (2.0, "b"), (2.0, "c")], 4))
    # the floor's donors tie on count and slowdown: the later name gives first
    @example(case=([(9.0, "a"), (9.0, "b"), (1.0, "c"), (1.0, "d"), (1.0, "e")], 5))
    @settings(max_examples=300, deadline=None)
    @given(case=ranked_stripes())
    def test_position_ties_split_as_name_ties(self, case):
        stripe, quanta = case
        members = [SimpleNamespace(name=name) for _, name in stripe]
        slowdowns = {name: slowdown for slowdown, name in stripe}
        assert (scheduler._split_quanta(tuple(slowdown for slowdown, _ in stripe), quanta)
                == _split_by_names(members, slowdowns, quanta))


class TestAdmissionControl:
    def test_light_load_admits_all(self):
        cs = default_partition(machine())
        ref = reference_of(cs)
        ws = [make_workload(f"w{i}", 2.0, ref, offered=10.0, sl_full=1000.0)
              for i in range(3)]
        admitted, rejected = admission_control(ws, cs, 12)
        assert len(admitted) == 3 and rejected == ()

    def test_two_identical_overloaded_evicts_one(self):
        m = machine(ways=8, clos=2)
        cs = default_partition(m)
        state = cs.lc_configs()[0].state()
        # slowdown 2 at the CLOS state -> SL_S = 500; each offered 0.6 * SL_S
        ws = [make_workload(n, 2.0, state, llc_ways=8, offered=300.0,
                            sl_full=1000.0) for n in ("a", "b")]
        admitted, rejected = admission_control(ws, cs, 10, load_jitter=0.05)
        assert len(admitted) == 1 and len(rejected) == 1
        survivor = admitted[0]
        # survivor holds the whole epoch: 300 x 1.05 <= 500
        assert survivor.offered_load * (1 + 0.05) <= survivor.sl_full / 2.0

    def test_empty_input(self):
        cs = default_partition(machine())
        assert admission_control([], cs, 10) == ((), ())

    def test_underflow_evicts_the_last_ranked(self):
        # test_epoch_underflow's setup: 5 workloads, 1 LC CLOS, 4 quanta
        cs = default_partition(machine(ways=8, clos=2))
        ref = reference_of(cs)
        ws = [make_workload(f"w{i}", sd, ref, llc_ways=8)
              for i, sd in enumerate((2.0, 1.5, 3.0, 1.2, 2.5))]
        admitted, rejected = admission_control(ws, cs, 4)
        assert rejected == (ws[3],)  # the smallest weight
        assert admitted == tuple(ws[:3] + ws[4:])
        # 7 workloads: the last three ranked go, last-ranked first
        ws += [make_workload(f"w{i}", sd, ref, llc_ways=8)
               for i, sd in ((5, 1.8), (6, 1.2))]
        admitted, rejected = admission_control(ws, cs, 4)
        assert rejected == (ws[6], ws[3], ws[1])  # slowdowns 1.2 (w6, then w3), 1.5
        assert admitted == (ws[0], ws[2], ws[4], ws[5])

    def test_one_deal_per_round(self, monkeypatch):
        # one deal per round: each round deals every workload still in, one
        # stripe per LC CLOS, so the rounds are len(rejected) + 1; one ranking
        cs = default_partition(machine())
        ref = reference_of(cs)
        ws = [make_workload(f"w{i}", 1.0 + i, ref, offered=100.0 + 60.0 * i,
                            sl_full=1000.0) for i in range(8)]
        stripes = []

        def counting_stripe(plans, pattern, epoch_quanta):
            stripes.append(len(pattern))
            return stripe(plans, pattern, epoch_quanta)

        stripe = scheduler._stripe
        monkeypatch.setattr(scheduler, "_stripe", counting_stripe)
        with mock.patch("coco.scheduler._ranked", wraps=scheduler._ranked) as ranks:
            admitted, rejected = admission_control(ws, cs, 40)
        assert len(rejected) >= 2 and admitted
        n_lc = len(cs.lc_configs())
        assert stripes == [len(range(j, left, n_lc))
                           for left in range(len(ws), len(admitted) - 1, -1)
                           for j in range(min(left, n_lc))]
        assert ranks.call_count == 1  # one ranking serves every round

    def test_reference_one_quantum_evicts_the_last_ranked(self):
        # one quantum for six workloads on three LC CLOSs: a scenario refuses
        # it, but admission alone keeps three, one to a CLOS
        s = load_scenario(
            str(importlib.resources.files("coco") / "data" / "reference.yaml")).scenario()
        _, rejected = admission_control(
            s.workloads, s.effective_clos_set(), 1,
            load_jitter=s.load_jitter, warmup_window=s.warmup.window,
            warmup_factor=s.warmup.factor, pairing_penalty=s.pairing_penalty)
        assert sorted(w.name for w in rejected) == ["memcached-a", "memcached-b", "nginx-b"]

    def test_reference_x1_2_evicts_memcached_a_then_b(self):
        s = REFERENCE_X12
        _, rejected = admission_control(
            s.workloads, s.effective_clos_set(), s.epoch_quanta,
            load_jitter=s.load_jitter, warmup_window=s.warmup.window,
            warmup_factor=s.warmup.factor, pairing_penalty=s.pairing_penalty)
        assert [w.name for w in rejected] == ["memcached-a", "memcached-b"]


def _admission_by_plans(workloads, clos_set, epoch_quanta, *, load_jitter,
                        warmup_window, warmup_factor, pairing_penalty):
    """Reference admission loop: one full ``plan_epoch`` per round, scored
    from its schedule at the jittered load's bound; ties go to the
    later-ranked."""
    candidates = list(workloads)
    rejected = []
    by_name = {w.name: w for w in candidates}
    slowdowns = reference_slowdowns(workloads, clos_set)
    while candidates:
        plan = plan_epoch(candidates, clos_set, epoch_quanta)
        demands = []
        for clos_id, segments in plan.schedule.items():
            cfg = clos_set.by_id(clos_id)
            warm = warmup_window > 0 and len(segments) > 1
            for seg in segments:
                share = seg.quanta / epoch_quanta
                penalty = pairing_penalty if len(seg.members) == 2 else 1.0
                for name in seg.members:
                    w = by_name[name]
                    slowdown = slowdown_xy(w.profile, cfg.width, cfg.mba_percent)
                    base = w.sl_full / (slowdown * penalty)
                    warm_rate = base / warmup_factor
                    demands.append((w.offered_load / share / (warm_rate if warm else base),
                                    -slowdowns[name], name))
        demand, _, name = max(demands)
        if demand * (1 + load_jitter) <= 1.0:
            break
        candidates.remove(by_name[name])
        rejected.append(by_name[name])
    return tuple(candidates), tuple(rejected)


@st.composite
def admission_cases(draw, max_lc=3, max_workloads=12, mba_step=10, crowded=False):
    """LLC-dominant, MB-dominant and balanced workloads offered 0-60% of
    their full-allocation load, on 1 to ``max_lc`` LC CLOSs of a 20-way
    machine, with an epoch of at most 60 quanta: at least one per workload,
    or if ``crowded`` one per member of the fullest CLOS.  A workload may
    share an earlier one's grid, as the workloads of one calibration do."""
    n_lc = draw(st.integers(1, max_lc))
    m = machine(ways=20, clos=n_lc + 1, step=mba_step)
    n = draw(st.integers(1, max_workloads))
    ws = []
    for i in range(n):
        kind = draw(st.sampled_from(("llc", "mb", "balanced")))
        hi = draw(st.floats(1.6, 4.0))
        lo = draw(st.floats(1.0, hi / 1.5))
        cache, bw = {"llc": (hi, lo), "mb": (lo, hi), "balanced": (hi, hi)}[kind]
        profile = SensitivityProfile((2, 20), (10, 100), ((cache * bw, cache), (bw, 1.0)))
        if ws and draw(st.booleans()):
            profile = draw(st.sampled_from(ws)).profile
        ws.append(WorkloadSpec(f"w{i:02d}", SLO, profile,
                               1000.0 * draw(st.floats(0.0, 0.6)), sl_full=1000.0))
    return tuple(ws), default_partition(m), draw(st.integers(-(-n // n_lc) if crowded else n, 60))


@pytest.fixture(scope="module")
def overload():
    """The benchmark's overload scenario, seed 101: 156 workloads on 15 LC
    CLOSs, of which admission evicts 90 over 91 rounds."""
    return load_scenario(str(DATA / "overload-101.yaml")).scenario()


def _admit(s):
    return admission_control(
        s.workloads, s.effective_clos_set(), s.epoch_quanta,
        load_jitter=s.load_jitter, warmup_window=s.warmup.window,
        warmup_factor=s.warmup.factor, pairing_penalty=s.pairing_penalty)


def _lookups(call) -> Counter:
    """The slowdown_xy calls ``call()`` makes through the scheduler, per
    (profile, ways, MBA percent)."""
    with mock.patch.object(scheduler, "slowdown_xy", wraps=scheduler.slowdown_xy) as lookup:
        call()
    return Counter((id(p), ways, mba) for (p, ways, mba), _ in lookup.call_args_list)


def _assert_once_per_view(calls: Counter, workloads, ranked_at):
    """Each grid, however many workloads share it, is looked up at most once
    per view, besides its one ranking lookup at ``ranked_at`` (None: not
    ranked)."""
    grids = {id(w.profile) for w in workloads}
    assert {grid for grid, _, _ in calls} <= grids
    if ranked_at is not None:
        for grid in grids:
            calls[grid, ranked_at.llc_ways, ranked_at.mba_percent] -= 1
    assert calls and all(0 <= c <= 1 for c in calls.values())


class TestAdmissionCost:
    """Admission repeats no per-member work across its rounds."""

    def test_no_value_comparison_of_workloads(self, overload, monkeypatch):
        def refuse(self, other):
            raise AssertionError("WorkloadSpec.__eq__ called")

        monkeypatch.setattr(WorkloadSpec, "__eq__", refuse)
        admitted, rejected = _admit(overload)
        assert (len(admitted), len(rejected)) == (66, 90)

    def test_one_plan_per_stripe_pattern(self, overload):
        # 91 rounds deal 1,365 stripes, of 40 (slowdown, dominance) patterns:
        # each is planned once, and the evictions are the plan-based loop's
        with (mock.patch.object(scheduler, "_stripe", wraps=scheduler._stripe) as stripes,
              mock.patch.object(scheduler, "_split_quanta",
                                wraps=scheduler._split_quanta) as splits):
            admitted, rejected = _admit(overload)
        patterns = {pattern for (_, pattern, _), _ in stripes.call_args_list}
        assert (stripes.call_count, len(patterns), splits.call_count) == (1365, 40, 40)
        assert len(rejected) == 90
        assert (admitted, rejected) == _admission_by_plans(
            overload.workloads, overload.effective_clos_set(), overload.epoch_quanta,
            load_jitter=overload.load_jitter, warmup_window=overload.warmup.window,
            warmup_factor=overload.warmup.factor, pairing_penalty=overload.pairing_penalty)

    # a workload dealt alone in one round and paired in a later one, at the
    # same view, has two rates but one slowdown
    @settings(max_examples=40, deadline=None)
    @given(case=admission_cases(max_lc=16, max_workloads=60, mba_step=2, crowded=True),
           window=st.sampled_from((0, 2)))
    def test_admission_looks_each_workload_up_once_per_view(self, case, window):
        workloads, cs, quanta = case
        calls = _lookups(lambda: admission_control(
            workloads, cs, quanta, load_jitter=0.05, warmup_window=window,
            warmup_factor=1.15, pairing_penalty=1.05))
        _assert_once_per_view(calls, workloads, reference_of(cs))

    @pytest.mark.parametrize("policy", list(Policy))
    def test_simulate_looks_each_workload_up_once_per_view(self, overload, policy):
        s = replace(overload, policy=policy)
        cs = s.effective_clos_set()
        ranked_at = (_reference_state(s, cs) or reference_of(cs)
                     if POLICIES[policy].planner == "weighted" else None)
        calls = _lookups(lambda: _simulate(s, apply_admission=False))
        _assert_once_per_view(calls, s.workloads, ranked_at)


# admission's load_jitter: none, a small bound and one that moves the stopping point far
JITTERS = (0.0, 0.05, 0.2)
TIE_CLOS_SET = default_partition(machine(clos=2))  # one LC CLOS
TIE_STATE = reference_of(TIE_CLOS_SET)


def _tied_pair(a_slowdown, a_sl_full, a_offered):
    """'a' and 'b' (slowdown 2, offered 300) on one CLOS, dealt 4 quanta."""
    return ((make_workload("a", a_slowdown, TIE_STATE, offered=a_offered, sl_full=a_sl_full),
             make_workload("b", 2.0, TIE_STATE, offered=300.0)), TIE_CLOS_SET, 4)


def _assert_same_evictions(case, window, jitter, penalty):
    """Admitted and rejected, rejection order included, as the plan-based loop."""
    workloads, cs, quanta = case
    kwargs = dict(load_jitter=jitter, warmup_window=window,
                  warmup_factor=1.15, pairing_penalty=penalty)
    assert (admission_control(workloads, cs, quanta, **kwargs)
            == _admission_by_plans(workloads, cs, quanta, **kwargs))


ULP_CLOS_SET = default_partition(machine(clos=3))  # two LC CLOSs
# 'a' and 'b' are one ulp apart: normalised over all four their weights tie,
# and over the three left once 'x' is evicted they do not
ULP_CASE = (tuple(make_workload(name, slowdown, reference_of(ULP_CLOS_SET), offered=offered)
                  for name, slowdown, offered in (
                      ("a", 1.7, 120.0), ("b", 1.7000000000000002, 380.0),
                      ("c", 2.0, 10.0), ("x", 1.3, 5000.0))),
            ULP_CLOS_SET, 5)


class TestAdmissionOracle:
    def test_one_ulp_apart_rank_as_without_the_evicted(self):
        workloads, cs, quanta = ULP_CASE
        kwargs = dict(load_jitter=0.05, warmup_window=0, warmup_factor=1.0,
                      pairing_penalty=1.0)
        admitted, rejected = admission_control(workloads, cs, quanta, **kwargs)
        assert (admitted, rejected) == _admission_by_plans(workloads, cs, quanta, **kwargs)
        assert [w.name for w in rejected] == ["x"]
        s = Scenario(machine=cs.machine, workloads=workloads, policy=Policy.COCO, clos_set=cs,
                     epoch_quanta=quanta, warmup=WarmupParams(0, 1.0), pairing_penalty=1.0)
        assert run_scenario(s).per_workload["b"].slo_violations == 0  # 'b' is servable

    @settings(max_examples=200, deadline=None)
    @example(case=ULP_CASE, dropped={3})
    @given(case=admission_cases(), dropped=st.sets(st.integers(0, 11)))
    def test_a_subset_ranks_as_the_full_set_less_the_dropped(self, case, dropped):
        workloads, cs, _ = case
        subset = [w for i, w in enumerate(workloads) if i not in dropped]
        assume(subset)
        kept = {w.name for w in subset}
        _, ranked, _ = scheduler._ranked(workloads, cs)
        assert scheduler._ranked(subset, cs)[1] == [w for w in ranked if w.name in kept]

    @settings(max_examples=200, deadline=None)
    # equal demands, 2.4 and 1.2: the lighter 'b' goes first (weights 3/4 and
    # 1/4 give exact shares), and between twins the last name, 'b'
    @example(case=_tied_pair(6.0, 3000.0, 900.0), window=0, jitter=0.05, penalty=1.0)
    @example(case=_tied_pair(2.0, 1000.0, 300.0), window=0, jitter=0.05, penalty=1.0)
    @example(case=(REFERENCE_X12.workloads, REFERENCE_X12.effective_clos_set(),
                   REFERENCE_X12.epoch_quanta), window=2, jitter=0.05, penalty=1.05)
    @given(case=admission_cases(), window=st.sampled_from((0, 2)),
           jitter=st.sampled_from(JITTERS), penalty=st.sampled_from((1.0, 1.05)))
    def test_same_evictions_as_plan_based_loop(self, case, window, jitter, penalty):
        _assert_same_evictions(case, window, jitter, penalty)

    # pairs.yaml deals two pairs in its first round, with a warmup window; at
    # 1.5x load admission evicts one workload, at 3x two (at jitter 0.05)
    @pytest.mark.parametrize("scale", (1.0, 1.5, 3.0))
    @pytest.mark.parametrize("jitter", JITTERS)
    def test_pairs_yaml_as_plan_based_loop(self, scale, jitter):
        s = _scaled(load_scenario(str(DATA / "pairs.yaml")).scenario(), scale)
        assert s.warmup == WarmupParams(2, 1.15)
        _assert_same_evictions((s.workloads, s.effective_clos_set(), s.epoch_quanta),
                               s.warmup.window, jitter, s.pairing_penalty)

    # up to 16 LC CLOSs and 60 workloads, a few quanta per member: evictions
    # land mid-list, in many stripes, and shift every later-ranked member
    @settings(max_examples=40, deadline=None)
    @given(case=admission_cases(max_lc=16, max_workloads=60, mba_step=2, crowded=True),
           window=st.sampled_from((0, 2)), jitter=st.sampled_from(JITTERS),
           penalty=st.sampled_from((1.0, 1.05)))
    def test_same_evictions_on_wide_sets(self, case, window, jitter, penalty):
        _assert_same_evictions(case, window, jitter, penalty)


class TestOneFeasibilityRule:
    """Admission and the simulator judge feasibility alike: admission evicts
    the workload with the largest peak demand of a 2-epoch, jitter-free run
    of every candidate without admission, or nothing if that peak, scaled to
    the jittered load's bound, fits."""

    @settings(max_examples=100, deadline=None)
    @example(case=(REFERENCE_X12.workloads, REFERENCE_X12.effective_clos_set(),
                   REFERENCE_X12.epoch_quanta), window=2, jitter=0.05, penalty=1.05)
    @given(case=admission_cases(), window=st.sampled_from((0, 2)),
           jitter=st.sampled_from(JITTERS), penalty=st.sampled_from((1.0, 1.05)))
    def test_first_eviction_is_the_simulated_peak(self, case, window, jitter, penalty):
        workloads, cs, quanta = case
        # Scenario refuses a positive load whose peak demand underflows (load jitter is 0)
        assume(all(w.offered_load == 0 or w.offered_load / w.sl_full >= sys.float_info.min
                   for w in workloads))
        s = Scenario(machine=cs.machine, workloads=workloads, policy=Policy.COCO,
                     clos_set=cs, epoch_quanta=quanta, duration=2, load_jitter=0.0,
                     warmup=WarmupParams(window, 1.15), pairing_penalty=penalty)
        tallies, _, _ = _simulate(s, apply_admission=False)
        _, rejected = admission_control(
            workloads, cs, quanta, load_jitter=jitter, warmup_window=window,
            warmup_factor=1.15, pairing_penalty=penalty)
        if max(t.peak_demand for t in tallies.values()) * (1 + jitter) <= 1.0:
            assert rejected == ()
        else:
            slowdowns = reference_slowdowns(workloads, cs)
            worst = max(workloads, key=lambda w: (tallies[w.name].peak_demand,
                                                  -slowdowns[w.name], w.name))
            assert rejected and rejected[0].name == worst.name


def _random_scenario(rng: random.Random):
    m = machine(ways=rng.choice((8, 12, 20)), clos=rng.choice((2, 3, 4)))
    cs = default_partition(m)
    ref = reference_of(cs)
    n = rng.randint(1, 8)
    ws = [make_workload(f"w{i:02d}", rng.uniform(1.0, 9.0), ref,
                        llc_ways=m.llc_ways) for i in range(n)]
    quanta = rng.randint(n, 40)
    return ws, cs, quanta


class TestPlanProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 1_000_000))
    def test_randomized_invariants(self, seed):
        rng = random.Random(seed)
        ws, cs, quanta = _random_scenario(rng)
        by_name = {w.name: w for w in ws}
        plan = plan_epoch(ws, cs, quanta, pairing=rng.random() < 0.5)
        # queue invariants
        for q in plan.queues:
            assert not q.working_set & set(q.wait_queue)
            assert 1 <= len(q.working_set) <= 2
            if len(q.working_set) == 2:
                a, b = (by_name[n] for n in q.working_set)
                assert pair_compatible(a, b)
        # starvation floor
        assert all(ts.quanta >= 1 for ts in plan.slices)
        # per-CLOS conservation, over slices and over schedule segments
        for clos_id, segments in plan.schedule.items():
            clos_slices = [ts for ts in plan.slices if ts.clos_id == clos_id]
            assert sum(ts.quanta for ts in clos_slices) == quanta
            assert sum(seg.quanta for seg in segments) == quanta
        # each workload appears exactly once
        assert sorted(ts.workload for ts in plan.slices) == sorted(w.name for w in ws)
        # weight-monotone slices within a CLOS
        for clos_id in plan.schedule:
            clos_slices = [ts for ts in plan.slices if ts.clos_id == clos_id]
            for a in clos_slices:
                for b in clos_slices:
                    if plan.weights[a.workload] > plan.weights[b.workload]:
                        assert a.quanta >= b.quanta

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 1_000_000))
    def test_deterministic(self, seed):
        rng = random.Random(seed)
        ws, cs, quanta = _random_scenario(rng)
        assert plan_epoch(ws, cs, quanta) == plan_epoch(list(ws), cs, quanta)
