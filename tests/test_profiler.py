import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coco.calibration import (APPS, CAT_RETAINMENT, MBA_RETAINMENT, _interp_row,
                              calibrated_capacity_fn, reference_machine)
from coco.core import AllocationState, MachineSpec, SloSpec, bilinear
from coco.errors import InfeasibleSloError, ValidationError
from coco.profiler import (GroundTruthModel, build_profile, grid_states,
                           max_sustainable_load)

SLO = SloSpec(0.99, 20.0)


def constant_capacity(value):
    return lambda state: value


def random_monotone_capacity(rng: random.Random, machine: MachineSpec):
    """Random capacity grid, non-decreasing in each axis, as a lookup fn."""
    levels = machine.mba_levels()
    cap = {}
    for w in range(1, machine.llc_ways + 1):
        for m in levels:
            base = 100.0
            left = cap.get((w - 1, m), base)
            below = cap.get((w, m - machine.mba_step), base)
            cap[(w, m)] = max(left, below) + rng.uniform(0.0, 50.0)
    return lambda s: cap[(s.llc_ways, s.mba_percent)]


@st.composite
def tied_capacity_grids(draw):
    """A machine and a bilinear capacity over a random grid of 2-4 way levels
    by 2-5 MBA levels, non-decreasing along both axes and often flat."""
    machine = MachineSpec(llc_ways=draw(st.integers(4, 12)), clos_count=2,
                          mba_step=draw(st.sampled_from((10, 20, 25))))
    ways = tuple(sorted(draw(st.sets(st.integers(1, machine.llc_ways), min_size=2,
                                     max_size=4))))
    mbas = tuple(sorted(draw(st.sets(st.integers(1, 100), min_size=2, max_size=5))))
    step = st.one_of(st.just(0.0), st.floats(0.5, 500.0))
    first = draw(st.floats(1.0, 1e5))
    values = []
    for i in range(len(ways)):
        row = []
        for j in range(len(mbas)):
            below = max(values[i - 1][j] if i else first, row[j - 1] if j else first)
            row.append(below + draw(step))
        values.append(row)
    return machine, lambda s: bilinear(ways, mbas, values, s.llc_ways, s.mba_percent)


def scan_max_load(model, state, slo, step_fraction=0.001):
    """Brute-force oracle: walk loads upward in 0.1% capacity steps."""
    cap = model.capacity_fn(state)
    step = step_fraction * cap
    load, best = 0.0, 0.0
    while load < cap:
        if model.latency_ms(load, state) <= slo.latency_bound_ms:
            best = load
        else:
            break
        load += step
    return best


class TestMaxSustainableLoad:
    def test_closed_form_900(self):
        m = GroundTruthModel(2.0, 1.0, constant_capacity(1000.0))
        got = max_sustainable_load(m, AllocationState(1, 100), SloSpec(0.99, 20.0))
        assert got == pytest.approx(900.0, rel=1e-12)

    def test_bound_at_floor_gives_zero(self):
        m = GroundTruthModel(2.0, 1.0, constant_capacity(1000.0))
        got = max_sustainable_load(m, AllocationState(1, 100), SloSpec(0.99, 2.0))
        assert got == 0.0

    def test_closed_form_454(self):
        m = GroundTruthModel(1.0, 1.0, constant_capacity(500.0))
        got = max_sustainable_load(m, AllocationState(1, 100), SloSpec(0.99, 11.0))
        assert got == pytest.approx(500.0 * 10 / 11, rel=1e-12)

    def test_unreachable_bound(self):
        m = GroundTruthModel(5.0, 2.0, constant_capacity(1000.0))
        with pytest.raises(InfeasibleSloError):
            max_sustainable_load(m, AllocationState(1, 100), SloSpec(0.99, 9.0))

    def test_matches_scan_oracle(self):
        rng = random.Random(7)
        machine = MachineSpec(llc_ways=6, clos_count=2, mba_step=20)
        for _ in range(10):
            model = GroundTruthModel(1.0, 2.0, random_monotone_capacity(rng, machine))
            state = AllocationState(rng.randint(1, 6), rng.choice((20, 60, 100)))
            got = max_sustainable_load(model, state, SLO)
            oracle = scan_max_load(model, state, SLO)
            assert abs(got - oracle) <= 0.001 * model.capacity_fn(state)


class TestBuildProfile:
    def test_flat_model_all_ones(self):
        machine = MachineSpec(llc_ways=4, clos_count=2, mba_step=25)
        model = GroundTruthModel(1.0, 1.0, constant_capacity(800.0))
        profile, _ = build_profile(model, machine, SLO)
        assert all(s == pytest.approx(1.0, abs=1e-3)
                   for row in profile.slowdowns for s in row)

    def test_memcached_calibrated_row(self):
        machine = reference_machine()
        model = GroundTruthModel(1.0, 2.0, calibrated_capacity_fn("memcached", 5000.0))
        profile, _ = build_profile(model, machine, SLO)
        for ways, expected in ((9, 0.881), (6, 0.838), (3, 0.80)):
            i = profile.way_levels.index(ways)
            retainment = 1.0 / profile.slowdowns[i][-1]
            assert retainment == pytest.approx(expected, rel=0.01)

    def test_slowdowns_equal_capacity_ratios(self):
        rng = random.Random(21)
        machine = MachineSpec(llc_ways=5, clos_count=2, mba_step=25)
        model = GroundTruthModel(1.5, 1.2, random_monotone_capacity(rng, machine))
        profile, sl_full = build_profile(model, machine, SLO)
        full_cap = model.capacity_fn(AllocationState(5, 100))
        assert sl_full == max_sustainable_load(model, AllocationState(5, 100), SLO)
        for state in grid_states(machine):
            i = profile.way_levels.index(state.llc_ways)
            j = profile.mba_levels.index(state.mba_percent)
            assert profile.slowdowns[i][j] == full_cap / model.capacity_fn(state)

    def test_deterministic(self):
        rng = random.Random(3)
        machine = MachineSpec(llc_ways=4, clos_count=2, mba_step=50)
        model = GroundTruthModel(1.0, 1.0, random_monotone_capacity(rng, machine))
        assert build_profile(model, machine, SLO) == build_profile(model, machine, SLO)

    def test_non_monotone_capacity_rejected(self):
        machine = MachineSpec(llc_ways=4, clos_count=2, mba_step=50)
        model = GroundTruthModel(1.0, 1.0, lambda s: 100.0 - s.llc_ways)
        with pytest.raises(ValidationError):
            build_profile(model, machine, SLO)

    def test_capacity_problem_reported_before_infeasible_slo(self):
        machine = MachineSpec(llc_ways=4, clos_count=2, mba_step=50)
        model = GroundTruthModel(5.0, 2.0, lambda s: 100.0 - s.llc_ways)
        with pytest.raises(ValidationError):
            build_profile(model, machine, SloSpec(0.99, 9.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_capacity_rejected(self, bad):
        machine = MachineSpec(llc_ways=4, clos_count=2, mba_step=50)
        model = GroundTruthModel(
            1.0, 1.0, lambda s: bad if s == AllocationState(2, 50) else 100.0)
        with pytest.raises(ValidationError, match="finite and > 0"):
            build_profile(model, machine, SLO)

    @pytest.mark.parametrize("base, inflation", [(math.nan, 1.0), (math.inf, 1.0),
                                                 (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_model_parameters_rejected(self, base, inflation):
        with pytest.raises(ValidationError):
            GroundTruthModel(base, inflation, constant_capacity(100.0))

    def test_bound_at_floor_is_infeasible(self):
        machine = MachineSpec(llc_ways=4, clos_count=2, mba_step=50)
        model = GroundTruthModel(2.0, 1.0, constant_capacity(1000.0))
        with pytest.raises(InfeasibleSloError, match="zero sustainable load"):
            build_profile(model, machine, SloSpec(0.99, 2.0))

    def test_one_capacity_call_per_state(self):
        machine = MachineSpec(llc_ways=5, clos_count=2, mba_step=20)
        calls = Counter()

        def capacity(state):
            calls[state] += 1
            return 100.0 * state.llc_ways + state.mba_percent

        build_profile(GroundTruthModel(1.0, 2.0, capacity), machine, SLO)
        assert set(calls) == set(grid_states(machine))
        assert max(calls.values()) == 1

    @settings(max_examples=50, deadline=None)
    @given(tied_capacity_grids())
    def test_bilinear_capacity_with_ties_accepted(self, case):
        # bilinear rounding wobbles a flat direction by an ulp: within the grid slack
        machine, capacity = case
        profile, _ = build_profile(GroundTruthModel(1.0, 1.0, capacity), machine, SLO)
        full = capacity(AllocationState(machine.llc_ways, 100))
        for state in grid_states(machine):
            i = profile.way_levels.index(state.llc_ways)
            j = profile.mba_levels.index(state.mba_percent)
            assert profile.slowdowns[i][j] == full / capacity(state)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_profile_invariants_hold(self, seed):
        rng = random.Random(seed)
        machine = MachineSpec(llc_ways=4, clos_count=2, mba_step=50)
        model = GroundTruthModel(1.0, 1.0, random_monotone_capacity(rng, machine))
        profile, _ = build_profile(model, machine, SLO)  # constructor validates
        assert profile.slowdowns[-1][-1] == 1.0


class TestCalibratedCapacity:
    @pytest.mark.parametrize("app", APPS)
    def test_memo_equals_composed_rows(self, app):
        # the capacity is full x (cache row x MBA row), bit for bit, in any
        # query order
        machine = MachineSpec(llc_ways=20, clos_count=4, mba_step=1)
        states = list(grid_states(machine)) * 2
        random.Random(app).shuffle(states)
        ways, mbas = sorted(CAT_RETAINMENT[app]), sorted(MBA_RETAINMENT[app])
        for full in (1.0, 152353.6, 41745.2):
            capacity = calibrated_capacity_fn(app, full)
            for s in states:
                want = full * (_interp_row(CAT_RETAINMENT[app], ways, s.llc_ways)
                               * _interp_row(MBA_RETAINMENT[app], mbas, s.mba_percent))
                assert capacity(s) == want


FULLS = st.sampled_from([1.0, 152353.6, 41745.2]) | st.floats(5e-324, 1e300)


def profile_or_error(capacity, machine):
    try:
        return build_profile(GroundTruthModel(1.0, 2.0, capacity), machine, SLO)
    except ValidationError as e:
        return str(e)


class TestAxisFactors:
    """A calibrated capacity is profiled from its axis factors, to the same bits
    as from one call per state."""

    # a 1-way machine has no MachineSpec: two CLOSs need two ways
    @settings(max_examples=60, deadline=None)
    @example(app="nginx", full=5e-324, llc_ways=20, mba_step=10)
    @given(app=st.sampled_from(APPS), full=FULLS, llc_ways=st.integers(2, 64),
           mba_step=st.sampled_from((1, 2, 5, 10, 25, 50)))
    def test_equals_per_state_path(self, app, full, llc_ways, mba_step):
        machine = MachineSpec(llc_ways=llc_ways, clos_count=2, mba_step=mba_step)
        cap = calibrated_capacity_fn(app, full)
        calls = []

        def from_axes(state):  # the factors only: a call means the per-state path ran
            calls.append(state)
            return cap(state)

        from_axes.axes = cap.axes
        got = profile_or_error(from_axes, machine)
        assert got == profile_or_error(lambda s: cap(s), machine)
        assert isinstance(got, str) or not calls

    # memcached's least retainment (0.63) rounds up to the least subnormal, not to 0
    @pytest.mark.parametrize("app", ["nginx", "mongodb"])
    def test_underflowing_capacity_named_on_both_paths(self, app):
        machine = reference_machine()
        cap = calibrated_capacity_fn(app, 5e-324)
        want = "capacity must be finite and > 0 at (1,10)"
        assert profile_or_error(cap, machine) == want
        assert profile_or_error(lambda s: cap(s), machine) == want
