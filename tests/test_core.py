import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coco.calibration import calibrated_profile
from coco.core import (MONOTONE_EPS, SLOWDOWN_SLACK, AllocationState, Dominance, MachineSpec,
                       SensitivityProfile, SloSpec, WorkloadSpec, dominance_of,
                       retainment_at, slowdown_at, weights_of)
from coco.errors import ValidationError

from conftest import monotone_profiles, slowdown_vectors


class TestMachineSpec:
    def test_valid(self):
        m = MachineSpec(llc_ways=20, clos_count=4, mba_step=10)
        assert m.mba_levels() == tuple(range(10, 101, 10))

    @pytest.mark.parametrize("kwargs", [
        dict(llc_ways=3, clos_count=4, mba_step=10),   # fewer ways than CLOSs
        dict(llc_ways=20, clos_count=1, mba_step=10),  # no reserved CLOS left
        dict(llc_ways=20, clos_count=4, mba_step=7),   # step does not divide 100
        dict(llc_ways=65, clos_count=4, mba_step=10),  # beyond MAX_LLC_WAYS
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            MachineSpec(**kwargs)


class TestProfileValidation:
    def test_corner_must_be_one(self):
        with pytest.raises(ValidationError):
            SensitivityProfile((1, 2), (100,), ((1.5,), (1.2,)))

    def test_monotone_enforced(self):
        with pytest.raises(ValidationError,
                           match=r"along the MBA axis at grid point \(0,1\)$"):
            # slowdown rises along the MBA axis
            SensitivityProfile((2,), (20, 50, 100), ((1.5, 1.8, 1.0),))
        with pytest.raises(ValidationError,
                           match=r"along the ways axis at grid point \(1,0\)$"):
            # slowdown rises with more ways
            SensitivityProfile((1, 2, 3), (100,), ((1.0,), (1.4,), (1.0,)))

    def test_below_one_rejected(self):
        with pytest.raises(ValidationError):
            SensitivityProfile((1, 2), (100,), ((0.9,), (1.0,)))

    def test_grid_round_trip(self):
        p = calibrated_profile("memcached")
        assert SensitivityProfile.from_grid(p.grid()) == p


def cell_loop_error(grid):
    """The grid check as a walk over every cell, the one ``SensitivityProfile``
    falls back on: the message of the first fault, or None."""
    if abs(grid[-1][-1] - 1.0) > SLOWDOWN_SLACK:
        return "slowdown at full allocation must be 1.0"
    for i, row in enumerate(grid):
        for j, s in enumerate(row):
            if not math.isfinite(s):
                return f"slowdown not finite at grid point ({i},{j})"
            if s < 1.0 - SLOWDOWN_SLACK:
                return f"slowdown < 1 at grid point ({i},{j})"
            if i and s > grid[i - 1][j] + MONOTONE_EPS:
                return f"slowdown not monotone along the ways axis at grid point ({i},{j})"
            if j and s > row[j - 1] + MONOTONE_EPS:
                return f"slowdown not monotone along the MBA axis at grid point ({i},{j})"
    return None


# what a cell may become: non-finite, near or below 1, an ulp or a slack's
# wobble up, a real order fault, or an int
CELL_EDITS = st.sampled_from([
    lambda s: math.nan, lambda s: math.inf, lambda s: -math.inf,
    lambda s: 1.0 - SLOWDOWN_SLACK / 2, lambda s: 1.0 - 2 * SLOWDOWN_SLACK,
    lambda s: math.nextafter(s, math.inf), lambda s: s + MONOTONE_EPS / 2,
    lambda s: s + 0.5, lambda s: s * 1.01, math.ceil, lambda s: 1,
])


@st.composite
def edited_grids(draw):
    """A 1x1 to 6x6 grid, non-increasing along both axes and 1 at the full
    corner, with up to four of its cells edited once each."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    factor = st.floats(1.0, 4.0)
    a = sorted(draw(st.lists(factor, min_size=rows - 1, max_size=rows - 1)), reverse=True)
    b = sorted(draw(st.lists(factor, min_size=cols - 1, max_size=cols - 1)), reverse=True)
    grid = [[x * y for y in b + [1.0]] for x in a + [1.0]]
    for i, j in draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                              max_size=4, unique=True)):
        grid[i][j] = draw(CELL_EDITS)(grid[i][j])
    return tuple(map(tuple, grid))


class TestGridCheck:
    """An exactly ordered grid is accepted without a walk over its cells; any
    other grid gets the walk's verdict and the text of its first fault."""

    @settings(max_examples=500)
    @example(grid=((math.nan, 1.0), (1.0, 1.0)))
    @example(grid=((2.0, 1.5, 1.2), (1.5, math.nan, 1.0), (1.2, 1.0, 1.0)))
    @example(grid=((1.0, math.nextafter(1.0, 2.0)), (1.0, 1.0)))  # flat, one ulp up
    @given(grid=edited_grids())
    def test_fast_check_agrees_with_cell_loop(self, grid):
        ways = tuple(range(1, len(grid) + 1))
        mbas = tuple(range(110 - 10 * len(grid[0]), 101, 10))
        want = cell_loop_error(grid)
        if want is None:
            assert SensitivityProfile(ways, mbas, grid).slowdowns == grid
        else:
            with pytest.raises(ValidationError) as e:
                SensitivityProfile(ways, mbas, grid)
            assert str(e.value) == want


@pytest.mark.parametrize("bad", [math.nan, math.inf])
class TestNonFiniteRejected:
    def test_slo_bound(self, bad):
        with pytest.raises(ValidationError):
            SloSpec(0.99, bad)

    def test_workload_sl_full(self, bad):
        with pytest.raises(ValidationError):
            WorkloadSpec("w", SloSpec(0.99, 1.0), calibrated_profile("nginx"), sl_full=bad)

    def test_profile_slowdown_cell(self, bad):
        with pytest.raises(ValidationError):
            SensitivityProfile((1, 2), (50, 100), ((bad, 1.5), (1.2, 1.0)))

    def test_profile_level(self, bad):
        with pytest.raises(ValidationError):
            SensitivityProfile((bad, 2), (100,), ((1.5,), (1.0,)))

    def test_offered_load(self, bad):
        with pytest.raises(ValidationError):
            WorkloadSpec("w", SloSpec(0.99, 1.0), calibrated_profile("nginx"), bad)


def test_profile_level_beyond_float_range_rejected():
    with pytest.raises(ValidationError):
        SensitivityProfile((1, 2), (50, 10**400), ((1.5, 1.2), (1.2, 1.0)))


class TestSlowdownAt:
    def test_memcached_three_bit_mask(self):
        p = calibrated_profile("memcached")
        assert slowdown_at(p, AllocationState(3, 100)) == pytest.approx(1.25, abs=1e-9)

    def test_full_state_is_one(self):
        p = calibrated_profile("nginx")
        assert slowdown_at(p, p.full_state) == 1.0

    def test_interpolation_midpoint(self):
        # grid 1.0 at (6,100) and 1.2 at (4,100) on a 6-way machine
        p = SensitivityProfile((4, 6), (100,), ((1.2,), (1.0,)))
        assert slowdown_at(p, AllocationState(5, 100)) == pytest.approx(1.1, abs=1e-12)

    def test_out_of_bounds(self):
        p = calibrated_profile("memcached")
        with pytest.raises(ValidationError):
            slowdown_at(p, AllocationState(21, 100))

    def test_off_hull_clamps(self):
        p = calibrated_profile("memcached")  # grid starts at 3 ways, 20%
        assert slowdown_at(p, AllocationState(1, 100)) == pytest.approx(1.25)
        assert slowdown_at(p, AllocationState(20, 10)) == pytest.approx(1 / 0.784)


class TestRetainmentAt:
    def test_nginx_three_bit(self):
        p = calibrated_profile("nginx")
        assert retainment_at(p, AllocationState(3, 100)) == pytest.approx(0.33, abs=1e-9)

    def test_full(self):
        p = calibrated_profile("mongodb")
        assert retainment_at(p, p.full_state) == 1.0

    def test_mongodb_twenty_percent_mba(self):
        p = calibrated_profile("mongodb")
        assert retainment_at(p, AllocationState(20, 20)) == pytest.approx(0.642, abs=1e-9)


class TestWeightsOf:
    def test_table_derived_pair(self):
        w = weights_of([1.25, 3.03])
        assert w[0] == pytest.approx(0.2921, abs=1e-4)
        assert w[1] == pytest.approx(0.7079, abs=1e-4)

    def test_symmetry(self):
        assert weights_of([4.2, 4.2, 4.2]) == pytest.approx([1 / 3] * 3)

    def test_singleton(self):
        assert weights_of([2.0]) == [1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            weights_of([])

    def test_below_one_rejected(self):
        with pytest.raises(ValidationError):
            weights_of([1.5, 0.9])

    def test_same_lower_bound_as_profiles(self):
        lowest = 1.0 - SLOWDOWN_SLACK
        SensitivityProfile((1, 2), (100,), ((lowest,), (1.0,)))
        assert weights_of([lowest, 1.0]) == pytest.approx([0.5, 0.5])
        below = lowest - 1e-13
        with pytest.raises(ValidationError):
            SensitivityProfile((1, 2), (100,), ((below,), (1.0,)))
        with pytest.raises(ValidationError):
            weights_of([below, 1.0])

    @given(slowdown_vectors())
    def test_sums_to_one(self, sds):
        assert math.isclose(sum(weights_of(sds)), 1.0, abs_tol=1e-9)

    @given(slowdown_vectors(), st.floats(1.0, 1e3))
    def test_scale_invariant(self, sds, c):
        base = weights_of(sds)
        scaled = weights_of([s * c for s in sds])
        assert all(abs(a - b) <= 1e-9 for a, b in zip(base, scaled))

    @given(slowdown_vectors())
    @example([1.0, 1.0, 1.0, 596010.0, 999999.9999999999, 1000000.0])
    def test_argmax_preserved(self, sds):
        # near-equal slowdowns can round to equal weights, so only require
        # that the largest slowdown gets a maximal weight
        w = weights_of(sds)
        assert w[sds.index(max(sds))] == max(w)


class TestDominance:
    def test_nginx_is_llc_dominant(self):
        assert dominance_of(calibrated_profile("nginx")) is Dominance.LLC_DOMINANT

    def test_memcached_is_balanced(self):
        assert dominance_of(calibrated_profile("memcached")) is Dominance.BALANCED

    def test_synthetic_mb_dominant(self):
        p = SensitivityProfile((1, 2), (50, 100), ((2.0, 1.0), (2.0, 1.0)))
        assert dominance_of(p) is Dominance.MB_DOMINANT

    def test_workload_consistency_default(self):
        p = calibrated_profile("mongodb")
        w = WorkloadSpec("m", SloSpec(0.99, 5.0), p, 10.0)
        assert w.dominance is dominance_of(p)


class TestProfileProperties:
    @given(monotone_profiles())
    def test_full_state_exactly_one(self, profile):
        assert slowdown_at(profile, profile.full_state) == 1.0

    @given(monotone_profiles(), st.data())
    def test_retainment_inverts_slowdown(self, profile, data):
        w = data.draw(st.integers(1, profile.way_levels[-1]))
        m = data.draw(st.integers(1, 100))
        state = AllocationState(w, m)
        assert abs(retainment_at(profile, state) * slowdown_at(profile, state)
                   - 1.0) <= 1e-12

    @given(monotone_profiles(), st.data())
    def test_monotone_in_each_axis(self, profile, data):
        top_w = profile.way_levels[-1]
        w1 = data.draw(st.integers(1, top_w))
        w2 = data.draw(st.integers(w1, top_w))
        m1 = data.draw(st.integers(1, 100))
        m2 = data.draw(st.integers(m1, 100))
        s1 = slowdown_at(profile, AllocationState(w1, m1))
        s2 = slowdown_at(profile, AllocationState(w2, m2))
        assert s1 >= s2 - 1e-9
