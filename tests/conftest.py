import importlib.resources

import pytest
from hypothesis import strategies as st

from coco.calibration import reference_machine
from coco.closconfig import default_partition
from coco.core import (AllocationState, MachineSpec, SensitivityProfile,
                       SloSpec, WorkloadSpec, replace)
from coco.sim import Scenario, _simulate

SLO = SloSpec(percentile=0.99, latency_bound_ms=10.0)


@pytest.fixture(scope="session")
def machine20():
    return reference_machine()


@pytest.fixture(scope="session")
def clos_set20(machine20):
    return default_partition(machine20)


@pytest.fixture(scope="session")
def reference_path():
    return str(importlib.resources.files("coco") / "data" / "reference.yaml")


def step_profile(state: AllocationState, value: float, llc_ways: int) -> SensitivityProfile:
    """Profile whose slowdown is exactly ``value`` at and below ``state``."""
    ways = (state.llc_ways, llc_ways) if state.llc_ways < llc_ways else (llc_ways,)
    mbas = (state.mba_percent, 100) if state.mba_percent < 100 else (100,)
    rows = tuple(
        tuple(1.0 if (w == llc_ways and m == 100) else value for m in mbas)
        for w in ways)
    return SensitivityProfile(ways, mbas, rows)


def make_workload(name: str, slowdown: float, reference: AllocationState,
                  llc_ways: int = 20, offered: float = 0.0,
                  sl_full: float = 1000.0) -> WorkloadSpec:
    """Workload with an exact slowdown at the scheduler's reference state."""
    profile = step_profile(reference, slowdown, llc_ways)
    return WorkloadSpec(name, SLO, profile, offered, sl_full=sl_full)


def _scaled(scenario: Scenario, multiplier: float) -> Scenario:
    """The scenario with every offered load multiplied by ``multiplier``."""
    return replace(scenario, workloads=tuple(
        replace(w, offered_load=w.offered_load * multiplier)
        for w in scenario.workloads))


def _total_violations(scenario: Scenario, multiplier: float) -> int:
    """Violations of a fresh simulation at the scaled loads, without admission."""
    tallies, _, _ = _simulate(_scaled(scenario, multiplier), apply_admission=False)
    return sum(t.violations for t in tallies.values())


@st.composite
def monotone_profiles(draw, max_ways: int = 24):
    """Separable monotone slowdown grids: sd(w, m) = (1 + a_w) * (1 + b_m)."""
    n_w = draw(st.integers(2, 5))
    n_m = draw(st.integers(1, 4))
    ways = tuple(sorted(draw(st.lists(
        st.integers(1, max_ways), min_size=n_w, max_size=n_w, unique=True))))
    inner = draw(st.lists(st.integers(1, 99), min_size=n_m - 1,
                          max_size=n_m - 1, unique=True))
    mbas = tuple(sorted(inner) + [100])
    incr = st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)
    a_steps = draw(st.lists(incr, min_size=n_w - 1, max_size=n_w - 1))
    b_steps = draw(st.lists(incr, min_size=n_m - 1, max_size=n_m - 1))
    a = [0.0] * n_w
    for i in range(n_w - 2, -1, -1):
        a[i] = a[i + 1] + a_steps[i]
    b = [0.0] * n_m
    for j in range(n_m - 2, -1, -1):
        b[j] = b[j + 1] + b_steps[j]
    rows = tuple(tuple((1 + a[i]) * (1 + b[j]) for j in range(n_m))
                 for i in range(n_w))
    return SensitivityProfile(ways, mbas, rows)


@st.composite
def slowdown_vectors(draw):
    return draw(st.lists(
        st.floats(1.0, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=12))
