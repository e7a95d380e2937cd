"""Offline sensitivity profiling against a parametric ground-truth model.

The model stands in for a live application behind a load generator: latency
saturates as load approaches a per-state capacity.  Profiling finds the
largest SLO-sustaining load at every allocation state on the machine's
minimum-adjustment grid and turns the result into a sensitivity profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from coco.core import AllocationState, MachineSpec, SensitivityProfile, SloSpec
from coco.errors import InfeasibleSloError, ValidationError

SEARCH_REL_TOL = 1e-4


@dataclass(frozen=True)
class GroundTruthModel:
    """Closed latency model: latency = base * inflation / (1 - load/capacity).

    ``capacity_fn`` maps an allocation state to the state's saturation
    capacity (requests/sec) and must be monotone non-decreasing in each axis.
    ``tail_inflation`` maps the mean latency to the SLO percentile.
    """

    base_latency_ms: float
    tail_inflation: float
    capacity_fn: Callable[[AllocationState], float]

    def __post_init__(self):
        if self.base_latency_ms <= 0:
            raise ValidationError("base_latency_ms must be > 0")
        if self.tail_inflation < 1:
            raise ValidationError("tail_inflation must be >= 1")

    def floor_latency_ms(self) -> float:
        return self.base_latency_ms * self.tail_inflation

    def latency_ms(self, load: float, state: AllocationState) -> float:
        cap = self.capacity_fn(state)
        if load >= cap:
            return math.inf
        return self.floor_latency_ms() / (1.0 - load / cap)


def max_sustainable_load(model: GroundTruthModel, state: AllocationState,
                         slo: SloSpec) -> float:
    """Largest load whose latency stays within the SLO bound at this state.

    Binary search between zero load and the state's capacity, to relative
    tolerance 1e-4; the latency model is invertible, so the result also
    matches the closed-form inversion within tolerance.
    """
    floor = model.floor_latency_ms()
    bound = slo.latency_bound_ms
    if bound < floor:
        raise InfeasibleSloError(
            f"SLO bound {bound} ms below zero-load latency {floor} ms")
    cap = model.capacity_fn(state)
    if cap <= 0:
        raise ValidationError(f"capacity must be > 0 at {state}")
    lo, hi = 0.0, cap
    while hi - lo > SEARCH_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if model.latency_ms(mid, state) <= bound:
            lo = mid
        else:
            hi = mid
    return lo


def grid_states(machine: MachineSpec) -> tuple[AllocationState, ...]:
    """Full profiling grid, stepped by the machine's minimum adjustment."""
    return tuple(
        AllocationState(w, m)
        for w in range(1, machine.llc_ways + 1)
        for m in machine.mba_levels()
    )


def _check_capacity_monotone(model: GroundTruthModel, machine: MachineSpec) -> None:
    levels = machine.mba_levels()
    caps = {
        (w, m): model.capacity_fn(AllocationState(w, m))
        for w in range(1, machine.llc_ways + 1) for m in levels
    }
    for (w, m), c in caps.items():
        if w > 1 and caps[(w - 1, m)] > c:
            raise ValidationError(
                f"capacity_fn not monotone in ways at ({w},{m})")
        if m > levels[0] and caps[(w, m - machine.mba_step)] > c:
            raise ValidationError(
                f"capacity_fn not monotone in MBA at ({w},{m})")


def build_profile(model: GroundTruthModel, machine: MachineSpec,
                  slo: SloSpec) -> SensitivityProfile:
    """Profile a model into a SensitivityProfile over the machine grid."""
    _check_capacity_monotone(model, machine)
    sl = {s: max_sustainable_load(model, s, slo) for s in grid_states(machine)}
    mbas = machine.mba_levels()
    ways = tuple(range(1, machine.llc_ways + 1))
    sl_full = sl[AllocationState(machine.llc_ways, 100)]
    if sl_full <= 0:
        raise InfeasibleSloError("zero sustainable load at full allocation")
    rows = [[sl_full / sl[AllocationState(w, m)] for m in mbas] for w in ways]
    # Snap out binary-search noise: sweep from the full corner enforcing
    # non-increasing slowdown toward fewer resources.  Genuine non-monotone
    # capacity functions were already rejected above.
    for i in range(len(ways) - 1, -1, -1):
        for j in range(len(mbas) - 1, -1, -1):
            s = rows[i][j]
            if i + 1 < len(ways):
                s = max(s, rows[i + 1][j])
            if j + 1 < len(mbas):
                s = max(s, rows[i][j + 1])
            rows[i][j] = max(s, 1.0)
    rows[-1][-1] = 1.0
    return SensitivityProfile(ways, mbas, tuple(tuple(r) for r in rows), sl_full)
