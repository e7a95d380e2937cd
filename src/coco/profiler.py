"""Offline sensitivity profiling against a parametric ground-truth model.

The model stands in for a live application behind a load generator: latency
saturates as load approaches a per-state capacity.  Profiling finds the
largest SLO-sustaining load at every allocation state on the machine's
minimum-adjustment grid and turns the result into a sensitivity profile.
The latency model inverts in closed form, so no search is needed.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from coco.core import AllocationState, MachineSpec, SensitivityProfile, SloSpec, Value, _set
from coco.errors import InfeasibleSloError, ValidationError


class GroundTruthModel(Value):
    """Closed latency model: latency = base * inflation / (1 - load/capacity).

    ``capacity_fn`` maps an allocation state to the state's saturation
    capacity (requests/sec) and must be non-decreasing in each axis, up to
    the rounding slack every profile grid has (``core.MONOTONE_EPS``).  It
    may carry ``axes(ways, mbas)``: ``(f, way_factors, mba_factors)`` whose
    ``f * (way_factors[i] * mba_factors[j])`` is its value at (ways[i], mbas[j]).
    ``tail_inflation`` maps the mean latency to the SLO percentile.
    """

    __slots__ = ("base_latency_ms", "tail_inflation", "capacity_fn")

    def __init__(self, base_latency_ms: float, tail_inflation: float,
                 capacity_fn: Callable[[AllocationState], float]):
        if not (math.isfinite(base_latency_ms) and base_latency_ms > 0):
            raise ValidationError("base_latency_ms must be finite and > 0")
        if not (math.isfinite(tail_inflation) and tail_inflation >= 1):
            raise ValidationError("tail_inflation must be finite and >= 1")
        _set(self, "base_latency_ms", base_latency_ms)
        _set(self, "tail_inflation", tail_inflation)
        _set(self, "capacity_fn", capacity_fn)

    def floor_latency_ms(self) -> float:
        return self.base_latency_ms * self.tail_inflation

    def latency_ms(self, load: float, state: AllocationState) -> float:
        cap = self.capacity_fn(state)
        if load >= cap:
            return math.inf
        return self.floor_latency_ms() / (1.0 - load / cap)


def _load_fraction(model: GroundTruthModel, slo: SloSpec) -> float:
    """Fraction of capacity sustainable within the SLO: 1 - floor/bound."""
    floor = model.floor_latency_ms()
    bound = slo.latency_bound_ms
    if bound < floor:
        raise InfeasibleSloError(
            f"SLO bound {bound} ms below zero-load latency {floor} ms")
    return 1.0 - floor / bound


def max_sustainable_load(model: GroundTruthModel, state: AllocationState,
                         slo: SloSpec) -> float:
    """Largest load whose latency stays within the SLO bound at this state.

    Solves ``floor / (1 - load/cap) = bound``: ``cap * (1 - floor/bound)``.
    """
    return model.capacity_fn(state) * _load_fraction(model, slo)


@functools.lru_cache(maxsize=1)  # a scenario's models share its one machine
def grid_states(machine: MachineSpec) -> tuple[AllocationState, ...]:
    """Full profiling grid, stepped by the machine's minimum adjustment.

    Row-major: every MBA level of 1 way, then of 2 ways, and so on.
    """
    return tuple(
        AllocationState(w, m)
        for w in range(1, machine.llc_ways + 1)
        for m in machine.mba_levels()
    )


def build_profile(model: GroundTruthModel, machine: MachineSpec,
                  slo: SloSpec) -> tuple[SensitivityProfile, float]:
    """Profile a model over the machine grid: its SensitivityProfile and its
    SLO-sustaining load at full allocation, ``sl_full``.

    Composes the capacities from ``capacity_fn.axes`` if it has them, else (or
    to name a bad one) calls ``capacity_fn`` once per grid state; each must be
    finite and > 0.  The SLO factor of the sustainable load cancels in a
    slowdown, ``cap(full) / cap(state)``; division by a positive capacity
    reverses order exactly, so the grid's monotonicity is checked once, as
    slowdowns by ``SensitivityProfile``, and before the SLO is.
    """
    ways = tuple(range(1, machine.llc_ways + 1))
    mbas = machine.mba_levels()
    axes = getattr(model.capacity_fn, "axes", None)
    if axes is not None:
        f, way_factors, mba_factors = axes(ways, mbas)
        caps = [f * (c * m) for c in way_factors for m in mba_factors]
    if axes is None or not (all(map(math.isfinite, caps)) and min(caps) > 0):
        caps = []  # the same capacities, one call each, up to the first bad one
        for s in grid_states(machine):  # row-major: all MBA levels of each way count
            c = model.capacity_fn(s)
            if not (math.isfinite(c) and c > 0):
                raise ValidationError(
                    f"capacity must be finite and > 0 at ({s.llc_ways},{s.mba_percent})")
            caps.append(c)
    full = caps[-1]
    n = len(mbas)
    profile = SensitivityProfile(ways, mbas, tuple(
        tuple(full / c for c in caps[k:k + n]) for k in range(0, len(caps), n)))
    sl_full = full * _load_fraction(model, slo)
    if sl_full <= 0:
        raise InfeasibleSloError("zero sustainable load at full allocation")
    return profile, sl_full
