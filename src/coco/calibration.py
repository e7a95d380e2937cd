"""Measured load-retainment rows for three reference applications.

Each application has one retainment row per resource axis, measured on a
20-way / 4-CLOS machine: cache masks of 3/6/9/20 ways at full bandwidth, and
MBA throttles of 20..100% at full cache.  Combined states compose
multiplicatively under an independence assumption; a full 2D grid measured
directly always overrides this composition.
"""

from __future__ import annotations

from functools import lru_cache

from coco.core import AllocationState, MachineSpec, SensitivityProfile, _cell
from coco.errors import ValidationError

CALIBRATION_WAYS = 20

# retainment (fraction of full-allocation sustainable load) per cache mask width
CAT_RETAINMENT: dict[str, dict[int, float]] = {
    "memcached": {20: 1.0, 9: 0.881, 6: 0.838, 3: 0.80},
    "nginx":     {20: 1.0, 9: 0.75,  6: 0.62,  3: 0.33},
    "mongodb":   {20: 1.0, 9: 0.583, 6: 0.373, 3: 0.26},
}

# retainment per MBA throttle percentage
MBA_RETAINMENT: dict[str, dict[int, float]] = {
    "memcached": {100: 1.0, 80: 0.914, 60: 0.872, 40: 0.82,  20: 0.784},
    "nginx":     {100: 1.0, 80: 0.93,  60: 0.901, 40: 0.873, 20: 0.811},
    "mongodb":   {100: 1.0, 80: 0.825, 60: 0.74,  40: 0.699, 20: 0.642},
}

APPS = tuple(sorted(CAT_RETAINMENT))
_LEVELS = {app: (sorted(CAT_RETAINMENT[app]), sorted(MBA_RETAINMENT[app])) for app in APPS}
# each app's one profile, checked once and shared by every workload that names
# it: slowdown 1 / (cache retainment x MBA retainment)
_PROFILES = {app: SensitivityProfile(
                 tuple(ways), tuple(mbas),
                 tuple(tuple(1.0 / (CAT_RETAINMENT[app][w] * MBA_RETAINMENT[app][m])
                             for m in mbas) for w in ways))
             for app, (ways, mbas) in _LEVELS.items()}


def _interp_row(row: dict[int, float], levels: list[int], x: float) -> float:
    """Piecewise-linear interpolation of a row over its sorted levels, clamped at the ends."""
    i, f = _cell(levels, x)
    if not f:  # on a level, or clamped to an end
        return row[levels[i]]
    return row[levels[i]] * (1 - f) + row[levels[i + 1]] * f


def _factors(app: str, ways: tuple[int, ...], mbas: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The app's interpolated cache retainment per way count and MBA retainment per level."""
    return (tuple([_interp_row(CAT_RETAINMENT[app], _LEVELS[app][0], w) for w in ways]),
            tuple([_interp_row(MBA_RETAINMENT[app], _LEVELS[app][1], m) for m in mbas]))


_axis_factors = lru_cache(maxsize=len(APPS))(_factors)  # a scenario's models share one machine


def calibrated_profile(app: str) -> SensitivityProfile:
    """The one sensitivity profile of a reference app on the 20-way machine."""
    if app not in _PROFILES:
        raise ValidationError(f"unknown calibration app {app!r}; have {APPS}")
    return _PROFILES[app]


def calibrated_capacity_fn(app: str, full: float):
    """Saturation-capacity function shaped like a reference app's rows.

    Capacity ratios to ``full``, the capacity at full allocation, equal the
    composed retainment, so a profiler run against this function reproduces
    the measured row.  Its ``axes(ways, mbas)`` gives ``full`` and the
    retainment of each level, which ``build_profile`` composes the grid from.
    """
    if app not in CAT_RETAINMENT:
        raise ValidationError(f"unknown calibration app {app!r}; have {APPS}")
    if full <= 0:
        raise ValidationError("full must be > 0")

    def capacity(state: AllocationState) -> float:
        (c,), (m,) = _factors(app, (state.llc_ways,), (state.mba_percent,))
        return full * (c * m)

    capacity.axes = lambda ways, mbas: (full, *_axis_factors(app, ways, mbas))
    return capacity


def reference_machine() -> MachineSpec:
    """The machine the calibration rows were measured on."""
    return MachineSpec(llc_ways=CALIBRATION_WAYS, clos_count=4, mba_step=10)
