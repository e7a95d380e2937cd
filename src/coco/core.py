"""Core value types: machine envelope, allocation states, sensitivity profiles.

Slowdown is the ratio of the SLO-sustaining load at full allocation to the
SLO-sustaining load at a restricted allocation state; load retainment is its
reciprocal.  The scheduler ranks and splits by slowdown; the weights an epoch
plan reports are its workloads' slowdowns normalized to sum to one.
"""

from __future__ import annotations

import bisect
import enum
import math
from operator import ge

from coco.errors import ValidationError

# Monotonicity slack for every profile grid, hand-written (profile files,
# inline grids) or rounded (a model's bilinear capacity wobbles by an ulp
# where it is flat); genuine violations are orders of magnitude larger.
MONOTONE_EPS = 1e-9

# How far below 1 a slowdown may round (profile grids, scheduling weights):
# one bound, so a grid that loads also schedules.
SLOWDOWN_SLACK = 1e-12

DOMINANCE_THETA = 1.5

# Above x86 resctrl's 32-bit capacity bit-mask with room to spare; a model
# workload is profiled over every way, so the bound also bounds load time.
MAX_LLC_WAYS = 64

# A workload's full-allocation sustainable load when none is given.
DEFAULT_SL_FULL = 1.0

_set = object.__setattr__  # how a Value's __init__ stores its fields


class Value:
    """Base of the value types: equality, hash, repr and replace from ``__slots__``.

    A subclass names its fields in ``__slots__``, in the order of its
    ``__init__``'s parameters, and writes that ``__init__`` with its checks,
    storing each field by ``_set``.  Two values are equal when they are of
    one class and their fields are equal.  A value is immutable; it hashes
    as the tuple of its fields, so one that holds a list or a dict does not.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __replace__(self, /, **changes):
        """A copy with ``changes``, built by ``__init__`` so its checks run again."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        return self.__class__(**{**fields, **changes})


def replace(obj: Value, /, **changes):
    """A copy of ``obj`` with ``changes``, checked again; as ``copy.replace``."""
    return obj.__replace__(**changes)


class Dominance(enum.Enum):
    LLC_DOMINANT = "llc"
    MB_DOMINANT = "mb"
    BALANCED = "balanced"


class MachineSpec(Value):
    """Hardware envelope: LLC ways, CLOS count, MBA granularity."""

    __slots__ = ("llc_ways", "clos_count", "mba_step")

    def __init__(self, llc_ways: int, clos_count: int, mba_step: int):
        if llc_ways < 1:
            raise ValidationError("llc_ways must be >= 1")
        if llc_ways > MAX_LLC_WAYS:
            raise ValidationError(f"llc_ways must be <= {MAX_LLC_WAYS}")
        if clos_count < 2:
            raise ValidationError("clos_count must be >= 2 (one CLOS is reserved)")
        if llc_ways < clos_count:
            raise ValidationError("llc_ways must be >= clos_count (each CLOS needs a way)")
        if mba_step < 1 or 100 % mba_step != 0:
            raise ValidationError("mba_step must divide 100")
        _set(self, "llc_ways", llc_ways)
        _set(self, "clos_count", clos_count)
        _set(self, "mba_step", mba_step)

    def mba_levels(self) -> tuple[int, ...]:
        return tuple(range(self.mba_step, 101, self.mba_step))


class AllocationState(Value):
    """Resource allocation: LLC ways and MBA throttle percentage.

    States order as (llc_ways, mba_percent) tuples.
    """

    __slots__ = ("llc_ways", "mba_percent")

    def __init__(self, llc_ways: int, mba_percent: int):
        if llc_ways < 1:
            raise ValidationError("llc_ways must be >= 1")
        if not 1 <= mba_percent <= 100:
            raise ValidationError("mba_percent must be in [1, 100]")
        _set(self, "llc_ways", llc_ways)
        _set(self, "mba_percent", mba_percent)

    def _order(self, other, compare):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return compare(self._values(), other._values())

    def __lt__(self, other):
        return self._order(other, tuple.__lt__)

    def __le__(self, other):
        return self._order(other, tuple.__le__)

    def __gt__(self, other):
        return self._order(other, tuple.__gt__)

    def __ge__(self, other):
        return self._order(other, tuple.__ge__)


class SloSpec(Value):
    """Tail-latency objective: bound at a percentile."""

    __slots__ = ("percentile", "latency_bound_ms")

    def __init__(self, percentile: float, latency_bound_ms: float):
        if not 0.0 < percentile < 1.0:
            raise ValidationError("percentile must be in (0, 1)")
        if not (math.isfinite(latency_bound_ms) and latency_bound_ms > 0):
            raise ValidationError("latency_bound_ms must be finite and > 0")
        _set(self, "percentile", percentile)
        _set(self, "latency_bound_ms", latency_bound_ms)


class SensitivityProfile(Value):
    """Rectangular grid of slowdown values over allocation states.

    ``way_levels`` and ``mba_levels`` are strictly ascending; the last level
    of each axis is the full allocation, where slowdown is exactly 1.
    ``slowdowns[i][j]`` belongs to (way_levels[i], mba_levels[j]).  A grid
    is checked once and shared by every workload profiled from one source;
    each workload's own full-allocation load is ``WorkloadSpec.sl_full``.
    """

    __slots__ = ("way_levels", "mba_levels", "slowdowns")

    def __init__(self, way_levels: tuple[int, ...], mba_levels: tuple[int, ...],
                 slowdowns: tuple[tuple[float, ...], ...]):
        ways, mbas, grid = way_levels, mba_levels, slowdowns
        if not ways or not mbas:
            raise ValidationError("profile grid must be nonempty")
        if not all(isinstance(x, int) or math.isfinite(x) for x in ways + mbas):
            raise ValidationError("profile levels must be finite")
        if list(ways) != sorted(set(ways)) or ways[0] < 1:
            raise ValidationError("way_levels must be strictly ascending, >= 1")
        if list(mbas) != sorted(set(mbas)) or mbas[0] < 1 or mbas[-1] != 100:
            raise ValidationError("mba_levels must be strictly ascending and end at 100")
        if len(grid) != len(ways) or any(len(row) != len(mbas) for row in grid):
            raise ValidationError("slowdown grid shape does not match axis levels")
        if abs(grid[-1][-1] - 1.0) > SLOWDOWN_SLACK:
            raise ValidationError("slowdown at full allocation must be 1.0")
        # each cell of a grid exactly non-increasing along both axes from a finite first
        # cell lies in [grid[-1][-1], grid[0][0]] and passes; only others are walked
        if not (math.isfinite(grid[0][0]) and all(all(map(ge, row, row[1:])) for row in grid)
                and all(all(map(ge, a, b)) for a, b in zip(grid, grid[1:]))):
            for i, row in enumerate(grid):
                for j, s in enumerate(row):
                    if not math.isfinite(s):
                        raise ValidationError(f"slowdown not finite at grid point ({i},{j})")
                    if s < 1.0 - SLOWDOWN_SLACK:
                        raise ValidationError(f"slowdown < 1 at grid point ({i},{j})")
                    if i and s > grid[i - 1][j] + MONOTONE_EPS:
                        raise ValidationError(
                            f"slowdown not monotone along the ways axis at grid point ({i},{j})")
                    if j and s > row[j - 1] + MONOTONE_EPS:
                        raise ValidationError(
                            f"slowdown not monotone along the MBA axis at grid point ({i},{j})")
        _set(self, "way_levels", way_levels)
        _set(self, "mba_levels", mba_levels)
        _set(self, "slowdowns", slowdowns)

    @property
    def full_state(self) -> AllocationState:
        return AllocationState(self.way_levels[-1], self.mba_levels[-1])

    def grid(self) -> dict[AllocationState, float]:
        """Grid as a state -> slowdown mapping."""
        return {
            AllocationState(w, m): self.slowdowns[i][j]
            for i, w in enumerate(self.way_levels)
            for j, m in enumerate(self.mba_levels)
        }

    @classmethod
    def from_grid(cls, mapping: dict[AllocationState, float]) -> "SensitivityProfile":
        """Build from a complete rectangular state -> slowdown mapping."""
        ways = tuple(sorted({s.llc_ways for s in mapping}))
        mbas = tuple(sorted({s.mba_percent for s in mapping}))
        if len(mapping) != len(ways) * len(mbas):
            raise ValidationError("grid mapping is not a complete rectangle")
        rows = tuple(
            tuple(mapping[AllocationState(w, m)] for m in mbas) for w in ways
        )
        return cls(ways, mbas, rows)


def _cell(levels: tuple[int, ...], x: float) -> tuple[int, float]:
    """Locate x on an ascending axis: (lower index, blend fraction), clamped."""
    if x <= levels[0]:
        return 0, 0.0
    if x >= levels[-1]:
        return len(levels) - 1, 0.0
    i = bisect.bisect_right(levels, x) - 1
    if levels[i] == x:
        return i, 0.0
    return i, (x - levels[i]) / (levels[i + 1] - levels[i])


def bilinear(way_levels: tuple[int, ...], mba_levels: tuple[int, ...],
             grid, ways: float, mba: float) -> float:
    """Bilinear interpolation on a rectangular grid, clamped to its hull."""
    i, fw = _cell(way_levels, ways)
    j, fm = _cell(mba_levels, mba)
    i2 = min(i + 1, len(way_levels) - 1)
    j2 = min(j + 1, len(mba_levels) - 1)
    top = grid[i][j] * (1 - fm) + grid[i][j2] * fm
    bot = grid[i2][j] * (1 - fm) + grid[i2][j2] * fm
    return top * (1 - fw) + bot * fw


def slowdown_xy(profile: SensitivityProfile, ways: float, mba: float) -> float:
    """Continuous slowdown lookup with bilinear interpolation.

    Queries outside the grid hull but within [1, max_ways] x (0, 100] clamp to
    the hull boundary (calibrated grids may not reach the machine minimums).
    """
    if ways < 1 - 1e-9 or ways > profile.way_levels[-1] + 1e-9:
        raise ValidationError(
            f"ways {ways} outside machine bounds [1, {profile.way_levels[-1]}]")
    if mba <= 0 or mba > 100 + 1e-9:
        raise ValidationError(f"mba {mba} outside machine bounds (0, 100]")
    return bilinear(profile.way_levels, profile.mba_levels, profile.slowdowns,
                    ways, mba)


def slowdown_at(profile: SensitivityProfile, state: AllocationState) -> float:
    """Slowdown at an allocation state (grid value or bilinear interpolation)."""
    return slowdown_xy(profile, state.llc_ways, state.mba_percent)


def retainment_at(profile: SensitivityProfile, state: AllocationState) -> float:
    """Load retainment (1/slowdown) at an allocation state; in (0, 1]."""
    return 1.0 / slowdown_at(profile, state)


def weights_of(slowdowns: list[float]) -> list[float]:
    """An epoch plan's weights: each slowdown normalized by the total."""
    if not slowdowns:
        raise ValidationError("weights_of requires a nonempty slowdown list")
    for s in slowdowns:
        if not (math.isfinite(s) and s >= 1.0 - SLOWDOWN_SLACK):
            raise ValidationError(f"slowdown {s} must be a finite value >= 1")
    total = sum(slowdowns)
    return [s / total for s in slowdowns]


def dominance_of(profile: SensitivityProfile) -> Dominance:
    """Classify which resource axis dominates the profile's sensitivity.

    Compares the slowdown at the most-restricted cache endpoint (min ways,
    full bandwidth) against the most-restricted bandwidth endpoint (full
    cache, min MBA).
    """
    a = profile.slowdowns[0][-1]   # (min ways, 100%)
    b = profile.slowdowns[-1][0]   # (full ways, min MBA)
    if a >= DOMINANCE_THETA * b:
        return Dominance.LLC_DOMINANT
    if b >= DOMINANCE_THETA * a:
        return Dominance.MB_DOMINANT
    return Dominance.BALANCED


def _sl_full(sl_full: float) -> float:
    """``sl_full``, checked as a full-allocation sustainable load."""
    if not (math.isfinite(sl_full) and sl_full > 0):
        raise ValidationError("sl_full must be finite and > 0")
    return sl_full


class WorkloadSpec(Value):
    """A latency-critical workload: SLO, sensitivity profile, offered load.

    ``dominance`` defaults to the profile's own (``dominance_of``).
    ``sl_full`` is the load it sustains within its SLO at full allocation.
    """

    __slots__ = ("name", "slo", "profile", "offered_load", "dominance", "sl_full")

    def __init__(self, name: str, slo: SloSpec, profile: SensitivityProfile,
                 offered_load: float = 0.0, dominance: Dominance | None = None,
                 sl_full: float = DEFAULT_SL_FULL):
        if not name:
            raise ValidationError("workload name must be nonempty")
        if not (math.isfinite(offered_load) and offered_load >= 0):
            raise ValidationError("offered_load must be finite and >= 0")
        _set(self, "name", name)
        _set(self, "slo", slo)
        _set(self, "profile", profile)
        _set(self, "offered_load", offered_load)
        _set(self, "dominance", dominance_of(profile) if dominance is None else dominance)
        _set(self, "sl_full", _sl_full(sl_full))
