"""Scenario value types: the policies, warmup penalty and run parameters.

These are what a scenario file describes, so the file loader builds them
without importing the scheduler or the simulator.  ``coco.sim`` re-exports
every name here.
"""

from __future__ import annotations

import enum
import math
import sys
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

from coco.core import MachineSpec, Value, WorkloadSpec, _set, replace
from coco.errors import ValidationError

if TYPE_CHECKING:
    from coco.closconfig import ClosSet

# Input validation for every run.  It bounds the cost of a jittered run
# alone, which simulates every epoch: a million take minutes, not forever.
MAX_DURATION = 10**6
# Quanta are split by float arithmetic, which counts exactly up to 2**53.
MAX_EPOCH_QUANTA = 2**53


class Policy(enum.Enum):
    COCO = "coco"
    COCO_CONFLICTING = "coco-conflicting"
    CAT_ONLY = "cat-only"
    MBA_ONLY = "mba-only"
    ROUND_ROBIN = "rr"
    NO_PARTITION = "none"


class PolicySpec(NamedTuple):
    """What one policy decides; the simulator derives everything else.

    ``planner`` is "weighted" (slowdown-weighted MQ-WRR, which pairs
    complementary workloads), "rr" (equal slices, membership rotating one
    CLOS per epoch) or "shared" (no CLOSs: every workload runs all epoch on
    one virtual CLOS).  ``shared`` names the resource axes ("llc", "mba")
    left unpartitioned.
    """

    planner: str
    admission: bool = False
    conflicting: bool = False
    shared: frozenset[str] = frozenset()


POLICIES = MappingProxyType({
    Policy.COCO: PolicySpec("weighted", admission=True),
    Policy.COCO_CONFLICTING: PolicySpec("weighted", admission=True,
                                        conflicting=True),
    Policy.CAT_ONLY: PolicySpec("weighted", shared=frozenset({"mba"})),
    Policy.MBA_ONLY: PolicySpec("weighted", shared=frozenset({"llc"})),
    Policy.ROUND_ROBIN: PolicySpec("rr"),
    Policy.NO_PARTITION: PolicySpec("shared", shared=frozenset({"llc", "mba"})),
})


class WarmupParams(Value):
    """Post-migration cache-refill penalty: window length and inflation."""

    __slots__ = ("window", "factor")

    def __init__(self, window: int = 2, factor: float = 1.15):
        if window < 0:
            raise ValidationError("warmup window must be >= 0")
        if not (math.isfinite(factor) and factor >= 1):
            raise ValidationError("warmup factor must be finite and >= 1")
        _set(self, "window", window)
        _set(self, "factor", factor)


class Scenario(Value):
    """One run: the machine, its workloads, the policy and the run parameters."""

    __slots__ = ("machine", "workloads", "policy", "epoch_quanta", "duration", "warmup",
                 "seed", "clos_set", "interference_alpha", "pairing_penalty", "load_jitter")

    def __init__(self, machine: MachineSpec, workloads: tuple[WorkloadSpec, ...],
                 policy: Policy, epoch_quanta: int = 20, duration: int = 10,
                 warmup: WarmupParams = WarmupParams(), seed: int = 0,
                 clos_set: ClosSet | None = None, interference_alpha: float = 1.0,
                 pairing_penalty: float = 1.05, load_jitter: float = 0.0):
        if not workloads:
            raise ValidationError("scenario needs at least one workload")
        names = [w.name for w in workloads]
        if len(set(names)) != len(names):
            raise ValidationError("workload names must be unique")
        if not 1 <= duration <= MAX_DURATION:
            raise ValidationError(f"duration must be in [1, {MAX_DURATION}] epochs")
        if not 1 <= epoch_quanta <= MAX_EPOCH_QUANTA:
            raise ValidationError(f"epoch_quanta must be in [1, {MAX_EPOCH_QUANTA}]")
        # a deal puts up to ceil(workloads / LC CLOSs) on one CLOS, a quantum each
        lc_count = machine.clos_count - 1
        crowd = -(-len(workloads) // lc_count)
        if epoch_quanta < crowd:
            raise ValidationError(f"epoch_quanta must be >= {crowd}: {len(workloads)} workloads "
                                  f"on {lc_count} LC CLOSs need a quantum each")
        if not (math.isfinite(interference_alpha) and interference_alpha >= 1):
            raise ValidationError("interference_alpha must be finite and >= 1")
        if not (math.isfinite(pairing_penalty) and pairing_penalty >= 1):
            raise ValidationError("pairing_penalty must be finite and >= 1")
        if not 0 <= load_jitter < 1:
            raise ValidationError("load_jitter must be in [0, 1)")
        # the grid is monotone, so its first cell is its largest slowdown
        largest = [w.profile.slowdowns[0][0] for w in workloads]
        inflation = interference_alpha * pairing_penalty * warmup.factor
        smallest_rates = [w.sl_full / (slowdown * inflation)
                          for w, slowdown in zip(workloads, largest)]
        for w, rate in zip(workloads, smallest_rates):
            if rate < sys.float_info.min:
                raise ValidationError(f"workload {w.name!r}: its smallest rate underflows to 0")
        # a CLOS's split divides epoch_quanta times each member's slowdown by their total
        if not math.isfinite(epoch_quanta * sum(largest)):
            raise ValidationError("the workloads' largest slowdowns overflow their total "
                                  "x epoch_quanta")
        if not math.isfinite(duration * epoch_quanta * 2
                             * sum(max(w.sl_full, w.offered_load) for w in workloads)):
            raise ValidationError("offered loads and sl_full overflow the capacity totals")
        # the largest demand: the jittered load on a one-quantum share at the smallest rate
        for w, rate in zip(workloads, smallest_rates):
            if not math.isfinite(w.offered_load * (1 + load_jitter) * epoch_quanta / rate):
                raise ValidationError(f"workload {w.name!r}: offered_load x epoch_quanta over "
                                      "its smallest rate overflows")
        # the smallest demand: the least jittered load at the largest rate, about sl_full;
        # kept normal, its reciprocal m* = 1 / peak demand is finite (inf x 0 is nan)
        for w in workloads:
            if w.offered_load > 0 and (w.offered_load * (1 - load_jitter) / w.sl_full
                                       < sys.float_info.min):
                raise ValidationError(f"workload {w.name!r}: offered_load over its largest "
                                      "rate underflows")
        if clos_set is not None and clos_set.machine != machine:
            raise ValidationError("clos_set belongs to a different machine")
        _set(self, "machine", machine)
        _set(self, "workloads", workloads)
        _set(self, "policy", policy)
        _set(self, "epoch_quanta", epoch_quanta)
        _set(self, "duration", duration)
        _set(self, "warmup", warmup)
        _set(self, "seed", seed)
        _set(self, "clos_set", clos_set)
        _set(self, "interference_alpha", interference_alpha)
        _set(self, "pairing_penalty", pairing_penalty)
        _set(self, "load_jitter", load_jitter)

    def effective_clos_set(self) -> ClosSet | None:
        """The CLOS set the policy schedules on; None if it partitions nothing."""
        from coco.closconfig import default_partition  # a file without clos_set needs none

        spec = POLICIES[self.policy]
        if spec.planner == "shared":
            return None
        base = self.clos_set or default_partition(self.machine)
        return anti_monotone_set(base) if spec.conflicting else base


def anti_monotone_set(clos_set: ClosSet) -> ClosSet:
    """The conflicting configuration: widest masks get the smallest MBA."""
    lc = clos_set.lc_configs()  # width descending
    mba_sorted = sorted(c.mba_percent for c in lc)  # ascending -> widest gets least
    replacement = {c.id: m for c, m in zip(lc, mba_sorted)}
    configs = tuple(
        replace(c, mba_percent=replacement.get(c.id, c.mba_percent))
        for c in clos_set.configs)
    return replace(clos_set, configs=configs)
