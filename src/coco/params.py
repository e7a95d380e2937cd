"""Scenario value types: the policies, warmup penalty and run parameters.

These are what a scenario file describes, so the file loader builds them
without importing the scheduler or the simulator.  ``coco.sim`` re-exports
every name here.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from coco.closconfig import ClosSet, default_partition
from coco.closconfig import validate as validate_clos_set
from coco.core import MachineSpec, WorkloadSpec
from coco.errors import ValidationError

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


@dataclass(frozen=True)
class WarmupParams:
    """Post-migration cache-refill penalty: window length and inflation."""

    window: int = 2
    factor: float = 1.15

    def __post_init__(self):
        if self.window < 0:
            raise ValidationError("warmup window must be >= 0")
        if not (math.isfinite(self.factor) and self.factor >= 1):
            raise ValidationError("warmup factor must be finite and >= 1")


@dataclass(frozen=True)
class Scenario:
    machine: MachineSpec
    workloads: tuple[WorkloadSpec, ...]
    policy: Policy
    epoch_quanta: int = 20
    quantum_ms: float = 100.0
    duration: int = 10
    warmup: WarmupParams = WarmupParams()
    seed: int = 0
    clos_set: ClosSet | None = None
    interference_alpha: float = 1.0
    pairing_penalty: float = 1.05
    load_jitter: float = 0.0
    overhead_margin: float = 0.05

    def __post_init__(self):
        if not self.workloads:
            raise ValidationError("scenario needs at least one workload")
        names = [w.name for w in self.workloads]
        if len(set(names)) != len(names):
            raise ValidationError("workload names must be unique")
        if not 1 <= self.duration <= MAX_DURATION:
            raise ValidationError(f"duration must be in [1, {MAX_DURATION}] epochs")
        if not (math.isfinite(self.quantum_ms) and self.quantum_ms > 0):
            raise ValidationError("quantum_ms must be finite and > 0")
        if not 1 <= self.epoch_quanta <= MAX_EPOCH_QUANTA:
            raise ValidationError(f"epoch_quanta must be in [1, {MAX_EPOCH_QUANTA}]")
        if not (math.isfinite(self.interference_alpha) and self.interference_alpha >= 1):
            raise ValidationError("interference_alpha must be finite and >= 1")
        if not (math.isfinite(self.pairing_penalty) and self.pairing_penalty >= 1):
            raise ValidationError("pairing_penalty must be finite and >= 1")
        if not 0 <= self.load_jitter < 1:
            raise ValidationError("load_jitter must be in [0, 1)")
        if not 0 <= self.overhead_margin < 1:
            raise ValidationError("overhead_margin must be in [0, 1)")
        # the grid is monotone, so its first cell is its largest slowdown
        largest = [w.profile.slowdowns[0][0] for w in self.workloads]
        inflation = self.interference_alpha * self.pairing_penalty * self.warmup.factor
        for w, slowdown in zip(self.workloads, largest):
            if w.sl_full / (slowdown * inflation) < sys.float_info.min:
                raise ValidationError(f"workload {w.name!r}: its smallest rate underflows to 0")
        if not math.isfinite(sum(largest)):  # the weights divide by the slowdowns' total
            raise ValidationError("the workloads' largest slowdowns overflow their total")
        if not math.isfinite(self.duration * self.epoch_quanta * 2
                             * sum(max(w.sl_full, w.offered_load) for w in self.workloads)):
            raise ValidationError("offered loads and sl_full overflow the capacity totals")
        if self.clos_set is not None:
            if self.clos_set.machine != self.machine:
                raise ValidationError("clos_set belongs to a different machine")
            problems = validate_clos_set(self.clos_set)
            if problems:
                raise ValidationError("clos_set invalid: " + "; ".join(problems))

    def effective_clos_set(self) -> ClosSet | None:
        """The CLOS set the policy schedules on; None if it partitions nothing."""
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
        dataclasses.replace(c, mba_percent=replacement.get(c.id, c.mba_percent))
        for c in clos_set.configs)
    return dataclasses.replace(clos_set, configs=configs)
