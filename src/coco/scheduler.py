"""MQ-WRR scheduling: per-CLOS queues, slowdown-weighted slices, admission.

Each latency-critical CLOS owns one queue.  Workloads are weighted by their
slowdown at a common reference state (the smallest LC CLOS), dealt onto
CLOSs so the highest-weight workloads land on the widest partitions, and
time slices within a CLOS follow the weights with largest-remainder rounding
and a one-quantum starvation floor.  Adjacent queue members that stress
opposite resource axes may share a working set concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from coco.closconfig import ClosSet
from coco.core import (AllocationState, Dominance, WorkloadSpec, slowdown_xy,
                       weights_of)
from coco.errors import EpochUnderflowError, ValidationError

DEFAULT_OVERHEAD_MARGIN = 0.05


@dataclass(frozen=True)
class TimeSlice:
    """Quanta allotted to one workload on one CLOS within an epoch."""

    workload: str
    clos_id: int
    quanta: int


@dataclass(frozen=True)
class Segment:
    """A contiguous stretch of a CLOS's schedule: 1 or 2 concurrent members."""

    members: tuple[str, ...]
    quanta: int


@dataclass(frozen=True)
class QueueState:
    clos_id: int
    working_set: frozenset[str]
    wait_queue: tuple[str, ...]


@dataclass(frozen=True)
class EpochPlan:
    queues: tuple[QueueState, ...]
    slices: tuple[TimeSlice, ...]
    weights: dict[str, float]
    epoch_quanta: int
    schedule: dict[int, tuple[Segment, ...]]
    reference_state: AllocationState

    def slice_of(self, workload: str) -> TimeSlice:
        for s in self.slices:
            if s.workload == workload:
                return s
        raise KeyError(workload)


def pair_compatible(a: WorkloadSpec, b: WorkloadSpec) -> bool:
    """True iff the two workloads stress opposite resource axes."""
    return {a.dominance, b.dominance} == {Dominance.LLC_DOMINANT,
                                          Dominance.MB_DOMINANT}


def _split_quanta(members: list[WorkloadSpec], weights: dict[str, float],
                  epoch_quanta: int) -> list[int]:
    """Largest-remainder split of an epoch, one-quantum floor per member."""
    if epoch_quanta < len(members):
        raise EpochUnderflowError(
            f"epoch underflow: {epoch_quanta} quanta for {len(members)} workloads")
    total_w = sum(weights[m.name] for m in members)
    quotas = [epoch_quanta * weights[m.name] / total_w for m in members]
    counts = [int(q) for q in quotas]
    order = sorted(range(len(members)),
                   key=lambda i: (quotas[i] - counts[i], weights[members[i].name],
                                  members[i].name),
                   reverse=True)
    for k in range(epoch_quanta - sum(counts)):
        counts[order[k % len(counts)]] += 1
    for i in range(len(counts)):
        while counts[i] < 1:
            # take from the largest share; among ties, the lightest weight
            donor = max(range(len(counts)),
                        key=lambda j: (counts[j], -weights[members[j].name],
                                       members[j].name))
            counts[donor] -= 1
            counts[i] += 1
    return counts


def _build_plan(per_clos: dict[int, list[WorkloadSpec]],
                weights: dict[str, float], epoch_quanta: int,
                reference_state: AllocationState,
                pairing: bool) -> EpochPlan:
    slices: list[TimeSlice] = []
    queues: list[QueueState] = []
    schedule: dict[int, tuple[Segment, ...]] = {}
    for clos_id, members in per_clos.items():
        counts = _split_quanta(members, weights, epoch_quanta)
        slices.extend(TimeSlice(m.name, clos_id, c)
                      for m, c in zip(members, counts))
        segments: list[Segment] = []
        i = 0
        while i < len(members):
            if (pairing and i + 1 < len(members)
                    and pair_compatible(members[i], members[i + 1])):
                segments.append(Segment((members[i].name, members[i + 1].name),
                                        counts[i] + counts[i + 1]))
                i += 2
            else:
                segments.append(Segment((members[i].name,), counts[i]))
                i += 1
        schedule[clos_id] = tuple(segments)
        rest = tuple(n for seg in segments[1:] for n in seg.members)
        queues.append(QueueState(clos_id, frozenset(segments[0].members), rest))
    return EpochPlan(tuple(queues), tuple(slices), weights, epoch_quanta,
                     schedule, reference_state)


def plan_epoch(workloads: Sequence[WorkloadSpec], clos_set: ClosSet,
               epoch_quanta: int, *,
               reference_state: AllocationState | None = None,
               pairing: bool = True) -> EpochPlan:
    """Weighted epoch plan: weight-sorted deal onto width-sorted CLOSs.

    Weights come from each workload's slowdown at the reference state
    (default: the smallest LC CLOS's allocation), so they are comparable
    across workloads regardless of where each one lands.
    """
    if not workloads:
        raise ValidationError("plan_epoch requires at least one workload")
    names = [w.name for w in workloads]
    if len(set(names)) != len(names):
        raise ValidationError("workload names must be unique")
    lc = clos_set.lc_configs()
    if not lc:
        raise ValidationError("clos set has no latency-critical CLOS")
    if epoch_quanta < len(workloads):
        raise EpochUnderflowError(
            f"epoch underflow: {epoch_quanta} quanta for {len(workloads)} workloads")
    if reference_state is None:
        smallest = min(lc, key=lambda c: (c.width, c.id))
        reference_state = smallest.state()
    slowdowns = [slowdown_xy(w.profile, reference_state.llc_ways,
                             reference_state.mba_percent) for w in workloads]
    weight_list = weights_of(slowdowns)
    weights = {w.name: wt for w, wt in zip(workloads, weight_list)}
    ranked = sorted(workloads, key=lambda w: (-weights[w.name], w.name))
    per_clos: dict[int, list[WorkloadSpec]] = {}
    for i, w in enumerate(ranked):
        per_clos.setdefault(lc[i % len(lc)].id, []).append(w)
    return _build_plan(per_clos, weights, epoch_quanta, reference_state, pairing)


def round_robin_plan(workloads: Sequence[WorkloadSpec], clos_set: ClosSet,
                     epoch_quanta: int, epoch: int = 0) -> EpochPlan:
    """Slowdown-agnostic baseline: equal slices, membership rotating by one
    CLOS each epoch, no pairing."""
    if not workloads:
        raise ValidationError("round_robin_plan requires at least one workload")
    lc = clos_set.lc_configs()
    if not lc:
        raise ValidationError("clos set has no latency-critical CLOS")
    smallest = min(lc, key=lambda c: (c.width, c.id))
    weights = {w.name: 1.0 / len(workloads) for w in workloads}
    ranked = sorted(workloads, key=lambda w: w.name)
    per_clos: dict[int, list[WorkloadSpec]] = {}
    for i, w in enumerate(ranked):
        per_clos.setdefault(lc[(i + epoch) % len(lc)].id, []).append(w)
    return _build_plan(per_clos, weights, epoch_quanta, smallest.state(),
                       pairing=False)


def admission_control(workloads: Sequence[WorkloadSpec], clos_set: ClosSet,
                      epoch_quanta: int, *,
                      overhead_margin: float = DEFAULT_OVERHEAD_MARGIN,
                      reference_state: AllocationState | None = None,
                      pairing: bool = True,
                      ) -> tuple[tuple[WorkloadSpec, ...], tuple[WorkloadSpec, ...]]:
    """Evict workloads until every remaining one's offered load is feasible.

    Feasibility: offered <= share * sl_full / slowdown(clos state) * (1 - margin),
    with share the workload's slice fraction of the epoch.  The workload with
    the largest offered/achievable ratio is evicted first (ties: smallest
    weight, then last name).
    """
    candidates = list(workloads)
    rejected: list[WorkloadSpec] = []
    slowdowns: dict[tuple[str, int], float] = {}  # (workload, CLOS id) -> slowdown
    while candidates:
        plan = plan_epoch(candidates, clos_set, epoch_quanta,
                          reference_state=reference_state, pairing=pairing)
        slices = {s.workload: s for s in plan.slices}
        worst: tuple[float, float, str] | None = None
        worst_w: WorkloadSpec | None = None
        feasible = True
        for w in candidates:
            ts = slices[w.name]
            sd = slowdowns.get((w.name, ts.clos_id))
            if sd is None:
                state = clos_set.by_id(ts.clos_id).state()
                sd = slowdowns[w.name, ts.clos_id] = slowdown_xy(
                    w.profile, state.llc_ways, state.mba_percent)
            achievable = (ts.quanta / epoch_quanta) * w.sl_full / sd
            achievable *= 1.0 - overhead_margin
            ratio = w.offered_load / achievable if achievable > 0 else float("inf")
            if ratio > 1.0:
                feasible = False
            key = (ratio, -plan.weights[w.name], w.name)
            if worst is None or key > worst:
                worst, worst_w = key, w
        if feasible:
            break
        assert worst_w is not None
        candidates.remove(worst_w)
        rejected.append(worst_w)
    return tuple(candidates), tuple(rejected)
