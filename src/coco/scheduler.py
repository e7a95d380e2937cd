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

from coco.closconfig import ClosConfig, ClosSet
from coco.core import (AllocationState, Dominance, WorkloadSpec, slowdown_xy,
                       weights_of)
from coco.errors import EpochUnderflowError, ValidationError


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
    schedule: dict[int, tuple[Segment, ...]]

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


def _build_plan(ranked: list[WorkloadSpec], lc: tuple[ClosConfig, ...], offset: int,
                weights: dict[str, float], epoch_quanta: int, pairing: bool) -> EpochPlan:
    per_clos: dict[int, list[WorkloadSpec]] = {}
    for i, w in enumerate(ranked):
        per_clos.setdefault(lc[(i + offset) % len(lc)].id, []).append(w)
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
    return EpochPlan(tuple(queues), tuple(slices), weights, schedule)


def plan_epoch(workloads: Sequence[WorkloadSpec], clos_set: ClosSet,
               epoch_quanta: int, *,
               reference_state: AllocationState | None = None,
               pairing: bool = True,
               reference_slowdowns: dict[str, float] | None = None) -> EpochPlan:
    """Weighted epoch plan: weight-sorted deal onto width-sorted CLOSs.

    Weights come from each workload's slowdown at the reference state
    (default: the smallest LC CLOS's allocation), so they are comparable
    across workloads regardless of where each one lands.  Calls that share
    a ``reference_slowdowns`` dict (name -> slowdown) compute each one once.
    """
    if not workloads:
        raise ValidationError("plan_epoch requires at least one workload")
    names = [w.name for w in workloads]
    if len(set(names)) != len(names):
        raise ValidationError("workload names must be unique")
    lc = clos_set.lc_configs()
    if not lc:
        raise ValidationError("clos set has no latency-critical CLOS")
    if reference_state is None:
        smallest = min(lc, key=lambda c: (c.width, c.id))
        reference_state = smallest.state()
    memo = {} if reference_slowdowns is None else reference_slowdowns
    for w in workloads:
        if w.name not in memo:
            memo[w.name] = slowdown_xy(w.profile, reference_state.llc_ways,
                                       reference_state.mba_percent)
    weight_list = weights_of([memo[w.name] for w in workloads])
    weights = {w.name: wt for w, wt in zip(workloads, weight_list)}
    ranked = sorted(workloads, key=lambda w: (-weights[w.name], w.name))
    return _build_plan(ranked, lc, 0, weights, epoch_quanta, pairing)


def round_robin_plan(workloads: Sequence[WorkloadSpec], clos_set: ClosSet,
                     epoch_quanta: int, epoch: int = 0) -> EpochPlan:
    """Slowdown-agnostic baseline: equal slices, membership rotating by one
    CLOS each epoch, no pairing."""
    if not workloads:
        raise ValidationError("round_robin_plan requires at least one workload")
    lc = clos_set.lc_configs()
    if not lc:
        raise ValidationError("clos set has no latency-critical CLOS")
    weights = {w.name: 1.0 / len(workloads) for w in workloads}
    return _build_plan(sorted(workloads, key=lambda w: w.name), lc, epoch, weights,
                       epoch_quanta, pairing=False)


def segment_rates(sl_full: float, slowdown: float, penalty: float,
                  factor: float) -> tuple[float, float]:
    """Base and warm throughput of a segment member, for the simulator and
    admission alike; ``penalty`` is the pairing penalty if it is paired, else 1."""
    base = sl_full / (slowdown * penalty)
    return base, base / factor


def admission_control(workloads: Sequence[WorkloadSpec], clos_set: ClosSet,
                      epoch_quanta: int, *,
                      overhead_margin: float = 0.0,
                      reference_state: AllocationState | None = None,
                      warmup_window: int = 0, warmup_factor: float = 1.0,
                      pairing_penalty: float = 1.0,
                      ) -> tuple[tuple[WorkloadSpec, ...], tuple[WorkloadSpec, ...]]:
    """Evict workloads until every remaining one can serve its offered load.

    Demand is the simulator's peak demand, offered / share / rate, per segment
    of the plan (a pair shares its combined window).  The plan repeats every
    epoch, so on a CLOS with more than one segment each opens with a switch,
    at the warm rate.  While the largest demand exceeds 1 - overhead_margin
    its workload is evicted (ties: smallest weight, then last name).
    """
    candidates = list(workloads)
    rejected: list[WorkloadSpec] = []
    by_name = {w.name: w for w in candidates}
    slowdowns: dict[tuple[str, int], float] = {}  # (workload, CLOS id) -> slowdown
    reference_slowdowns: dict[str, float] = {}
    while candidates:
        plan = plan_epoch(candidates, clos_set, epoch_quanta,
                          reference_state=reference_state,
                          reference_slowdowns=reference_slowdowns)
        demands = []
        for clos_id, segments in plan.schedule.items():
            cfg = clos_set.by_id(clos_id)
            warm = warmup_window > 0 and len(segments) > 1
            for seg in segments:
                share = seg.quanta / epoch_quanta
                penalty = pairing_penalty if len(seg.members) == 2 else 1.0
                for name in seg.members:
                    w = by_name[name]
                    if (name, clos_id) not in slowdowns:
                        slowdowns[name, clos_id] = slowdown_xy(w.profile, cfg.width,
                                                               cfg.mba_percent)
                    base, warm_rate = segment_rates(
                        w.sl_full, slowdowns[name, clos_id], penalty, warmup_factor)
                    demands.append((w.offered_load / share / (warm_rate if warm else base),
                                    -plan.weights[name], name))
        demand, _, name = max(demands)
        if demand <= 1.0 - overhead_margin:
            break
        candidates.remove(by_name[name])
        rejected.append(by_name[name])
    return tuple(candidates), tuple(rejected)
