"""MQ-WRR scheduling: per-CLOS queues, slowdown-weighted slices, admission.

Each latency-critical CLOS owns one queue.  Workloads are ranked by their
slowdown at a common reference state (the smallest LC CLOS), dealt onto
CLOSs so the most-slowed workloads land on the widest partitions, and time
slices within a CLOS follow those slowdowns with largest-remainder rounding
and a one-quantum starvation floor.  Adjacent queue members that stress
opposite resource axes may share a working set concurrently.  The raw
slowdown is the only key: a subset ranks as the full set does, less the
missing members, and a CLOS's split depends on its members alone.  A plan
reports the slowdowns normalized over its workloads as its weights.
"""

from __future__ import annotations

from itertools import count
from operator import truediv
from typing import Sequence

from coco.closconfig import ClosConfig, ClosSet
from coco.core import (AllocationState, Dominance, Value, WorkloadSpec, _set, slowdown_xy,
                       weights_of)
from coco.errors import EpochUnderflowError, ValidationError


class TimeSlice(Value):
    """Quanta allotted to one workload on one CLOS within an epoch."""

    __slots__ = ("workload", "clos_id", "quanta")

    def __init__(self, workload: str, clos_id: int, quanta: int):
        _set(self, "workload", workload)
        _set(self, "clos_id", clos_id)
        _set(self, "quanta", quanta)


class Segment(Value):
    """A contiguous stretch of a CLOS's schedule: 1 or 2 concurrent members."""

    __slots__ = ("members", "quanta")

    def __init__(self, members: tuple[str, ...], quanta: int):
        _set(self, "members", members)
        _set(self, "quanta", quanta)


class QueueState(Value):
    __slots__ = ("clos_id", "working_set", "wait_queue")

    def __init__(self, clos_id: int, working_set: frozenset[str], wait_queue: tuple[str, ...]):
        _set(self, "clos_id", clos_id)
        _set(self, "working_set", working_set)
        _set(self, "wait_queue", wait_queue)


class EpochPlan(Value):
    __slots__ = ("queues", "slices", "weights", "schedule")

    def __init__(self, queues: tuple[QueueState, ...], slices: tuple[TimeSlice, ...],
                 weights: dict[str, float], schedule: dict[int, tuple[Segment, ...]]):
        _set(self, "queues", queues)
        _set(self, "slices", slices)
        _set(self, "weights", weights)
        _set(self, "schedule", schedule)

    def slice_of(self, workload: str) -> TimeSlice:
        for s in self.slices:
            if s.workload == workload:
                return s
        raise KeyError(workload)


_BALANCED = Dominance.BALANCED.value


def pair_compatible(a: WorkloadSpec, b: WorkloadSpec) -> bool:
    """True iff the two workloads stress opposite resource axes: their
    dominances differ and neither is balanced."""
    x, y = a.dominance.value, b.dominance.value
    return x != y and _BALANCED not in (x, y)


def _split_quanta(ws: tuple[float, ...], epoch_quanta: int) -> list[int]:
    """Largest-remainder split of an epoch by a stripe's slowdowns, with a
    one-quantum floor per member.  Ties go to the later position: the later
    name, as every stripe is in rank order.

    Not ``closconfig._largest_remainder``, whose ties go to the lowest index:
    with them, simulate and compare change on the fleet and overload scenarios.
    """
    if epoch_quanta < len(ws):
        raise EpochUnderflowError(
            f"epoch underflow: {epoch_quanta} quanta for {len(ws)} workloads")
    total_w = sum(ws)
    quotas = [epoch_quanta * w / total_w for w in ws]
    counts = list(map(int, quotas))
    order = sorted(range(len(ws)), key=lambda i: (quotas[i] - counts[i], ws[i], i), reverse=True)
    for k in range(epoch_quanta - sum(counts)):
        counts[order[k % len(counts)]] += 1
    while 0 in counts:
        # take from the largest share; among ties, the least slowed
        donor = max(range(len(counts)), key=lambda j: (counts[j], -ws[j], j))
        counts[donor] -= 1
        counts[counts.index(0)] += 1
    return counts


def _stripe(plans: dict, pattern: tuple, epoch_quanta: int) -> tuple:
    """One CLOS's stripe of a deal, planned once per (slowdown, dominance value)
    pattern in ``plans``: by position, its split, its segment's quanta and share
    of the epoch, and the paired positions.  From the first, each member shares a
    segment with the next if they are ``pair_compatible``; None pairs with none."""
    plan = plans.get(pattern)
    if plan is None:
        slowdowns, d = zip(*pattern)
        counts = _split_quanta(slowdowns, epoch_quanta)
        window, paired = counts[:], []
        for i in range(1, len(counts)):
            if _BALANCED != d[i - 1] != d[i] != _BALANCED and paired[-1:] != [i - 1]:
                window[i - 1] = window[i] = counts[i - 1] + counts[i]
                paired += (i - 1, i)
        plan = plans[pattern] = counts, window, [q / epoch_quanta for q in window], paired
    return plan


def _deal(ranked: list[WorkloadSpec], slowdowns: dict[str, float], lc: tuple[ClosConfig, ...],
          epoch_quanta: int, pairing: bool) -> list[tuple]:
    """Deal ranked workloads onto the LC CLOSs in turn, then split and pair each
    CLOS's epoch: per CLOS, (CLOS id, members, quanta, segments as (members, quanta))."""
    dealt, plans, n = [], {}, len(lc)
    pattern = [(slowdowns[m.name], m.dominance._value_ if pairing else None) for m in ranked]
    for j in range(min(len(ranked), n)):
        members = ranked[j::n]
        counts, window, _, paired = _stripe(plans, tuple(pattern[j::n]), epoch_quanta)
        dealt.append((lc[j].id, members, counts, [
            (tuple(members[i:i + 1 + (i in paired)]), window[i])
            for i in range(len(members)) if i not in paired[1::2]]))
    return dealt


def _rotated(dealt: list[tuple], lc: tuple[ClosConfig, ...], offset: int) -> list[tuple]:
    """The deal with stripe j moved onto LC CLOS (j + offset) mod len(lc): a
    stripe's split does not depend on which CLOS it lands on."""
    return [(lc[(j + offset) % len(lc)].id, *rest) for j, (_, *rest) in enumerate(dealt)]


def _build_plan(slowdowns: dict[str, float], dealt: list[tuple]) -> EpochPlan:
    """The epoch plan of a deal: names in place of specs, plus slices and
    queues, and as weights the slowdowns normalized over the plan's workloads."""
    schedule = {clos_id: tuple(Segment(tuple(m.name for m in seg), q) for seg, q in segments)
                for clos_id, _, _, segments in dealt}
    slices = tuple(TimeSlice(m.name, clos_id, c) for clos_id, members, counts, _ in dealt
                   for m, c in zip(members, counts))
    queues = tuple(QueueState(clos_id, frozenset(first.members),
                              tuple(n for seg in rest for n in seg.members))
                   for clos_id, (first, *rest) in schedule.items())
    weights = dict(zip(slowdowns, weights_of(list(slowdowns.values()))))
    return EpochPlan(queues, slices, weights, schedule)


def _ranked(workloads: Sequence[WorkloadSpec], clos_set: ClosSet,
            reference_state: AllocationState | None = None, *, equal: bool = False,
            memo: dict | None = None) -> tuple[tuple, list, dict[str, float]]:
    """The LC CLOSs, the workloads by descending slowdown (ties by name), and
    each workload's slowdown at the reference state, by name in input order.
    ``equal`` takes every slowdown as 1, so the rank is name order.  Each
    grid is looked up once, however many workloads share it, and kept in
    ``memo``, if given, as ``_base_rate`` keeps it at alpha 1."""
    if len({w.name for w in workloads}) != len(workloads):
        raise ValidationError("workload names must be unique")
    lc = clos_set.lc_configs()  # nonempty: a ClosSet has >= 2 CLOSs, one reserved
    ref = reference_state or min(lc, key=lambda c: (c.width, c.id)).state()
    grids = {id(w.profile): w.profile for w in workloads}
    at = {key: 1.0 if equal else slowdown_xy(p, ref.llc_ways, ref.mba_percent)
          for key, p in grids.items()}
    if memo is not None:
        view = (ref.llc_ways, ref.mba_percent)
        memo.update({(view, key): slowdown for key, slowdown in at.items()})
    slowdowns = {w.name: at[id(w.profile)] for w in workloads}
    return lc, sorted(workloads, key=lambda w: (-slowdowns[w.name], w.name)), slowdowns


def plan_epoch(workloads: Sequence[WorkloadSpec], clos_set: ClosSet,
               epoch_quanta: int, *,
               reference_state: AllocationState | None = None,
               pairing: bool = True) -> EpochPlan:
    """Weighted epoch plan: slowdown-sorted deal onto width-sorted CLOSs.

    The slowdowns are each workload's at the reference state (default: the
    smallest LC CLOS's allocation), so they are comparable across workloads
    regardless of where each one lands.
    """
    if not workloads:
        raise ValidationError("plan_epoch requires at least one workload")
    lc, ranked, slowdowns = _ranked(workloads, clos_set, reference_state)
    return _build_plan(slowdowns, _deal(ranked, slowdowns, lc, epoch_quanta, pairing))


def round_robin_plan(workloads: Sequence[WorkloadSpec], clos_set: ClosSet,
                     epoch_quanta: int, epoch: int = 0) -> EpochPlan:
    """Slowdown-agnostic baseline: equal slices, membership rotating by one
    CLOS each epoch, no pairing."""
    if not workloads:
        raise ValidationError("round_robin_plan requires at least one workload")
    lc, ranked, slowdowns = _ranked(workloads, clos_set, equal=True)
    dealt = _deal(ranked, slowdowns, lc, epoch_quanta, pairing=False)
    return _build_plan(slowdowns, _rotated(dealt, lc, epoch))


def _base_rate(w: WorkloadSpec, view: tuple, memo: dict, alpha: float, paired: float) -> float:
    """The one rate formula: full-allocation load over slowdown x ``alpha`` at the
    view, and over ``paired``.  ``memo`` keeps slowdown x alpha per (view, id of the
    grid): identity, as hashing a grid costs more than the lookup it would save."""
    grid = (view, id(w.profile))
    scaled = memo.get(grid)
    if scaled is None:
        scaled = memo[grid] = slowdown_xy(w.profile, *view) * alpha
    return w.sl_full / (scaled * paired)


def rated(dealt: list[tuple], epoch_quanta: int, views: dict[int, tuple[float, float]],
          memo: dict, *, alpha: float = 1.0, penalty: float = 1.0, factor: float = 1.0):
    """Each segment of a deal with its members' rates, for the simulator:
    (CLOS id, member names, quanta, share of the epoch, [(member, base rate,
    warm rate)]).  The base rate is ``_base_rate``'s at the CLOS's view, over
    ``penalty`` if paired; the warm rate is the base over the warmup
    ``factor``.  ``memo`` is ``_base_rate``'s.
    """
    for clos_id, _, _, segments in dealt:
        view = views[clos_id]
        for members, quanta in segments:
            paired = penalty if len(members) == 2 else 1.0
            rates = [(w, base, base / factor) for w in members
                     for base in [_base_rate(w, view, memo, alpha, paired)]]
            yield (clos_id, frozenset(w.name for w in members), quanta,
                   quanta / epoch_quanta, rates)


def admission_control(workloads: Sequence[WorkloadSpec], clos_set: ClosSet,
                      epoch_quanta: int, *,
                      load_jitter: float = 0.0,
                      warmup_window: int = 0, warmup_factor: float = 1.0,
                      pairing_penalty: float = 1.0,
                      ) -> tuple[tuple[WorkloadSpec, ...], tuple[WorkloadSpec, ...]]:
    """Evict workloads until every remaining one can serve its offered load.

    The workloads are ranked once, as ``plan_epoch`` ranks them.  Those
    ranked past LC CLOSs x ``epoch_quanta`` would overfill a CLOS's epoch:
    they are evicted, last-ranked first.  Then each round deals the
    remaining ranked list as ``plan_epoch`` does, planning each stripe
    pattern once.  Demand is the simulator's peak demand, offered / share /
    rate, per segment (a pair shares its combined window), at ``rated``'s
    rates, from per-view rows.  The
    deal repeats every epoch, so on a CLOS with more than one segment each
    opens with a switch, at the warm rate.  Each epoch's load is at most
    offered x (1 + load_jitter), and demand scales with load, so while the
    largest demand at that bound exceeds 1 its workload is evicted (ties:
    the later-ranked).  No admitted workload then violates its SLO, however
    the jitter falls.  The admitted keep their input order.
    """
    if not workloads:
        return (), ()
    memo, plans, rows = {}, {}, {}
    lc, ranked, slowdowns = _ranked(workloads, clos_set, memo=memo)
    fit, n_lc = len(lc) * epoch_quanta, len(lc)
    ranked, rejected = ranked[:fit], ranked[fit:][::-1]
    # in step with ranked: pattern (``_value_`` is ``.value`` without the property call),
    # offered load, and per (view, warmup factor) a row of rates, each computed on first use
    pattern = [(slowdowns[w.name], w.dominance._value_) for w in ranked]
    offered, views = [w.offered_load for w in ranked], [(c.width, c.mba_percent) for c in lc]
    warm = warmup_factor if warmup_window > 0 else 1.0
    shares, rates = offered[:], offered[:]  # by position, set stripe by stripe
    while ranked:
        for j in range(min(len(ranked), n_lc)):
            counts, _, shares[j::n_lc], paired = _stripe(
                plans, tuple(pattern[j::n_lc]), epoch_quanta)
            factor = warm if len(counts) - len(paired) // 2 > 1 else 1.0  # 2+ segments
            key = (views[j], factor)
            row = rows.get(key) or rows.setdefault(key, [None] * len(ranked))
            got = row[j::n_lc]
            for p in range(len(got)) if None in got else ():
                if got[p] is None:
                    k = j + p * n_lc
                    got[p] = row[k] = _base_rate(ranked[k], views[j], memo, 1.0, 1.0) / factor
            for p in paired:
                w = ranked[j + p * n_lc]
                got[p] = _base_rate(w, views[j], memo, 1.0, pairing_penalty) / factor
            rates[j::n_lc] = got
        # (demand, position) of the largest demand; ties go to the later-ranked
        demand, k = max(zip(map(truediv, map(truediv, offered, shares), rates), count()))
        if demand * (1.0 + load_jitter) <= 1.0:
            break
        rejected.append(ranked[k])
        del ranked[k], pattern[k], offered[k], shares[k], rates[k]
        for row in rows.values():
            del row[k]
    out = {w.name for w in rejected}
    admitted = tuple(w for w in workloads if w.name not in out) if out else tuple(workloads)
    return admitted, tuple(rejected)
