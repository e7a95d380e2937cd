"""Deterministic discrete-time colocation simulator.

Each epoch is split into fixed quanta.  A workload's achievable throughput in
a quantum is its full-allocation sustainable load divided by the slowdown at
its CLOS's effective allocation, inflated while a cache-warmup window is open
after a working-set switch and while sharing a working set.  A quantum
violates the SLO when the offered load, apportioned over the workload's
active quanta, exceeds that achievable throughput.

Each policy is one row of ``POLICIES`` (in ``coco.params``): its planner,
whether admission control runs, whether it uses the conflicting CLOS set,
and which resource axes it leaves shared.  Policies that share an axis (no
partitioning at all, cache-only, bandwidth-only) give concurrently active
workloads a fair share of it and multiply slowdowns by a configurable
interference factor; with the factor at its default of 1 the fair split is
the whole penalty.  ``none`` runs every workload all epoch on one virtual
CLOS, so one loop serves every policy.
"""

from __future__ import annotations

import math
import random

from coco.closconfig import ClosSet
from coco.core import AllocationState, Value, _set, replace
from coco.errors import InfeasibleSloError
# the scenario value types live in coco.params; re-exported for callers of coco.sim
from coco.params import (MAX_DURATION, MAX_EPOCH_QUANTA, POLICIES, Policy, PolicySpec,
                         Scenario, WarmupParams, anti_monotone_set)
from coco.scheduler import _deal, _ranked, _rotated, admission_control, rated

VIOLATION_SLACK = 1e-9
_VIRTUAL_CLOS = -1


class WorkloadMetrics(Value):
    __slots__ = ("affordable_load", "retainment", "slo_violations", "quanta_received")

    def __init__(self, affordable_load: float, retainment: float, slo_violations: int,
                 quanta_received: int):
        _set(self, "affordable_load", affordable_load)
        _set(self, "retainment", retainment)
        _set(self, "slo_violations", slo_violations)
        _set(self, "quanta_received", quanta_received)


class SimMetrics(Value):
    __slots__ = ("per_workload", "migrations", "overhead_fraction", "total_retainment")

    def __init__(self, per_workload: dict[str, WorkloadMetrics], migrations: int,
                 overhead_fraction: float, total_retainment: float):
        _set(self, "per_workload", per_workload)
        _set(self, "migrations", migrations)
        _set(self, "overhead_fraction", overhead_fraction)
        _set(self, "total_retainment", total_retainment)

    def serialize(self) -> str:
        lines = [f"migrations={self.migrations}",
                 f"overhead_fraction={self.overhead_fraction:.10g}",
                 f"total_retainment={self.total_retainment:.10g}"]
        for name in sorted(self.per_workload):
            m = self.per_workload[name]
            lines.append(
                f"{name}: affordable={m.affordable_load:.10g} "
                f"retainment={m.retainment:.10g} violations={m.slo_violations} "
                f"quanta={m.quanta_received}")
        return "\n".join(lines) + "\n"


class AffordableResult(Value):
    """Largest violation-free uniform load scaling and its outcome."""

    __slots__ = ("multiplier", "affordable", "metrics")

    def __init__(self, multiplier: float, affordable: dict[str, float], metrics: SimMetrics):
        _set(self, "multiplier", multiplier)
        _set(self, "affordable", affordable)
        _set(self, "metrics", metrics)


class CompareResult(Value):
    __slots__ = ("rows", "ratios")

    def __init__(self, rows: tuple[tuple[Policy, SimMetrics], ...],
                 ratios: dict[Policy, float | None]):
        _set(self, "rows", rows)
        _set(self, "ratios", ratios)


def _views(scenario: Scenario, clos_set: ClosSet,
           dealt: list[tuple]) -> dict[int, tuple[float, float]]:
    """Effective (ways, MBA percent) each dealt CLOS provides under the policy."""
    shared = POLICIES[scenario.policy].shared
    n_active = len(dealt)
    views = {}
    for clos_id, *_ in dealt:
        cfg = clos_set.by_id(clos_id)
        views[clos_id] = (
            scenario.machine.llc_ways / n_active if "llc" in shared else cfg.width,
            100.0 / n_active if "mba" in shared else cfg.mba_percent)
    return views


def _reference_state(scenario: Scenario, clos_set: ClosSet) -> AllocationState | None:
    """Common state the weighted planner ranks slowdowns at.

    Shared axes sit at the full allocation and a partitioned one at its
    smallest LC value.  With nothing shared, None selects the planner's
    default: the smallest LC CLOS's own state.
    """
    shared = POLICIES[scenario.policy].shared
    if not shared:
        return None
    lc = clos_set.lc_configs()
    return AllocationState(
        scenario.machine.llc_ways if "llc" in shared else min(c.width for c in lc),
        100 if "mba" in shared else min(c.mba_percent for c in lc))


class _Tally:
    """One workload's running totals over a simulated run.

    Warmup capacity is a run total, kept by ``_simulate`` itself.
    """

    __slots__ = ("violations", "quanta", "min_affordable", "peak_demand")

    def __init__(self):
        self.violations = 0
        self.quanta = 0
        self.min_affordable = math.inf
        self.peak_demand = 0.0  # worst apportioned load / achievable rate


def _jitter_factors(scenario: Scenario, rng: random.Random) -> dict[str, float]:
    if scenario.load_jitter == 0:
        return {w.name: 1.0 for w in scenario.workloads}
    return {w.name: 1.0 + scenario.load_jitter * (2.0 * rng.random() - 1.0)
            for w in scenario.workloads}


def _simulate(scenario: Scenario, *, apply_admission: bool
              ) -> tuple[dict[str, _Tally], int, float]:
    """Core loop shared by run_scenario and max_affordable_load.

    It rates each distinct epoch of the policy once, as a phase, then walks
    the epochs.  A segment runs at two rates: warm for the first
    min(window, quanta) quanta after a working-set switch on its CLOS, base
    after that.  So it is tallied once, as count x rate, not quantum by
    quantum.  Likewise an epoch that recurs is simulated once and its
    additive tallies weighted by how often it recurs.  Returns the
    per-workload tallies, the run's migrations and its warmup overhead: the
    capacity lost to warm windows over the capacity at the base rates, both
    summed over every simulated segment.  A run that admits no workload
    ends before the walk and draws no jitter.
    """
    spec = POLICIES[scenario.policy]
    tallies = {w.name: _Tally() for w in scenario.workloads}
    rng = random.Random(scenario.seed)
    clos_set = scenario.effective_clos_set()
    workloads = scenario.workloads
    if apply_admission and spec.admission:
        workloads, rejected = admission_control(
            workloads, clos_set, scenario.epoch_quanta,
            load_jitter=scenario.load_jitter,
            warmup_window=scenario.warmup.window, warmup_factor=scenario.warmup.factor,
            pairing_penalty=scenario.pairing_penalty)
        for w in rejected:
            if w.offered_load > 0:
                tallies[w.name].violations = scenario.duration * scenario.epoch_quanta
    migrations, ideal, loss = 0, 0.0, 0.0
    if not workloads:  # all rejected: no walk, so no jitter is drawn
        return tallies, migrations, 0.0

    alpha = scenario.interference_alpha if spec.shared else 1.0
    penalty = scenario.pairing_penalty if spec.planner == "weighted" else 1.0
    window, factor = scenario.warmup.window, scenario.warmup.factor
    slack = 1.0 + VIOLATION_SLACK
    epoch_quanta, duration = scenario.epoch_quanta, scenario.duration
    # the phases: each distinct epoch's deal, its CLOS views, then its rates
    if spec.planner == "shared":
        # one virtual CLOS: n workloads split whole ways and step-rounded MBA
        machine, n = scenario.machine, len(scenario.workloads)
        step = machine.mba_step
        mba = min(100, max(step, ((100 // n + step // 2) // step) * step))
        plans = [([(_VIRTUAL_CLOS, workloads, [epoch_quanta], [(workloads, epoch_quanta)])],
                  {_VIRTUAL_CLOS: (max(1, machine.llc_ways // n), mba)})]
    else:  # rr ranks as if equally slowed and rotates by one LC CLOS per epoch
        lc, ranked, slowdowns = _ranked(workloads, clos_set, _reference_state(scenario, clos_set),
                                        equal=spec.planner == "rr")
        dealt = _deal(ranked, slowdowns, lc, epoch_quanta, spec.planner == "weighted")
        deals = ([_rotated(dealt, lc, k) for k in range(min(len(lc), duration))]
                 if spec.planner == "rr" else [dealt])
        plans = [(deal, _views(scenario, clos_set, deal)) for deal in deals]
    memo: dict = {}
    phases = [list(rated(dealt, epoch_quanta, views, memo,
                         alpha=alpha, penalty=penalty, factor=factor))
              for dealt, views in plans]
    # Without jitter the schedule has period P = len(phases).  Each CLOS's
    # previous members are periodic from epoch P on (before it, a CLOS left
    # empty can reach back past epoch 0), so epoch e in P..2P-1 stands for
    # every later epoch of its phase.  A jittered run is the case P = duration.
    period = duration if scenario.load_jitter > 0 else len(phases)
    prev_members: dict[int, frozenset[str]] = {}
    for epoch in range(min(duration, 2 * period)):
        count = 1 if epoch < period else (duration - 1 - epoch) // period + 1
        jit = _jitter_factors(scenario, rng)
        for clos_id, names, quanta, share, rates in phases[epoch % len(phases)]:
            switched = clos_id in prev_members and prev_members[clos_id] != names
            migrations += count * switched
            warm = min(window, quanta) if switched else 0
            # each member, paired or not, runs the segment's whole window
            for w, base, warm_rate in rates:
                t = tallies[w.name]
                apportioned = w.offered_load * jit[w.name] / share
                t.violations += count * (
                    warm * (apportioned > warm_rate * slack)
                    + (quanta - warm) * (apportioned > base * slack))
                t.quanta += count * quanta
                rate = warm_rate if warm else base
                t.min_affordable = min(t.min_affordable, rate * share)
                t.peak_demand = max(t.peak_demand, apportioned / rate)
                ideal += count * quanta * base
                loss += count * warm * (base - warm_rate)
            prev_members[clos_id] = names
    return tallies, migrations, loss / ideal if ideal else 0.0


def _metrics_from(scenario: Scenario, tallies: dict[str, _Tally], migrations: int,
                  overhead: float, affordable: dict[str, float] | None = None) -> SimMetrics:
    """Per-workload metrics; affordable loads default to the capacity view.

    Given affordable loads, violations read 0: at the boundary m* every
    quantum's m* x apportioned / rate is at most 1 but for rounding, well
    inside VIOLATION_SLACK.  The tests re-simulate at m* to check this.
    """
    per = {}
    total_ret = 0.0
    for w in scenario.workloads:
        t = tallies[w.name]
        if affordable is None:
            load, violations = (0.0 if t.quanta == 0 else t.min_affordable), t.violations
        else:
            load, violations = affordable[w.name], 0
        retainment = load / w.sl_full
        total_ret += retainment
        per[w.name] = WorkloadMetrics(load, retainment, violations, t.quanta)
    return SimMetrics(per, migrations, overhead, total_ret)


def run_scenario(scenario: Scenario) -> SimMetrics:
    """Simulate the scenario once at its stated offered loads.

    Per-workload ``affordable_load`` is the capacity view: the largest offered
    load the workload's worst active quantum could have served.  Admission
    control applies to the coco policies; rejected workloads receive no quanta
    and count one violation per simulated quantum.
    """
    return _metrics_from(scenario, *_simulate(scenario, apply_admission=True))


def max_affordable_load(scenario: Scenario) -> AffordableResult:
    """Largest uniform scaling of all offered loads with zero SLO violations.

    Scaling loads by m changes no schedule, so a quantum violates iff
    m * apportioned > rate * (1 + VIOLATION_SLACK), and the boundary is
    m* = 1 / max(apportioned / rate) over every active segment.  The one
    pass at the stated loads that finds it also gives the outcome at m*:
    quanta, migrations and warmup overhead do not depend on the loads.
    Admission control is bypassed: the boundary is that of the full
    workload set.
    """
    tallies, migrations, overhead = _simulate(scenario, apply_admission=False)
    peak = max(t.peak_demand for t in tallies.values())
    if peak == 0:
        raise InfeasibleSloError("all offered loads are zero; nothing to scale")
    m_star = 1.0 / peak
    affordable = {w.name: w.offered_load * m_star for w in scenario.workloads}
    return AffordableResult(
        m_star, affordable, _metrics_from(scenario, tallies, migrations, overhead, affordable))


def compare_policies(base: Scenario, policies: list[Policy]) -> CompareResult:
    """Affordable-load comparison of policies on otherwise-identical scenarios."""
    rows = []
    for policy in policies:
        scenario = replace(base, policy=policy)
        rows.append((policy, max_affordable_load(scenario).metrics))
    baseline = next((m.total_retainment for p, m in rows
                     if p is Policy.NO_PARTITION), None)
    ratios: dict[Policy, float | None] = {}
    for policy, metrics in rows:
        if baseline and baseline > 0:
            ratios[policy] = metrics.total_retainment / baseline
        else:
            ratios[policy] = None
    return CompareResult(tuple(rows), ratios)
