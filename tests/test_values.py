"""The public value types: equality, hash, repr, immutability and replace.

Each type is a slotted class on ``coco.core.Value``, and behaves as the
frozen dataclass it replaces.
"""

import copy
import pickle
from pathlib import Path

import pytest

from coco.closconfig import ClosConfig, ClosSet, MigrationEvent, ReconfigPlan
from coco.core import (AllocationState, Dominance, MachineSpec, SensitivityProfile,
                       SloSpec, Value, WorkloadSpec, replace)
from coco.errors import ValidationError
from coco.profiler import GroundTruthModel
from coco.resctrl import ApplyReport, GroupReport, ResctrlLayout, SchemataFragment
from coco.scenario import LoadedScenario, LoadedWorkload
from coco.scheduler import EpochPlan, QueueState, Segment, TimeSlice
from coco.sim import (AffordableResult, CompareResult, Policy, Scenario, SimMetrics,
                      WarmupParams, WorkloadMetrics)


def capacity(state):
    return 100.0 * state.llc_ways


SLO = SloSpec(0.99, 5.0)
PROFILE = SensitivityProfile((1, 20), (50, 100), ((2.0, 1.5), (1.2, 1.0)))
MACHINE = MachineSpec(20, 4, 10)
PAIR = MachineSpec(20, 2, 10)
CLOS = ClosConfig(1, 7, 30)
RESERVED = ClosConfig(0, 0x18, 70)
WORKLOAD = WorkloadSpec("w", SLO, PROFILE, 5.0)
EVENT = MigrationEvent(1, 2, -10, True)
SLICE = TimeSlice("w", 1, 5)
SEGMENT = Segment(("a", "b"), 6)
QUEUE = QueueState(1, frozenset({"a"}), ("b",))
METRICS = WorkloadMetrics(5.0, 0.5, 0, 20)
SIM_METRICS = SimMetrics({"w": METRICS}, 3, 0.01, 0.5)
LOADED_WORKLOAD = LoadedWorkload(WORKLOAD, None)
GROUP = GroupReport("clos1", "created")

# (type, constructor arguments, a valid change, a change its checks refuse
# or None, the exact repr, hashable)
VALUE_TYPES = [
    (AllocationState, (3, 40), {"llc_ways": 4}, {"llc_ways": 0},
     "AllocationState(llc_ways=3, mba_percent=40)", True),
    (MachineSpec, (20, 4, 10), {"mba_step": 5}, {"clos_count": 1},
     "MachineSpec(llc_ways=20, clos_count=4, mba_step=10)", True),
    (SloSpec, (0.99, 5.0), {"latency_bound_ms": 2.0}, {"percentile": 1.0},
     "SloSpec(percentile=0.99, latency_bound_ms=5.0)", True),
    (SensitivityProfile, ((1, 20), (50, 100), ((2.0, 1.5), (1.2, 1.0))),
     {"slowdowns": ((3.0, 1.5), (1.2, 1.0))}, {"slowdowns": ((2.0, 1.5), (1.2, 2.0))},
     "SensitivityProfile(way_levels=(1, 20), mba_levels=(50, 100), "
     "slowdowns=((2.0, 1.5), (1.2, 1.0)))", True),
    (WorkloadSpec, ("w", SLO, PROFILE, 5.0, None, 10.0), {"sl_full": 20.0}, {"sl_full": 0.0},
     f"WorkloadSpec(name='w', slo={SLO!r}, profile={PROFILE!r}, offered_load=5.0, "
     "dominance=<Dominance.BALANCED: 'balanced'>, sl_full=10.0)", True),
    (ClosConfig, (1, 7, 30), {"mba_percent": 40}, None,
     "ClosConfig(id=1, mask=7, mba_percent=30)", True),
    (ClosSet, (PAIR, (RESERVED, CLOS)), {"reserved_id": 1}, {"reserved_id": 2},
     f"ClosSet(machine={PAIR!r}, configs=({RESERVED!r}, {CLOS!r}), reserved_id=0)", True),
    (MigrationEvent, (1, 2, -10, True), {"conflict": True}, None,
     "MigrationEvent(clos_id=1, delta_ways=2, delta_mba=-10, flush_required=True, "
     "conflict=False)", True),
    (ReconfigPlan, ((EVENT,), False), {"valid": True}, None,
     f"ReconfigPlan(events=({EVENT!r},), valid=False)", True),
    (GroundTruthModel, (1.0, 2.0, capacity), {"base_latency_ms": 3.0},
     {"tail_inflation": 0.5},
     f"GroundTruthModel(base_latency_ms=1.0, tail_inflation=2.0, capacity_fn={capacity!r})",
     True),
    (TimeSlice, ("w", 1, 5), {"quanta": 6}, None,
     "TimeSlice(workload='w', clos_id=1, quanta=5)", True),
    (Segment, (("a", "b"), 6), {"quanta": 7}, None,
     "Segment(members=('a', 'b'), quanta=6)", True),
    (QueueState, (1, frozenset({"a"}), ("b",)), {"wait_queue": ()}, None,
     "QueueState(clos_id=1, working_set=frozenset({'a'}), wait_queue=('b',))", True),
    (EpochPlan, ((QUEUE,), (SLICE,), {"w": 1.0}, {1: (SEGMENT,)}), {"weights": {}}, None,
     f"EpochPlan(queues=({QUEUE!r},), slices=({SLICE!r},), weights={{'w': 1.0}}, "
     f"schedule={{1: ({SEGMENT!r},)}})", False),
    (WarmupParams, (2, 1.15), {"factor": 1.5}, {"window": -1},
     "WarmupParams(window=2, factor=1.15)", True),
    (Scenario, (MACHINE, (WORKLOAD,), Policy.COCO), {"policy": Policy.ROUND_ROBIN},
     {"duration": 0},
     f"Scenario(machine={MACHINE!r}, workloads=({WORKLOAD!r},), "
     "policy=<Policy.COCO: 'coco'>, epoch_quanta=20, duration=10, "
     "warmup=WarmupParams(window=2, factor=1.15), seed=0, clos_set=None, "
     "interference_alpha=1.0, pairing_penalty=1.05, load_jitter=0.0)", True),
    (WorkloadMetrics, (5.0, 0.5, 0, 20), {"slo_violations": 1}, None,
     "WorkloadMetrics(affordable_load=5.0, retainment=0.5, slo_violations=0, "
     "quanta_received=20)", True),
    (SimMetrics, ({"w": METRICS}, 3, 0.01, 0.5), {"migrations": 4}, None,
     f"SimMetrics(per_workload={{'w': {METRICS!r}}}, migrations=3, "
     "overhead_fraction=0.01, total_retainment=0.5)", False),
    (AffordableResult, (2.0, {"w": 10.0}, SIM_METRICS), {"multiplier": 3.0}, None,
     f"AffordableResult(multiplier=2.0, affordable={{'w': 10.0}}, metrics={SIM_METRICS!r})",
     False),
    (CompareResult, (((Policy.COCO, SIM_METRICS),), {Policy.COCO: None}), {"ratios": {}},
     None,
     f"CompareResult(rows=((<Policy.COCO: 'coco'>, {SIM_METRICS!r}),), "
     "ratios={<Policy.COCO: 'coco'>: None})", False),
    (LoadedWorkload, (WORKLOAD, None), {"spec": replace(WORKLOAD, name="v")}, None,
     f"LoadedWorkload(spec={WORKLOAD!r}, model=None)", True),
    (LoadedScenario, (Path("s.yaml"), MACHINE, (LOADED_WORKLOAD,), (Policy.COCO,),
                      {"seed": 1}, None), {"sim_params": {}}, None,
     f"LoadedScenario(path={Path('s.yaml')!r}, machine={MACHINE!r}, "
     f"workloads=({LOADED_WORKLOAD!r},), policies=(<Policy.COCO: 'coco'>,), "
     "sim_params={'seed': 1}, clos_set=None)", False),
    (SchemataFragment, ({0: 7}, {0: 30}), {"mb_percents": {0: 40}}, None,
     "SchemataFragment(l3_masks={0: 7}, mb_percents={0: 30})", False),
    (ResctrlLayout, (Path("/r"),), {"root_path": Path("/s")}, None,
     f"ResctrlLayout(root_path={Path('/r')!r})", True),
    (GroupReport, ("clos1", "created"), {"action": "failed"}, None,
     "GroupReport(group='clos1', action='created', error=None)", True),
    (ApplyReport, ([GROUP],), {"groups": []}, None,
     f"ApplyReport(groups=[{GROUP!r}])", False),
]


def _twin(cls):
    """Another class with the same fields and constructor."""
    return type("Twin", (Value,), {"__slots__": cls.__slots__, "__init__": cls.__init__})


@pytest.mark.parametrize("cls, args, change, bad, text, hashable", VALUE_TYPES,
                         ids=[row[0].__name__ for row in VALUE_TYPES])
def test_value_type(cls, args, change, bad, text, hashable):
    value, same = cls(*args), cls(*args)
    assert value == same and not value != same
    assert value != _twin(cls)(*args)
    assert value != replace(value, **change)
    assert repr(value) == text
    if hashable:
        assert hash(value) == hash(same) == hash(tuple(getattr(value, f) for f in cls.__slots__))
    else:
        with pytest.raises(TypeError):
            hash(value)

    field = next(iter(change))
    with pytest.raises(AttributeError):
        setattr(value, field, change[field])
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown_field = 1
    assert value == same

    changed = replace(value, **change)
    assert type(changed) is cls
    assert getattr(changed, field) == change[field]
    assert all(getattr(changed, f) == getattr(value, f) for f in cls.__slots__ if f != field)
    assert value.__replace__(**change) == changed  # the copy.replace protocol
    with pytest.raises(TypeError):
        replace(value, unknown_field=1)
    if bad is not None:  # replace builds through __init__, so the checks run again
        with pytest.raises(ValidationError):
            replace(value, **bad)

    assert copy.copy(value) == value and copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_every_public_value_type_is_covered():
    import coco
    public = {getattr(coco, name) for name in coco.__all__}
    covered = {row[0] for row in VALUE_TYPES}
    assert {cls for cls in public if isinstance(cls, type) and issubclass(cls, Value)} \
        <= covered


def test_allocation_states_order_as_tuples():
    states = [AllocationState(w, m) for w in (3, 1, 2) for m in (40, 20)]
    assert sorted(states) == [AllocationState(w, m) for w in (1, 2, 3) for m in (20, 40)]
    a, b = AllocationState(1, 40), AllocationState(2, 20)
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    with pytest.raises(TypeError):
        a < (2, 20)  # noqa: B015
    with pytest.raises(TypeError):
        a < _twin(AllocationState)(2, 20)  # noqa: B015


def test_workload_dominance_defaults_to_the_profile():
    assert WORKLOAD.dominance is Dominance.BALANCED
    given = WorkloadSpec("w", SLO, PROFILE, 5.0, Dominance.LLC_DOMINANT)
    assert given.dominance is Dominance.LLC_DOMINANT
    # replace keeps the dominance it has, as it keeps every other field
    assert replace(given, offered_load=1.0).dominance is Dominance.LLC_DOMINANT


def test_apply_report_groups_default_to_a_fresh_list():
    a, b = ApplyReport(), ApplyReport()
    a.groups.append(GROUP)
    assert a.groups == [GROUP] and b.groups == []
