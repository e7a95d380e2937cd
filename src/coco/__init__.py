"""Time-sharing of cache/memory-bandwidth partitions for SLO-bound workloads.

Each public name is imported from its home module on first use (PEP 562),
so `import coco` loads nothing else and a command loads only the modules it
runs.
"""

import importlib

_HOMES = {
    "coco.core": ("AllocationState", "Dominance", "MachineSpec", "SensitivityProfile",
                  "SloSpec", "WorkloadSpec", "dominance_of", "retainment_at",
                  "slowdown_at", "weights_of"),
    "coco.closconfig": ("ClosConfig", "ClosSet", "MigrationEvent", "ReconfigPlan",
                        "default_partition", "diff"),
    "coco.profiler": ("GroundTruthModel", "build_profile", "max_sustainable_load"),
    "coco.scheduler": ("EpochPlan", "QueueState", "TimeSlice", "admission_control",
                       "pair_compatible", "plan_epoch", "round_robin_plan"),
    "coco.params": ("Policy", "Scenario", "WarmupParams"),
    "coco.sim": ("SimMetrics", "compare_policies", "max_affordable_load", "run_scenario"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    # not cached here: coco.<name> is always the home module's current object
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_HOME[name]), name)


def __dir__():
    return sorted({*globals(), *__all__})
