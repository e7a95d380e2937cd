"""Seeded scenario generators for the benchmark workloads.

The seed is a benchmark argument; coco only ever sees the YAML written here.
Sizes that set how much work a run does (workload counts, grids, quanta,
epochs) are fixed per workload.  The seed deals the per-workload values:
which application each position runs, its capacity (one draw per
equal-width stratum of +-50%), and which offered-load tier it gets.  Every
application gets the same number of workloads in each tier, so each seed
has a workload of every kind at the heaviest tier.  The affordable-load
search is bound by such a workload, which keeps simulated outcomes and the
search's pass count alike across seeds: run-to-run differences then measure
coco rather than an unlucky draw.
"""

from __future__ import annotations

import random
from pathlib import Path

import yaml

# Full-allocation sustainable loads of the shipped reference colocation.
SL_FULL = {"memcached": 120000.0, "nginx": 90000.0, "mongodb": 30000.0}
SLO_MS = {"memcached": 1.5, "nginx": 20.0, "mongodb": 15.0}
APPS = tuple(SL_FULL)
# Offered load as a fraction of full-allocation capacity.
FLEET_TIERS = (0.01, 0.02, 0.03, 0.04)
MODEL_TIERS = (0.01, 0.02)
OVERLOAD_TIERS = (0.02, 0.04, 0.06, 0.08, 0.10)
ALL_POLICIES = ["coco", "coco-conflicting", "cat-only", "mba-only", "rr", "none"]

REFERENCE = Path("src/coco/data/reference.yaml")


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws from [lo, hi], one per equal stratum, in shuffled order."""
    values = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(values)
    return values


def _slo(app: str) -> dict:
    return {"percentile": 0.99, "latency_bound_ms": SLO_MS[app]}


def _dealt(rng: random.Random, n: int, tiers: tuple[float, ...]
           ) -> list[tuple[str, float, float]]:
    """(app, capacity scale, offered fraction) for n workloads, shuffled.

    n must be a multiple of len(APPS) * len(tiers).
    """
    per_app = n // len(APPS)
    rows = []
    for app in APPS:
        offered = [tiers[k % len(tiers)] for k in range(per_app)]
        rng.shuffle(offered)
        rows.extend(zip([app] * per_app, _strata(rng, per_app, 0.5, 1.5), offered))
    rng.shuffle(rows)
    return rows


def _calibration_workloads(rng: random.Random, n: int, tiers: tuple[float, ...],
                           prefix: str) -> list[dict]:
    out = []
    for i, (app, scale, offered) in enumerate(_dealt(rng, n, tiers)):
        sl_full = round(SL_FULL[app] * scale, 1)
        out.append({
            "name": f"{prefix}{app}-{i:03d}",
            "slo": _slo(app),
            "offered_load": round(sl_full * offered, 3),
            "profile": {"calibration": app, "sl_full": sl_full},
        })
    return out


def fleet(seed: int) -> dict:
    """ROADMAP rung M: 60 calibrated workloads, 16 CLOSs, no profiling.

    Offered loads of 1-4% of full capacity keep every workload admitted in
    one round, so the run is the simulator and the affordable-load search.
    """
    rng = random.Random(seed)
    return {
        "machine": {"llc_ways": 20, "clos_count": 16, "mba_step": 5},
        "workloads": _calibration_workloads(rng, 60, FLEET_TIERS, ""),
        "policies": list(ALL_POLICIES),
        "sim": {"policy": "coco", "epoch_quanta": 200, "duration": 10,
                "seed": seed, "interference_alpha": 5.0},
    }


def overload(seed: int) -> dict:
    """Load-time profiling plus heavy admission control under jitter.

    Six ground-truth models are profiled on the machine's 20 x 50 grid
    when the file loads.  The calibrated workloads are offered more than
    their time share, so admission control evicts many of them.
    """
    rng = random.Random(seed)
    models = []
    for i, (app, scale, offered) in enumerate(_dealt(rng, 6, MODEL_TIERS)):
        full = round(SL_FULL[app] * scale, 1)
        models.append({
            "name": f"model-{app}-{i:02d}",
            "slo": _slo(app),
            "offered_load": round(full * offered, 3),
            "model": {"base_latency_ms": round(SLO_MS[app] / 10, 4),
                      "tail_inflation": 2.0,
                      "capacity": {"calibration": app, "full": full}},
        })
    return {
        "machine": {"llc_ways": 20, "clos_count": 16, "mba_step": 2},
        "workloads": models + _calibration_workloads(rng, 150, OVERLOAD_TIERS, "cal-"),
        "policies": ["coco", "rr", "none"],
        "sim": {"policy": "coco", "epoch_quanta": 400, "duration": 6,
                "seed": seed, "interference_alpha": 5.0, "load_jitter": 0.1},
    }


GENERATORS = {"fleet": fleet, "overload": overload}


def write_scenario(workload: str, seed: int, work_dir: Path) -> Path:
    """Path of the workload's scenario file, generating it if needed."""
    if workload == "reference":
        return REFERENCE
    path = work_dir / f"{workload}-{seed}.yaml"
    path.write_text(yaml.safe_dump(GENERATORS[workload](seed), sort_keys=False))
    return path
