"""Scenario and profile file handling (YAML, schema-validated).

Unknown keys are rejected everywhere.  A workload carries either a ready
sensitivity profile (inline grid, named calibration row, or a profile file
emitted by the `profile` subcommand) or a ground-truth model, which is
profiled at load time so the simulator always sees a profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from coco import calibration
from coco.closconfig import ClosConfig, ClosSet, validate as validate_clos_set
from coco.core import (Dominance, MachineSpec, SensitivityProfile, SloSpec,
                       WorkloadSpec, bilinear)
from coco.errors import CocoError, InfeasibleSloError, ScenarioError
from coco.profiler import GroundTruthModel, build_profile
from coco.sim import Policy, Scenario, WarmupParams

_MACHINE_KEYS = {"llc_ways", "clos_count", "mba_step", "max_bandwidth", "cores"}
_WORKLOAD_KEYS = {"name", "slo", "offered_load", "profile", "model", "dominance"}
_SLO_KEYS = {"percentile", "latency_bound_ms"}
_PROFILE_KEYS = {"calibration", "sl_full", "grid", "file", "workload"}
_GRID_KEYS = {"way_levels", "mba_levels", "slowdowns", "sl_full"}
_MODEL_KEYS = {"base_latency_ms", "tail_inflation", "capacity"}
_CAPACITY_KEYS = {"calibration", "full", "grid"}
_CAP_GRID_KEYS = {"way_levels", "mba_levels", "values"}
_SIM_KEYS = {"policy", "epoch_quanta", "quantum_ms", "duration", "seed",
             "warmup", "interference_alpha", "pairing_penalty", "load_jitter",
             "overhead_margin"}
_WARMUP_KEYS = {"window", "factor"}
_CLOS_SET_KEYS = {"reserved_id", "configs"}
_CLOS_KEYS = {"id", "width", "mask", "mba_percent"}
_TOP_KEYS = {"machine", "workloads", "policies", "sim", "clos_set"}

_DOMINANCE = {"llc": Dominance.LLC_DOMINANT, "mb": Dominance.MB_DOMINANT,
              "balanced": Dominance.BALANCED}


@dataclass(frozen=True)
class LoadedWorkload:
    spec: WorkloadSpec
    model: GroundTruthModel | None


@dataclass(frozen=True)
class LoadedScenario:
    path: Path
    machine: MachineSpec
    workloads: tuple[LoadedWorkload, ...]
    policies: tuple[Policy, ...]
    sim_params: dict
    clos_set: ClosSet | None

    def scenario(self, seed: int | None = None) -> Scenario:
        params = dict(self.sim_params)
        if seed is not None:
            params["seed"] = seed
        return Scenario(machine=self.machine,
                        workloads=tuple(w.spec for w in self.workloads),
                        clos_set=self.clos_set, **params)


def _expect_mapping(obj, allowed: set[str], where: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected a mapping")
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    return obj


def _number(obj, where: str, minimum=None) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ScenarioError(f"{where}: expected a number")
    try:
        value = float(obj)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{where}: expected a finite number")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{where}: must be >= {minimum}")
    return value


def _integer(obj, where: str, minimum=None) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ScenarioError(f"{where}: expected an integer")
    if minimum is not None and obj < minimum:
        raise ScenarioError(f"{where}: must be >= {minimum}")
    return obj


def _rows(obj, where: str) -> tuple[tuple[float, ...], ...]:
    """A grid of finite numbers, as a list of rows."""
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise ScenarioError(f"{where}: expected a list of lists of numbers")
    return tuple(tuple(_number(x, f"{where}[{i}][{j}]") for j, x in enumerate(row))
                 for i, row in enumerate(obj))


def _levels(obj, where: str) -> tuple[float, ...]:
    """A nonempty, strictly ascending axis of finite numbers."""
    if not isinstance(obj, list) or not obj:
        raise ScenarioError(f"{where}: expected a nonempty list of numbers")
    levels = tuple(_number(x, f"{where}[{i}]") for i, x in enumerate(obj))
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise ScenarioError(f"{where}: must be strictly ascending")
    return levels


def _string(obj, where: str) -> str:
    if not isinstance(obj, str) or not obj:
        raise ScenarioError(f"{where}: expected a nonempty string")
    return obj


def _load_yaml(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as e:
        raise ScenarioError(f"{path}: {e}") from None
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        line = f", line {mark.line + 1}" if mark else ""
        raise ScenarioError(f"{path}{line}: invalid YAML: {getattr(e, 'problem', e)}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be a mapping")
    return doc


def _parse_machine(node, where: str) -> MachineSpec:
    m = _expect_mapping(node, _MACHINE_KEYS, where)
    fields = dict(
        llc_ways=_integer(m.get("llc_ways"), f"{where}.llc_ways", 1),
        clos_count=_integer(m.get("clos_count"), f"{where}.clos_count", 2),
        mba_step=_integer(m.get("mba_step"), f"{where}.mba_step", 1),
        max_bandwidth=_number(m.get("max_bandwidth", 0.0), f"{where}.max_bandwidth", 0),
        cores=_integer(m.get("cores", 16), f"{where}.cores", 1),
    )
    try:
        return MachineSpec(**fields)
    except CocoError as e:
        raise ScenarioError(f"{where}: {e}") from None


def _parse_grid_profile(node, where: str) -> SensitivityProfile:
    g = _expect_mapping(node, _GRID_KEYS, where)
    for key in ("way_levels", "mba_levels", "slowdowns"):
        if key not in g:
            raise ScenarioError(f"{where}: missing {key}")
    slowdowns = _rows(g["slowdowns"], f"{where}.slowdowns")
    sl_full = _number(g.get("sl_full", 1.0), f"{where}.sl_full", 0)
    try:
        return SensitivityProfile(
            way_levels=tuple(g["way_levels"]),
            mba_levels=tuple(g["mba_levels"]),
            slowdowns=slowdowns,
            sl_full=sl_full,
        )
    except (CocoError, TypeError) as e:
        raise ScenarioError(f"{where}: {e}") from None


def _parse_profile(node, where: str, base_dir: Path,
                   workload_name: str) -> SensitivityProfile:
    p = _expect_mapping(node, _PROFILE_KEYS, where)
    sources = [k for k in ("calibration", "grid", "file") if k in p]
    if len(sources) != 1:
        raise ScenarioError(
            f"{where}: exactly one of calibration/grid/file required")
    if "calibration" in p:
        app = _string(p["calibration"], f"{where}.calibration")
        sl_full = _number(p.get("sl_full", 1.0), f"{where}.sl_full", 0)
        try:
            return calibration.calibrated_profile(app, sl_full)
        except CocoError as e:
            raise ScenarioError(f"{where}: {e}") from None
    if "grid" in p:
        return _parse_grid_profile(p["grid"], f"{where}.grid")
    rel = _string(p["file"], f"{where}.file")
    key = p.get("workload", workload_name)
    return load_profile_file(base_dir / rel, _string(key, f"{where}.workload"))


def _parse_capacity(node, where: str):
    c = _expect_mapping(node, _CAPACITY_KEYS, where)
    if "calibration" in c:
        app = _string(c["calibration"], f"{where}.calibration")
        full = _number(c.get("full", 1.0), f"{where}.full", 0)
        try:
            return calibration.calibrated_capacity_fn(app, full)
        except CocoError as e:
            raise ScenarioError(f"{where}: {e}") from None
    if "grid" in c:
        g = _expect_mapping(c["grid"], _CAP_GRID_KEYS, f"{where}.grid")
        ways = _levels(g.get("way_levels"), f"{where}.grid.way_levels")
        mbas = _levels(g.get("mba_levels"), f"{where}.grid.mba_levels")
        values = _rows(g.get("values"), f"{where}.grid.values")
        if len(values) != len(ways) or any(len(row) != len(mbas) for row in values):
            raise ScenarioError(
                f"{where}.grid.values: expected {len(ways)} rows of "
                f"{len(mbas)} values (way_levels x mba_levels)")

        def capacity(state):
            return bilinear(ways, mbas, values, state.llc_ways, state.mba_percent)

        return capacity
    raise ScenarioError(f"{where}: one of calibration/grid required")


def _parse_model(node, where: str) -> GroundTruthModel:
    m = _expect_mapping(node, _MODEL_KEYS, where)
    if "capacity" not in m:
        raise ScenarioError(f"{where}: missing capacity")
    fields = dict(
        base_latency_ms=_number(m.get("base_latency_ms"), f"{where}.base_latency_ms", 0),
        tail_inflation=_number(m.get("tail_inflation", 1.0), f"{where}.tail_inflation", 1),
        capacity_fn=_parse_capacity(m["capacity"], f"{where}.capacity"),
    )
    try:
        return GroundTruthModel(**fields)
    except CocoError as e:
        raise ScenarioError(f"{where}: {e}") from None


def _parse_workload(node, where: str, machine: MachineSpec,
                    base_dir: Path) -> LoadedWorkload:
    w = _expect_mapping(node, _WORKLOAD_KEYS, where)
    name = _string(w.get("name"), f"{where}.name")
    slo_node = _expect_mapping(w.get("slo"), _SLO_KEYS, f"{where}.slo")
    percentile = _number(slo_node.get("percentile"), f"{where}.slo.percentile")
    bound = _number(slo_node.get("latency_bound_ms"), f"{where}.slo.latency_bound_ms")
    try:
        slo = SloSpec(percentile=percentile, latency_bound_ms=bound)
    except CocoError as e:
        raise ScenarioError(f"{where}.slo: {e}") from None
    offered = _number(w.get("offered_load", 0.0), f"{where}.offered_load", 0)
    dominance = None
    if "dominance" in w:
        label = _string(w["dominance"], f"{where}.dominance")
        if label not in _DOMINANCE:
            raise ScenarioError(
                f"{where}.dominance: expected one of {sorted(_DOMINANCE)}")
        dominance = _DOMINANCE[label]
    has_profile, has_model = "profile" in w, "model" in w
    if has_profile == has_model:
        raise ScenarioError(f"{where}: exactly one of profile/model required")
    model = None
    if has_profile:
        profile = _parse_profile(w["profile"], f"{where}.profile", base_dir, name)
    else:
        model = _parse_model(w["model"], f"{where}.model")
        try:
            profile = build_profile(model, machine, slo)
        except InfeasibleSloError:
            raise  # exit-status contract: infeasible SLO is not a schema error
        except CocoError as e:
            raise ScenarioError(f"{where}.model: {e}") from None
    if profile.way_levels[-1] != machine.llc_ways:
        raise ScenarioError(
            f"{where}: profile full allocation ({profile.way_levels[-1]} ways) "
            f"does not match machine ({machine.llc_ways} ways)")
    try:
        spec = WorkloadSpec(name=name, slo=slo, profile=profile,
                            offered_load=offered, dominance=dominance)
    except CocoError as e:
        raise ScenarioError(f"{where}: {e}") from None
    return LoadedWorkload(spec, model)


def _mask(obj, where: str) -> int:
    """A capacity bit-mask: a positive integer or a hexadecimal string."""
    if not isinstance(obj, str):
        return _integer(obj, where, 1)
    try:
        return int(obj, 16)
    except ValueError:
        raise ScenarioError(f"{where}: {obj!r} is not a hexadecimal mask") from None


def _parse_clos_set(node, where: str, machine: MachineSpec) -> ClosSet:
    cs = _expect_mapping(node, _CLOS_SET_KEYS, where)
    entries = cs.get("configs")
    if not isinstance(entries, list) or not entries:
        raise ScenarioError(f"{where}.configs: expected a nonempty list")
    configs = []
    bit = 0
    for idx, entry in enumerate(entries):
        e = _expect_mapping(entry, _CLOS_KEYS, f"{where}.configs[{idx}]")
        clos_id = _integer(e.get("id", idx), f"{where}.configs[{idx}].id", 0)
        mba = _integer(e.get("mba_percent"), f"{where}.configs[{idx}].mba_percent", 1)
        if "mask" in e:
            mask = _mask(e["mask"], f"{where}.configs[{idx}].mask")
        elif "width" in e:
            width = _integer(e["width"], f"{where}.configs[{idx}].width", 1)
            if width > machine.llc_ways:
                raise ScenarioError(f"{where}.configs[{idx}].width: must be <= "
                                    f"llc_ways ({machine.llc_ways})")
            mask = ((1 << width) - 1) << bit
            bit += width
        else:
            raise ScenarioError(f"{where}.configs[{idx}]: mask or width required")
        configs.append(ClosConfig(clos_id, mask, mba))
    clos_set = ClosSet(machine, tuple(configs),
                       reserved_id=_integer(cs.get("reserved_id", 0),
                                            f"{where}.reserved_id", 0))
    problems = validate_clos_set(clos_set)
    if problems:
        raise ScenarioError(f"{where}: " + "; ".join(problems))
    return clos_set


# sim keys holding a number: (parser, minimum)
_SIM_NUMBERS = {"epoch_quanta": (_integer, 1), "quantum_ms": (_number, 0),
                "duration": (_integer, 1), "seed": (_integer, None),
                "interference_alpha": (_number, 1), "pairing_penalty": (_number, 1),
                "load_jitter": (_number, 0), "overhead_margin": (_number, 0)}


def load_scenario(path: str | Path) -> LoadedScenario:
    path = Path(path)
    doc = _expect_mapping(_load_yaml(path), _TOP_KEYS, str(path))
    if "machine" not in doc or "workloads" not in doc:
        raise ScenarioError(f"{path}: machine and workloads sections required")
    machine = _parse_machine(doc["machine"], f"{path}: machine")
    if not isinstance(doc["workloads"], list) or not doc["workloads"]:
        raise ScenarioError(f"{path}: workloads: expected a nonempty list")
    workloads = tuple(
        _parse_workload(node, f"{path}: workloads[{i}]", machine, path.parent)
        for i, node in enumerate(doc["workloads"]))
    names = [w.spec.name for w in workloads]
    if len(set(names)) != len(names):
        raise ScenarioError(f"{path}: duplicate workload names")

    policies = []
    for i, p in enumerate(doc.get("policies", [])):
        try:
            policies.append(Policy.from_name(_string(p, f"{path}: policies[{i}]")))
        except CocoError as e:
            raise ScenarioError(f"{path}: policies[{i}]: {e}") from None

    sim_node = _expect_mapping(doc.get("sim", {}), _SIM_KEYS, f"{path}: sim")
    params: dict = {}
    try:
        params["policy"] = Policy.from_name(sim_node.get("policy", "coco"))
    except CocoError as e:
        raise ScenarioError(f"{path}: sim.policy: {e}") from None
    for key, (conv, minimum) in _SIM_NUMBERS.items():
        if key in sim_node:
            params[key] = conv(sim_node[key], f"{path}: sim.{key}", minimum)
    if "warmup" in sim_node:
        wnode = _expect_mapping(sim_node["warmup"], _WARMUP_KEYS, f"{path}: sim.warmup")
        params["warmup"] = WarmupParams(
            window=_integer(wnode.get("window", 2), f"{path}: sim.warmup.window", 0),
            factor=_number(wnode.get("factor", 1.15), f"{path}: sim.warmup.factor", 1))

    clos_set = None
    if "clos_set" in doc:
        clos_set = _parse_clos_set(doc["clos_set"], f"{path}: clos_set", machine)

    loaded = LoadedScenario(path, machine, workloads, tuple(policies), params,
                            clos_set)
    try:
        loaded.scenario()  # surface Scenario-level validation now
    except CocoError as e:
        raise ScenarioError(f"{path}: {e}") from None
    return loaded


def dump_profiles(workload_profiles: dict[str, SensitivityProfile]) -> str:
    """Profile file content for the given workload -> profile mapping."""
    entries = []
    for name in sorted(workload_profiles):
        p = workload_profiles[name]
        entries.append({
            "workload": name,
            "sl_full": float(p.sl_full),
            "way_levels": list(p.way_levels),
            "mba_levels": list(p.mba_levels),
            "slowdowns": [[float(x) for x in row] for row in p.slowdowns],
        })
    return yaml.safe_dump({"profiles": entries}, sort_keys=False)


def load_profile_file(path: str | Path, workload: str) -> SensitivityProfile:
    path = Path(path)
    doc = _expect_mapping(_load_yaml(path), {"profiles"}, str(path))
    entries = doc.get("profiles")
    if not isinstance(entries, list):
        raise ScenarioError(f"{path}: profiles: expected a list")
    for i, node in enumerate(entries):
        e = _expect_mapping(node, {"workload"} | _GRID_KEYS, f"{path}: profiles[{i}]")
        if e.get("workload") == workload:
            return _parse_grid_profile(
                {k: e[k] for k in _GRID_KEYS if k in e}, f"{path}: profiles[{i}]")
    raise ScenarioError(f"{path}: no profile for workload {workload!r}")
