"""The schema of scenario and profile files; `coco.yamlload` reads and writes the YAML.

Each section of a file is read through one field table mapping every allowed
key to a parser; unknown keys are rejected everywhere, and an absent optional
key is left out so the value type's own default applies.  The parsers check
types and finiteness only: every range rule belongs to the value type built
from the section, whose error is prefixed with the section's path.  A
workload carries either a ready sensitivity profile (inline grid, named
calibration row, or a profile file emitted by the `profile` subcommand) or a
ground-truth model, which is profiled at load time so the simulator always
sees a profile.  Each source gives one checked grid and the workload's
``sl_full``; the workloads of one calibration share its grid.
"""

from __future__ import annotations

import math
import os
from functools import cache, partial
from pathlib import Path
from typing import TYPE_CHECKING

from coco import calibration, yamlload
from coco.core import (DEFAULT_SL_FULL, Dominance, MachineSpec, SensitivityProfile,
                       SloSpec, Value, WorkloadSpec, _set, _sl_full, bilinear)
from coco.errors import CocoError, InfeasibleSloError, ScenarioError
from coco.params import Policy, Scenario, WarmupParams
from coco.profiler import GroundTruthModel, build_profile

if TYPE_CHECKING:
    from coco.closconfig import ClosSet

class LoadedWorkload(Value):
    __slots__ = ("spec", "model")

    def __init__(self, spec: WorkloadSpec, model: GroundTruthModel | None):
        _set(self, "spec", spec)
        _set(self, "model", model)


class LoadedScenario(Value):
    __slots__ = ("path", "machine", "workloads", "policies", "sim_params", "clos_set")

    def __init__(self, path: Path, machine: MachineSpec,
                 workloads: tuple[LoadedWorkload, ...], policies: tuple[Policy, ...],
                 sim_params: dict, clos_set: ClosSet | None):
        _set(self, "path", path)
        _set(self, "machine", machine)
        _set(self, "workloads", workloads)
        _set(self, "policies", policies)
        _set(self, "sim_params", sim_params)
        _set(self, "clos_set", clos_set)

    def scenario(self, seed: int | None = None) -> Scenario:
        params = dict(self.sim_params)
        if seed is not None:
            params["seed"] = seed
        return Scenario(machine=self.machine,
                        workloads=tuple(w.spec for w in self.workloads),
                        clos_set=self.clos_set, **params)


def _mapping(node, where: str, keys, required=()) -> dict:
    if not isinstance(node, dict):
        raise ScenarioError(f"{where}: expected a mapping")
    unknown = node.keys() - keys
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown, key=str)}")
    for key in required:
        if key not in node:
            raise ScenarioError(f"{where}: missing {key}")
    return node


def _fields(node, where: str, table: dict, required=(), sep=".") -> dict:
    """The keys of mapping `node` present in `table`, each through its parser."""
    node = _mapping(node, where, table, required)
    return {key: parse(node[key], f"{where}{sep}{key}")
            for key, parse in table.items() if key in node}


def _build(make, where: str, *args, **fields):
    """`make(*args, **fields)`, its error prefixed with `where`."""
    try:
        return make(*args, **fields)
    except InfeasibleSloError as e:  # exit-status contract: not a schema error
        raise InfeasibleSloError(f"{where}: {e}") from None
    except CocoError as e:
        raise ScenarioError(f"{where}: {e}") from None


def _one_of(fields: dict, where: str, keys: tuple[str, ...]) -> str:
    present = [k for k in keys if k in fields]
    if len(present) != 1:
        raise ScenarioError(f"{where}: exactly one of {'/'.join(keys)} required")
    return present[0]


def _source(fields: dict, where: str, sources: dict[str, tuple[str, ...]]) -> str:
    """The one source key of ``fields``, which maps each source to the other
    keys it reads; a key that only another source reads is refused."""
    source = _one_of(fields, where, tuple(sources))
    for key in fields:
        if key != source and key not in sources[source]:
            owner = next(s for s, keys in sources.items() if key in keys)
            raise ScenarioError(f"{where}: {key} is read only with {owner}, not with {source}")
    return source


def _section(table: dict, required=(), make=None):
    """Parser of a nested mapping: its fields, or `make(**fields)`."""
    def parse(obj, where):
        fields = _fields(obj, where, table, required)
        return fields if make is None else _build(make, where, **fields)
    return parse


def _number(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ScenarioError(f"{where}: expected a number")
    try:
        value = float(obj)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{where}: expected a finite number")
    return value


def _integer(obj, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ScenarioError(f"{where}: expected an integer")
    return obj


def _string(obj, where: str) -> str:
    if not isinstance(obj, str) or not obj:
        raise ScenarioError(f"{where}: expected a nonempty string")
    return obj


def _file(obj, where: str) -> str:
    """A file path the filesystem can encode: no NUL byte and no lone surrogate."""
    try:
        if b"\0" not in os.fsencode(_string(obj, where)):
            return obj
    except UnicodeEncodeError:
        pass
    raise ScenarioError(f"{where}: {obj!r} is not a valid file path")


def _choice(kind):
    """Parser of an enum member named by its value."""
    members = {m.value: m for m in kind}

    def parse(obj, where: str):
        if _string(obj, where) not in members:
            raise ScenarioError(f"{where}: unknown {kind.__name__.lower()} {obj!r}; "
                                f"expected one of {', '.join(members)}")
        return members[obj]
    return parse


def _mask(obj, where: str) -> int:
    """A capacity bit-mask: an integer or a hexadecimal string."""
    if not isinstance(obj, str):
        return _integer(obj, where)
    try:
        return int(obj, 16)
    except ValueError:
        raise ScenarioError(f"{where}: {obj!r} is not a hexadecimal mask") from None


def _list(item):
    def parse(obj, where: str) -> tuple:
        if not isinstance(obj, list):
            raise ScenarioError(f"{where}: expected a list")
        return tuple(item(x, f"{where}[{i}]") for i, x in enumerate(obj))
    return parse


def _axis(obj, where: str) -> tuple:
    """A capacity-grid axis: a nonempty, strictly ascending list of numbers."""
    levels = _list(_number)(obj, where)
    if not levels or any(a >= b for a, b in zip(levels, levels[1:])):
        raise ScenarioError(f"{where}: expected a nonempty, strictly ascending list")
    return levels


_rows = _list(_list(_number))  # a grid of finite numbers, as a list of rows


def _distinct_policies(policies: tuple[Policy, ...], where: str) -> tuple[Policy, ...]:
    """A list of policies to compare: at least one, none named twice."""
    if not policies:
        raise ScenarioError(f"{where}: expected at least one policy")
    for i, p in enumerate(policies):
        if p in policies[:i]:
            raise ScenarioError(f"{where}: policy {p.value!r} named twice")
    return policies


def _policies(obj, where: str) -> tuple[Policy, ...]:
    return _distinct_policies(_list(_choice(Policy))(obj, where), where)


def _capacity_grid(obj, where: str):
    g = _fields(obj, where, _CAPACITY_GRID, ("way_levels", "mba_levels", "values"))
    ways, mbas, values = g["way_levels"], g["mba_levels"], g["values"]
    if len(values) != len(ways) or any(len(row) != len(mbas) for row in values):
        raise ScenarioError(f"{where}.values: expected {len(ways)} rows of "
                            f"{len(mbas)} values (way_levels x mba_levels)")
    # checked as written: a resampled cell would name a machine state, not this grid's
    for i, row in enumerate(values):
        for j, c in enumerate(row):
            if c <= 0:
                fault = "must be > 0"
            elif i and c < values[i - 1][j]:
                fault = "falls along way_levels"
            elif j and c < row[j - 1]:
                fault = "falls along mba_levels"
            else:
                continue
            raise ScenarioError(f"{where}.values[{i}][{j}]: capacity {fault}")

    def capacity(state):
        return bilinear(ways, mbas, values, state.llc_ways, state.mba_percent)

    return capacity


def _capacity(obj, where: str):
    c = _fields(obj, where, _CAPACITY)
    if _source(c, where, _CAPACITY_SOURCES) == "grid":
        return c["grid"]
    return _build(calibration.calibrated_capacity_fn, where,
                  c["calibration"], c.get("full", 1.0))


def _model(obj, where: str) -> GroundTruthModel:
    m = _fields(obj, where, _MODEL, ("base_latency_ms", "capacity"))
    return _build(GroundTruthModel, where, m["base_latency_ms"],
                  m.get("tail_inflation", 1.0), m["capacity"])


_GRID_PROFILE = {"way_levels": _list(_integer), "mba_levels": _list(_integer),
                 "slowdowns": _rows, "sl_full": _number}
# an inline grid or a profile-file entry: its checked grid and its own sl_full
_grid_profile = _section(_GRID_PROFILE, ("way_levels", "mba_levels", "slowdowns"),
                         lambda sl_full=DEFAULT_SL_FULL, **grid: (SensitivityProfile(**grid),
                                                                  _sl_full(sl_full)))
_CAPACITY_GRID = {"way_levels": _axis, "mba_levels": _axis, "values": _rows}
_CAPACITY = {"calibration": _string, "full": _number, "grid": _capacity_grid}
_CAPACITY_SOURCES = {"calibration": ("full",), "grid": ()}
_MODEL = {"base_latency_ms": _number, "tail_inflation": _number, "capacity": _capacity}
_PROFILE = {"calibration": _string, "sl_full": _number, "grid": _grid_profile,
            "file": _file, "workload": _string}
_PROFILE_SOURCES = {"calibration": ("sl_full",), "grid": (), "file": ("workload",)}
_SLO = {"percentile": _number, "latency_bound_ms": _number}
_WORKLOAD = {"name": _string,
             "slo": _section(_SLO, ("percentile", "latency_bound_ms"), SloSpec),
             "offered_load": _number, "profile": _section(_PROFILE),
             "model": _model, "dominance": _choice(Dominance)}
_MACHINE = {"llc_ways": _integer, "clos_count": _integer, "mba_step": _integer}
_SIM = {"policy": _choice(Policy), "epoch_quanta": _integer, "duration": _integer,
        "seed": _integer,
        "warmup": _section({"window": _integer, "factor": _number}, make=WarmupParams),
        "interference_alpha": _number, "pairing_penalty": _number,
        "load_jitter": _number}
_CLOS = {"id": _integer, "width": _integer, "mask": _mask, "mba_percent": _integer}
_CLOS_SET = {"reserved_id": _integer, "configs": _list(_section(_CLOS, ("mba_percent",)))}
_SCENARIO = {"machine": _section(_MACHINE, ("llc_ways", "clos_count", "mba_step"),
                                 MachineSpec),
             "workloads": _list(_section(_WORKLOAD, ("name", "slo"))),
             "policies": _policies, "sim": _section(_SIM),
             "clos_set": _section(_CLOS_SET, ("configs",))}
# a profile file: entries are key-checked, and only the requested one parsed
_PROFILE_FILE = {"profiles": _list(partial(_mapping, keys={"workload", *_GRID_PROFILE}))}


def _load_yaml(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioError(f"{path}: {e}") from None
    doc = yamlload.read(text, str(path))
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be a mapping")
    return doc


def _workload(w: dict, where: str, machine: MachineSpec, base_dir: Path,
              files: dict) -> LoadedWorkload:
    source = _one_of(w, where, ("profile", "model"))
    p, model = w.pop("profile", None), w.pop("model", None)
    if source == "model":
        profile, sl_full = _build(build_profile, f"{where}.model", model, machine, w["slo"])
    else:
        at = f"{where}.profile"
        source = _source(p, at, _PROFILE_SOURCES)
        if source == "grid":
            profile, sl_full = p["grid"]
        elif source == "file":
            profile, sl_full = _profile_entry(base_dir / p["file"],
                                              p.get("workload", w["name"]), files)
        else:
            profile = _build(calibration.calibrated_profile, at, p["calibration"])
            sl_full = _build(_sl_full, at, p.get("sl_full", DEFAULT_SL_FULL))
    if profile.way_levels[-1] != machine.llc_ways:
        raise ScenarioError(
            f"{where}: profile full allocation ({profile.way_levels[-1]} ways) "
            f"does not match machine ({machine.llc_ways} ways)")
    return LoadedWorkload(_build(WorkloadSpec, where, profile=profile, sl_full=sl_full, **w),
                          model)


def _clos_set(cs: dict, where: str, machine: MachineSpec) -> ClosSet:
    from coco.closconfig import ClosConfig, ClosSet  # only a file with clos_set needs them

    configs = []
    bit = 0
    for idx, e in enumerate(cs.pop("configs")):
        at = f"{where}.configs[{idx}]"
        if _one_of(e, at, ("mask", "width")) == "mask":
            mask = e["mask"]
        elif e["width"] < 1:  # before the shift: 1 << -1 raises
            raise ScenarioError(f"{at}.width: must be >= 1")
        elif e["width"] > machine.llc_ways:
            raise ScenarioError(f"{at}.width: must be <= llc_ways ({machine.llc_ways})")
        else:
            mask = ((1 << e["width"]) - 1) << bit
            bit += e["width"]
        configs.append(ClosConfig(e.get("id", idx), mask, e["mba_percent"]))
    return _build(ClosSet, where, machine, tuple(configs), **cs)


def load_scenario(path: str | Path) -> LoadedScenario:
    path = Path(path)
    doc = _fields(_load_yaml(path), str(path), _SCENARIO, ("machine", "workloads"),
                  sep=": ")
    machine, files = doc["machine"], {}
    workloads = tuple(_workload(w, f"{path}: workloads[{i}]", machine, path.parent, files)
                      for i, w in enumerate(doc["workloads"]))
    clos_set = None
    if "clos_set" in doc:
        clos_set = _clos_set(doc["clos_set"], f"{path}: clos_set", machine)
    loaded = LoadedScenario(path, machine, workloads, doc.get("policies", ()),
                            {"policy": Policy.COCO, **doc.get("sim", {})}, clos_set)
    _build(loaded.scenario, str(path))  # Scenario's checks: sim ranges, names, loads
    return loaded


def dump_profiles(workload_profiles: dict[str, tuple[SensitivityProfile, float]]) -> str:
    """Profile file content for a workload -> (profile, sl_full) mapping, in PyYAML's
    block layout byte for byte (`coco.yamlload`'s write rules)."""
    text = cache(yamlload.plain_float)  # each distinct value formatted once
    parts = ["profiles:\n" if workload_profiles else "profiles: []\n"]
    for name in sorted(workload_profiles):
        p, sl_full = workload_profiles[name]
        parts.append(yamlload.entry_head(name, sl_full))
        parts += ["  way_levels:\n", *(f"  - {w}\n" for w in p.way_levels),
                  "  mba_levels:\n", *(f"  - {m}\n" for m in p.mba_levels), "  slowdowns:\n"]
        parts += ["  - - " + "\n    - ".join(map(text, row)) + "\n"
                  for row in p.slowdowns]
    return "".join(parts)


def _profile_entry(path: Path, workload: str,
                   files: dict) -> tuple[SensitivityProfile, float]:
    """The profile file's entry for ``workload``: its grid and its sl_full.
    ``files`` keeps each file's entries by path and each entry read by (path,
    workload), so one load parses a file once and an entry's workloads share
    its grid."""
    if path not in files:
        files[path] = _fields(_load_yaml(path), str(path), _PROFILE_FILE, ("profiles",),
                              sep=": ")["profiles"]
        named = set()  # an unparsed `workload` may be any value; only a string can match
        for i, e in enumerate(files[path]):
            name = e.get("workload")
            if isinstance(name, str):
                if name in named:
                    raise ScenarioError(f"{path}: profiles[{i}]: workload {name!r} named twice")
                named.add(name)
    if (path, workload) not in files:
        for i, e in enumerate(files[path]):
            if e.get("workload") == workload:
                grid = {k: v for k, v in e.items() if k != "workload"}
                files[path, workload] = _grid_profile(grid, f"{path}: profiles[{i}]")
                break
        else:
            raise ScenarioError(f"{path}: no profile for workload {workload!r}")
    return files[path, workload]


def load_profile_file(path: str | Path, workload: str) -> SensitivityProfile:
    """The grid of the profile file's entry for ``workload``."""
    return _profile_entry(Path(path), workload, {})[0]
