"""Spans around coco's public entry points, for the traced run.

The traced run calls `coco.cli.main` in-process.  While an op runs, each
function below is replaced, in every coco module that holds it, by a
wrapper that records a span: name, start, end, parent span and op id.
Spans stay in memory and are written as JSONL when the run ends.
`slowdown_xy` is called too often for a span per call, so it is counted.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from coco.sim import Policy

# (module, function, span name)
SPANNED = (
    ("coco.scenario", "load_scenario", "scenario.load_scenario"),
    ("yaml", "safe_load", "scenario.yaml_parse"),
    ("coco.scenario", "dump_profiles", "scenario.dump_profiles"),
    ("coco.profiler", "build_profile", "profiler.build_profile"),
    ("coco.scheduler", "admission_control", "scheduler.admission_control"),
    ("coco.scheduler", "plan_epoch", "scheduler.plan_epoch"),
    ("coco.scheduler", "round_robin_plan", "scheduler.round_robin_plan"),
    ("coco.sim", "run_scenario", "sim.run_scenario"),
    ("coco.sim", "compare_policies", "sim.compare_policies"),
    ("coco.sim", "max_affordable_load", "sim.max_affordable_load"),
    ("coco.sim", "_simulate", "sim.simulate"),
    ("coco.cli", "_simulate_report", "cli.report"),
    ("coco.cli", "_compare_report", "cli.report"),
    ("coco.resctrl", "apply", "resctrl.apply"),
)
COUNTED = (("coco.core", "slowdown_xy", "core.slowdown_lookups"),)


def _attrs(name: str, args: tuple, result) -> dict | None:
    """Work counts a span carries, read from its call's arguments and result."""
    if name == "scenario.yaml_parse" and isinstance(args[0], str):
        return {"bytes": len(args[0].encode())}
    if name == "profiler.build_profile":
        machine = args[1]
        return {"states": machine.llc_ways * len(machine.mba_levels())}
    if name == "scheduler.admission_control":
        return {"evicted": len(result[1])}
    if name == "sim.max_affordable_load":
        return {"policy": args[0].policy.value}
    if name == "sim.simulate":
        return {"policy": args[0].policy.value,
                "quanta": sum(t.quanta for t in result[0].values())}
    if name == "resctrl.apply":
        return {"written": result.rewrites,
                "failed": sum(g.action == "failed" for g in result.groups)}
    return None


class Tracer:
    """Span recorder; `install` wraps the functions, `uninstall` restores them."""

    def __init__(self):
        self.t0 = time.perf_counter()
        # [name, start, end, parent index, op id, attrs]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op_id: str | None = None

    def _span(self, fn, name):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, time.perf_counter(), None,
                      stack[-1] if stack else None, self.op_id, None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            record[5] = _attrs(name, args, result)
            return result

        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module_name: str, attr: str, wrapper_for, name: str):
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrapper_for(original, name)
        holders = [m for key, m in list(sys.modules.items())
                   if key == module_name or key == "coco" or key.startswith("coco.")]
        for module in holders:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, key, original))
                    setattr(module, key, wrapper)

    def install(self, op_id: str) -> None:
        self.op_id = op_id
        self.counts.clear()
        for module_name, attr, name in SPANNED:
            self._patch(module_name, attr, self._span, name)
        for module_name, attr, name in COUNTED:
            self._patch(module_name, attr, self._counter, name)

    def uninstall(self) -> Counter:
        """Restore every wrapped function; returns the op's call counts."""
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()
        return Counter(self.counts)

    def write_jsonl(self, path: Path) -> None:
        with path.open("w") as f:
            for i, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "start": start - self.t0,
                    "end": end - self.t0, "parent": parent, "op": op,
                    "attrs": attrs}) + "\n")


def layer_values(spans: list[list], base: int, counts: Counter
                 ) -> tuple[dict[str, float], dict[str, tuple[int, float, float]]]:
    """Every per-layer metric for one traced op run, and its span table.

    `spans` is the run's slice of the tracer's span list, starting at index
    `base`.  The table gives, per span name, the calls, the inclusive seconds
    and the self seconds: a span's duration minus its children's.  One
    thread never runs two children at once, so children do not overlap.
    """
    children_s: dict[int, float] = defaultdict(float)
    for _name, start, end, parent, _op, _attrs in spans:
        if parent is not None:
            children_s[parent] += end - start
    total = Counter()
    self_s = Counter()
    calls = Counter()
    attr = Counter()
    rounds = 0
    passes = Counter()
    for i, (name, start, end, parent, _op, attrs) in enumerate(spans, start=base):
        total[name] += end - start
        self_s[name] += end - start - children_s[i]
        calls[name] += 1
        parent_name = spans[parent - base][0] if parent is not None else None
        if name == "scheduler.plan_epoch" and parent_name == "scheduler.admission_control":
            rounds += 1
        for key, value in (attrs or {}).items():
            if key != "policy":
                attr[f"{name}.{key}"] += value
        if name == "sim.max_affordable_load":
            total[f"{name}.{(attrs or {}).get('policy')}"] += end - start
        if name == "sim.simulate" and parent_name == "sim.max_affordable_load":
            passes[(spans[parent - base][5] or {}).get("policy")] += 1
    quanta = attr["sim.simulate.quanta"]
    simulated_s = total["sim.simulate"] - total["scheduler.admission_control"]
    values = {
        "scenario.yaml_parse_s": total["scenario.yaml_parse"],
        "scenario.yaml_bytes": attr["scenario.yaml_parse.bytes"],
        "scenario.load_self_s": self_s["scenario.load_scenario"],
        "scenario.dump_profiles_s": total["scenario.dump_profiles"],
        "profiler.build_profile_s": total["profiler.build_profile"],
        "profiler.build_profile_calls": calls["profiler.build_profile"],
        "profiler.grid_states": attr["profiler.build_profile.states"],
        "scheduler.admission_control_s": total["scheduler.admission_control"],
        "scheduler.admission_rounds": rounds,
        "scheduler.evicted": attr["scheduler.admission_control.evicted"],
        "scheduler.plan_epoch_s": total["scheduler.plan_epoch"],
        "scheduler.plan_epoch_calls": calls["scheduler.plan_epoch"],
        "scheduler.round_robin_plan_s": total["scheduler.round_robin_plan"],
        "scheduler.round_robin_plan_calls": calls["scheduler.round_robin_plan"],
        "core.slowdown_lookups": counts["core.slowdown_lookups"],
        "sim.run_scenario_s": total["sim.run_scenario"],
        "sim.quanta_simulated": quanta,
        "sim.ns_per_quantum": 1e9 * simulated_s / quanta if quanta else 0.0,
        "sim.simulate_self_s": self_s["sim.simulate"],
        "cli.report_s": total["cli.report"],
        "resctrl.apply_s": total["resctrl.apply"],
        "resctrl.groups_written": attr["resctrl.apply.written"],
        "resctrl.groups_failed": attr["resctrl.apply.failed"],
        "trace.spans": len(spans),
    }
    for policy in (p.value for p in Policy):
        values[f"sim.max_affordable_load_s.{policy}"] = \
            total[f"sim.max_affordable_load.{policy}"]
        values[f"sim.search_passes.{policy}"] = passes[policy]
    return values, {name: (calls[name], total[name], self_s[name]) for name in calls}
