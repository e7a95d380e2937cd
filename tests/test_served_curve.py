"""The paper's premise as a pinned curve: LC workloads served against partitions.

N workloads cycle the six shipped reference workloads (names suffixed with
their index) at their stated loads, without load jitter, on the reference
machine, whose 4 CLOSs leave 3 for latency-critical work.  A workload is
served if it gets quanta and has no SLO violation.  The golden file holds
the number served per policy and N.  To regenerate it deliberately, run
this module as a script from the repo root:
``PYTHONPATH=src:tests python tests/test_served_curve.py``.
"""

import importlib.resources
import itertools
from pathlib import Path

from coco.core import replace
from coco.scenario import load_scenario
from coco.sim import Policy, run_scenario

GOLDEN = Path(__file__).parent / "data" / "served_curve.golden"
SIZES = (2, 3, 4, 6, 8, 10, 12, 16)
POLICIES = (Policy.COCO, Policy.ROUND_ROBIN, Policy.NO_PARTITION)


def reference():
    return load_scenario(
        str(importlib.resources.files("coco") / "data" / "reference.yaml")).scenario()


def served(base, policy, n):
    """How many of n cycled reference workloads ``policy`` serves."""
    workloads = tuple(replace(w, name=f"{w.name}.{i}")
                      for i, w in zip(range(n), itertools.cycle(base.workloads)))
    metrics = run_scenario(replace(base, policy=policy, workloads=workloads, load_jitter=0.0))
    return sum(1 for m in metrics.per_workload.values()
               if m.quanta_received and m.slo_violations == 0)


def curve(base):
    return {policy: [served(base, policy, n) for n in SIZES] for policy in POLICIES}


def curve_text(table) -> str:
    rows = [["N", *map(str, SIZES)]] + [[p.value, *map(str, counts)]
                                        for p, counts in table.items()]
    return "".join(" ".join(row) + "\n" for row in rows)


def test_golden_curve():
    assert curve_text(curve(reference())) == GOLDEN.read_text()


def test_coco_serves_more_than_its_partitions_and_never_fewer():
    base = reference()
    table = curve(base)
    lc_closs = len(base.effective_clos_set().lc_configs())
    assert any(count > lc_closs for count in table[Policy.COCO])
    for i, n in enumerate(SIZES):
        for policy in (Policy.ROUND_ROBIN, Policy.NO_PARTITION):
            assert table[Policy.COCO][i] >= table[policy][i], (policy, n)


if __name__ == "__main__":
    GOLDEN.write_text(curve_text(curve(reference())))
