"""The traced benchmark patches coco by module and attribute name.

A refactor that moves or renames one of those functions makes the traced
run fail with AttributeError; this test finds that without running it.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).parents[1] / "benchmark" / "tracing.py"


def _patched_names():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _name in tracing.SPANNED + tracing.COUNTED]


@pytest.mark.parametrize("module, attr", _patched_names())
def test_patched_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_patch_set_installs_after_a_plain_load():
    # every patched module must already be imported once the harness has
    # loaded a scenario: `install` reads each from sys.modules
    benchmark = TRACING.parent
    src = Path(importlib.util.find_spec("coco").origin).parents[1]
    reference = src / "coco" / "data" / "reference.yaml"
    code = (f"import sys\nsys.path[:0] = [{str(benchmark)!r}, {str(src)!r}]\n"
            "import harness\n"
            f"harness.load_scenario({str(reference)!r})\n"
            "tracer = harness.Tracer()\ntracer.install('x')\ntracer.uninstall()\nprint('ok')")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120)
    assert (run.returncode, run.stdout) == (0, "ok\n"), run.stderr
