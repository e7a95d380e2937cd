"""The traced benchmark patches coco by module and attribute name.

A refactor that moves or renames one of those functions makes the traced
run fail with AttributeError; this test finds that without running it.
"""

import importlib
import importlib.util
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
