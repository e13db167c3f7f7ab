"""Every name the benchmark tracer wraps must exist in the package.

The tracer in perfbench/tracer.py swaps timing wrappers into module
attributes by name, so renaming or deleting one of them breaks traced
benchmark runs. Loading the tracer here turns that into a test failure.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_exist():
    tracer = _load_tracer()
    assert tracer.FUNCTION_LAYERS
    missing = [(module, attr) for _, module, attr in tracer.FUNCTION_LAYERS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
    assert hasattr(importlib.import_module("sympeuler.interp"),
                   "PeriodicInterpolator")
