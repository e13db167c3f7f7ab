"""Every name the benchmark tracer wraps must exist in the package.

The tracer in perfbench/tracer.py swaps timing wrappers into module
attributes by name, so renaming or deleting one of them breaks traced
benchmark runs. Loading the tracer here turns that into a test failure.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import sympeuler.lagrangian as lagrangian
from sympeuler.fields import VectorField
from sympeuler.grids import GridSpec
from sympeuler.initial_conditions import random_symplectic
from sympeuler.interp import PeriodicInterpolator

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


def test_geodesic_integrate_inverts_through_module_attribute(monkeypatch):
    # the tracer's lagrangian.invert span (and its sweeps per call) counts
    # only calls looked up on the module: one per RK stage, four per step
    calls = []
    invert = lagrangian.invert

    def counting(*args, **kwargs):
        calls.append(1)
        return invert(*args, **kwargs)

    monkeypatch.setattr(lagrangian, "invert", counting)
    grid = GridSpec(n=1, points_per_axis=32)
    u = random_symplectic(grid, seed=3, decay=1.0)
    u0 = VectorField(grid, 0.05 / np.max(np.abs(u.values)) * u.values)
    lagrangian.geodesic_integrate(u0, 0.15, 0.05)
    assert len(calls) == 4 * 3


@pytest.mark.parametrize("steps, builds, evaluations",
                         [(10, 11, 20), (11, 13, 24)])
def test_flow_from_velocity_interpolator_counts(monkeypatch, steps, builds,
                                                evaluations):
    # the tracer's interp.build and interp.eval spans count interpolators
    # made through the module attribute: one build per sample, and one RK4
    # step (four evaluations) per pair of intervals, plus for an odd count
    # a one-interval step that builds its interpolated midpoint
    counts = {"build": 0, "eval": 0}

    class Counting(PeriodicInterpolator):
        def __init__(self, grid, values):
            counts["build"] += 1
            super().__init__(grid, values)

        def __call__(self, points):
            counts["eval"] += 1
            return super().__call__(points)

    monkeypatch.setattr(lagrangian, "PeriodicInterpolator", Counting)
    grid = GridSpec(n=1, points_per_axis=16)
    u = random_symplectic(grid, seed=4, decay=1.0)
    lagrangian.flow_from_velocity([u] * (steps + 1), 0.01)
    assert counts == {"build": builds, "eval": evaluations}
