"""Every name the benchmark tracer wraps or its workloads call must exist.

The tracer in perfbench/tracer.py swaps timing wrappers into module
attributes by name, and perfbench/workloads.py calls the solvers as
module attributes, so renaming or deleting one of them breaks benchmark
runs. Loading both files here turns that into a test failure.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import OneShot
from test_lagrangian import _time_shear
import sympeuler.eulerian as eulerian
import sympeuler.lagrangian as lagrangian
from sympeuler.fields import VectorField
from sympeuler.grids import GridSpec
from sympeuler.initial_conditions import random_symplectic, steady_shear
from sympeuler.interp import PeriodicInterpolator

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_layers_exist():
    tracer = _load("tracer")
    assert tracer.FUNCTION_LAYERS
    missing = [(module, attr) for _, module, attr in tracer.FUNCTION_LAYERS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
    assert hasattr(importlib.import_module("sympeuler.interp"),
                   "PeriodicInterpolator")


def test_workload_calls_exist():
    # loading runs the workloads' from-imports; their module-attribute
    # calls (eulerian.integrate, ...) resolve only when a solve runs
    workloads = _load("workloads")
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {"eulerian", "experiments", "lagrangian", "snapshots"}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert {m for m, _ in used} == modules
    missing = [f"{m}.{attr}" for m, attr in sorted(used)
               if not hasattr(getattr(workloads, m), attr)]
    assert missing == []


def test_geodesic_integrate_steps_through_module_attribute(monkeypatch):
    # the tracer's lagrangian.geodesic_rhs span counts only calls looked up
    # on the module: one per RK stage, four per step. The stage's Jacobian
    # of psi runs inside that span, and no stage inverts its map
    calls = {"geodesic_rhs": 0, "invert": 0}

    def counting(name):
        original = getattr(lagrangian, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(lagrangian, name, wrapper)

    for name in calls:
        counting(name)
    grid = GridSpec(n=1, points_per_axis=32)
    u = random_symplectic(grid, seed=3, decay=1.0)
    u0 = VectorField(grid, 0.05 / np.max(np.abs(u.values)) * u.values)
    lagrangian.geodesic_integrate(u0, 0.15, 0.05)
    assert calls == {"geodesic_rhs": 4 * 3, "invert": 0}


@pytest.mark.parametrize("kind, steps, builds, evaluations, one_shot", [
    pytest.param(kind, steps, builds, evaluations, one_shot,
                 id=(f"{steps}" if kind == "frozen" else f"{kind}-{steps}")
                 + ("-generator" if one_shot else ""))
    for one_shot in (False, True)
    for kind, steps, builds, evaluations in (
        # widths [4, 4], [4, 4, 1], [4, 6], [4, 6, 1], [4, 8, 16, 4, 8]
        ("frozen", 8, 5, 8), ("frozen", 9, 7, 12), ("frozen", 10, 5, 8),
        ("frozen", 11, 7, 12), ("frozen", 40, 11, 20),
        # widths [4, 8, 16, 12]; [4, 4, 4]
        ("shear", 40, 9, 16), ("time-shear", 12, 7, 12))
])
def test_flow_from_velocity_interpolator_counts(monkeypatch, kind, steps,
                                                builds, evaluations,
                                                one_shot):
    # the tracer's interp.build and interp.eval spans count interpolators
    # made through the module attribute: one build for the first sample
    # and two per RK4 step (four evaluations). Steps start at four
    # intervals and double, up to 16, while the flow is uniform along the
    # step; a remainder is cut to even width, and an odd one ends with a
    # dt step that builds its interpolated midpoint. Frozen random samples
    # grow until the 16-interval step's spread sends the width back to 4,
    # a frozen steady shear (uniform along its paths) keeps growing, and a
    # shear that grows in time stays at 4. A list and a one-shot sized
    # iterable of the same samples count the same.
    counts = {"build": 0, "eval": 0}

    class Counting(PeriodicInterpolator):
        def __init__(self, grid, hat):
            counts["build"] += 1
            super().__init__(grid, hat)

        def __call__(self, points):
            counts["eval"] += 1
            return super().__call__(points)

    monkeypatch.setattr(lagrangian, "PeriodicInterpolator", Counting)
    grid, dt = GridSpec(n=1, points_per_axis=16), 0.01
    if kind == "time-shear":
        samples = _time_shear(steps, t_final=steps * dt)[0]
    else:
        u = (steady_shear(grid, amplitude=0.3) if kind == "shear"
             else random_symplectic(grid, seed=4, decay=1.0))
        samples = [u] * (steps + 1)
    if one_shot:
        samples = OneShot(samples, steps + 1)
    lagrangian.flow_from_velocity(samples, dt)
    assert counts == {"build": builds, "eval": evaluations}


def test_integrate_steps_through_module_attributes(monkeypatch):
    # the tracer's eulerian.fast_rhs span counts only calls looked up on
    # the module, four per RK4 step, and its fft spans only transforms
    # called as numpy.fft attributes: the kernel's four per stage. Traced
    # points are summed from the stage spectrum, so they add no transform
    tracer = _load("tracer")
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(eulerian, "fast_rhs",
                        counting("fast_rhs", eulerian.fast_rhs))
    for name in tracer.FFT_FUNCTIONS:
        monkeypatch.setattr(np.fft, name, counting("fft", getattr(np.fft, name)))
    grid = GridSpec(n=1, points_per_axis=32)
    u = 0.1 * random_symplectic(grid, seed=3, decay=1.0)
    counts = []
    for points in (None, np.full((grid.dim, 3), 0.4)):
        for steps in (3, 4):
            calls.clear()
            # a fresh u0: its cached spectrum would save the second run a pass
            u0 = VectorField(grid, u.values)
            eulerian.integrate(u0, 0.05 * steps, 0.05, diag_every=10**9,
                               trace_points=points)
            counts.append((calls.count("fast_rhs"), calls.count("fft")))
    assert [c for c, _ in counts[:2]] == [4 * 3, 4 * 4]
    assert counts[1][1] - counts[0][1] == 4 * 4
    assert counts[2:] == counts[:2]
