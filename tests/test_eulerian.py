"""Eulerian RK4 integrator: fixed points, order, conservation, failure modes."""

import ast
import csv
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sympeuler
import sympeuler.eulerian as eulerian

from conftest import rel_err
from sympeuler.eulerian import (
    DIAGNOSTIC_COLUMNS,
    DiscretizationFailure,
    EulerianState,
    Integration,
    cfl_timestep,
    diagnostics,
    dt_for_speed,
    eulerian_rhs,
    fast_force,
    fast_rhs,
    integrate,
    rk4,
    step_count,
    write_diagnostics_csv,
)
from sympeuler.fields import VectorField
from sympeuler.grids import GridSpec
from sympeuler.initial_conditions import (
    constant_field,
    random_symplectic,
    random_vector,
    steady_shear,
)
from sympeuler.interp import fourier_sample
from sympeuler.operators import (
    constraint_force,
    jacobian,
    omega_deformation,
    symplectic_divergence,
)
from sympeuler.spectral import lebesgue_norms, sobolev_norm


def scaled(u, factor):
    return VectorField(u.grid, factor * u.values)


def physical_loop(u0, t_final, dt, trace_points=None):
    """The Eulerian run on physical values, rk4 over fast_rhs(...).values:
    the (u, positions) tuple after every step, u0 first."""
    grid = u0.grid
    y = (u0.values,)
    if trace_points is not None:
        y += (np.array(trace_points, dtype=float),)

    def rhs(c, y):
        k = (fast_rhs(VectorField(grid, y[0])).values,)
        if len(y) > 1:
            hat = np.fft.rfftn(y[0], axes=tuple(range(-grid.dim, 0)))
            k += (fourier_sample(grid, hat, y[1]),)
        return k

    states = [y]
    for _ in range(step_count(t_final, dt)):
        y = rk4(rhs, y, dt)
        states.append(y)
    return states


# ---------------------------------------------------------------------------
# right-hand side


def test_rhs_vanishes_at_zero(grid32):
    z = VectorField(grid32, np.zeros((2,) + grid32.shape))
    assert np.max(np.abs(eulerian_rhs(z).values)) == 0.0


def test_rhs_vanishes_for_shear(grid64):
    # steady shear: (u.grad)u = 0 and B(u) = 0 exactly
    u = steady_shear(grid64)
    assert np.max(np.abs(eulerian_rhs(u).values)) < 1e-13


def test_rhs_orthogonal_to_velocity(grid64):
    # d/dt ||u||^2 = 2 <rhs, u> = 0 on the constraint manifold; off it
    # the advection term contributes -1/2 int (div u) |u|^2
    from sympeuler.spectral import l2_inner
    for seed in range(3):
        u = random_symplectic(grid64, seed=30 + seed)
        ip = l2_inner(eulerian_rhs(u), u)
        assert abs(ip) < 1e-10 * sobolev_norm(u, 0.0) ** 2 * max(
            1.0, sobolev_norm(u, 1.0))


def test_fast_rhs_matches_compositional(grid64):
    for seed in range(3):
        u = random_vector(grid64, seed=40 + seed)
        a = eulerian_rhs(u, cutoff_radius=1.0)
        b = fast_rhs(u, cutoff_radius=1.0)
        scale = max(np.max(np.abs(a.values)), 1.0)
        assert np.max(np.abs(a.values - b.values)) < 1e-12 * scale


def test_fast_rhs_matches_compositional_4d(grid4d):
    u = random_vector(grid4d, seed=41, s=3.5)
    a = eulerian_rhs(u, cutoff_radius=2.0)
    b = fast_rhs(u, cutoff_radius=2.0)
    scale = max(np.max(np.abs(a.values)), 1.0)
    assert np.max(np.abs(a.values - b.values)) < 1e-12 * scale


def test_fast_rhs_matches_compositional_small_box():
    # on L=0.75 only k=0 lies in the unit ball, so the kernel skips the
    # compressibility defect; the compositional chain still computes it
    from sympeuler.eulerian import _kernel
    grid = GridSpec(n=1, points_per_axis=64, box_length=0.75)
    assert not _kernel(grid, 1.0).defect
    for seed in range(2):
        u = random_vector(grid, seed=42 + seed)
        a = eulerian_rhs(u, cutoff_radius=1.0)
        b = fast_rhs(u, cutoff_radius=1.0)
        scale = max(np.max(np.abs(a.values)), 1.0)
        assert np.max(np.abs(a.values - b.values)) < 1e-12 * scale


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 4.0, np.sqrt(13.0)])
def test_fast_force_matches_constraint_force(grid64, radius):
    for u in (random_vector(grid64, seed=43), random_symplectic(grid64, seed=44)):
        a = constraint_force(u, radius)
        b = fast_force(u, radius)
        scale = max(np.max(np.abs(a.values)), 1.0)
        assert np.max(np.abs(a.values - b.values)) < 1e-12 * scale


def test_kernel_results_survive_later_calls(grid64):
    # the kernel entries and the diagnostics share per-grid work buffers
    u, w = random_vector(grid64, seed=46), random_symplectic(grid64, seed=47)
    first = fast_rhs(u)
    kept = first.values.copy()
    fast_force(w, 2.0)
    diagnostics(EulerianState(0.0, w), 3.0)
    assert np.array_equal(first.values, kept)
    assert np.array_equal(fast_rhs(u).values, kept)


def test_kernel_spectrum_does_not_alias_work_buffers(grid64):
    # the result is a spectrum whose values are first read here, after
    # later kernel and diagnostics calls have reused the work buffers
    u, w = random_vector(grid64, seed=46), random_symplectic(grid64, seed=47)
    first = fast_rhs(u)
    fast_rhs(w)
    fast_force(w, 2.0)
    diagnostics(EulerianState(0.0, w), 3.0)
    assert np.array_equal(first.values, fast_rhs(u).values)


@pytest.mark.parametrize("grid", [GridSpec(n=1, points_per_axis=64),
                                  GridSpec(n=2, points_per_axis=8)],
                         ids=["2d", "4d"])
def test_strip_size_changes_no_bit(grid, monkeypatch):
    # the physical pass runs strip by strip: every 1D transform and every
    # pointwise product sees the same inputs whatever the strip size, and
    # the record sums its squares over whole planes
    u, N = random_vector(grid, seed=48), grid.points_per_axis

    def outputs():
        eulerian._work_buffers.cache_clear()
        record = diagnostics(EulerianState(0.0, u), 3.0)
        return [fast_rhs(u).rhat.tobytes(), fast_force(u, 2.0).rhat.tobytes(),
                np.array(record).tobytes()]

    assert len(list(eulerian._strips(grid))) == 1
    whole = outputs()
    try:
        # three rows a strip, the last strip shorter
        monkeypatch.setattr(eulerian, "_STRIP_POINTS", 3 * N ** (grid.dim - 1))
        assert len(list(eulerian._strips(grid))) == (N + 2) // 3
        assert outputs() == whole
    finally:
        monkeypatch.undo()
        eulerian._work_buffers.cache_clear()


@pytest.mark.parametrize("grid, full_grid_mib", [
    (GridSpec(n=1, points_per_axis=256), 10.53),
    (GridSpec(n=2, points_per_axis=24), 169.6)], ids=["2d-256", "4d-24"])
def test_workspace_is_a_strip_not_a_grid(grid, full_grid_mib):
    # with phys and prod spanning the grid the workspace was full_grid_mib;
    # np.empty touches no page, and the uncached call keeps the 4D buffers
    # out of the cache
    total = sum(b.nbytes for b in eulerian._work_buffers.__wrapped__(grid))
    assert total <= 0.6 * full_grid_mib * 2**20


# ---------------------------------------------------------------------------
# diagnostics


def reference_record(u, s):
    """Diagnostics columns through the compositional operators."""
    J = jacobian(u)
    sdiv_l2, sdiv_linf = lebesgue_norms(symplectic_divergence(u))
    return {
        "l2": lebesgue_norms(u)[0],
        "hs": sobolev_norm(u, s),
        "p_residual": sobolev_norm(omega_deformation(u), 0.0),
        "sdiv_l2": sdiv_l2,
        "sdiv_linf": sdiv_linf,
        "bkm_integrand": float(np.sqrt(np.max(np.sum(J * J, axis=(0, 1))))),
    }


@pytest.mark.parametrize("grid", [GridSpec(n=1, points_per_axis=64),
                                  GridSpec(n=1, points_per_axis=32,
                                           box_length=0.75),
                                  GridSpec(n=2, points_per_axis=16)],
                         ids=["2d", "2d-small-box", "4d"])
@pytest.mark.parametrize("kind", ["generic", "symplectic", "rough",
                                  "spectral"])
def test_diagnostics_match_operators(grid, kind):
    if kind == "rough":
        # white noise: records see un-dealiased fields, Nyquist modes included
        rng = np.random.default_rng(45)
        u = VectorField(grid, rng.standard_normal((grid.dim,) + grid.shape))
    else:
        draw = random_symplectic if kind == "symplectic" else random_vector
        u = draw(grid, seed=45)
    if kind == "spectral":
        # a field known by its spectrum only, as the run's states are
        u = VectorField.from_rspectral(grid, u.rhat)
    rec = diagnostics(EulerianState(0.0, u), 3.0)
    if kind == "spectral":
        assert "values" not in vars(u)
    # on symplectic data P(u) is rounding noise in both computations
    floor = 1e-12 * sobolev_norm(u, 1.0) if kind == "symplectic" else 0.0
    for name, want in reference_record(u, 3.0).items():
        atol = floor if name == "p_residual" else 0.0
        assert abs(getattr(rec, name) - want) <= 1e-12 * abs(want) + atol, name
    if kind != "symplectic":
        assert rec.p_residual > 0.1 * sobolev_norm(u, 1.0)


ONE_RECORD = """
from sympeuler.eulerian import EulerianState, diagnostics
from sympeuler.grids import GridSpec
from sympeuler.initial_conditions import random_vector
u = random_vector(GridSpec(n=1, points_per_axis=256), seed=3, s=3.0)
print([repr(v) for v in diagnostics(EulerianState(0.0, u), 3.0)])
"""


def _fresh_interpreter(script: str, *args: str, **env: str) -> str:
    """The standard output of script run by a new python process that
    imports this checkout's sympeuler."""
    src = os.path.dirname(os.path.dirname(sympeuler.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True,
        text=True, check=True,
        env={**os.environ, "PYTHONPATH": path, **env}).stdout


def test_diagnostics_do_not_depend_on_the_blas_thread_count():
    # a BLAS reduction splits its sum by thread, which moved the last
    # digits of this record's p_residual and sdiv_l2
    outs = [_fresh_interpreter(ONE_RECORD, OPENBLAS_NUM_THREADS=str(threads))
            for threads in (1, 2)]
    assert outs[0] and outs[0] == outs[1]


EULERIAN_THEN_SPLINE = """
import os, sys
import numpy as np
import sympeuler.cli
from sympeuler.eulerian import integrate
from sympeuler.grids import GridSpec
from sympeuler.initial_conditions import random_vector
from sympeuler.interp import PeriodicInterpolator
from sympeuler.snapshots import write_snapshot
out = sys.argv[1]
u = random_vector(GridSpec(n=1, points_per_axis=32), seed=4, s=3.0)
run = integrate(u, 0.03, 0.01, os.path.join(out, "diagnostics.csv"))
write_snapshot(os.path.join(out, "u.snap"), run.state.u)
print("scipy.ndimage" in sys.modules)
PeriodicInterpolator(u.grid, u.rhat)(np.zeros((2, 1)))
print("scipy.ndimage" in sys.modules)
"""


def test_the_eulerian_path_loads_no_scipy(tmp_path):
    # scipy.ndimage costs ~27 MiB RSS and ~0.2 s of import; only spline
    # evaluation needs it
    out = _fresh_interpreter(EULERIAN_THEN_SPLINE, str(tmp_path))
    assert out.split() == ["False", "True"]
    assert (tmp_path / "diagnostics.csv").exists()


# ---------------------------------------------------------------------------
# stepping


def test_step_count_rejects_non_divisor():
    with pytest.raises(ValueError):
        step_count(1.0, 0.3)
    with pytest.raises(ValueError):
        step_count(-1.0, 0.1)
    assert step_count(1.0, 0.25) == 4


def test_dt_for_speed_divides():
    grid = GridSpec(n=1, points_per_axis=64)
    dt = dt_for_speed(grid, speed=0.7, t_final=1.0, cfl=0.5)
    assert dt <= 0.5 * grid.spacing / 0.7 + 1e-15
    assert step_count(1.0, dt) >= 1


def test_cfl_timestep_zero_field(grid32):
    z = VectorField(grid32, np.zeros((2,) + grid32.shape))
    assert cfl_timestep(z, 1.0) == 1.0


def test_rk4_matches_taylor_polynomial():
    # one step of y' = lam y multiplies y by the degree-4 Taylor polynomial
    # of exp(lam dt); a wrong stage weight breaks it in every solver loop
    dt = 0.4
    lams = (-1.3, 0.8)
    y0 = (np.array([1.0, -2.0, 0.5]), np.array([[3.0], [-0.25]]))
    y1 = rk4(lambda c, y: tuple(lam * a for lam, a in zip(lams, y)), y0, dt)
    for lam, a0, a1 in zip(lams, y0, y1):
        z = lam * dt
        want = (1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24) * a0
        assert np.max(np.abs(a1 - want)) <= 1e-15 * np.max(np.abs(a0))


def test_rk4_stage_offsets():
    # y' = t: the stages must sit at c = 0, 1/2, 1/2, 1 for one step to
    # give exactly dt^2/2; flow_from_velocity picks its fields by c
    dt = 0.3
    y0 = (np.zeros(4), np.zeros((2, 3)))
    y1 = rk4(lambda c, y: tuple(np.full_like(a, c * dt) for a in y), y0, dt)
    for a in y1:
        assert np.max(np.abs(a - dt**2 / 2)) <= 1e-16


def test_rk4_sums_in_a_fixed_order_and_writes_no_slope():
    # the solver loops' outputs are pinned bitwise, so the step must keep
    # this order of operations; the slopes are read-only, so a write to
    # one (a k may be its stage input) raises
    dt = 0.3
    rng = np.random.default_rng(5)
    y0 = (rng.standard_normal(5),
          rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
    inputs, slopes = [], []

    def rhs(c, y):
        inputs.append((c, y))
        k = tuple(np.sin(a) * (1.0 + c) + a * a for a in y)
        for a in k:
            a.flags.writeable = False
        slopes.append(k)
        return k

    y1 = rk4(rhs, y0, dt)
    assert [c for c, _ in inputs] == [0.0, 0.5, 0.5, 1.0]
    assert inputs[0][1] is y0
    for (c, y), k in zip(inputs[1:], slopes):
        assert all(np.array_equal(a, p * (c * dt) + b)
                   for a, p, b in zip(y, k, y0))
    for i, a in enumerate(y1):
        k1, k2, k3, k4 = (k[i] for k in slopes)
        want = (((k2 * 2.0 + k1) + 2.0 * k3) + k4) * (dt / 6.0) + y0[i]
        assert np.array_equal(a, want)


def test_rk4_fixed_points(grid64):
    z = VectorField(grid64, np.zeros((2,) + grid64.shape))
    out = integrate(z, 0.1, 0.1).state
    assert np.max(np.abs(out.u.values)) == 0.0
    assert out.t == 0.1
    shear = EulerianState(0.0, steady_shear(grid64))
    out = integrate(shear.u, 0.1, 0.1).state
    assert np.max(np.abs(out.u.values - shear.u.values)) < 1e-12


def test_rk4_local_order(grid64):
    # one dt step vs two dt/2 steps differ at O(dt^5); needs an O(1)
    # amplitude or the differences sink below rounding
    u0 = random_symplectic(grid64, seed=50, decay=1.0)
    u0 = scaled(u0, 2.0 / np.max(np.abs(u0.values)))
    errs = []
    for dt in (0.1, 0.05, 0.025):
        big = integrate(u0, dt, dt).state
        half = integrate(u0, dt, dt / 2).state
        errs.append(np.max(np.abs(big.u.values - half.u.values)))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(4.5 < p < 5.5 for p in orders)


def test_global_self_convergence(grid64):
    # the error at T falls 2^4-fold per halving of dt: successive
    # differences of the T = 0.5 states at 8, 16, 32 and 64 steps
    # (measured ratios 16.85 and 16.70)
    u0 = random_symplectic(grid64, seed=50, decay=1.0)
    u0 = scaled(u0, 1.0 / np.max(np.abs(u0.values)))
    ends = [integrate(u0, 0.5, 0.5 / n, diag_every=10**9).state.u.values
            for n in (8, 16, 32, 64)]
    diffs = [np.max(np.abs(a - b)) for a, b in zip(ends, ends[1:])]
    ratios = [a / b for a, b in zip(diffs, diffs[1:])]
    assert all(15.0 < r < 18.0 for r in ratios), ratios


# ---------------------------------------------------------------------------
# integrate


def test_integrate_zero_is_zero(grid32):
    z = VectorField(grid32, np.zeros((2,) + grid32.shape))
    res = integrate(z, 1.0, 0.25)
    assert np.max(np.abs(res.state.u.values)) == 0.0
    assert res.state.t == 1.0
    assert len(res.records) == 5


def test_conservation_laws(grid64):
    u0 = scaled(random_symplectic(grid64, seed=51, decay=1.0), 0.25)
    dt = cfl_timestep(u0, 0.5, cfl=0.25)
    res = integrate(u0, 0.5, dt, s=3.0)
    first, last = res.records[0], res.records[-1]
    assert abs(last.l2 - first.l2) < 1e-8 * first.l2
    hs0 = first.hs
    assert max(r.p_residual for r in res.records) < 1e-7 * hs0
    sdiv0 = max(first.sdiv_l2, 1e-300)
    assert abs(last.sdiv_l2 - first.sdiv_l2) < 1e-5 * sdiv0
    assert abs(last.sdiv_linf - first.sdiv_linf) < 1e-4 * max(
        first.sdiv_linf, 1e-300)


def test_scaling_symmetry(grid64):
    # u_lambda(t) = lambda u(lambda t) solves the same equation
    u0 = scaled(random_symplectic(grid64, seed=52, decay=1.0), 0.2)
    T, lam = 0.4, 2.0
    dt = 0.01
    base = integrate(u0, T, dt)
    fast = integrate(scaled(u0, lam), T / lam, dt / lam)
    assert rel_err(fast.state.u.values, lam * base.state.u.values) < 1e-7


def test_bkm_integral_monotone(grid64):
    u0 = scaled(random_symplectic(grid64, seed=53), 0.3)
    res = integrate(u0, 0.2, 0.02)
    vals = [r.bkm_integral for r in res.records]
    assert vals[0] == 0.0
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_trace_constant_advection(grid64):
    # constant velocity c: points move to x + cT exactly
    u = constant_field(grid64, 0, 0.5)
    pts = np.array([[1.0, 2.0, 3.0], [0.5, 1.5, 2.5]])
    res = integrate(u, 1.0, 0.1, trace_points=pts)
    expect = pts.copy()
    expect[0] += 0.5
    assert np.max(np.abs(res.trace[-1] - expect)) < 1e-10
    assert res.trace.shape == (11, 2, 3)


@pytest.mark.parametrize("grid", [GridSpec(n=1, points_per_axis=16),
                                  GridSpec(n=2, points_per_axis=8)],
                         ids=["2d-n16", "4d-n8"])
def test_trace_steady_shear(grid):
    # u = (A sin(xi_0 x_2), 0, ...) is steady and moves x_1 alone:
    # x_1 + A sin(xi_0 x_2) t, to rounding when the stage velocities are
    # the exact Fourier sum at off-grid points
    A, T = 0.5, 1.0
    pts = np.random.default_rng(60).uniform(0.0, grid.box_length,
                                            (grid.dim, 6))
    res = integrate(steady_shear(grid, A), T, 0.1, trace_points=pts)
    expect = pts.copy()
    expect[0] += A * np.sin(2.0 * np.pi * pts[1] / grid.box_length) * T
    assert np.max(np.abs(res.trace[-1] - expect)) < 1e-12


def test_iteration_layout(grid32):
    # a run yields steps + 1 fields: u0 first, its final state last
    u0 = scaled(random_symplectic(grid32, seed=54), 0.1)
    run = Integration(u0, 0.2, 0.05)
    fields = list(run)
    assert len(fields) == 5
    assert np.array_equal(fields[0].values, u0.values)
    assert np.array_equal(fields[-1].values, run.state.u.values)


def test_nan_aborts(grid32):
    u = constant_field(grid32, 0, 1.0)
    u.values[0, 0, 0] = np.nan
    with pytest.raises(DiscretizationFailure):
        integrate(u, 0.1, 0.05)


def test_norm_blowup_aborts(grid32):
    # huge amplitude + oversized step leaves the trustworthy regime
    u0 = scaled(random_symplectic(grid32, seed=55), 1e4)
    with pytest.raises(DiscretizationFailure):
        integrate(u0, 10.0, 0.5)


def test_hs_guard_runs_every_step(grid32):
    # a step far too large for the amplitude: H^s is 143x initial after
    # two steps and 2e28x after three, still finite. With no diagnostics
    # due, the guard must fire at that first step past 1e6 x initial, not
    # at the NaN after it
    u0 = random_symplectic(grid32, seed=55)
    u0 = scaled(u0, 1.5 / np.max(np.abs(u0.values)))
    hs = [sobolev_norm(VectorField(grid32, y[0]), 3.0)
          for y in physical_loop(u0, 1.5, 0.5)]
    first = next(i for i, h in enumerate(hs) if h > 1e6 * hs[0])
    assert 1 < first and np.isfinite(hs[first])
    with pytest.raises(DiscretizationFailure, match="H\\^s") as err:
        integrate(u0, 10.0, 0.5, diag_every=10**9)
    assert err.value.t == first * 0.5


@pytest.mark.parametrize("grid", [GridSpec(n=1, points_per_axis=64),
                                  GridSpec(n=1, points_per_axis=32,
                                           box_length=0.75),
                                  GridSpec(n=2, points_per_axis=16)],
                         ids=["2d", "2d-small-box", "4d"])
@pytest.mark.parametrize("option", ["plain", "trace"])
def test_integration_matches_physical_loop(grid, option):
    # the run steps the half spectrum; stepping the values instead must
    # agree to rounding, the traced positions included
    u0 = random_symplectic(grid, seed=58, decay=1.0)
    u0 = scaled(u0, 0.5 / np.max(np.abs(u0.values)))
    dt = cfl_timestep(u0, 1.0, 0.5)
    t_final = 4 * dt
    kwargs = {}
    if option == "trace":
        kwargs["trace_points"] = np.random.default_rng(59).uniform(
            0.0, grid.box_length, (grid.dim, 5))
    run = Integration(u0, t_final, dt, diag_every=10**9, **kwargs)
    fields = [u.values for u in run]
    want = physical_loop(u0, t_final, dt, **kwargs)
    assert len(fields) == len(want) == 5
    for got, y in zip(fields, want):
        assert rel_err(got, y[0]) < 1e-14
    if option == "trace":
        assert rel_err(run.trace, np.stack([y[1] for y in want])) < 1e-14
    # the run moved: agreement is not that of two unchanged fields
    assert rel_err(fields[-1], fields[0]) > 1e-3


# ---------------------------------------------------------------------------
# diagnostics CSV


def test_csv_round_trip(tmp_path, grid32):
    u0 = scaled(random_symplectic(grid32, seed=57), 0.2)
    path = tmp_path / "diag.csv"
    res = integrate(u0, 0.1, 0.05, csv_path=path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == DIAGNOSTIC_COLUMNS
    assert len(rows) == 1 + len(res.records)
    for row, rec in zip(rows[1:], res.records):
        for text, val in zip(row, rec):
            assert float(text) == float(val)   # repr round-trips exactly


def test_csv_write_helper(tmp_path):
    from sympeuler.eulerian import DiagnosticsRecord
    rec = DiagnosticsRecord(0.0, 1.0, 2.0, 3e-16, 0.5, 0.25, 0.1, 0.0)
    path = tmp_path / "one.csv"
    write_diagnostics_csv(path, [rec])
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(DIAGNOSTIC_COLUMNS)
    assert "3e-16" in text


def test_csv_writes_integer_cells_as_integers(tmp_path):
    from sympeuler.experiments import NonuniformRow
    path = tmp_path / "mixed.csv"
    write_diagnostics_csv(path, [(1, np.int64(2), 1.0, np.float64(3e-16))],
                          columns=("a", "b", "c", "d"))
    assert path.read_text().splitlines()[1] == "1,2,1.0,3e-16"
    write_diagnostics_csv(tmp_path / "nonuniform.csv",
                          [NonuniformRow(3, 0.5, 0.25, 0.1, 2.0, 1.0)],
                          columns=NonuniformRow._fields)
    assert (tmp_path / "nonuniform.csv").read_text().splitlines()[1] \
        == "3,0.5,0.25,0.1,2.0,1.0"


def test_output_files_follow_umask(tmp_path, grid32):
    # the atomic writer must not leave its temp file's private 0600 mode
    from sympeuler.eulerian import write_json
    from sympeuler.snapshots import write_snapshot
    old = os.umask(0o027)
    try:
        write_diagnostics_csv(tmp_path / "diag.csv", [(0.0, 1.0)],
                              columns=("t", "l2"))
        write_snapshot(tmp_path / "u.snap", constant_field(grid32, 0, 1.0))
        write_json(tmp_path / "c.json", {"C1": 1.0})
    finally:
        os.umask(old)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["c.json", "diag.csv", "u.snap"]   # no temp files left
    for name in names:
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~0o027


# ---------------------------------------------------------------------------
# package surface


def test_every_public_name_resolves():
    for info in pkgutil.iter_modules(sympeuler.__path__):
        module = importlib.import_module(f"sympeuler.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"sympeuler.{info.name}.{name}"


# module.name -> why it stays exported although no other module of the
# package uses it
EXPORTS_WITHOUT_PACKAGE_USE = {
    "spectral.spectral_upsample":
        "oracle of the interpolator build; a perfbench trace layer",
    "eulerian.eulerian_rhs": "compositional oracle of the fused kernel",
    "eulerian.fast_rhs": "the fused kernel's entry; a perfbench trace layer",
    "lagrangian.geodesic_rhs": "the geodesic field; a perfbench trace layer",
    "experiments.exp_via_flow": "solved by perfbench's flow_probe",
    "snapshots.read_snapshot": "reads the files write_snapshot writes",
    "snapshots.SnapshotError": "the typed error of read_snapshot",
    "acceptance.CriterionResult": "element type of run_criteria's result",
    "eulerian.DiagnosticsRecord": "element type of Integration.records",
    "lagrangian.GeodesicState": "result type of geodesic_integrate",
    "experiments.NonuniformConfig": "input type of run_nonuniform",
    "experiments.NonuniformReport": "result type of run_nonuniform",
    "operators.project_symplectic":
        "a paper operator, the L2-orthogonal projection onto symplectic "
        "fields; checked by tests/test_operators.py",
}


def _exports_without_package_use() -> list[str]:
    """module.name of each __all__ entry that no other module names in
    code: an ast.Name or an attribute, so neither a comment, a string nor
    an import counts. The package root is audited too, so an __all__
    that re-exports names fails here."""
    trees = {p.stem: ast.parse(p.read_text())
             for p in Path(sympeuler.__file__).parent.glob("*.py")}
    used = {module: {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(tree)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            for module, tree in trees.items()}
    unused = []
    for module in sorted(trees):
        dotted = "sympeuler" + ("" if module == "__init__" else f".{module}")
        for name in getattr(importlib.import_module(dotted), "__all__", ()):
            if not any(name in names for other, names in used.items()
                       if other != module):
                unused.append(f"{module}.{name}")
    return unused


def test_every_export_is_used_by_the_package_or_allowed():
    unused = set(_exports_without_package_use())
    allowed = set(EXPORTS_WITHOUT_PACKAGE_USE)
    assert sorted(unused - allowed) == []   # exports only tests use
    assert sorted(allowed - unused) == []   # stale: used now, or gone
