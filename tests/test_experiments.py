"""Probes, the 2D oracle, and the nonuniform-continuity experiment."""

import math
import types

import numpy as np
import pytest

from conftest import rel_err
from sympeuler import experiments
from sympeuler.eulerian import DiscretizationFailure, cfl_timestep, integrate
from sympeuler.experiments import (
    ResolutionGuardError,
    build_nonuniform_config,
    commutator_sweep,
    disjoint_support_probe,
    exp_via_flow,
    find_probe_direction,
    log_estimate_probe,
    log_probe_family,
    oracle_2d_solve,
    run_nonuniform,
)
from sympeuler.fields import ScalarField, VectorField
from sympeuler.grids import GridSpec
from sympeuler.initial_conditions import (
    bump,
    bump_symplectic,
    constant_field,
    random_symplectic,
    scale_to_sobolev,
    steady_shear,
)
from sympeuler.lagrangian import DiffeoMap
from sympeuler.operators import symplectic_divergence
from sympeuler.spectral import (
    _frequencies,
    partial_derivative,
    sobolev_norm,
    two_thirds_truncate,
)

BOX = GridSpec(n=1, points_per_axis=48, box_length=0.75)


def unit_constant(grid):
    return scale_to_sobolev(constant_field(grid, 0), 3.0, 1.0)


def bump_base(grid, center):
    raw = two_thirds_truncate(bump_symplectic(grid, center, 0.16))
    return scale_to_sobolev(raw, 3.0, 1.0)


# ---------------------------------------------------------------------------
# bump potential


def test_bump_center_value(grid64):
    f = bump(grid64, (np.pi, np.pi), 1.0)
    assert f.values[32, 32] == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_bump_vanishes_outside_support(grid64):
    f = bump(grid64, (np.pi, np.pi), 1.0)
    x1, x2 = grid64.coordinate_arrays()
    r2 = (x1 - np.pi) ** 2 + (x2 - np.pi) ** 2
    assert np.all(f.values[r2 >= 1.0] == 0.0)


def test_bump_reflection_symmetry(grid64):
    # centered on a grid point, the bump is even in each axis
    f = bump(grid64, (np.pi, np.pi), 1.2).values
    for axis in (0, 1):
        g = np.roll(f, -32, axis=axis)
        mirrored = np.roll(np.flip(g, axis=axis), 1, axis=axis)
        assert np.max(np.abs(g - mirrored)) < 1e-15


def test_bump_radius_guard(grid64):
    with pytest.raises(ValueError):
        bump(grid64, (np.pi, np.pi), grid64.box_length / 4)


# ---------------------------------------------------------------------------
# 2D Euler oracle


def test_oracle_keeps_shear_steady(grid64):
    u0 = steady_shear(grid64, amplitude=0.5)
    out = oracle_2d_solve(u0, 0.5, 0.05)
    assert np.max(np.abs(out.values - u0.values)) < 1e-10


def test_oracle_keeps_taylor_green_steady(grid64):
    # psi = sin x1 sin x2 has omega = -2 psi, so u.grad(omega) = 0
    x1, x2 = grid64.coordinate_arrays()
    vals = np.stack([np.sin(x1) * np.cos(x2), -np.cos(x1) * np.sin(x2)])
    u0 = VectorField(grid64, 0.3 * vals)
    out = oracle_2d_solve(u0, 0.5, 0.05)
    assert np.max(np.abs(out.values - u0.values)) < 1e-10


def test_oracle_zero(grid32):
    z = VectorField(grid32, np.zeros((2,) + grid32.shape))
    out = oracle_2d_solve(z, 0.2, 0.05)
    assert np.max(np.abs(out.values)) == 0.0


def test_oracle_rejects_higher_n(grid4d):
    u = VectorField(grid4d, np.zeros((4,) + grid4d.shape))
    with pytest.raises(ValueError):
        oracle_2d_solve(u, 0.1, 0.05)


def test_oracle_matches_constrained_solver():
    # on the symplectic manifold the dynamics is 2D Euler
    grid = GridSpec(n=1, points_per_axis=128)
    u0 = random_symplectic(grid, seed=3, decay=0.75)
    u0 = VectorField(grid, (0.4 / np.max(np.abs(u0.values))) * u0.values)
    dt = cfl_timestep(u0, 0.25, cfl=0.4)
    ours = integrate(u0, 0.25, dt).state.u
    ref = oracle_2d_solve(u0, 0.25, dt)
    assert rel_err(ours.values, ref.values) < 1e-10


def _shifted(grid, values, a):
    """values(x - a), by the Fourier shift theorem."""
    phase = sum(xi * a_j for xi, a_j in zip(_frequencies(grid), a))
    hat = np.fft.rfftn(values, axes=(-2, -1)) * np.exp(-1j * phase)
    return np.fft.irfftn(hat, s=grid.shape, axes=(-2, -1))


@pytest.mark.parametrize("solve", [
    lambda u0, t, dt: oracle_2d_solve(u0, t, dt),
    lambda u0, t, dt: integrate(u0, t, dt, diag_every=10 ** 9).state.u,
], ids=["oracle", "integrate"])
def test_boost_equivariance(solve):
    # a constant boost c maps a solution u(t, x) to u(t, x - c t) + c. On
    # the dealiased band products are alias-free, so the semi-discrete
    # system keeps the symmetry for any shift; what remains is RK4's error
    # on the extra advection by c. Measured 1.9e-8 (16x smaller per dt
    # halving). Dropping or flipping the oracle's mean velocity, flipping
    # the kernel's advection sign, or widening the band by one mode past
    # the 2/3 rule gave 6e-3 to 2 (the shift c T is no multiple of dx).
    grid = GridSpec(n=1, points_per_axis=32)
    u0 = random_symplectic(grid, seed=5, decay=0.3)
    u0 = VectorField(grid, (0.5 / np.max(np.abs(u0.values))) * u0.values)
    c = np.array([0.3, -0.2])[:, None, None]
    t_final, dt = 0.5, 0.01
    base = solve(u0, t_final, dt).values
    boosted = solve(VectorField(grid, u0.values + c), t_final, dt).values
    expected = _shifted(grid, base, c.ravel() * t_final) + c
    assert np.max(np.abs(boosted - expected)) < 1e-7 * np.max(np.abs(base))


def test_oracle_blow_up_is_a_discretization_failure(grid32):
    u0 = random_symplectic(grid32, seed=1, norm=1.0e8)
    with np.errstate(all="ignore"), pytest.raises(DiscretizationFailure) as info:
        oracle_2d_solve(u0, 1.0, 0.1)
    assert "oracle" in info.value.reason
    assert 0.0 < info.value.t <= 1.0


def _referenced_names(code: types.CodeType) -> set:
    names = set(code.co_names) | set(code.co_varnames) | set(code.co_freevars)
    for const in code.co_consts:
        if isinstance(const, str):
            names.add(const)
        elif isinstance(const, types.CodeType):
            names |= _referenced_names(const)
    return names


def test_oracle_shares_no_code_with_the_kernel():
    # the oracle checks the fused kernel, so it must not step or evaluate
    # through it: no RK4 stepper, kernel entry, kernel cache or buffers
    kernel_names = {"rk4", "fast_rhs", "fast_force", "_kernel", "_SkewKernel",
                    "_work_buffers", "_strips"}
    assert not _referenced_names(oracle_2d_solve.__code__) & kernel_names


def test_vorticity_is_minus_symplectic_divergence(grid64):
    for seed in range(2):
        u = random_symplectic(grid64, seed=900 + seed)
        curl = partial_derivative(ScalarField(grid64, u.values[1]), 0).values \
            - partial_derivative(ScalarField(grid64, u.values[0]), 1).values
        zeta = symplectic_divergence(u)
        assert rel_err(zeta.values, -curl) < 1e-12


# ---------------------------------------------------------------------------
# probes


def test_disjoint_probe_l2_is_sqrt2():
    # additivity of squared norms needs sigma = 0; physical-space
    # disjointness says nothing about H^sigma cross terms
    grid = GridSpec(n=1, points_per_axis=256)
    r = disjoint_support_probe(0.0, 1.0, grid)
    assert abs(r - math.sqrt(2.0)) < 1e-12


def test_disjoint_probe_distance_stability():
    grid = GridSpec(n=1, points_per_axis=256)
    vals = [disjoint_support_probe(3.0, d, grid) for d in (0.8, 1.2, 1.5)]
    assert max(vals) < 1.3 * min(vals)


def test_disjoint_probe_guards():
    grid = GridSpec(n=1, points_per_axis=256)
    with pytest.raises(ValueError):
        disjoint_support_probe(3.0, grid.box_length, grid)
    coarse = GridSpec(n=1, points_per_axis=16)
    with pytest.raises(ResolutionGuardError):
        disjoint_support_probe(3.0, 0.5, coarse)


def test_log_probe_zero_field(grid64):
    z = ScalarField(grid64, np.zeros(grid64.shape))
    lhs, rhs = log_estimate_probe(z, 3.0)
    assert lhs == 0.0
    assert rhs[1] == 0.0 and rhs[2] == 0.0 and rhs[3] == 0.0


def test_log_probe_single_diagonal_mode(grid64):
    # R1 R2 (sin x1 sin x2) = (1/2) cos x1 cos x2
    x1, x2 = grid64.coordinate_arrays()
    f = ScalarField(grid64, np.sin(x1) * np.sin(x2))
    lhs, rhs = log_estimate_probe(f, 3.0)
    assert lhs == pytest.approx(0.5, abs=1e-12)
    assert rhs[2] == pytest.approx(1.0, abs=1e-12)        # ||f||_Linf
    assert rhs[1] == pytest.approx(math.pi, rel=1e-12)    # ||f||_L2


def test_log_probe_family_levels(grid64):
    assert np.max(np.abs(log_probe_family(grid64, 0).values)) == 0.0
    f = log_probe_family(grid64, 2)
    lhs, rhs = log_estimate_probe(f, 3.0)
    assert 0.0 < lhs < rhs[2] * (1.0 + math.log1p(sobolev_norm(f, 2.0)))


def test_commutator_sweep_shape_and_bounds(grid64):
    out = commutator_sweep(grid64, 3.0, seed=5, wavenumbers=range(1, 11))
    assert len(out) == 10
    assert all(np.isfinite(v) and v >= 0.0 for v in out)
    assert max(out) < 10.0 * (sorted(out)[len(out) // 2] + 1e-12)


# ---------------------------------------------------------------------------
# exponential probes


def test_exp_via_flow_trivial_fields(grid32):
    z = VectorField(grid32, np.zeros((2,) + grid32.shape))
    assert np.max(np.abs(exp_via_flow(z, dt=0.1).displacement.values)) == 0.0
    c = constant_field(grid32, 1, 0.3)
    phi = exp_via_flow(c, dt=0.1)
    assert np.max(np.abs(phi.displacement.values[1] - 0.3)) < 1e-12
    assert np.max(np.abs(phi.displacement.values[0])) < 1e-12


def test_probe_direction_at_rest_recovers_candidate_max():
    # exp is the identity plus eps*w at first order, so the strongest
    # response is the candidate's largest pointwise speed
    cands = [unit_constant(BOX)]
    z = VectorField(BOX, np.zeros((2,) + BOX.shape))
    x_star, m_star, idx = find_probe_direction(z, cands, 0.05, dt=0.05)
    w = cands[idx]
    mag = np.sqrt(np.einsum("i...,i...->...", w.values, w.values))
    assert m_star == pytest.approx(float(mag.max()), rel=1e-10)
    # constant direction ties everywhere; tie-break lands on the center
    assert np.allclose(x_star, BOX.box_length / 2.0)


@pytest.mark.parametrize("lead, want", [(0.0, 0), (2e-10, 0), (1e-6, 1)],
                         ids=["equal", "within-tie", "ahead"])
def test_probe_direction_tie_rule(monkeypatch, lead, want):
    # exp replaced by the identity plus the velocity: a candidate's
    # response is its own max speed, so the second one leads by `lead`;
    # a lead under the relative tie of 1e-9 leaves the first candidate
    monkeypatch.setattr(experiments, "exp_via_flow",
                        lambda u, dt: DiffeoMap(u.grid, u))
    base = unit_constant(BOX)
    cands = [base, VectorField(BOX, (1.0 + lead) * base.values[::-1])]
    z = VectorField(BOX, np.zeros((2,) + BOX.shape))
    _, m_star, idx = find_probe_direction(z, cands, 0.05, dt=0.05)
    assert idx == want
    speed = float(np.max(np.abs(base.values)))
    assert m_star == pytest.approx(speed * (1.0 + (lead if want else 0.0)),
                                   rel=1e-13)


def test_probe_direction_translation_equivariance():
    # shifting the base state by grid cells shifts x_star and keeps m_star
    cands = [unit_constant(BOX)]
    center = np.full(2, 0.375)
    shift = 5 * BOX.spacing
    u1 = bump_base(BOX, center)
    u2 = bump_base(BOX, center + np.array([shift, 0.0]))
    x1, m1, _ = find_probe_direction(u1, cands, 0.05, dt=0.05)
    x2, m2, _ = find_probe_direction(u2, cands, 0.05, dt=0.05)
    assert abs(m1 - m2) < 1e-12 * m1
    assert np.allclose(x2, (x1 + np.array([shift, 0.0])) % BOX.box_length,
                       atol=1e-12)


def test_probe_direction_epsilon_refinement():
    # central differences: halving eps shrinks the derivative estimate's
    # error by at least the second-order factor
    cands = [unit_constant(BOX)]
    u = bump_base(BOX, np.full(2, 0.375))
    ms = [find_probe_direction(u, cands, eps, dt=0.05)[1]
          for eps in (0.1, 0.05, 0.025)]
    d1, d2 = abs(ms[0] - ms[1]), abs(ms[1] - ms[2])
    assert d1 < 1e-5
    assert d2 < d1 / 4.0


# ---------------------------------------------------------------------------
# nonuniform experiment


def test_nonuniform_single_stage():
    grid = GridSpec(n=1, points_per_axis=96, box_length=0.75)
    cfg = build_nonuniform_config(grid=grid, K=1, seed=7)
    m_star, r_1 = cfg.constants["m_star"], cfg.constants["radii"][0]
    assert 8.0 * grid.spacing <= r_1 < grid.box_length / 4.0
    rows, constants = run_nonuniform(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert abs(row.input_dist_hs - 1.0) < 1e-8      # ||w*/1||_{H^s} = 1
    assert row.output_gap_hs > 0.0
    # one bump (k = 1): the traced trajectories part by m* to 1e-7
    assert abs(row.separation / m_star - 1.0) <= 1e-7
    for key in ("C1", "C2", "C3", "C4", "C5", "m_star", "x_star", "R",
                "R_used", "gap_floor", "gap_floor_over_k1", "base_max_speed",
                "probe_max_speed"):
        assert key in constants
    speed = lambda u: np.max(np.hypot(u.values[0], u.values[1]))
    assert constants["base_max_speed"] == pytest.approx(speed(cfg.u_star))
    assert constants["probe_max_speed"] == pytest.approx(speed(cfg.w_star))
    # the constant probe direction: its speed is the measured m_star
    assert constants["probe_max_speed"] == pytest.approx(m_star, rel=1e-6)


def test_nonuniform_c3_does_not_depend_on_the_probe_step():
    # exp is smooth along the random direction delta, so its second
    # difference there holds still when the probe step halves; along a
    # constant boost exp is affine and the second difference would read
    # only integrator error. The chosen candidate is a rounding tie
    # between the two constant directions, so it is not compared.
    grid = GridSpec(n=1, points_per_axis=96, box_length=0.75)
    c3 = [build_nonuniform_config(grid=grid, K=1, seed=7, cfl=cfl)
          .constants["C3"] for cfl in (0.7, 0.35)]
    assert c3[1] == pytest.approx(c3[0], rel=1e-5)


def test_nonuniform_resolution_guard():
    grid = GridSpec(n=1, points_per_axis=48, box_length=0.75)
    with pytest.raises(ResolutionGuardError):
        build_nonuniform_config(grid=grid, K=6, seed=7)
