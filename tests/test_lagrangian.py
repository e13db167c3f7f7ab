"""Flow maps and the geodesic formulation: composition, inversion, exp map."""

import weakref

import numpy as np
import pytest

from conftest import OneShot
import sympeuler.eulerian as eulerian
import sympeuler.lagrangian as lagrangian
from sympeuler.eulerian import DiscretizationFailure, Integration, integrate
from sympeuler.fields import ScalarField, VectorField
from sympeuler.grids import GridSpec
from sympeuler.initial_conditions import (
    bump_symplectic,
    constant_field,
    random_symplectic,
    scale_to_sobolev,
    steady_shear,
)
from sympeuler.interp import PeriodicInterpolator
from sympeuler.lagrangian import (
    DiffeoMap,
    InversionError,
    compose,
    exp_map,
    flow_from_velocity,
    geodesic_integrate,
    geodesic_rhs,
    invert,
    symplectic_residual,
)
from sympeuler.operators import constraint_force, symplectic_divergence
from sympeuler.spectral import lebesgue_norms, sobolev_norm, two_thirds_truncate


GRID = GridSpec(n=1, points_per_axis=128)
# geodesic marching composes twice per stage; small grid keeps it quick
GRID64 = GridSpec(n=1, points_per_axis=64)
GRID32 = GridSpec(n=1, points_per_axis=32)


def small_symplectic(grid, seed, amp=0.1):
    u = random_symplectic(grid, seed=seed, decay=1.0)
    return VectorField(grid, (amp / np.max(np.abs(u.values))) * u.values)


def translation(grid, shift):
    """The map x -> x + shift, a constant displacement."""
    vals = np.empty((grid.dim,) + grid.shape)
    vals[...] = np.reshape(shift, (-1,) + (1,) * grid.dim)
    return DiffeoMap(grid, VectorField(grid, vals))


def round_trip_gap(phi):
    """Max displacement of phi o invert(phi), composed as
    psi + displacement o (id + psi) for the inverse's displacement psi."""
    inv = invert(phi)
    both = inv.displacement.values + compose(phi.displacement, inv).values
    return np.max(np.abs(both))


# ---------------------------------------------------------------------------
# composition and inversion


def test_compose_with_identity():
    x1 = GRID.coordinate_arrays()[0]
    f = ScalarField(GRID, np.sin(x1) * np.ones(GRID.shape))
    out = compose(f, DiffeoMap.identity(GRID))
    assert np.max(np.abs(out.values - f.values)) < 1e-14


def test_compose_constant_exact():
    f = ScalarField(GRID, np.full(GRID.shape, 2.5))
    phi = translation(GRID, (0.3, -0.7))
    assert np.max(np.abs(compose(f, phi).values - 2.5)) < 1e-14


def test_compose_translation_closed_form():
    x1 = GRID.coordinate_arrays()[0]
    f = ScalarField(GRID, np.sin(x1) * np.ones(GRID.shape))
    a = 0.37
    out = compose(f, translation(GRID, (a, 0.0)))
    expect = np.sin(x1 + a) * np.ones(GRID.shape)
    assert np.max(np.abs(out.values - expect)) < 1e-9


def test_invert_identity_and_translation():
    inv = invert(DiffeoMap.identity(GRID))
    assert np.max(np.abs(inv.displacement.values)) < 1e-12
    inv = invert(translation(GRID, (0.4, 0.0)))
    assert np.max(np.abs(inv.displacement.values[0] + 0.4)) < 1e-10


def test_invert_round_trip():
    u = small_symplectic(GRID, seed=60, amp=0.2)
    assert round_trip_gap(DiffeoMap(GRID, u)) < 1e-8


def test_invert_rejects_large_displacement():
    x1 = GRID.coordinate_arrays()[0]
    vals = np.zeros((2,) + GRID.shape)
    vals[0] = 2.0 * np.sin(x1)   # gradient norm 2 > 1, not invertible this way
    phi = DiffeoMap(GRID, VectorField(GRID, vals))
    with pytest.raises(InversionError, match="gradient norm"):
        invert(phi)


def test_invert_accepts_frobenius_above_one_spectral_below():
    # d(disp) = 0.8 I at the origin: Frobenius norm 1.13, spectral norm 0.8
    x1, x2 = GRID64.coordinate_arrays()
    vals = np.stack(np.broadcast_arrays(0.8 * np.sin(x1), 0.8 * np.sin(x2)))
    assert round_trip_gap(DiffeoMap(GRID64, VectorField(GRID64, vals))) < 1e-8


def _counting_calls(monkeypatch):
    calls = [0]
    evaluate = PeriodicInterpolator.__call__

    def counting(self, points):
        calls[0] += 1
        return evaluate(self, points)

    monkeypatch.setattr(PeriodicInterpolator, "__call__", counting)
    return calls


# ---------------------------------------------------------------------------
# geodesic vector field


def test_geodesic_rhs_at_rest():
    z = VectorField(GRID, np.zeros((2,) + GRID.shape))
    identity = DiffeoMap.identity(GRID)
    dphi, dv, dpsi = geodesic_rhs(identity, z, identity)
    assert np.max(np.abs(dphi.values)) == 0.0
    assert np.max(np.abs(dv.values)) == 0.0
    assert np.max(np.abs(dpsi.values)) == 0.0


def test_geodesic_rhs_at_identity_is_constraint_force():
    v = small_symplectic(GRID, seed=61)
    identity = DiffeoMap.identity(GRID)
    dphi, dv, dpsi = geodesic_rhs(identity, v, identity)
    assert np.array_equal(dphi.values, v.values)
    # psi = id moves against the flow: d psi/dt = -v
    assert np.max(np.abs(dpsi.values + v.values)) < 1e-12
    expect = constraint_force(v)
    assert np.max(np.abs(dv.values - expect.values)) < 1e-9


def test_geodesic_rhs_shear_is_free():
    v = steady_shear(GRID)
    identity = DiffeoMap.identity(GRID)
    _, dv, _ = geodesic_rhs(identity, v, identity)
    assert np.max(np.abs(dv.values)) < 1e-12


# ---------------------------------------------------------------------------
# geodesic integration


def test_geodesic_zero_stays_identity():
    z = VectorField(GRID64, np.zeros((2,) + GRID64.shape))
    out = geodesic_integrate(z, 1.0, 0.25)
    assert np.max(np.abs(out.phi.displacement.values)) == 0.0
    assert np.max(np.abs(out.v.values)) == 0.0


def test_geodesic_shear_characteristics():
    # u = (A sin x2, 0) is a steady solution; phi moves along straight
    # lines x1 + t A sin x2 and v stays u0
    u0 = steady_shear(GRID64, amplitude=0.4)
    T = 0.5
    out = geodesic_integrate(u0, T, 0.1)
    x2 = GRID64.coordinate_arrays()[1]
    expect1 = T * 0.4 * np.sin(x2) * np.ones(GRID64.shape)
    assert np.max(np.abs(out.phi.displacement.values[0] - expect1)) < 1e-10
    assert np.max(np.abs(out.phi.displacement.values[1])) < 1e-10
    assert np.max(np.abs(out.v.values - u0.values)) < 1e-10
    # the inverse moves back along the same lines: x1 - t A sin x2
    assert np.max(np.abs(out.psi.displacement.values[0] + expect1)) < 1e-10
    assert np.max(np.abs(out.psi.displacement.values[1])) < 1e-10


def test_geodesic_solves_share_no_state(monkeypatch):
    # each solve starts psi at the identity and keeps nothing between
    # calls: a solve of B in between must not change a repeated solve of A
    # by a single bit, and every stage interpolates exactly twice (v o psi
    # and F o phi), on a grid no other test uses
    grid = GridSpec(n=1, points_per_axis=24)
    a = small_symplectic(grid, seed=68, amp=0.2)
    b = small_symplectic(grid, seed=69, amp=0.3)
    calls = _counting_calls(monkeypatch)
    first = geodesic_integrate(a, 0.2, 0.05)
    first_calls = calls[0]
    geodesic_integrate(b, 0.2, 0.05)
    calls[0] = 0
    again = geodesic_integrate(a, 0.2, 0.05)
    assert np.array_equal(first.phi.displacement.values,
                          again.phi.displacement.values)
    assert np.array_equal(first.v.values, again.v.values)
    assert np.array_equal(first.psi.displacement.values,
                          again.psi.displacement.values)
    assert calls[0] == first_calls == 2 * 4 * 4


def test_geodesic_psi_stays_inverse():
    # psi is transported, never inverted: at the end of the solve it must
    # still be invert(phi). Measured gap 6.6e-8, the RK4 time error (1.1e-6
    # at dt=0.1); with the sign of the (D psi) u term flipped it is 4.0e-2
    u0 = small_symplectic(GRID64, seed=62, amp=0.5)
    out = geodesic_integrate(u0, 0.5, 0.05)
    gap = out.psi.displacement.values - invert(out.phi).displacement.values
    assert np.max(np.abs(gap)) < 2e-7


def test_geodesic_rk4_self_convergence():
    # halving dt divides the gap between successive solutions by 2^4; the
    # gaps are 1.8e-7 and 1.2e-8, and the measured ratio is 15.9 (4.0 with
    # a wrong RK stage weight)
    u0 = small_symplectic(GRID32, seed=62, amp=0.5)
    states = [geodesic_integrate(u0, 0.5, dt) for dt in (0.1, 0.05, 0.025)]
    ys = [np.concatenate([s.phi.displacement.values.ravel(),
                          s.v.values.ravel()]) for s in states]
    gaps = [np.max(np.abs(ys[k] - ys[k + 1])) for k in range(2)]
    assert 15.0 < gaps[0] / gaps[1] < 17.0


def test_exp_of_zero_is_identity():
    z = VectorField(GRID64, np.zeros((2,) + GRID64.shape))
    assert np.max(np.abs(exp_map(z, dt=0.5).displacement.values)) == 0.0


def test_exp_first_order_near_identity():
    # exp(eps u) = id + eps u + O(eps^2)
    u = small_symplectic(GRID64, seed=62, amp=1.0)
    gaps = []
    for eps in (0.02, 0.01):
        phi = exp_map(VectorField(GRID64, eps * u.values), dt=0.1)
        gaps.append(np.max(np.abs(phi.displacement.values - eps * u.values)))
    assert gaps[0] < 0.02 * 0.1
    assert 3.0 < gaps[0] / gaps[1] < 5.0   # quadratic remainder


def test_exp_consistent_with_geodesic_flow():
    # exp(t u0) = geodesic flow at time t; with matched step counts the
    # quadratic homogeneity makes the two marches agree to rounding
    u0 = small_symplectic(GRID64, seed=63, amp=0.2)
    half = geodesic_integrate(u0, 0.5, 0.05)
    direct = exp_map(VectorField(GRID64, 0.5 * u0.values), dt=0.1)
    gap = half.phi.displacement.values - direct.displacement.values
    assert np.max(np.abs(gap)) < 1e-12


# ---------------------------------------------------------------------------
# flow map from velocity samples


def test_flow_of_zero_velocity():
    z = VectorField(GRID, np.zeros((2,) + GRID.shape))
    phi = flow_from_velocity([z] * 5, 0.1)
    assert np.max(np.abs(phi.displacement.values)) == 0.0


def test_flow_requires_two_samples():
    z = VectorField(GRID, np.zeros((2,) + GRID.shape))
    with pytest.raises(ValueError):
        flow_from_velocity([z], 0.1)


def test_flow_shear_characteristics():
    u = steady_shear(GRID, amplitude=0.3)
    T, dt = 0.5, 0.025
    phi = flow_from_velocity([u] * (int(round(T / dt)) + 1), dt)
    x2 = GRID.coordinate_arrays()[1]
    expect = T * 0.3 * np.sin(x2) * np.ones(GRID.shape)
    assert np.max(np.abs(phi.displacement.values[0] - expect)) < 1e-10
    assert np.max(np.abs(phi.displacement.values[1])) < 1e-12


def test_flow_pair_step_takes_the_middle_sample_as_midpoint():
    # one 2 dt step through samples (0, u, 0) of a steady shear: k1 = k4 = 0
    # and k2 = k3 = u, so x + (4/3) dt u; a midpoint interpolated between
    # the ends, or sample i+2 standing in for i+1, gives the identity
    u = steady_shear(GRID32, amplitude=0.3)
    z = VectorField(GRID32, np.zeros_like(u.values))
    dt = 0.05
    phi = flow_from_velocity([z, u, z], dt)
    # exact up to the interpolator's rounding at grid nodes (4e-16)
    gap = phi.displacement.values - (4.0 / 3.0) * dt * u.values
    assert np.max(np.abs(gap)) < 1e-14


def _time_shear(steps, t_final=1.0, amp=0.1):
    """Samples at t = i dt of u = amp f(t) sin(x2) e1, f(t) = exp(2t), and
    the flow's x1 displacement per unit integral of f, amp sin(x2)."""
    dt = t_final / steps
    profile = amp * np.sin(GRID32.coordinate_arrays()[1]) * np.ones(GRID32.shape)
    f = np.exp(2.0 * dt * np.arange(steps + 1))
    samples = [VectorField(GRID32, np.stack([fi * profile,
                                             np.zeros(GRID32.shape)]))
               for fi in f]
    return samples, dt, f, profile


def test_flow_pair_steps_converge_at_fourth_order():
    # x2 is frozen, so the flow integrates f: on step counts divisible by
    # four RK4 at 4 dt with exact midpoints is Simpson's rule, and its
    # error falls 16x per halving of dt (at 4 steps the first ratio is
    # still pre-asymptotic, 14.7)
    errors = []
    for steps in (8, 16, 32):
        samples, dt, _, profile = _time_shear(steps)
        phi = flow_from_velocity(samples, dt)
        exact = 0.5 * (np.exp(2.0) - 1.0) * profile
        errors.append(np.max(np.abs(phi.displacement.values[0] - exact)))
    ratios = [errors[k] / errors[k + 1] for k in range(2)]
    assert all(15.0 < r < 16.5 for r in ratios), ratios


@pytest.mark.parametrize("steps", [1, 3])
def test_flow_odd_tail_is_one_step_with_cubic_midpoint(steps):
    # pairs of intervals first, then one dt step whose midpoint sample is
    # cubic in time through the last four samples (linear for one interval)
    samples, dt, f, profile = _time_shear(steps)
    if steps == 1:
        pairs, tail_mid = 0.0, 0.5 * (f[0] + f[1])
    else:
        pairs = (2.0 * dt / 6.0) * (f[0] + 4.0 * f[1] + f[2])
        tail_mid = (f[0] - 5.0 * f[1] + 15.0 * f[2] + 5.0 * f[3]) / 16.0
    tail = (dt / 6.0) * (f[-2] + 4.0 * tail_mid + f[-1])
    phi = flow_from_velocity(samples, dt)
    gap = phi.displacement.values[0] - (pairs + tail) * profile
    assert np.max(np.abs(gap)) < 5e-15
    assert np.max(np.abs(phi.displacement.values[1])) == 0.0


@pytest.mark.parametrize("steps", [6, 7])
def test_flow_steps_four_intervals_then_the_remainder(steps):
    # one 4 dt step, Simpson's rule on samples 0, 2, 4; then a 2 dt step,
    # Simpson's rule on 4, 5, 6; a seventh interval is the dt tail whose
    # midpoint is cubic in time through samples 4 to 7
    samples, dt, f, profile = _time_shear(steps)
    expect = ((4.0 * dt / 6.0) * (f[0] + 4.0 * f[2] + f[4])
              + (2.0 * dt / 6.0) * (f[4] + 4.0 * f[5] + f[6]))
    if steps == 7:
        tail_mid = (f[4] - 5.0 * f[5] + 15.0 * f[6] + 5.0 * f[7]) / 16.0
        expect += (dt / 6.0) * (f[6] + 4.0 * tail_mid + f[7])
    phi = flow_from_velocity(samples, dt)
    gap = phi.displacement.values[0] - expect * profile
    assert np.max(np.abs(gap)) < 5e-15
    assert np.max(np.abs(phi.displacement.values[1])) == 0.0


def test_flow_time_error_against_four_times_denser_samples():
    # the flow of every fourth sample of one run (4 dt steps) against the
    # flow of all of them (dt/4 spacing, 256x less time error): the gap is
    # the 4 dt steps' time error, 1.8e-8 for a displacement of 0.15. A
    # midpoint taken from sample i+1 or i+3 instead of i+2 gives 4e-4
    T, dt = 0.5, 1.0 / 32.0
    dense = list(Integration(small_symplectic(GRID32, seed=72, amp=0.3), T,
                             dt / 4, diag_every=10 ** 9))
    coarse = flow_from_velocity(dense[::4], dt).displacement.values
    fine = flow_from_velocity(dense, dt / 4).displacement.values
    assert np.max(np.abs(coarse - fine)) < 4e-8


@pytest.mark.parametrize("steps", [1, 3, 10, 11])
def test_streamed_flow_equals_flow_of_the_listed_run(steps):
    # stepping the flow between the run's steps changes no rounding
    u0 = small_symplectic(GRID32, seed=69, amp=0.3)
    dt = 0.5 / steps
    streamed = flow_from_velocity(Integration(u0, 0.5, dt), dt)
    listed = flow_from_velocity(list(Integration(u0, 0.5, dt)), dt)
    assert np.array_equal(streamed.displacement.values,
                          listed.displacement.values)


def _peak_live_samples(steps, dt=0.01):
    """Most yielded velocity spectra (rhat, which the flow keeps) alive at
    once while the flow is stepped from a run."""
    u0 = small_symplectic(GRID32, seed=70)
    refs, peak = [], 0

    def watched():
        nonlocal peak
        for u in Integration(u0, steps * dt, dt, diag_every=10 ** 9):
            refs.append(weakref.ref(u.rhat))
            peak = max(peak, sum(r() is not None for r in refs))
            yield u

    flow_from_velocity(OneShot(watched(), steps + 1), dt)
    return peak


def test_streamed_flow_keeps_a_bounded_number_of_samples():
    # a record of the run would keep steps + 1 samples
    assert _peak_live_samples(40) <= _peak_live_samples(10) <= 8


def test_flow_needs_the_sample_count():
    # the schedule is fixed by the sample count, so a plain generator,
    # which has no length, is refused before a sample is read
    z = VectorField(GRID32, np.zeros((2,) + GRID32.shape))
    read = []

    def unsized():
        for _ in range(5):
            read.append(1)
            yield z

    with pytest.raises(TypeError, match="length"):
        flow_from_velocity(unsized(), 0.1)
    assert read == []
    phi = flow_from_velocity(OneShot(unsized(), 5), 0.1)
    assert np.max(np.abs(phi.displacement.values)) == 0.0


def _widths(monkeypatch, samples, dt):
    """The flow of the samples and its step widths in intervals, read off
    the step sizes rk4 is called with."""
    real, widths = lagrangian.rk4, []

    def recording(rhs, y, h):
        widths.append(round(h / dt))
        return real(rhs, y, h)

    with monkeypatch.context() as m:
        m.setattr(lagrangian, "rk4", recording)
        return flow_from_velocity(samples, dt).displacement.values, widths


def _at_width_four(monkeypatch, samples, dt):
    """The flow of the samples with the width held at 4 intervals."""
    with monkeypatch.context() as m:
        m.setattr(lagrangian, "_MAX_STRIDE", 4)
        return flow_from_velocity(samples, dt).displacement.values


def test_uniform_velocity_grows_only_while_steady(monkeypatch):
    # u = c f(t), the same at every point: the stage points see no spatial
    # variation (k2 = k3), so only the indicator's time term, f0 - 2 f1/2
    # + f1, tells a steady translation, which RK4 integrates exactly at
    # any width and which grows to 16, from one that speeds up, f = e^2t,
    # which keeps width 4, bit for bit the fixed-width flow
    c = np.array([0.3, -0.2])[:, None, None] * np.ones((2,) + GRID32.shape)
    steps, dt = 40, 0.025
    steady = [VectorField(GRID32, c)] * (steps + 1)
    disp, widths = _widths(monkeypatch, steady, dt)
    assert widths == [4, 8, 16, 12]
    assert np.max(np.abs(disp - steps * dt * c)) < 1e-15
    speeding = [VectorField(GRID32, np.exp(2.0 * i * dt) * c)
                for i in range(steps + 1)]
    disp, widths = _widths(monkeypatch, speeding, dt)
    assert widths == [4] * 10
    assert np.array_equal(disp, _at_width_four(monkeypatch, speeding, dt))


def test_sheared_flows_keep_width_four(monkeypatch):
    # a shear that grows in time, and criterion 4's random symplectic run
    # on a smaller grid: the indicator reads 1e-3 or more, far above the
    # growth bound, so every step is 4 intervals (2 over the remainder),
    # bit for bit the fixed-width flow
    time_shear, shear_dt, _, _ = _time_shear(32)
    grid = GridSpec(n=1, points_per_axis=32)
    u = random_symplectic(grid, seed=21, decay=0.75)
    u0 = VectorField(grid, (0.3 / np.max(np.abs(u.values))) * u.values)
    dt = eulerian.dt_for_speed(grid, 0.3, 0.5, 0.25)
    run = list(Integration(u0, 0.5, dt, diag_every=10 ** 9))
    for samples, step in ((time_shear, shear_dt), (run, dt)):
        disp, widths = _widths(monkeypatch, samples, step)
        intervals = len(samples) - 1
        assert widths == [4] * (intervals // 4) + [2] * (intervals % 4 // 2) \
            + [1] * (intervals % 2)
        assert np.array_equal(disp, _at_width_four(monkeypatch, samples, step))


def _probe_pair(grid, amplitude):
    """u* +- eps w as in the nonuniform experiment's probe phase: a
    band-limited bump of H^s norm `amplitude` and a unit-H^s boost w."""
    L = grid.box_length
    u_star = scale_to_sobolev(two_thirds_truncate(
        bump_symplectic(grid, np.full(grid.dim, L / 2), 0.22 * L)), 3.0,
        amplitude)
    w = scale_to_sobolev(constant_field(grid, 0), 3.0, 1.0)
    return [VectorField(grid, u_star.values + sign * 0.05 * w.values)
            for sign in (1.0, -1.0)], u_star, w


def test_probe_pair_members_share_their_schedule(monkeypatch):
    # each member is nearly a rigid translation. A unit bump at the probe
    # phase's own step (CFL 0.7 with boosts to R/2 = 0.25: 21 steps at
    # N=32) stays at 4 intervals; a bump of H^s norm 0.1 over 164 steps
    # grows to 16. Either way the two members take one schedule, so the
    # odd part of the time error still cancels in their difference, and
    # each flow stays within 1e-12 of its displacement from the width-4
    # flow
    grid = GridSpec(n=1, points_per_axis=32, box_length=0.75)
    for amplitude, steps, grows in ((1.0, None, False), (0.1, 164, True)):
        members, u_star, w = _probe_pair(grid, amplitude)
        if steps is None:
            speed = eulerian.max_speed(u_star) + 0.25 * eulerian.max_speed(w)
            dt = eulerian.dt_for_speed(grid, speed, 1.0, 0.7)
        else:
            dt = 1.0 / steps
        schedules = []
        for u0 in members:
            disp, widths = _widths(
                monkeypatch, Integration(u0, 1.0, dt, diag_every=10 ** 9), dt)
            schedules.append(widths)
            fixed = _at_width_four(
                monkeypatch, Integration(u0, 1.0, dt, diag_every=10 ** 9), dt)
            assert np.max(np.abs(disp - fixed)) < \
                1e-12 * np.max(np.abs(fixed))
        assert schedules[0] == schedules[1]
        assert (16 in schedules[0]) == grows


def test_streamed_flow_raises_the_run_guard(monkeypatch):
    # a NaN from the third step on stops the flow with the run's failure
    real, calls = eulerian.fast_rhs, []

    def poisoned(u, cutoff_radius):
        calls.append(1)
        out = real(u, cutoff_radius)
        if len(calls) > 8:
            out.rhat[0, 0, 0] = np.nan  # the run steps the spectrum
        return out

    monkeypatch.setattr(eulerian, "fast_rhs", poisoned)
    run = Integration(small_symplectic(GRID32, seed=71), 0.5, 0.05)
    with pytest.raises(DiscretizationFailure, match=r"t=0\.15: NaN"):
        flow_from_velocity(run, 0.05)
    assert run.state.t == 0.1


def test_flow_of_solution_is_volume_preserving():
    # divergence-free velocity history: det(d phi) = 1 along the flow
    u0 = small_symplectic(GRID, seed=64, amp=0.3)
    phi = flow_from_velocity(Integration(u0, 0.25, 0.0125), 0.0125)
    J = np.moveaxis(phi.jacobian_matrix(), (0, 1), (-2, -1))
    det = np.linalg.det(J)
    assert np.all(det > 0.0)
    assert np.max(np.abs(det - 1.0)) < 1e-6


def test_symplectic_residual_trivial_maps():
    assert symplectic_residual(DiffeoMap.identity(GRID)) < 1e-14
    assert symplectic_residual(
        translation(GRID, (0.7, -0.2))) < 1e-12


def test_solution_flow_is_symplectic():
    u0 = small_symplectic(GRID, seed=65, amp=0.3)
    phi = flow_from_velocity(Integration(u0, 0.25, 0.0125), 0.0125)
    assert symplectic_residual(phi) < 1e-6


def test_noether_charge_transported():
    # sdiv(u(t)) o phi(t) = sdiv(u0): the symplectic divergence is
    # carried along particle paths for solutions on the manifold
    u0 = small_symplectic(GRID, seed=66, amp=0.3)
    T, dt = 0.25, 0.0125
    res = Integration(u0, T, dt)
    phi = flow_from_velocity(res, dt)
    zeta_t = symplectic_divergence(res.state.u)
    pulled = compose(zeta_t, phi)
    zeta_0 = symplectic_divergence(u0)
    gap, _ = lebesgue_norms(
        ScalarField(zeta_0.grid, pulled.values - zeta_0.values))
    base, _ = lebesgue_norms(zeta_0)
    assert gap < 1e-3 * base


def test_geodesic_matches_eulerian_velocity():
    # v o phi^{-1} from the geodesic side reproduces the Eulerian solution
    u0 = small_symplectic(GRID64, seed=67, amp=0.2)
    T = 0.25
    lag = geodesic_integrate(u0, T, 0.025)
    eul = integrate(u0, T, 0.025)
    u_lag = compose(lag.v, invert(lag.phi))
    gap = sobolev_norm(
        VectorField(GRID64, u_lag.values - eul.state.u.values), 0.0)
    assert gap < 1e-6 * max(sobolev_norm(u0, 0.0), 1e-300)
