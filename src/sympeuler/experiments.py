"""Scripted experiments and numerical probes.

Three families:

* a 2D Euler vorticity-stream oracle used to cross-check the n=1 solver
  (the two systems coincide there);
* bounded-constant probes for the Riesz commutator, the disjoint-support
  norm inequality, and the logarithmic multiplier estimate;
* the nonuniform-dependence experiment: shrinking symplectic bumps v_k
  around a point x_star plus a fixed probe direction w_star/k separate
  the time-1 flows by ~m_star/k while the initial distance is 1/k.

All constants in the experiment (C1..C5, m_star) are measured, never
asserted a priori, and kept in one dict: the probe phase's numbers live
only there, run_nonuniform reads them back from it, and the CLI writes it
as constants.json beside the rows' nonuniform.csv.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .eulerian import (
    DiscretizationFailure,
    Integration,
    cfl_timestep,
    dt_for_speed,
    integrate,
    max_speed,
    step_count,
)
from .fields import ScalarField, VectorField
from .grids import GridSpec
from .initial_conditions import (
    bump,
    bump_symplectic,
    constant_field,
    random_symplectic,
    random_vector,
    scale_to_sobolev,
    trig_potential,
)
from .lagrangian import (
    DiffeoMap,
    _max_spectral_norm,
    compose,
    flow_from_velocity,
    invert,
)
from .operators import (
    riesz_commutator_ratio,
    symplectic_divergence,
    symplectic_gradient,
)
from .spectral import (
    _half_derivative_symbols,
    _half_inverse_laplacian,
    dealias_band,
    dealias_mask,
    lebesgue_norms,
    riesz_transform,
    sobolev_norm,
    two_thirds_truncate,
)

__all__ = [
    "ResolutionGuardError",
    "ExperimentFailure",
    "oracle_2d_solve",
    "probe_report",
    "NonuniformConfig",
    "NonuniformRow",
    "NonuniformReport",
    "exp_via_flow",
    "build_nonuniform_config",
    "run_nonuniform",
]


class ResolutionGuardError(RuntimeError):
    """Requested scales cannot be resolved on the given grid."""


class ExperimentFailure(RuntimeError):
    """A measured quantity left the range the experiment's analysis needs."""


# ---------------------------------------------------------------------------
# 2D Euler oracle (n = 1)


def oracle_2d_solve(u0: VectorField, t_final: float, dt: float) -> VectorField:
    """Vorticity-stream pseudo-spectral 2D Euler; independent of the
    constraint-force code path, and stepped by its own RK4 loop rather
    than eulerian.rk4, so a fault there cannot hide in both.

    The vorticity zeta lives on the rfft half lattice. Each stage takes
    one batched inverse transform of (u1, u2, d1 zeta, d2 zeta), with u
    the symplectic gradient of Delta^{-1} zeta plus the conserved mean
    velocity, into buffers allocated once per call, and one rfft2 of
    u.grad(zeta). A NaN or Inf in zeta raises DiscretizationFailure.
    """
    grid = u0.grid
    if grid.n != 1:
        raise ValueError("oracle is specific to n=1 (two dimensions)")
    steps = step_count(t_final, dt)
    d1, d2 = _half_derivative_symbols(grid)
    inv_lap = _half_inverse_laplacian(grid)
    mask = dealias_mask(grid)
    mean = u0.values.mean(axis=(1, 2))
    # multipliers taking zeta to (u1, u2, d1 zeta, d2 zeta) without the mean
    symbols = np.stack(np.broadcast_arrays(-d2 * inv_lap, d1 * inv_lap, d1, d2))
    spec = np.empty(symbols.shape, dtype=complex)
    phys = np.empty((4,) + grid.shape)

    def fields(zeta_hat):
        np.multiply(symbols, zeta_hat, out=spec)
        # in place along the full axis, then the real half-axis pass:
        # irfft2 would allocate its complex intermediate on every stage
        np.fft.ifft(spec, axis=1, out=spec)
        np.fft.irfft(spec, n=grid.points_per_axis, axis=2, out=phys)
        phys[:2] += mean[:, None, None]
        return phys

    def rhs(zeta_hat):
        u1, u2, gz1, gz2 = fields(zeta_hat)
        return -np.fft.rfft2(u1 * gz1 + u2 * gz2) * mask

    u_hat = np.fft.rfft2(u0.values)
    zeta_hat = (d1 * u_hat[1] - d2 * u_hat[0]) * mask
    for step in range(1, steps + 1):
        k1 = rhs(zeta_hat)
        k2 = rhs(zeta_hat + 0.5 * dt * k1)
        k3 = rhs(zeta_hat + 0.5 * dt * k2)
        k4 = rhs(zeta_hat + dt * k3)
        zeta_hat = zeta_hat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(zeta_hat)):
            raise DiscretizationFailure(step * dt, "NaN/Inf in oracle vorticity")
    return VectorField(grid, fields(zeta_hat)[:2].copy())


# ---------------------------------------------------------------------------
# probes


def disjoint_support_probe(sigma: float, d: float, grid: GridSpec) -> float:
    """(||f||_{H^sigma} + ||g||_{H^sigma}) / ||f+g||_{H^sigma} for bumps
    of radius d/4 centered d apart."""
    if not 0 < d <= grid.box_length / 4:
        raise ValueError("d must lie in (0, box_length/4]")
    if d / 4 < 4 * grid.spacing:
        raise ResolutionGuardError(
            f"bump radius {d / 4:.4g} under 4 grid cells")
    center = np.full(grid.dim, grid.box_length / 2)
    p1, p2 = center.copy(), center.copy()
    p1[0] -= d / 2
    p2[0] += d / 2
    f = bump(grid, p1, d / 4)
    g = bump(grid, p2, d / 4)
    total = ScalarField(grid, f.values + g.values)
    return ((sobolev_norm(f, sigma) + sobolev_norm(g, sigma))
            / sobolev_norm(total, sigma))


def log_estimate_probe(f: ScalarField, s: float):
    """LHS and RHS ingredients of the logarithmic multiplier bound with
    T(D) = R_1 R_2; returns (lhs, (1, ||f||_L2, ||f||_Linf, ||f||_Linf *
    ln(1+||f||_{H^{s-1}})))."""
    tf = riesz_transform(riesz_transform(f, 0), 1)
    _, lhs = lebesgue_norms(tf)
    l2, linf = lebesgue_norms(f)
    hs1 = sobolev_norm(f, s - 1.0)
    return lhs, (1.0, l2, linf, linf * math.log1p(hs1))


def log_probe_family(grid: GridSpec, level: int) -> ScalarField:
    """sum_{j<=level} sin(2^j x_1) sin(2^j x_2) / j, scaled to the box.

    Diagonal modes keep the multiplier R_1 R_2 active (pure-x_1 waves
    lie in its kernel); the H^{s-1} norm grows like 4^level so the log
    term is exercised.
    """
    coords = grid.coordinate_arrays()
    xi0 = 2.0 * np.pi / grid.box_length
    vals = np.zeros(grid.shape)
    for j in range(1, level + 1):
        k = 2 ** j
        vals = vals + np.sin(k * xi0 * coords[0]) * np.sin(k * xi0 * coords[1]) / j
    return ScalarField(grid, vals)


def commutator_sweep(grid: GridSpec, s: float, seed: int,
                     wavenumbers) -> list[float]:
    """Commutator probe ratios for f = sin(k x_1), fixed random u."""
    u = random_symplectic(grid, seed=seed, decay=0.6, s=s, norm=1.0)
    xi0 = 2.0 * np.pi / grid.box_length
    x1 = grid.coordinate_arrays()[0]
    out = []
    for k in wavenumbers:
        f = ScalarField(grid, np.broadcast_to(
            np.sin(k * xi0 * x1), grid.shape).copy())
        out.append(riesz_commutator_ratio(u, f, axis=1, s=s))
    return out


def _prefix_stability(values) -> float:
    """max over the first half divided by max over the whole sweep."""
    values = list(values)
    half = max(values[: max(1, len(values) // 2)])
    full = max(values)
    return half / full


def probe_report(s: float = 3.0) -> dict:
    """Runs the three probe sweeps on the 2D N=128 grid; returns fitted
    constants and their half-sweep stability ratios (1.0 = perfectly
    stable)."""
    grid = GridSpec(n=1, points_per_axis=128)
    band = dealias_band(grid.points_per_axis)

    waves = list(range(1, band + 1, max(1, band // 16)))
    comm = commutator_sweep(grid, s, seed=2024, wavenumbers=waves)

    # wide box so the canonical sweep distances satisfy d <= L/4
    wide = GridSpec(n=1, points_per_axis=512, box_length=4.0 * np.pi)
    distances = [0.5, 1.0, 2.0]
    disjoint = [disjoint_support_probe(s, d, wide) for d in distances]

    max_level = int(math.floor(math.log2(band / math.sqrt(2.0))))
    log_rows = []
    for level in range(1, max_level + 1):
        lhs, terms = log_estimate_probe(log_probe_family(grid, level), s)
        log_rows.append(lhs / sum(terms))

    table = (("commutator", "wavenumbers", waves, comm),
             ("disjoint_support", "distances", distances, disjoint),
             ("log_estimate", "levels", list(range(1, max_level + 1)),
              log_rows))
    return {name: {"constant": max(sweep),
                   "stability": _prefix_stability(sweep),
                   "sweep": sweep, x_key: x_values}
            for name, x_key, x_values, sweep in table}


# ---------------------------------------------------------------------------
# nonuniform-dependence experiment


def _pointwise_norm(values: np.ndarray) -> np.ndarray:
    """|v(x)| at every grid point of stacked vector values."""
    return np.sqrt(np.einsum("i...,i...->...", values, values))


def exp_via_flow(u0: VectorField, dt: float) -> DiffeoMap:
    """Time-1 flow map of the Eulerian solution (equivalent to the
    geodesic exponential; much cheaper for repeated probing).

    flow_from_velocity steps the map by RK4 over an even number of
    intervals as the Eulerian run yields its samples, each middle one the
    exact midpoint; only an odd step count interpolates one in time. The
    width starts at 4*dt and doubles, up to 16*dt, while the step's stage
    slopes show a uniform flow (indicator e <= 1.25e-9 grid cells). The
    probe flows, a slow bump plus a constant boost, are nearly rigid
    translations (e <= 2.1e-10 on flow_probe's members) and grow to
    16*dt. The +- members of every pair measured took one schedule, so
    the odd part of the time error still cancels between them.

    Finite-difference probes of exp must pass a shared dt: integrator
    error is odd in a velocity boost, so it cancels between matched +eps
    and -eps runs but not between runs with independently chosen steps.
    """
    return flow_from_velocity(Integration(u0, 1.0, dt, diag_every=10**9), dt)


def find_probe_direction(u_star: VectorField, candidates, epsilon: float,
                         dt: float):
    """Central-difference directional derivative of exp at u_star, each
    exponential by exp_via_flow at the shared step dt; picks the candidate
    and point with the largest response.

    Returns (x_star, m_star, index). Responses within a relative
    1e-9 of the largest tie, and the first tied candidate wins, so
    rounding cannot pick the direction. The responses compare only if the
    candidates share one H^s norm, which is not checked here: the one
    caller, build_nonuniform_config, takes unit-H^s candidates from
    _candidate_builders.
    """
    grid = u_star.grid
    mags = []
    for w in candidates:
        plus = exp_via_flow(VectorField(grid, u_star.values + epsilon * w.values), dt)
        minus = exp_via_flow(VectorField(grid, u_star.values - epsilon * w.values), dt)
        delta = (plus.displacement.values - minus.displacement.values) / (2 * epsilon)
        mags.append(_pointwise_norm(delta))
    m = [float(mag.max()) for mag in mags]
    idx = next(i for i, mi in enumerate(m) if mi >= max(m) * (1.0 - 1e-9))
    m_star, mag = m[idx], mags[idx]
    if m_star < 1e-6:
        raise ExperimentFailure("all candidates gave derivative below 1e-6; "
                                "pick a different base point")
    # tie-break toward the box center (keeps experiment data central)
    coords = grid.coordinate_stack()
    tied = mag >= m_star * (1.0 - 1e-12)
    center = grid.box_length / 2.0
    dist2 = np.sum((coords - center) ** 2, axis=0)
    flat = int(np.argmin(np.where(tied, dist2, np.inf)))
    idx_nd = np.unravel_index(flat, grid.shape)
    x_star = np.array([grid.axis_coordinates[i] for i in idx_nd])
    return x_star, m_star, idx


@dataclasses.dataclass
class NonuniformConfig:
    u_star: VectorField
    w_star: VectorField
    constants: dict             # the probe phase's numbers; constants.json
    cfl: float                  # of every paired solve in run_nonuniform


class NonuniformRow(NamedTuple):
    k: int
    input_dist_hs: float
    output_gap_hs: float
    sdiv_gap_hsm1: float
    separation: float
    r_k: float


class NonuniformReport(NamedTuple):
    rows: list
    constants: dict


def _candidate_builders(s: float):
    """Unit-H^s candidate directions, buildable on any grid."""

    def const(direction):
        def build(grid):
            return scale_to_sobolev(constant_field(grid, direction), s, 1.0)
        return build

    def trig(grid):
        return scale_to_sobolev(symplectic_gradient(trig_potential(grid)),
                                s, 1.0)

    return [("constant_0", const(0)), ("constant_1", const(1)),
            ("trig_diag", trig)]


def _measure_constants(u_star: VectorField, R: float, s: float, seed: int,
                       w_star: VectorField, delta: VectorField,
                       dt: float) -> dict:
    """Empirical analogues of the composition/exponential constant chain
    on the radius-R ball around u_star; exponentials by exp_via_flow at
    the shared step dt."""
    grid = u_star.grid
    rng_seed = seed + 17

    center_map = exp_via_flow(u_star, dt)
    p_w = VectorField(grid, u_star.values + 0.5 * R * w_star.values)
    p_d = VectorField(grid, u_star.values + 0.5 * R * delta.values)
    map_w = exp_via_flow(p_w, dt)
    map_d = exp_via_flow(p_d, dt)

    # C2: Lipschitz constant of the flow maps themselves, the largest
    # spectral norm of d(phi) = I + d(disp)
    c2 = max(_max_spectral_norm(m.jacobian_matrix())
             for m in (center_map, map_w, map_d))

    # C1: norm equivalence under composition with phi^{-1}; the boosted
    # map is near a rigid translation, so include the deformed one too
    c1 = 1.0
    for phi in (map_w, map_d):
        inv = invert(phi)
        for probe_seed in (rng_seed + 1, rng_seed + 2):
            f = random_vector(grid, seed=probe_seed, decay=1.0, s=s, norm=1.0)
            composed = compose(f, inv)
            num = sobolev_norm(f, s - 1.0)
            den = sobolev_norm(composed, s - 1.0)
            c1 = max(c1, num / den, den / num)

    # C4: Lipschitz modulus of exp on the sampled pairs
    pairs = [(p_w, u_star, map_w, center_map), (p_d, u_star, map_d, center_map),
             (p_w, p_d, map_w, map_d)]
    c4 = 0.0
    for pa, pb, ma, mb in pairs:
        dmap = VectorField(grid, ma.displacement.values - mb.displacement.values)
        dvel = VectorField(grid, pa.values - pb.values)
        c4 = max(c4, sobolev_norm(dmap, s) / sobolev_norm(dvel, s))

    # C3: second derivative of exp along delta. exp is affine along a
    # constant boost (u(t, x - ct) + c flows to phi + c), so a second
    # difference along a constant w_star measures only integrator error;
    # a non-constant w_star would have to be sampled too
    eps = 0.25 * R
    plus = exp_via_flow(VectorField(grid, u_star.values + eps * delta.values), dt)
    minus = exp_via_flow(VectorField(grid, u_star.values - eps * delta.values), dt)
    second = (plus.displacement.values + minus.displacement.values
              - 2.0 * center_map.displacement.values) / eps**2
    c3 = sobolev_norm(VectorField(grid, second), s)

    # C5: embedding |w(x)| <= C5 ||w||_{H^s}, constants included
    c5 = 0.0
    for f in (w_star, delta,
              random_vector(grid, seed=rng_seed + 3, decay=1.0, s=s, norm=1.0)):
        c5 = max(c5, float(_pointwise_norm(f.values).max()) / sobolev_norm(f, s))

    return {"C1": float(c1), "C2": float(c2), "C3": float(c3),
            "C4": float(c4), "C5": float(c5)}


def build_nonuniform_config(grid: GridSpec | None = None,
                            s: float = 3.0, R: float = 0.5, K: int = 6,
                            seed: int = 7, epsilon: float = 0.05,
                            cfl: float = 0.7) -> NonuniformConfig:
    """Measures m_star, x_star and the constant chain on the probe grid
    (half the points per axis, same box), then assembles the main-grid
    configuration with the radius sequence r_k = m_star / (8 k C2) and its
    resolution guards."""
    if grid is None:
        grid = GridSpec(n=1, points_per_axis=256, box_length=0.75)
    probe_grid = GridSpec(n=grid.n, points_per_axis=grid.points_per_axis // 2,
                          box_length=grid.box_length)

    L = grid.box_length
    center = np.full(grid.dim, L / 2.0)
    base_radius = 0.22 * L

    def u_star_on(g: GridSpec) -> VectorField:
        # band-limit: frozen super-band modes would break the translation
        # equivariance of the dealiased dynamics at H^s-visible size
        raw = two_thirds_truncate(bump_symplectic(g, center, base_radius))
        return scale_to_sobolev(raw, s, 1.0)

    builders = _candidate_builders(s)
    probe_candidates = [b(probe_grid) for _, b in builders]
    u_star_probe = u_star_on(probe_grid)
    delta = random_symplectic(probe_grid, seed=seed + 17, decay=1.0, s=s,
                              norm=1.0)
    # one dt for every probe-phase solve; see exp_via_flow
    speed = max_speed(u_star_probe) + max(epsilon, 0.5 * R) * max(
        max_speed(f) for f in probe_candidates + [delta])
    probe_dt = dt_for_speed(probe_grid, speed, 1.0, cfl)

    x_star, m_star, idx = find_probe_direction(
        u_star_probe, probe_candidates, epsilon, probe_dt)
    w_star_probe = probe_candidates[idx]

    constants = _measure_constants(u_star_probe, R, s, seed, w_star_probe,
                                   delta, probe_dt)
    c3c5 = constants["C3"] * constants["C5"]
    r_used = min(R, m_star / (16.0 * c3c5)) if c3c5 > 0 else R

    radii = m_star / (8.0 * np.arange(1, K + 1) * constants["C2"])
    if radii[0] >= L / 4.0:
        raise ResolutionGuardError(
            f"r_1={radii[0]:.4g} exceeds box_length/4={L / 4:.4g}")
    if radii[-1] < 8.0 * grid.spacing:
        raise ResolutionGuardError(
            f"r_K={radii[-1]:.4g} spans under 8 grid cells "
            f"(spacing {grid.spacing:.4g})")

    w_star = builders[idx][1](grid)
    u_star = u_star_on(grid)
    constants.update({
        "m_star": float(m_star),
        # max|u*| and max|w*| on the main grid: a base speed far below the
        # probe's means the pairs probe the flow near the zero field
        "base_max_speed": float(_pointwise_norm(u_star.values).max()),
        "probe_max_speed": float(_pointwise_norm(w_star.values).max()),
        "x_star": [float(v) for v in x_star],
        "R": float(R),
        "R_used": float(r_used),
        "s": float(s),
        "K": int(K),
        "candidate": builders[idx][0],
        "radii": [float(r) for r in radii],
        "probe_points_per_axis": probe_grid.points_per_axis,
    })
    return NonuniformConfig(u_star=u_star, w_star=w_star, constants=constants,
                            cfl=cfl)


def run_nonuniform(config: NonuniformConfig,
                   progress=None) -> NonuniformReport:
    """Runs the K paired time-1 solves, one per radius in the constants,
    and returns the rows with the constants extended by the gap floor.

    Asserts the separation bracket m_star/(2k) <= |phi_tilde(x_star) -
    phi(x_star)| <= 3 m_star/k; everything else is recorded, not judged.
    """
    grid, c = config.u_star.grid, config.constants
    s, m_star = c["s"], c["m_star"]
    x_star = np.array(c["x_star"])
    pts = x_star.reshape(-1, 1)
    rows = []
    for k, r_k in enumerate(c["radii"], start=1):
        vk_raw = bump_symplectic(grid, x_star, r_k)
        v_k = scale_to_sobolev(vk_raw, s, c["R_used"] / 2.0)
        u0 = VectorField(grid, config.u_star.values + v_k.values)
        u0_tilde = VectorField(grid, u0.values + config.w_star.values / k)
        runs = []
        for w in (u0, u0_tilde):
            dt = cfl_timestep(w, 1.0, config.cfl)
            runs.append(integrate(w, 1.0, dt, diag_every=10 ** 9,
                                  trace_points=pts))
        base, tilde = runs
        input_dist = sobolev_norm(
            VectorField(grid, u0_tilde.values - u0.values), s)
        diff = VectorField(grid, tilde.state.u.values - base.state.u.values)
        output_gap = sobolev_norm(diff, s)
        sdiv_gap = sobolev_norm(
            ScalarField(grid, symplectic_divergence(tilde.state.u).values
                        - symplectic_divergence(base.state.u).values),
            s - 1.0)
        separation = float(np.linalg.norm(tilde.trace[-1] - base.trace[-1]))
        lower, upper = m_star / (2.0 * k), 3.0 * m_star / k
        if not lower <= separation <= upper:
            raise ExperimentFailure(
                f"k={k}: separation {separation:.6g} outside "
                f"[{lower:.6g}, {upper:.6g}]")
        rows.append(NonuniformRow(k, input_dist, output_gap, sdiv_gap,
                                  separation, r_k))
        if progress is not None:
            progress(rows[-1])
    constants = dict(c)
    gaps = [r.output_gap_hs for r in rows]
    constants["gap_floor"] = min(gaps)
    constants["gap_floor_over_k1"] = min(gaps) / gaps[0]
    constants["C_floor"] = constants["C1"] * constants["C4"]
    return NonuniformReport(rows, constants)
