"""Flow maps on the periodic box and the geodesic form of the equations.

A map is stored as identity-plus-displacement; composition and inversion
work through periodic interpolation. The geodesic vector field on
(map, velocity) pairs is (v, B(v o phi^{-1}) o phi), integrated with the
same RK4 as the Eulerian side so the two formulations can be compared
step-for-step.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .eulerian import DiscretizationFailure, fast_force, step_count
from .fields import ScalarField, VectorField
from .grids import GridSpec
from .interp import PeriodicInterpolator
from .operators import jacobian, symplectic_matrix

__all__ = [
    "DiffeoMap",
    "GeodesicState",
    "InversionError",
    "compose",
    "compose_maps",
    "invert",
    "symplectic_residual",
    "geodesic_rhs",
    "geodesic_integrate",
    "exp_map",
    "flow_from_velocity",
]


class InversionError(RuntimeError):
    """Map too far from the identity for the fixed-point inversion."""


@dataclasses.dataclass(eq=False)
class DiffeoMap:
    """x -> x + displacement(x), taken modulo the box."""

    grid: GridSpec
    displacement: VectorField

    @classmethod
    def identity(cls, grid: GridSpec) -> "DiffeoMap":
        return cls(grid, VectorField(grid, np.zeros((grid.dim,) + grid.shape)))

    @classmethod
    def translation(cls, grid: GridSpec, shift) -> "DiffeoMap":
        vals = np.zeros((grid.dim,) + grid.shape)
        for k, a in enumerate(np.asarray(shift, dtype=float)):
            vals[k] = a
        return cls(grid, VectorField(grid, vals))

    def positions(self) -> np.ndarray:
        """Image points (dim, *shape), not wrapped."""
        coords = np.stack(np.broadcast_arrays(*self.grid.coordinate_arrays()))
        return coords + self.displacement.values

    def jacobian_matrix(self) -> np.ndarray:
        """d phi = I + d(displacement), shape (dim, dim, *shape)."""
        d = self.grid.dim
        J = jacobian(self.displacement)
        J[np.arange(d), np.arange(d)] += 1.0
        return J

    def displacement_gradient_norm(self) -> float:
        """Max over grid points of the spectral norm of d(displacement)."""
        J = jacobian(self.displacement)
        stack = np.moveaxis(J.reshape(J.shape[:2] + (-1,)), -1, 0)
        return float(np.linalg.svd(stack, compute_uv=False)[:, 0].max())

    def det_jacobian(self) -> np.ndarray:
        J = self.jacobian_matrix()
        stack = np.moveaxis(J.reshape(J.shape[:2] + (-1,)), -1, 0)
        return np.linalg.det(stack).reshape(self.grid.shape)


@dataclasses.dataclass
class GeodesicState:
    t: float
    phi: DiffeoMap
    v: VectorField


def compose(f: ScalarField | VectorField, phi: DiffeoMap):
    """f o phi by periodic interpolation; exact for constant f."""
    pts = phi.positions() % phi.grid.box_length
    values = PeriodicInterpolator(phi.grid, f.values)(pts)
    return type(f)(f.grid, values)


def compose_maps(outer: DiffeoMap, inner: DiffeoMap) -> DiffeoMap:
    """(outer o inner)(x) = inner(x) + displacement_outer(inner(x))."""
    warped = compose(outer.displacement, inner)
    return DiffeoMap(outer.grid, VectorField(
        outer.grid, inner.displacement.values + warped.values))


def invert(phi: DiffeoMap, tol: float = 1e-10, max_iter: int = 200) -> DiffeoMap:
    """Fixed-point inversion psi_{k+1} = -displacement o (id + psi_k)."""
    contraction = phi.displacement_gradient_norm()
    if contraction >= 1.0:
        raise InversionError(
            f"displacement gradient norm {contraction:.3f} >= 1")
    grid = phi.grid
    coords = np.stack(np.broadcast_arrays(*grid.coordinate_arrays()))
    interp = PeriodicInterpolator(grid, phi.displacement.values)
    psi = -phi.displacement.values
    for _ in range(max_iter):
        new = -interp((coords + psi) % grid.box_length)
        update = float(np.max(np.abs(new - psi)))
        psi = new
        if update < tol:
            return DiffeoMap(grid, VectorField(grid, psi))
    raise InversionError(f"no convergence after {max_iter} iterations")


def symplectic_residual(phi: DiffeoMap) -> float:
    """L^2 norm over the box of (d phi)^T . omega . (d phi) - omega."""
    grid = phi.grid
    G = phi.jacobian_matrix()
    omega = symplectic_matrix(grid.n)
    R = np.einsum("ki...,kl,lj...->ij...", G, omega, G)
    R -= omega.reshape(omega.shape + (1,) * grid.dim)
    return float(np.sqrt(np.sum(R * R) * grid.cell_volume))


def geodesic_rhs(phi: DiffeoMap, v: VectorField, cutoff_radius: float = 1.0
                 ) -> tuple[VectorField, VectorField]:
    """(d phi/dt, dv/dt) = (v, B(v o phi^{-1}) o phi)."""
    u = compose(v, invert(phi))
    force = fast_force(u, cutoff_radius)
    return v, compose(force, phi)


def geodesic_integrate(u0: VectorField, t_final: float, dt: float,
                       cutoff_radius: float = 1.0) -> GeodesicState:
    """RK4 on the coupled (phi, v) system from (id, u0)."""
    grid = u0.grid
    steps = step_count(t_final, dt)
    disp = np.zeros((grid.dim,) + grid.shape)
    v = u0.values.copy()

    def rhs(d_vals, v_vals):
        phi = DiffeoMap(grid, VectorField(grid, d_vals))
        dphi, dv = geodesic_rhs(phi, VectorField(grid, v_vals), cutoff_radius)
        return dphi.values, dv.values

    for step in range(1, steps + 1):
        a1, b1 = rhs(disp, v)
        a2, b2 = rhs(disp + 0.5 * dt * a1, v + 0.5 * dt * b1)
        a3, b3 = rhs(disp + 0.5 * dt * a2, v + 0.5 * dt * b2)
        a4, b4 = rhs(disp + dt * a3, v + dt * b3)
        disp = disp + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        v = v + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        if not (np.all(np.isfinite(disp)) and np.all(np.isfinite(v))):
            raise DiscretizationFailure(step * dt, "NaN/Inf in geodesic state")
    return GeodesicState(steps * dt,
                         DiffeoMap(grid, VectorField(grid, disp)),
                         VectorField(grid, v))


def exp_map(u0: VectorField, dt: float = 0.01,
            cutoff_radius: float = 1.0) -> DiffeoMap:
    """Time-1 geodesic flow map from the identity with velocity u0."""
    return geodesic_integrate(u0, 1.0, dt, cutoff_radius).phi


def _time_weights(tau: float, nodes: np.ndarray) -> np.ndarray:
    w = np.ones(len(nodes))
    for j in range(len(nodes)):
        for m in range(len(nodes)):
            if m != j:
                w[j] *= (tau - nodes[m]) / (nodes[j] - nodes[m])
    return w


def flow_from_velocity(velocities: list[VectorField], dt: float) -> DiffeoMap:
    """Integrates phi_t = u(t) o phi from stored velocity samples.

    velocities[i] is u at t = i*dt; mid-step values come from cubic
    temporal interpolation (one-sided at the ends), matching RK4's order.
    """
    if len(velocities) < 2:
        raise ValueError("need at least two velocity samples")
    grid = velocities[0].grid
    steps = len(velocities) - 1
    coords = np.stack(np.broadcast_arrays(*grid.coordinate_arrays()))
    pts = coords.copy()

    def interp_of(values) -> PeriodicInterpolator:
        return PeriodicInterpolator(grid, values)

    def half_field(i: int) -> np.ndarray:
        base = min(max(i - 1, 0), max(steps - 3, 0))
        nodes = np.arange(base, min(base + 4, steps + 1))
        w = _time_weights(i + 0.5, nodes.astype(float))
        return sum(w[j] * velocities[int(nodes[j])].values
                   for j in range(len(nodes)))

    cur = interp_of(velocities[0].values)
    for i in range(steps):
        mid = interp_of(half_field(i))
        nxt = interp_of(velocities[i + 1].values)
        L = grid.box_length
        k1 = cur(pts % L)
        k2 = mid((pts + 0.5 * dt * k1) % L)
        k3 = mid((pts + 0.5 * dt * k2) % L)
        k4 = nxt((pts + dt * k3) % L)
        pts = pts + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(pts)):
            raise DiscretizationFailure((i + 1) * dt, "NaN/Inf in flow map")
        cur = nxt
    return DiffeoMap(grid, VectorField(grid, pts - coords))
