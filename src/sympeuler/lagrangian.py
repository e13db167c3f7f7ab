"""Flow maps on the periodic box and the geodesic form of the equations.

A map is stored as identity-plus-displacement; composition and inversion
work through periodic interpolation (spectral upsampling, then quintic
B-splines), built from the half spectrum a field caches, so a field
that a kernel returned as a spectrum is never transformed back to values
to be composed. The geodesic vector field on (map, velocity) pairs is
(v, B(v o phi^{-1}) o phi). The solve carries phi^{-1} as a third
component psi, transported by psi_t + (D psi) u = 0, instead of
inverting phi at every stage; invert serves the callers that need the
inverse of a finished map. The geodesic field, and the reconstruction
of a flow map from Eulerian velocity samples, step through eulerian.rk4,
the stepper of the Eulerian integrator, so the two formulations are
integrated by the same arithmetic. The reconstruction takes the samples
as an Eulerian run yields them, keeping the spectra of at most four, and
steps at 4*dt, or 2*dt over a remainder of two intervals: the middle
sample is the exact RK4 midpoint, and only an odd last interval needs a
midpoint interpolated in time.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Iterable

import numpy as np

from .eulerian import _check_finite, fast_force, rk4, step_count
from .fields import ScalarField, VectorField
from .grids import GridSpec
from .interp import PeriodicInterpolator
from .operators import jacobian, symplectic_matrix

__all__ = [
    "DiffeoMap",
    "GeodesicState",
    "InversionError",
    "compose",
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

    def positions(self) -> np.ndarray:
        """Image points (dim, *shape), not wrapped."""
        return self.grid.coordinate_stack() + self.displacement.values

    def jacobian_matrix(self) -> np.ndarray:
        """d phi = I + d(displacement), shape (dim, dim, *shape)."""
        d = self.grid.dim
        J = jacobian(self.displacement)
        J[np.arange(d), np.arange(d)] += 1.0
        return J


def _max_spectral_norm(J: np.ndarray) -> float:
    """Max over grid points of the spectral norm of a (d, d, *shape) field."""
    stack = np.moveaxis(J.reshape(J.shape[:2] + (-1,)), -1, 0)  # (points, d, d)
    return float(np.linalg.svd(stack, compute_uv=False)[:, 0].max())


@dataclasses.dataclass
class GeodesicState:
    t: float
    phi: DiffeoMap
    v: VectorField
    psi: DiffeoMap


def compose(f: ScalarField | VectorField, phi: DiffeoMap):
    """f o phi by periodic interpolation of f.rhat; exact for constant f."""
    values = PeriodicInterpolator(phi.grid, f.rhat)(phi.positions())
    return type(f)(f.grid, values)


def _apply(A: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pointwise matrix-vector product of (d, d, *shape) and (d, *shape)."""
    return np.einsum("ij...,j...->i...", A, w)


_INVERT_TOL = 1e-10     # max-norm change of psi between sweeps at convergence
_INVERT_MAX_ITER = 200
_FLOW_STRIDE = 4        # sample intervals per flow_from_velocity step


def invert(phi: DiffeoMap) -> DiffeoMap:
    """Fixed-point inversion psi_{k+1} = -displacement o (id + psi_k).

    The iteration starts from the Taylor start -d + J d, with d the
    displacement and J its gradient, and stops when a sweep changes psi by
    less than _INVERT_TOL in the max norm.
    """
    J = jacobian(phi.displacement)
    # the pointwise Frobenius norm bounds the spectral norm from above, so
    # the SVD is needed only where that bound does not already settle it
    if np.sqrt(np.max(np.sum(J * J, axis=(0, 1)))) >= 1.0:
        contraction = _max_spectral_norm(J)
        if contraction >= 1.0:
            raise InversionError(
                f"displacement gradient norm {contraction:.3f} >= 1")
    grid = phi.grid
    coords = grid.coordinate_stack()
    interp = PeriodicInterpolator(grid, phi.displacement.rhat)
    d = phi.displacement.values
    psi = _apply(J, d) - d
    for _ in range(_INVERT_MAX_ITER):
        new = -interp(coords + psi)
        update = float(np.max(np.abs(new - psi)))
        psi = new
        if update < _INVERT_TOL:
            return DiffeoMap(grid, VectorField(grid, psi))
    raise InversionError(
        f"no convergence after {_INVERT_MAX_ITER} iterations")


def symplectic_residual(phi: DiffeoMap) -> float:
    """L^2 norm over the box of (d phi)^T . omega . (d phi) - omega."""
    grid = phi.grid
    G = phi.jacobian_matrix()
    omega = symplectic_matrix(grid.n)
    R = np.einsum("ki...,kl,lj...->ij...", G, omega, G)
    R -= omega.reshape(omega.shape + (1,) * grid.dim)
    return float(np.sqrt(np.sum(R * R) * grid.cell_volume))


def geodesic_rhs(phi: DiffeoMap, v: VectorField, psi: DiffeoMap,
                 cutoff_radius: float = 1.0
                 ) -> tuple[VectorField, VectorField, VectorField]:
    """(d phi/dt, dv/dt, d psi/dt) = (v, B(u) o phi, -(D psi) u), u = v o psi.

    psi stands for phi^{-1}; its transport equation holds for any u, so
    the Eulerian velocity needs no inversion of phi.
    """
    u = compose(v, psi)
    force = fast_force(u, cutoff_radius)
    dpsi = -(u.values + _apply(jacobian(psi.displacement), u.values))
    return v, compose(force, phi), VectorField(phi.grid, dpsi)


def geodesic_integrate(u0: VectorField, t_final: float, dt: float,
                       cutoff_radius: float = 1.0) -> GeodesicState:
    """RK4 on the coupled (phi, v, psi) system from (id, u0, id).

    psi = phi^{-1} is carried as a third component, so no stage inverts
    its map; invert(phi) of the result agrees with psi to the
    discretization error.
    """
    grid = u0.grid
    steps = step_count(t_final, dt)

    def unpack(y):
        phi, v, psi = y
        return (DiffeoMap(grid, VectorField(grid, phi)), VectorField(grid, v),
                DiffeoMap(grid, VectorField(grid, psi)))

    def rhs(c, y):
        return tuple(f.values
                     for f in geodesic_rhs(*unpack(y), cutoff_radius))

    zero = np.zeros((grid.dim,) + grid.shape)
    y = (zero, u0.values, zero)
    for step in range(1, steps + 1):
        y = rk4(rhs, y, dt)
        _check_finite(step * dt, y, "geodesic state")
    return GeodesicState(steps * dt, *unpack(y))


def exp_map(u0: VectorField, dt: float = 0.01,
            cutoff_radius: float = 1.0) -> DiffeoMap:
    """Time-1 geodesic flow map from the identity with velocity u0."""
    return geodesic_integrate(u0, 1.0, dt, cutoff_radius).phi


def _lagrange_weights(frac: np.ndarray, stencil: int) -> np.ndarray:
    """Weights of shape (*frac.shape, stencil) for nodes 0..stencil-1: the
    product over m of factors (frac - m) / (j - m), 1 where m = j."""
    nodes = np.arange(stencil)
    off = ~np.eye(stencil, dtype=bool)
    gaps = np.where(off, nodes[:, None] - nodes, 1)           # j - m
    factors = (frac[..., None, None] - nodes) / gaps
    return np.where(off, factors, 1.0).prod(axis=-1)


def flow_from_velocity(velocities: Iterable[VectorField],
                       dt: float) -> DiffeoMap:
    """Integrates phi_t = u(t) o phi from velocity samples as they arrive.

    The i-th sample is u at t = i*dt; any iterable serves, an Integration
    run included. Only the half spectra (rhat) of at most four samples
    are kept, and a sample's values are never read. The
    flow is smooth in time, so it steps at 4*dt over groups of four
    intervals, whose middle sample is the exact RK4 midpoint: stage c=0
    takes sample i, c=1/2 sample i+2 and c=1 sample i+4. A remainder of
    two intervals takes one 2*dt step the same way, an odd one ends with
    a dt step whose midpoint is cubic in time through the last (up to)
    four samples. On a flow_probe member (N=128, displacement 0.065),
    against samples every dt/4, strides 2, 4 and 8 erred by 8.9e-15,
    1.3e-13 and 2.6e-13: 4 stays two orders below the spline floor.
    """
    samples = iter(velocities)
    first = next(samples, None)
    if first is None:
        raise ValueError("need at least two velocity samples")
    grid = first.grid
    coords = grid.coordinate_stack()
    recent = deque([first.rhat], maxlen=4)

    def spans():  # (midpoint, end, intervals) of each step, as its end arrives
        pending = 0
        for u in samples:
            recent.append(u.rhat)
            pending = (pending + 1) % _FLOW_STRIDE
            if not pending:
                yield recent[1], recent[3], _FLOW_STRIDE
        if pending >= 2:
            yield recent[-pending], recent[1 - pending], 2
        if pending % 2:
            w = _lagrange_weights(np.asarray(len(recent) - 1.5), len(recent))
            yield sum(wj * v for wj, v in zip(w, recent)), recent[-1], 1

    y, steps = (coords,), 0
    fields = {0.0: PeriodicInterpolator(grid, recent[0])}
    for mid, end, span in spans():
        steps += span
        fields[0.5] = PeriodicInterpolator(grid, mid)
        fields[1.0] = PeriodicInterpolator(grid, end)
        # the stage offset picks the field: start, midpoint or end
        y = rk4(lambda c, y: (fields[c](y[0]),), y, span * dt)
        _check_finite(steps * dt, y, "flow map")
        # the end field carries over; the other two are freed before the
        # next samples are computed and their interpolators built
        fields = {0.0: fields[1.0]}
    if steps == 0:
        raise ValueError("need at least two velocity samples")
    return DiffeoMap(grid, VectorField(grid, y[0] - coords))
