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
as an Eulerian run yields them, keeping the spectra of at most four.
Each step spans an even number of intervals, so its middle sample is the
exact RK4 midpoint, and only an odd last interval needs a midpoint
interpolated in time. Steps start at 4*dt and double, up to 16*dt, while
the step's own stage slopes show a uniform flow: their spread, e = h
max(|k2 - k3|, |k1 - 2 k2 + k4|) / dx grid cells, must keep 8 e <= 1e-8.
A nearly rigid translation, such as the nonuniform experiment's probe
flows (e <= 2.1e-10), grows to 16*dt; a sheared or time-varying flow
(criterion 4, e >= 2.2e-5) stays at 4*dt, bit for bit as a fixed width.
"""

from __future__ import annotations

import dataclasses
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
_FLOW_STRIDE = 4        # sample intervals of flow_from_velocity's first step
_MAX_STRIDE = 16        # its widest step, reached by doubling
_GROWTH_TOL = 1e-8      # the width doubles while 8 e stays below this (cells)
# an odd last interval's midpoint, Lagrange in time through the tail's
# samples: one interval (2 samples, linear) or the last 4 (cubic)
_TAIL_WEIGHTS = {2: (0.5, 0.5), 4: (0.0625, -0.3125, 0.9375, 0.3125)}


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


def _flow_step(y: tuple, start: PeriodicInterpolator, mid: np.ndarray,
               end: np.ndarray, h: float):
    """One RK4 step of width h of the flow points y[0] through the start
    interpolator and the midpoint and end spectra.

    Returns the new points, the end interpolator, which starts the next
    step, and the step's indicator e = h max(|k2 - k3|, |k1 - 2 k2 +
    k4|) / dx in grid cells, read off the stage slopes k1..k4. The middle
    two and the slopes are freed on return, before the next samples are
    computed and their interpolators built.
    """
    grid = start.grid
    fields = {0.0: start, 0.5: PeriodicInterpolator(grid, mid),
              1.0: PeriodicInterpolator(grid, end)}
    slopes = []

    def rhs(c, y):  # the stage offset picks the field: start, midpoint or end
        slopes.append(fields[c](y[0]))
        return (slopes[-1],)

    y = rk4(rhs, y, h)
    k1, k2, k3, k4 = slopes
    variation = max(np.max(np.abs(k2 - k3)),
                    np.max(np.abs(k1 - 2.0 * k2 + k4)))
    return y, fields[1.0], h * float(variation) / grid.spacing


def flow_from_velocity(velocities: Iterable[VectorField],
                       dt: float) -> DiffeoMap:
    """Integrates phi_t = u(t) o phi from velocity samples as they arrive.

    The i-th sample is u at t = i*dt. velocities is a sized iterable, a
    list or an Integration run, read once: its length fixes the schedule
    before the first sample arrives. Only the half spectra (rhat) of a
    step's midpoint and end samples are kept, plus the last four for an
    odd tail, and a sample's values are never read.

    A step of even width w intervals takes sample i at stage c=0, i+w/2
    (the exact RK4 midpoint) at c=1/2 and i+w at c=1. Its width is
    min(width, remaining), less one when odd and above 1; an odd last
    interval is a dt step whose midpoint is cubic in time through the
    last (up to) four samples. width starts at _FLOW_STRIDE (4) and after
    each step doubles, up to _MAX_STRIDE (16), while 8 e <= _GROWTH_TOL
    (1e-8), e being the step's indicator (see _flow_step); otherwise it
    returns to 4. Both terms of e vanish for a uniform translation, which
    RK4 integrates exactly at any width: the first sees variation across
    the stage points, the second variation in time alone (for u = f(t) it
    is f0 - 2 f1/2 + f1). Both scale like h^3, so 8 e predicts the doubled
    step's e. Measured e: at most 2.1e-10 on the flow_probe members
    (seeds 1-3); at least 2.2e-5 on criterion 4's steps, 2.2e-4 on a 2D
    N=32 random run at 4*dt and 1.1e-3 on shears that grow in time, which
    all keep width 4. At a threshold of 1e-7 the p_w flow of the
    constants C3/C4 grew too far (C4 moved 2.6e-6 from a stride-2
    reference); at 1e-8 it moved 3.5e-8. At width 4, on a flow_probe
    member (N=128, displacement 0.065) against samples every dt/4,
    strides 2, 4 and 8 erred by 8.9e-15, 1.3e-13 and 2.6e-13.
    """
    try:
        intervals = len(velocities) - 1
    except TypeError:
        raise TypeError("flow_from_velocity needs the sample count up "
                        "front: pass a sized iterable (one with a length), "
                        "such as a list or an Integration run") from None
    if intervals < 1:
        raise ValueError("need at least two velocity samples")
    # an odd tail's cubic midpoint reads samples tail_from..intervals
    tail_from = max(intervals - 3, 0) if intervals % 2 else intervals + 1
    samples, read, tail = iter(velocities), -1, []

    def sample(index):  # sample `index`, read in order
        nonlocal read
        for u in samples:
            read += 1
            if read >= tail_from:
                tail.append(u.rhat)
            if read == index:
                return u
        raise ValueError(f"velocities yielded {read + 1} samples, "
                         f"not its length {intervals + 1}")

    def spectra(done, span):  # midpoint and end spectra of a step
        if span > 1:
            return sample(done + span // 2).rhat, sample(done + span).rhat
        end = sample(intervals).rhat
        return sum(w * v for w, v in zip(_TAIL_WEIGHTS[len(tail)], tail)), end

    first = sample(0)
    grid = first.grid
    coords = grid.coordinate_stack()
    start = PeriodicInterpolator(grid, first.rhat)
    y, done, width = (coords,), 0, _FLOW_STRIDE
    while done < intervals:
        span = min(width, intervals - done)
        if span > 1:
            span -= span % 2
        y, start, e = _flow_step(y, start, *spectra(done, span), span * dt)
        done += span
        _check_finite(done * dt, y, "flow map")
        width = (min(2 * width, _MAX_STRIDE) if 8.0 * e <= _GROWTH_TOL
                 else _FLOW_STRIDE)
    return DiffeoMap(grid, VectorField(grid, y[0] - coords))
