"""Reproducible initial data: seeded random fields, shears, bumps.

Randomness comes from numpy's PCG64 via default_rng(seed); identical
seeds give bit-identical fields. Random spectra decay like
exp(-decay * |xi| / xi_0) with xi_0 = 2*pi/L the fundamental frequency,
so `decay` is box-size independent; everything is truncated to the
dealiased band and mean-free.

Bump fields and their gradients are evaluated analytically in physical
space so their compact support is exact at grid points (a spectrally
differentiated bump would leak ~1e-3 outside the ball at experiment
resolutions).
"""

from __future__ import annotations

import functools

import numpy as np

from .fields import ScalarField, SkewMatrixField, VectorField
from .grids import GridSpec
from .operators import symplectic_gradient
from .spectral import _xi_magnitude, dealias_mask, sobolev_norm

__all__ = [
    "random_potential",
    "random_symplectic",
    "random_vector",
    "random_skew",
    "steady_shear",
    "constant_field",
    "trig_potential",
    "bump",
    "bump_symplectic",
    "scale_to_sobolev",
]


@functools.lru_cache(maxsize=16)
def _random_filter(grid: GridSpec, decay: float) -> np.ndarray:
    """exp(-decay |xi| / xi_0) on the dealiased rfftn half lattice, mean-free."""
    xi0 = 2.0 * np.pi / grid.box_length
    filt = np.exp(-decay * _xi_magnitude(grid) / xi0)
    filt *= dealias_mask(grid)
    filt.flat[0] = 0.0
    return filt


def _random_scalar_values(grid: GridSpec, rng: np.random.Generator,
                          decay: float) -> np.ndarray:
    noise = rng.standard_normal(grid.shape)
    hat = np.fft.rfftn(noise) * _random_filter(grid, decay)
    return np.fft.irfftn(hat, s=grid.shape, axes=tuple(range(grid.dim)))


def random_potential(grid: GridSpec, seed: int, decay: float = 0.5,
                     s: float = 0.0, norm: float = 1.0) -> ScalarField:
    rng = np.random.default_rng(seed)
    f = ScalarField(grid, _random_scalar_values(grid, rng, decay))
    return scale_to_sobolev(f, s, norm)


def random_symplectic(grid: GridSpec, seed: int, decay: float = 0.5,
                      s: float = 3.0, norm: float = 1.0) -> VectorField:
    """Symplectic gradient of a random potential, H^s-normalized."""
    rng = np.random.default_rng(seed)
    H = ScalarField(grid, _random_scalar_values(grid, rng, decay))
    return scale_to_sobolev(symplectic_gradient(H), s, norm)


def random_vector(grid: GridSpec, seed: int, decay: float = 0.5,
                  s: float = 0.0, norm: float = 1.0) -> VectorField:
    """Independent random components; generically not symplectic."""
    rng = np.random.default_rng(seed)
    vals = np.stack([_random_scalar_values(grid, rng, decay)
                     for _ in range(grid.dim)])
    return scale_to_sobolev(VectorField(grid, vals), s, norm)


def random_skew(grid: GridSpec, seed: int, decay: float = 0.5
                ) -> SkewMatrixField:
    rng = np.random.default_rng(seed)
    d = grid.dim
    vals = np.zeros((d, d) + grid.shape)
    for i in range(d):
        for j in range(i + 1, d):
            entry = _random_scalar_values(grid, rng, decay)
            vals[i, j] = entry
            vals[j, i] = -entry
    return SkewMatrixField(grid, vals)


def steady_shear(grid: GridSpec, amplitude: float = 1.0) -> VectorField:
    """u = (A sin(xi_0 x_2), 0, ...); a fixed point of the dynamics."""
    vals = np.zeros((grid.dim,) + grid.shape)
    x2 = grid.coordinate_arrays()[1]
    vals[0] = amplitude * np.sin(2.0 * np.pi * x2 / grid.box_length)
    return VectorField(grid, vals)


def constant_field(grid: GridSpec, direction: int, magnitude: float = 1.0
                   ) -> VectorField:
    vals = np.zeros((grid.dim,) + grid.shape)
    vals[direction] = magnitude
    return VectorField(grid, vals)


def trig_potential(grid: GridSpec, terms=None) -> ScalarField:
    """Sum of sin(mode . x * 2*pi/L + phase) terms.

    terms: iterable of dicts with keys amplitude, mode (len-dim ints),
    phase; defaults to the diagonal mode (1, 1, ..., 1).
    """
    if terms is None:
        terms = [{"amplitude": 1.0, "mode": [1] * grid.dim, "phase": 0.0}]
    coords = grid.coordinate_arrays()
    xi0 = 2.0 * np.pi / grid.box_length
    vals = np.zeros(grid.shape)
    for term in terms:
        mode = np.asarray(term["mode"], dtype=float)
        phase = float(term.get("phase", 0.0))
        arg = sum(xi0 * mode[k] * coords[k] for k in range(grid.dim))
        vals = vals + float(term.get("amplitude", 1.0)) * np.sin(arg + phase)
    return ScalarField(grid, vals)


def _bump_support(grid: GridSpec, center, radius: float):
    """Checks the radius once; returns the minimal-image offsets x_k -
    center_k per axis (sparse), the mask q < 1 with q = |x-center|/radius,
    and q^2 - 1 inside it (-1 outside, so 1/(q^2-1) stays finite)."""
    if not 0 < radius < grid.box_length / 4:
        raise ValueError("radius must lie in (0, box_length/4)")
    L = grid.box_length
    offsets = [(x - float(center[k]) + 0.5 * L) % L - 0.5 * L
               for k, x in enumerate(grid.coordinate_arrays())]
    q2 = sum(dx * dx for dx in offsets) / radius**2
    inside = q2 < 1.0
    return offsets, inside, np.where(inside, q2 - 1.0, -1.0)


def bump(grid: GridSpec, center, radius: float, amplitude: float = 1.0
         ) -> ScalarField:
    """C^infinity bump A*exp(1/(q^2-1)), q = |x-center|/radius; exactly
    zero at grid points with q >= 1."""
    _, inside, safe = _bump_support(grid, center, radius)
    vals = np.where(inside, amplitude * np.exp(1.0 / safe), 0.0)
    return ScalarField(grid, vals)


def _bump_gradient_values(grid: GridSpec, center, radius: float,
                          amplitude: float) -> np.ndarray:
    """Analytic gradient of bump(); same exact support."""
    offsets, inside, safe = _bump_support(grid, center, radius)
    # d/dx_j A e^{1/(q^2-1)} = -2 A e^{1/(q^2-1)} dx_j / (r^2 (q^2-1)^2)
    common = np.where(inside,
                      -2.0 * amplitude * np.exp(1.0 / safe) / (radius**2 * safe**2),
                      0.0)
    grad = np.zeros((grid.dim,) + grid.shape)
    for j in range(grid.dim):
        grad[j] = common * offsets[j]
    return grad


def bump_symplectic(grid: GridSpec, center, radius: float,
                    amplitude: float = 1.0) -> VectorField:
    """Symplectic gradient of a bump, computed analytically so the
    support is exactly the closed ball."""
    grad = _bump_gradient_values(grid, center, radius, amplitude)
    vals = np.empty_like(grad)
    for a in range(grid.n):
        vals[2 * a] = grad[2 * a + 1]
        vals[2 * a + 1] = -grad[2 * a]
    return VectorField(grid, vals)


def scale_to_sobolev(f, s: float, target: float):
    """Rescales any field kind to sobolev_norm(f, s) == target."""
    current = sobolev_norm(f, s)
    if current == 0.0:
        raise ValueError("cannot normalize the zero field")
    return f * (target / current)
