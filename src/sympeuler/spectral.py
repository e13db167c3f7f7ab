"""Fourier multiplier calculus, Sobolev norms and dealiasing.

Symbols live on the rfftn half lattice, which holds a real field's
Hermitian spectrum in full: k in [-N/2, N/2) in FFT order on the leading
axes and the first N/2 + 1 of those on the last, whose unpaired Nyquist
column keeps fftfreq's -N/2 (not rfftfreq's +N/2). Each is built once
per grid and cached. Under the e^{-i x.xi} forward convention, with
xi = 2*pi*k/box_length, d/dx_j is multiplication by i*xi_j. For even N
the unpaired Nyquist row is zeroed inside odd (derivative-type)
multipliers; this keeps differentiation real and exactly antisymmetric
and is invisible on the 2/3-dealiased band where products live. Every
symbol is even or odd in each frequency, so it maps Hermitian
coefficients to Hermitian ones. A multiplier is one batched rfftn of the
field's independent components, the product, one batched irfftn.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fields import SkewMatrixField
from .grids import GridSpec

__all__ = [
    "dealias_band",
    "dealias_mask",
    "two_thirds_truncate",
    "partial_derivative",
    "inverse_laplacian",
    "riesz_transform",
    "ball_cutoff_mask",
    "sobolev_norm",
    "lebesgue_norms",
    "l2_inner",
    "spectral_upsample",
]


# ---------------------------------------------------------------------------
# the half lattice and its symbols


def _half_shape(grid: GridSpec) -> tuple[int, ...]:
    """Shape of a real field's rfftn spectrum: the last axis keeps N/2 + 1."""
    return grid.shape[:-1] + (grid.points_per_axis // 2 + 1,)


def _wavenumbers(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Integer k_j, one broadcastable array per axis; the last axis keeps
    fftfreq's first N/2 + 1 entries, so its Nyquist is -N/2."""
    N = grid.points_per_axis
    k = np.fft.fftfreq(N, d=1.0 / N)
    axes = [k] * (grid.dim - 1) + [k[: _half_shape(grid)[-1]]]
    return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))


@functools.lru_cache(maxsize=64)
def _frequencies(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Angular frequencies xi_j = 2*pi*k_j/box_length."""
    return tuple(k * (2.0 * np.pi / grid.box_length)
                 for k in _wavenumbers(grid))


@functools.lru_cache(maxsize=64)
def _half_derivative_symbols(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """i*xi_j per axis, with the Nyquist row zeroed (even N)."""
    nyquist = -(grid.points_per_axis // 2) * (2.0 * np.pi / grid.box_length)
    return tuple(1j * np.where(xi == nyquist, 0.0, xi)
                 for xi in _frequencies(grid))


def _half_derivative(grid: GridSpec, axis: int) -> np.ndarray:
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis must be in [0, {grid.dim})")
    return _half_derivative_symbols(grid)[axis]


def dealias_band(points_per_axis: int) -> int:
    """Largest retained |k| per axis under the 2/3 rule.

    K = (N - 1) // 3 guarantees N - 2K > K, so pointwise products of two
    retained fields are alias-free on the retained band.
    """
    return (points_per_axis - 1) // 3


@functools.lru_cache(maxsize=64)
def dealias_mask(grid: GridSpec) -> np.ndarray:
    """2/3-rule mask on the rfftn half lattice: True where every
    |k_j| <= dealias_band(N)."""
    band = dealias_band(grid.points_per_axis)
    return functools.reduce(np.logical_and,
                            [np.abs(k) <= band for k in _wavenumbers(grid)])


@functools.lru_cache(maxsize=64)
def _xi_squared(grid: GridSpec) -> np.ndarray:
    return sum(xi**2 for xi in _frequencies(grid))


@functools.lru_cache(maxsize=64)
def _xi_magnitude(grid: GridSpec) -> np.ndarray:
    return np.sqrt(_xi_squared(grid))


@functools.lru_cache(maxsize=64)
def _half_inverse_laplacian(grid: GridSpec) -> np.ndarray:
    """-1/|xi|^2, zero at the zero mode."""
    xi2 = _xi_squared(grid)
    return np.where(xi2 > 0.0, -1.0 / np.where(xi2 > 0.0, xi2, 1.0), 0.0)


@functools.lru_cache(maxsize=64)
def ball_cutoff_mask(grid: GridSpec, radius: float) -> np.ndarray:
    """Indicator of the closed frequency ball |xi| <= radius, as floats on
    the rfftn half lattice."""
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    return (_xi_magnitude(grid) <= radius).astype(float)


def _apply_symbol(u, half_symbol: np.ndarray):
    """Field of the same kind with the half-lattice multiplier applied to
    every independent component: one batched rfftn (cached as u.rhat)
    and one batched irfftn."""
    return type(u).from_rspectral(u.grid, u.rhat * half_symbol)


def two_thirds_truncate(u):
    """Zero every coefficient with any |k_j| above the 2/3-rule band."""
    return _apply_symbol(u, dealias_mask(u.grid))


def partial_derivative(u, axis: int):
    """Spectral partial derivative along the given axis (0-based)."""
    return _apply_symbol(u, _half_derivative(u.grid, axis))


def inverse_laplacian(u):
    """Multiplier -1/|xi|^2 with the zero mode mapped to zero."""
    return _apply_symbol(u, _half_inverse_laplacian(u.grid))


def riesz_transform(u, axis: int):
    """R_j = d_j (-Laplace)^{-1/2}; zero mode mapped to zero."""
    xi2 = _xi_squared(u.grid)
    inv_norm = np.where(xi2 > 0.0, 1.0 / np.sqrt(np.where(xi2 > 0.0, xi2, 1.0)), 0.0)
    return _apply_symbol(u, _half_derivative(u.grid, axis) * inv_norm)


# ---------------------------------------------------------------------------
# norms and inner products


@functools.lru_cache(maxsize=64)
def _column_multiplicity(grid: GridSpec) -> np.ndarray:
    """Hermitian multiplicity of each last-axis column of the half
    lattice: 1 at k_last = 0 and N/2, else 2."""
    mult = np.full(_half_shape(grid)[-1], 2.0)
    mult[0] = mult[-1] = 1.0
    return mult


@functools.lru_cache(maxsize=8)
def _sobolev_weights(grid: GridSpec, s: float) -> np.ndarray:
    """Parseval weights (1 + |xi|^2)^s on the half lattice, each column
    counted with its Hermitian multiplicity and scaled so that s = 0
    gives the literal L^2 box integral."""
    weights = (1.0 + _xi_squared(grid)) ** s * _column_multiplicity(grid)
    return weights * (grid.box_volume / grid.num_points**2)


def _sobolev_sq(grid: GridSpec, hat: np.ndarray, s: float) -> float:
    """Squared H^s norm of the components whose half spectra stack in hat:
    one weighted sum, no transform."""
    return float(np.sum(_sobolev_weights(grid, s)
                        * (hat.real**2 + hat.imag**2)))


def sobolev_norm(u, s: float) -> float:
    """H^s norm via the lattice Parseval sum with weights (1 + |xi|^2)^s.

    At s = 0 this is the plain L^2 norm over the box. Vector fields sum
    over components; skew-matrix fields use the full Frobenius sum, which
    counts each upper entry twice.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    total = _sobolev_sq(u.grid, u.rhat, s)
    if isinstance(u, SkewMatrixField):
        total *= 2.0
    return math.sqrt(total)


def lebesgue_norms(u) -> tuple[float, float]:
    """(L^2, L^inf): grid-quadrature integral norm and grid max-abs, over
    every component; matrix fields sum over all d^2 entries."""
    l2 = math.sqrt(float(np.sum(u.values**2)) * u.grid.cell_volume)
    linf = float(np.abs(u.values).max())
    return l2, linf


def l2_inner(u, v) -> float:
    """L^2 box inner product summed over every component; matrix fields
    sum over all d^2 entries (the full Frobenius sum)."""
    if type(u) is not type(v):
        raise TypeError("mismatched field types")
    return float(np.sum(u.values * v.values)) * u.grid.cell_volume


# ---------------------------------------------------------------------------
# spectral refinement (zero padding)


def spectral_upsample(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Resample on the twice-finer grid by Fourier zero padding.

    Accepts stacked arrays with leading component axes. The unpaired
    Nyquist coefficient is split across +-N/2 on the fine lattice, which
    keeps the refined samples real and the interpolation exact for
    band-limited data.

    This is the reference oracle of `interp.PeriodicInterpolator`, whose
    build folds the same zero padding and the spline prefilter into one
    real-FFT pass; the tests compare the two.
    """
    values = np.asarray(values)
    lead = values.shape[: values.ndim - grid.dim]
    if values.shape[len(lead):] != grid.shape:
        raise ValueError("values do not match grid shape")

    N = grid.points_per_axis
    axes = tuple(range(len(lead), values.ndim))
    # centred, each axis runs over -N/2..N/2-1 and pads to the fine -N..N-1;
    # the unpaired -N/2 row is halved and copied to +N/2
    hat = np.fft.fftshift(np.fft.fftn(values, axes=axes), axes=axes)
    hat = np.pad(hat, [(0, 0)] * len(lead) + [(N // 2, N // 2)] * grid.dim)
    for ax in axes:
        rows = np.swapaxes(hat, 0, ax)      # a view with axis ax first
        rows[N // 2] *= 0.5
        rows[N // 2 + N] = rows[N // 2]
    out = np.fft.ifftn(np.fft.ifftshift(hat, axes=axes), axes=axes)
    return np.real(out) * float(2**grid.dim)
