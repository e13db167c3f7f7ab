"""Interpolation of periodic grid data at scattered points.

Composition of fields with maps evaluates quintic B-splines on the
twice-finer grid. Their coefficients come from the rfftn half spectrum
that fields already cache (`rhat`) in one inverse real-FFT pass: the
native spectrum is zero-padded to the fine grid and divided by the DFT
symbol of the sampled quintic B-spline, which for periodic data is the
exact spline prefilter (Unser, IEEE SPM 1999). The max error
on exp(sin x1 + cos(2 x2)/2) falls about 70-fold per doubling of N, to
~2e-11 at N=128, at O(N^d log N) per build. Point tracing uses local
tensor-product Lagrange stencils directly on the native grid.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import ndimage

from .grids import GridSpec
from .spectral import _half_shape

__all__ = ["PeriodicInterpolator", "local_lagrange_sample"]

_UPSAMPLE = 2       # spectral refinement factor before the spline fit
_SPLINE_ORDER = 5   # quintic B-splines
_STENCIL = 6        # Lagrange nodes per axis in local_lagrange_sample


class PeriodicInterpolator:
    """Evaluates stacked periodic grid data at arbitrary physical points.

    `hat` is the data's rfftn half spectrum over the grid axes, laid out
    as a field's `rhat`: shape (*lead, *half_shape), the last grid axis
    keeping N/2 + 1 frequencies. Evaluation maps points of shape
    (dim, *tail) to outputs of shape (*lead, *tail). Points are reduced
    modulo the box before the spline is evaluated.
    """

    def __init__(self, grid: GridSpec, hat: np.ndarray):
        if hat.shape[-grid.dim:] != _half_shape(grid):
            raise ValueError("spectrum shape does not end with the half "
                             "lattice shape")
        self.grid = grid
        self._lead = hat.shape[:-grid.dim]
        src, dst, multiplier, fine_half = _prefilter_padding(grid)
        axes = tuple(range(-grid.dim, 0))
        padded = np.zeros(self._lead + fine_half, dtype=complex)
        padded[(Ellipsis,) + dst] = hat[(Ellipsis,) + src] * multiplier
        fine_shape = tuple(n * _UPSAMPLE for n in grid.shape)
        coeffs = np.fft.irfftn(padded, s=fine_shape, axes=axes)
        # one spline coefficient array per component
        self._coeffs = coeffs.reshape((-1,) + fine_shape)
        # physical coordinate -> fractional index on the fine grid
        self._scale = (grid.points_per_axis * _UPSAMPLE) / grid.box_length

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.shape[0] != self.grid.dim:
            raise ValueError("points must be stacked along a first axis of length dim")
        tail = points.shape[1:]
        wrapped = points.reshape(self.grid.dim, -1) % self.grid.box_length
        idx = wrapped * self._scale
        out = np.stack([
            ndimage.map_coordinates(c, idx, order=_SPLINE_ORDER,
                                    mode="grid-wrap", prefilter=False)
            for c in self._coeffs
        ])
        return out.reshape(self._lead + tail)


@functools.lru_cache(maxsize=64)
def _prefilter_padding(grid: GridSpec):
    """Gather and scatter indices and multiplier of the coefficient build.

    Returns open-mesh index tuples `src` into the native half-spectrum
    and `dst` into the fine one, the real multiplier on the gathered
    block, and the fine half-spectrum shape. Along a full axis the
    native Nyquist coefficient goes to both +-N/2 with weight 1/2, as in
    `spectral.spectral_upsample`; along the last (half) axis only +N/2 is
    stored and irfftn supplies its conjugate. The multiplier also holds
    the inverse quintic B-spline symbol 120 / (66 + 52 cos t + 2 cos 2t),
    t = 2 pi k / (2N), and the factor 2^d of the finer inverse transform.
    """
    N = grid.points_per_axis
    M = _UPSAMPLE * N
    half = N // 2
    k_full = np.r_[0:half + 1, -half:0]   # signed; the Nyquist as +N/2 and -N/2
    k_last = np.arange(half + 1)
    theta = 2.0 * np.pi / M
    d = grid.dim
    src, dst, multiplier = [], [], 1.0
    for axis in range(d):
        k = k_last if axis == d - 1 else k_full
        t = theta * k
        w = 120.0 / (66.0 + 52.0 * np.cos(t) + 2.0 * np.cos(2.0 * t))
        w[np.abs(k) == half] *= 0.5
        shape = [1] * d
        shape[axis] = k.size
        src.append((k % N).reshape(shape))
        dst.append((k % M).reshape(shape))
        multiplier = multiplier * (_UPSAMPLE * w).reshape(shape)
    fine_half = (M,) * (d - 1) + (M // 2 + 1,)
    return tuple(src), tuple(dst), multiplier, fine_half


def _lagrange_weights(frac: np.ndarray, stencil: int) -> np.ndarray:
    """Weights of shape (*frac.shape, stencil) for nodes 0..stencil-1: the
    product over m of factors (frac - m) / (j - m), 1 where m = j."""
    nodes = np.arange(stencil)
    off = ~np.eye(stencil, dtype=bool)
    gaps = np.where(off, nodes[:, None] - nodes, 1)           # j - m
    factors = (frac[..., None, None] - nodes) / gaps
    return np.where(off, factors, 1.0).prod(axis=-1)


def local_lagrange_sample(grid: GridSpec, values: np.ndarray,
                          points: np.ndarray) -> np.ndarray:
    """Tensor-product Lagrange interpolation at a few scattered points.

    `values`: (*lead, *grid.shape); `points`: (dim, M). No global
    transform is performed, so the cost is O(_STENCIL^dim) per point.
    """
    d = grid.dim
    if d > 4:
        raise ValueError("local sampling implemented for dim <= 4")
    points = np.asarray(points, dtype=float)
    m_pts = points.shape[1]
    npa = grid.points_per_axis
    t = points / grid.spacing
    base = np.floor(t).astype(int) - (_STENCIL // 2 - 1)
    frac = t - base
    weights = [_lagrange_weights(frac[k], _STENCIL) for k in range(d)]  # (M, s)
    offsets = np.arange(_STENCIL)
    index_arrays = []
    for k in range(d):
        shape = (m_pts,) + (1,) * k + (_STENCIL,) + (1,) * (d - 1 - k)
        index_arrays.append(((base[k][:, None] + offsets) % npa).reshape(shape))
    block = values[(Ellipsis,) + tuple(index_arrays)]  # (*lead, M, s, ..., s)
    letters = "abcd"[:d]
    subs = ("..." + "m" + letters + "," +
            ",".join("m" + c for c in letters) + "->...m")
    return np.einsum(subs, block, *weights)
