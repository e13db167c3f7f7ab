"""Interpolation of periodic grid data at scattered points.

Composition of fields with maps uses spectral upsampling followed by
quintic B-spline evaluation; this reaches ~1e-9 max error at N=128 for
smooth fields while staying O(N^d log N) per call. Point tracing uses
local tensor-product Lagrange stencils directly on the native grid.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .grids import GridSpec
from .spectral import spectral_upsample

__all__ = ["PeriodicInterpolator", "local_lagrange_sample"]

_UPSAMPLE = 2       # spectral refinement factor before the spline fit
_SPLINE_ORDER = 5   # quintic B-splines


class PeriodicInterpolator:
    """Evaluates stacked periodic grid data at arbitrary physical points.

    `values` has shape (*lead, *grid.shape); evaluation maps points of
    shape (dim, *tail) to outputs of shape (*lead, *tail).
    """

    def __init__(self, grid: GridSpec, values: np.ndarray):
        if values.shape[-grid.dim:] != grid.shape:
            raise ValueError("values shape does not end with the grid shape")
        self.grid = grid
        self._lead = values.shape[:-grid.dim]
        fine = spectral_upsample(values, grid, factor=_UPSAMPLE)
        fine_spatial = fine.shape[len(self._lead):]
        flat = fine.reshape((-1,) + fine_spatial)
        self._coeffs = [
            ndimage.spline_filter(comp, order=_SPLINE_ORDER, mode="grid-wrap")
            for comp in flat
        ]
        # physical coordinate -> fractional index on the fine grid
        self._scale = (grid.points_per_axis * _UPSAMPLE) / grid.box_length

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.shape[0] != self.grid.dim:
            raise ValueError("points must be stacked along a first axis of length dim")
        tail = points.shape[1:]
        idx = points.reshape(self.grid.dim, -1) * self._scale
        out = np.stack([
            ndimage.map_coordinates(c, idx, order=_SPLINE_ORDER,
                                    mode="grid-wrap", prefilter=False)
            for c in self._coeffs
        ])
        return out.reshape(self._lead + tail)


def _lagrange_weights(frac: np.ndarray, stencil: int) -> np.ndarray:
    """Weights of shape (*frac.shape, stencil) for nodes 0..stencil-1."""
    w = np.ones(frac.shape + (stencil,))
    for j in range(stencil):
        for m in range(stencil):
            if m != j:
                w[..., j] *= (frac - m) / (j - m)
    return w


def local_lagrange_sample(grid: GridSpec, values: np.ndarray,
                          points: np.ndarray, stencil: int = 6) -> np.ndarray:
    """Tensor-product Lagrange interpolation at a few scattered points.

    `values`: (*lead, *grid.shape); `points`: (dim, M). No global
    transform is performed, so the cost is O(stencil^dim) per point.
    """
    d = grid.dim
    if d > 4:
        raise ValueError("local sampling implemented for dim <= 4")
    points = np.asarray(points, dtype=float)
    m_pts = points.shape[1]
    npa = grid.points_per_axis
    t = points / grid.spacing
    base = np.floor(t).astype(int) - (stencil // 2 - 1)
    frac = t - base
    weights = [_lagrange_weights(frac[k], stencil) for k in range(d)]  # (M, stencil)
    offsets = np.arange(stencil)
    index_arrays = []
    for k in range(d):
        shape = (m_pts,) + (1,) * k + (stencil,) + (1,) * (d - 1 - k)
        index_arrays.append(((base[k][:, None] + offsets) % npa).reshape(shape))
    block = values[(Ellipsis,) + tuple(index_arrays)]  # (*lead, M, s, ..., s)
    letters = "abcd"[:d]
    subs = ("..." + "m" + letters + "," +
            ",".join("m" + c for c in letters) + "->...m")
    return np.einsum(subs, block, *weights)
