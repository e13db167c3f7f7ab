"""Interpolation of periodic grid data at scattered points.

Composition of fields with maps evaluates quintic B-splines on the
twice-finer grid. Their coefficients come from the rfftn half spectrum
that fields already cache (`rhat`) in one inverse real-FFT pass: the
native spectrum is zero-padded to the fine grid and divided by the DFT
symbol of the sampled quintic B-spline, which for periodic data is the
exact spline prefilter (Unser, IEEE SPM 1999). The max error
on exp(sin x1 + cos(2 x2)/2) falls about 70-fold per doubling of N, to
~2e-11 at N=128, at O(N^d log N) per build. A few traced points are
instead summed from the same half spectrum (fourier_sample): exact
trigonometric interpolation at O(M N^d), with no transform.

scipy is imported at the first spline evaluation, not with this module,
so runs that build no spline (`run-eulerian`, `experiment oracle2d`)
load only numpy and PyYAML.
"""

from __future__ import annotations

import functools

import numpy as np

from .grids import GridSpec
from .spectral import _column_multiplicity, _frequencies, _half_shape

__all__ = ["PeriodicInterpolator", "fourier_sample"]

_UPSAMPLE = 2       # spectral refinement factor before the spline fit
_SPLINE_ORDER = 5   # quintic B-splines


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
        # irfftn's passes in its order, the full-axis ones in place on padded
        for axis in axes[:-1]:
            np.fft.ifft(padded, axis=axis, out=padded)
        coeffs = np.fft.irfft(padded, n=fine_shape[-1], axis=-1)
        # one spline coefficient array per component
        self._coeffs = coeffs.reshape((-1,) + fine_shape)
        # physical coordinate -> fractional index on the fine grid
        self._scale = (grid.points_per_axis * _UPSAMPLE) / grid.box_length

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.shape[0] != self.grid.dim:
            raise ValueError("points must be stacked along a first axis of length dim")
        from scipy import ndimage  # here: +27 MiB RSS, 0.2-0.3 s to import

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
    stored and irfft supplies its conjugate. The multiplier also holds
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


def fourier_sample(grid: GridSpec, hat: np.ndarray,
                   points: np.ndarray) -> np.ndarray:
    """The trigonometric interpolant of a half spectrum at a few points.

    `hat` is laid out as a field's `rhat`, shape (*lead, *half_shape);
    `points` (dim, M) need no reduction modulo the box. Returns (*lead,
    M): the real part of the inverse DFT sum, each last-axis column
    counted with its Hermitian multiplicity (1 at k = 0 and the Nyquist,
    else 2). The sum contracts one axis at a time, last axis first, so it
    runs no transform and costs O(M N^d); it is exact at grid nodes and
    spectrally accurate between them.
    """
    points = np.asarray(points, dtype=float)
    # vecdot conjugates its first argument, so these are e^{-i xi x}.
    # With another process busy on a 2-vCPU host, one 2D N=256 sum took
    # 16 ms by matmul, 0.09 ms here. vecdot can dispatch to BLAS too, but
    # at 2D N=256 with 8 points, where each inner length is at most N, the
    # output was bitwise equal under 1 and 2 BLAS threads
    phase = [np.exp(-1j * np.multiply.outer(p, xi.ravel()))
             for p, xi in zip(points, _frequencies(grid))]
    out = np.vecdot(_column_multiplicity(grid) * phase[-1], hat[..., None, :])
    for axis in reversed(range(grid.dim - 1)):
        out = np.vecdot(phase[axis], np.swapaxes(out, -1, -2))
    return out.real / grid.num_points
