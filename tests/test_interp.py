"""The periodic spline interpolator: its one-pass coefficient build against
the upsample-then-prefilter oracle, and its convergence in N."""

import numpy as np
import pytest
from scipy import ndimage

from sympeuler.grids import GridSpec
from sympeuler.interp import PeriodicInterpolator
from sympeuler.spectral import spectral_upsample


def _interpolator(grid, values):
    """PeriodicInterpolator of values, from their rfftn half spectrum."""
    axes = tuple(range(-grid.dim, 0))
    return PeriodicInterpolator(grid, np.fft.rfftn(values, axes=axes))


def _oracle_coeffs(grid, values):
    fine = spectral_upsample(values, grid)
    flat = fine.reshape((-1,) + fine.shape[values.ndim - grid.dim:])
    return np.stack([ndimage.spline_filter(c, order=5, mode="grid-wrap")
                     for c in flat])


@pytest.mark.parametrize("grid", [
    GridSpec(n=1, points_per_axis=64),
    GridSpec(n=1, points_per_axis=128, box_length=0.75),
    GridSpec(n=2, points_per_axis=16),
], ids=["2d-n64", "2d-n128-l075", "4d-n16"])
@pytest.mark.parametrize("lead", [(), (2,)], ids=["scalar", "stacked"])
def test_build_matches_upsample_then_prefilter(grid, lead):
    rng = np.random.default_rng(7)
    values = rng.standard_normal(lead + grid.shape)
    # a pure Nyquist mode along the first axis on top of the white noise
    nyquist = np.cos(np.pi * np.arange(grid.points_per_axis))
    values += 3.0 * nyquist.reshape((-1,) + (1,) * (grid.dim - 1))
    coeffs = _interpolator(grid, values)._coeffs
    expected = _oracle_coeffs(grid, values)
    assert coeffs.shape == expected.shape
    np.testing.assert_allclose(coeffs, expected, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(expected)))


def _interp_error(n: int) -> float:
    grid = GridSpec(n=1, points_per_axis=n)
    x1, x2 = grid.coordinate_arrays()
    values = np.exp(np.sin(x1) + 0.5 * np.cos(2 * x2))
    points = np.random.default_rng(3).uniform(0.0, grid.box_length, (2, 500))
    exact = np.exp(np.sin(points[0]) + 0.5 * np.cos(2 * points[1]))
    return float(np.max(np.abs(_interpolator(grid, values)(points) - exact)))


def test_interpolation_error_converges_in_n():
    errors = [_interp_error(n) for n in (32, 64, 128)]
    assert errors[0] / errors[1] >= 40.0
    assert errors[1] / errors[2] >= 40.0
    assert errors[2] < 1e-10
