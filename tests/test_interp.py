"""The periodic spline interpolator: its one-pass coefficient build against
the upsample-then-prefilter oracle, and its convergence in N; and the
Fourier sum at traced points, against grid values and a closed form."""

import numpy as np
import pytest
from scipy import ndimage

from sympeuler.grids import GridSpec
from sympeuler.interp import PeriodicInterpolator, fourier_sample
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


_SAMPLE_GRIDS = [GridSpec(n=1, points_per_axis=16),
                 GridSpec(n=1, points_per_axis=32, box_length=0.75),
                 GridSpec(n=2, points_per_axis=8)]
_SAMPLE_IDS = ["2d-n16", "2d-n32-l075", "4d-n8"]


@pytest.mark.parametrize("grid", _SAMPLE_GRIDS, ids=_SAMPLE_IDS)
@pytest.mark.parametrize("lead", [(), (3,)], ids=["scalar", "stacked"])
def test_fourier_sample_is_exact_at_nodes(grid, lead):
    # white noise, Nyquist modes included; nodes shifted by whole boxes
    # land on the same values
    rng = np.random.default_rng(11)
    values = rng.standard_normal(lead + grid.shape)
    hat = np.fft.rfftn(values, axes=tuple(range(-grid.dim, 0)))
    idx = rng.integers(0, grid.points_per_axis, (grid.dim, 7))
    points = np.stack([grid.axis_coordinates[i] for i in idx])
    points += grid.box_length * rng.integers(-2, 3, points.shape)
    got = fourier_sample(grid, hat, points)
    assert got.shape == lead + (7,)
    np.testing.assert_allclose(got, values[(Ellipsis,) + tuple(idx)],
                               rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("grid", _SAMPLE_GRIDS, ids=_SAMPLE_IDS)
@pytest.mark.parametrize("lead", [(), (2,)], ids=["scalar", "stacked"])
def test_fourier_sample_matches_trig_polynomial(grid, lead):
    # a trigonometric polynomial below the Nyquist is its own interpolant
    xi0 = 2.0 * np.pi / grid.box_length

    def f(x, c):
        return (c + np.cos(xi0 * x[0] + 0.3) * np.sin(3.0 * xi0 * x[-1])
                + 0.7 * np.cos(2.0 * xi0 * x[1] - xi0 * x[0]))

    coefs = np.arange(1.0, 1.0 + np.prod(lead, dtype=int))
    coefs = coefs.reshape(lead + (1,) * grid.dim)
    values = f(grid.coordinate_stack(), coefs)
    hat = np.fft.rfftn(values, axes=tuple(range(-grid.dim, 0)))
    points = np.random.default_rng(12).uniform(-3.0, 3.0, (grid.dim, 9))
    want = f(points, coefs.reshape(lead + (1,)))
    np.testing.assert_allclose(fourier_sample(grid, hat, points), want,
                               rtol=0.0, atol=1e-13)
