"""Multiplier operators, norms and dealiasing."""

import math

import numpy as np
import pytest

from conftest import rel_err
from sympeuler.fields import ScalarField, VectorField
from sympeuler.grids import GridSpec
from sympeuler.initial_conditions import _random_filter, random_potential
from sympeuler.spectral import (
    _frequencies,
    _half_derivative_symbols,
    _half_inverse_laplacian,
    _sobolev_weights,
    _xi_magnitude,
    _xi_squared,
    ball_cutoff_mask,
    dealias_band,
    dealias_mask,
    inverse_laplacian,
    l2_inner,
    lebesgue_norms,
    partial_derivative,
    riesz_transform,
    sobolev_norm,
    spectral_upsample,
    two_thirds_truncate,
)


def sin_mode(grid, axis=0, mult=1):
    x = grid.coordinate_arrays()[axis]
    vals = np.sin(mult * x) * np.ones(grid.shape)
    return ScalarField(grid, vals)


# ---------------------------------------------------------------------------
# grids


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(n=0, points_per_axis=16)
    with pytest.raises(ValueError):
        GridSpec(n=1, points_per_axis=15)   # odd
    with pytest.raises(ValueError):
        GridSpec(n=1, points_per_axis=16, box_length=0.0)


# ---------------------------------------------------------------------------
# symbols on the rfftn half lattice


def _full_lattice_symbols(grid):
    """Each symbol built on the full N^{2n} lattice from fftfreq, then cut
    to the first N/2 + 1 entries of the last axis."""
    N, d = grid.points_per_axis, grid.dim
    xi0 = 2.0 * np.pi / grid.box_length
    k = np.meshgrid(*([np.fft.fftfreq(N, d=1.0 / N)] * d), indexing="ij",
                    sparse=True)
    xi = [kj * xi0 for kj in k]
    xi2 = np.zeros(grid.shape)
    for xij in xi:
        xi2 = xi2 + xij**2
    r = np.sqrt(xi2)
    mask = np.logical_and.reduce(np.broadcast_arrays(
        *[np.abs(kj) <= (N - 1) // 3 for kj in k]))
    symbols = {
        "frequencies": xi,
        "derivatives": [1j * np.where(kj == -N // 2, 0.0, xij)
                        for kj, xij in zip(k, xi)],
        "xi_squared": xi2,
        "xi_magnitude": r,
        "inverse_laplacian":
            np.where(xi2 > 0.0, -1.0 / np.where(xi2 > 0.0, xi2, 1.0), 0.0),
        "dealias_mask": mask,
        "ball r=1": (r <= 1.0).astype(float),
        "ball r=sqrt13": (r <= math.sqrt(13.0)).astype(float),
    }
    for decay in (0.5, 1.0):
        filt = np.exp(-decay * r / xi0) * mask
        filt.flat[0] = 0.0
        symbols[f"random_filter decay={decay}"] = filt
    cut = {name: [a[..., : N // 2 + 1] for a in v] if isinstance(v, list)
           else v[..., : N // 2 + 1] for name, v in symbols.items()}
    # Hermitian multiplicity of a half-lattice column: 1 at k = 0 and at
    # the Nyquist, 2 for the columns whose conjugates were cut
    mult = np.where(np.abs(k[-1][..., : N // 2 + 1]) % (N // 2) == 0, 1.0, 2.0)
    for s in (0.0, 3.0):
        cut[f"sobolev_weights s={s}"] = ((1.0 + cut["xi_squared"]) ** s * mult
                                         * (grid.box_volume / grid.num_points**2))
    return cut


@pytest.mark.parametrize("grid", [
    GridSpec(n=1, points_per_axis=64),
    GridSpec(n=1, points_per_axis=128, box_length=0.75),
    GridSpec(n=2, points_per_axis=16),
], ids=["2d-N64", "2d-N128-L0.75", "4d-N16"])
def test_symbols_equal_the_cut_full_lattice(grid):
    # bitwise: the last axis keeps fftfreq's -N/2 as its Nyquist column,
    # so the derivative symbols zero it (an rfftfreq axis would hold +N/2)
    ours = {
        "frequencies": list(_frequencies(grid)),
        "derivatives": list(_half_derivative_symbols(grid)),
        "xi_squared": _xi_squared(grid),
        "xi_magnitude": _xi_magnitude(grid),
        "inverse_laplacian": _half_inverse_laplacian(grid),
        "dealias_mask": dealias_mask(grid),
        "ball r=1": ball_cutoff_mask(grid, 1.0),
        "ball r=sqrt13": ball_cutoff_mask(grid, math.sqrt(13.0)),
        "random_filter decay=0.5": _random_filter(grid, 0.5),
        "random_filter decay=1.0": _random_filter(grid, 1.0),
        "sobolev_weights s=0.0": _sobolev_weights(grid, 0.0),
        "sobolev_weights s=3.0": _sobolev_weights(grid, 3.0),
    }
    ref = _full_lattice_symbols(grid)
    assert sorted(ours) == sorted(ref)

    def equal(a, b):
        if isinstance(a, list):
            return len(a) == len(b) and all(map(equal, a, b))
        return a.dtype == b.dtype and np.array_equal(a, b)

    assert [name for name in ours if not equal(ours[name], ref[name])] == []


def test_frequency_lattice_symmetry(grid32):
    N = grid32.points_per_axis
    full, half = (xi.ravel() for xi in _frequencies(grid32))
    assert full[0] == 0.0 and half[0] == 0.0
    # the full axis holds each representable k with its -k at index N - k
    for k in range(1, N // 2):
        assert full[N - k] == -full[k]
    # the half axis keeps k = 0..N/2 - 1 and fftfreq's -N/2 as its Nyquist
    assert half.size == N // 2 + 1
    assert np.array_equal(half[: N // 2], full[: N // 2])
    assert half[N // 2] == full[N // 2] < 0.0


def test_dealias_mask_band(grid64):
    band = dealias_band(grid64.points_per_axis)
    assert band == (grid64.points_per_axis - 1) // 3
    mask = dealias_mask(grid64)
    xi0 = 2.0 * np.pi / grid64.box_length
    k = [np.rint(xi.ravel() / xi0) for xi in _frequencies(grid64)]
    keep = [np.abs(kj) <= band for kj in k]
    assert mask.shape == (grid64.points_per_axis, grid64.points_per_axis // 2 + 1)
    assert np.array_equal(mask, np.logical_and.outer(*keep))


# ---------------------------------------------------------------------------
# sobolev_norm


def test_sobolev_norm_zero(grid32):
    z = ScalarField(grid32, np.zeros(grid32.shape))
    assert sobolev_norm(z, 2.0) == 0.0


def test_sobolev_norm_sine_closed_form(grid64):
    # single mode |xi|^2 = 1, integral of sin^2 = 2 pi^2 on the 2d box
    f = sin_mode(grid64)
    expected = 2.0 * np.pi * np.sqrt(2.0)
    assert abs(sobolev_norm(f, 2.0) - expected) < 1e-10


def test_sobolev_norm_s0_matches_quadrature(grid64):
    f = random_potential(grid64, seed=0)
    quad = np.sqrt(np.sum(f.values ** 2) * grid64.cell_volume)
    assert abs(sobolev_norm(f, 0.0) - quad) / quad < 1e-10


def test_sobolev_norm_rejects_negative_s(grid32):
    f = sin_mode(grid32)
    with pytest.raises(ValueError):
        sobolev_norm(f, -1.0)


def test_sobolev_norm_vector_root_sum_squares(grid32):
    f = sin_mode(grid32)
    u = VectorField(grid32, np.stack([f.values, f.values]))
    assert np.isclose(sobolev_norm(u, 1.5),
                      np.sqrt(2.0) * sobolev_norm(f, 1.5))


# ---------------------------------------------------------------------------
# partial_derivative


def test_derivative_single_mode(grid64):
    x1 = grid64.coordinate_arrays()[0]
    df = partial_derivative(sin_mode(grid64), 0)
    assert np.max(np.abs(df.values - np.cos(x1) * np.ones(grid64.shape))) < 1e-12
    d2 = partial_derivative(sin_mode(grid64), 1)
    assert np.max(np.abs(d2.values)) < 1e-12


def test_derivative_axis_range(grid32):
    with pytest.raises(ValueError):
        partial_derivative(sin_mode(grid32), 2)


def test_product_rule_after_dealiasing(grid64):
    f = random_potential(grid64, seed=1)
    g = random_potential(grid64, seed=2)
    prod = ScalarField(grid64, f.values * g.values)
    lhs = two_thirds_truncate(partial_derivative(prod, 0))
    rhs_vals = (f.values * partial_derivative(g, 0).values
                + g.values * partial_derivative(f, 0).values)
    rhs = two_thirds_truncate(ScalarField(grid64, rhs_vals))
    assert rel_err(lhs.values, rhs.values) < 1e-10


def test_derivative_antisymmetry(grid64):
    f = random_potential(grid64, seed=3)
    g = random_potential(grid64, seed=4)
    a = l2_inner(partial_derivative(f, 1), g)
    b = l2_inner(f, partial_derivative(g, 1))
    assert abs(a + b) / max(abs(a), abs(b)) < 1e-10


# ---------------------------------------------------------------------------
# inverse_laplacian, riesz


def test_inverse_laplacian_eigenfunction(grid64):
    f = sin_mode(grid64)
    out = inverse_laplacian(f)
    assert np.max(np.abs(out.values + f.values)) < 1e-12


def test_inverse_laplacian_zero_mode(grid32):
    one = ScalarField(grid32, np.ones(grid32.shape))
    assert np.max(np.abs(inverse_laplacian(one).values)) == 0.0


def test_laplacian_of_inverse_recovers_mean_free_part(grid64):
    f = random_potential(grid64, seed=5)
    g = inverse_laplacian(f)
    lap = partial_derivative(partial_derivative(g, 0), 0).values \
        + partial_derivative(partial_derivative(g, 1), 1).values
    assert rel_err(lap, f.values - f.values.mean()) < 1e-11


def test_riesz_single_mode(grid64):
    x1 = grid64.coordinate_arrays()[0]
    out = riesz_transform(sin_mode(grid64), 0)
    assert np.max(np.abs(out.values - np.cos(x1) * np.ones(grid64.shape))) < 1e-12


def test_riesz_squares_sum_to_negative_identity(grid64):
    f = random_potential(grid64, seed=6)
    acc = np.zeros(grid64.shape)
    for j in range(grid64.dim):
        acc += riesz_transform(riesz_transform(f, j), j).values
    assert rel_err(acc, -(f.values - f.values.mean())) < 1e-11


def test_riesz_kills_constants(grid32):
    one = ScalarField(grid32, np.ones(grid32.shape))
    assert np.max(np.abs(riesz_transform(one, 0).values)) == 0.0


# ---------------------------------------------------------------------------
# ball cutoff


def ball_cut(f, radius):
    """f with every coefficient outside the ball |xi| <= radius zeroed."""
    return ScalarField.from_rspectral(
        f.grid, f.rhat * ball_cutoff_mask(f.grid, radius))


def test_ball_cutoff_excludes_and_retains(grid64):
    low = sin_mode(grid64, mult=1)
    high = sin_mode(grid64, mult=2)
    assert np.max(np.abs(ball_cut(high, 1.0).values)) < 1e-14
    kept = ball_cut(low, 1.0)
    assert np.max(np.abs(kept.values - low.values)) < 1e-13


def test_ball_cutoff_projection_and_recovery(grid64):
    f = random_potential(grid64, seed=10)
    once = ball_cut(f, 5.0)
    twice = ball_cut(once, 5.0)
    assert np.array_equal(once.values, twice.values)
    # exact recovery once the radius clears the field's bandwidth
    band = dealias_band(grid64.points_per_axis)
    radius = np.sqrt(2.0) * band + 1.0
    assert rel_err(ball_cut(f, radius).values, f.values) < 1e-13


def test_ball_cutoff_rejects_bad_radius(grid32):
    with pytest.raises(ValueError):
        ball_cutoff_mask(grid32, 0.0)


# ---------------------------------------------------------------------------
# lebesgue norms, dealiasing, upsampling


def test_lebesgue_norms_cases(grid64):
    one = ScalarField(grid64, np.ones(grid64.shape))
    l2, linf = lebesgue_norms(one)
    assert np.isclose(l2, 2.0 * np.pi) and linf == 1.0
    l2s, linfs = lebesgue_norms(sin_mode(grid64))
    assert abs(linfs - 1.0) < 1e-12     # N divisible by 4 samples the peak
    zero = ScalarField(grid64, np.zeros(grid64.shape))
    assert lebesgue_norms(zero) == (0.0, 0.0)


def test_truncate_idempotent(grid64):
    f = random_potential(grid64, seed=13)
    once = two_thirds_truncate(f)
    assert np.array_equal(once.values, two_thirds_truncate(once).values)


def test_spectral_upsample_exact_for_sine(grid32):
    f = sin_mode(grid32)
    fine_vals = spectral_upsample(f.values, grid32)
    fine = GridSpec(n=1, points_per_axis=64, box_length=grid32.box_length)
    x1 = fine.coordinate_arrays()[0]
    assert np.max(np.abs(fine_vals - np.sin(x1) * np.ones(fine.shape))) < 1e-12


def _upsample_closed_form(grid, nyquist, stacked):
    """A smooth mode and modes of wavenumber nyquist on the first axis and
    on the corner of the first and last, each a component when stacked."""
    x = grid.coordinate_arrays()
    top = np.cos(nyquist * x[0])
    parts = [np.sin(x[0]) * np.cos(2 * x[-1]) * np.ones(grid.shape),
             (top + top * np.cos(nyquist * x[-1])) * np.ones(grid.shape)]
    return np.stack(parts) if stacked else parts[0] + parts[1]


@pytest.mark.parametrize("grid, stacked", [
    (GridSpec(n=1, points_per_axis=32), True),
    (GridSpec(n=2, points_per_axis=8), False),
    (GridSpec(n=2, points_per_axis=8), True),
], ids=["2d-stacked", "4d", "4d-stacked"])
def test_spectral_upsample_exact_with_nyquist_modes(grid, stacked):
    # the coarse Nyquist rows are split across +-N/2 of the fine lattice;
    # putting the half at one end only would halve those terms
    fine = GridSpec(n=grid.n, points_per_axis=2 * grid.points_per_axis,
                    box_length=grid.box_length)
    nyquist = math.pi / grid.spacing
    got = spectral_upsample(_upsample_closed_form(grid, nyquist, stacked),
                            grid)
    want = _upsample_closed_form(fine, nyquist, stacked)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12
def test_parseval_property(grid64):
    f = two_thirds_truncate(random_potential(grid64, seed=14))
    quad = np.sum(f.values ** 2) * grid64.cell_volume
    assert abs(sobolev_norm(f, 0.0) ** 2 - quad) / quad < 1e-10
