"""Field containers: transforms, symmetry, arithmetic, and guards."""

import numpy as np
import pytest

from conftest import rel_err
from sympeuler.fields import ScalarField, SkewMatrixField, VectorField, skew_part
from sympeuler.initial_conditions import random_potential, random_skew, random_vector


def test_scalar_round_trip(grid64):
    f = random_potential(grid64, seed=0)
    back = ScalarField.from_rspectral(grid64, f.rhat)
    assert rel_err(back.values, f.values) < 1e-12


def test_scalar_hermitian_symmetry(grid32):
    # the half lattice keeps k_last = 0 and N/2, whose columns must be
    # Hermitian along the full axis for the field to be real
    f = random_potential(grid32, seed=1)
    hat = f.rhat
    flip = (-np.arange(hat.shape[0])) % hat.shape[0]
    for col in (0, hat.shape[1] - 1):
        edge = hat[:, col]
        assert np.max(np.abs(edge - np.conj(edge[flip]))) < 1e-9 * np.max(np.abs(hat))


@pytest.mark.parametrize("kind, shape", [
    (ScalarField, (2, 32, 32)), (ScalarField, (8, 8)),
    (VectorField, (3, 32, 32)), (VectorField, (2, 8, 8)),
    (SkewMatrixField, (2, 3, 32, 32)), (SkewMatrixField, (2, 2, 8, 8)),
], ids=["scalar-lead", "scalar-grid", "vector-lead", "vector-grid",
        "skew-lead", "skew-grid"])
def test_shape_guard(grid32, kind, shape):
    # one wrong leading axis and one wrong grid shape per kind on 2D N=32
    with pytest.raises(ValueError):
        kind(grid32, np.zeros(shape))


def test_vector_arithmetic(grid32):
    # scaling by a number is the one operator; it keeps kind and grid
    u = random_vector(grid32, seed=3)
    w = u * -2.0
    assert isinstance(w, VectorField) and w.grid is grid32
    assert np.array_equal(w.values, -2.0 * u.values)
    assert np.array_equal((-2.0 * u).values, w.values)


def test_skew_materialized_matrix(grid32):
    Y = random_skew(grid32, seed=5)
    transposed = np.swapaxes(Y.values, 0, 1)
    assert np.max(np.abs(Y.values + transposed)) == 0.0
    assert np.max(np.abs(Y.values[0, 0])) == 0.0
    assert np.array_equal(Y.values[1, 0], -Y.values[0, 1])


def test_skew_part_antisymmetrizes(grid32):
    rng = np.random.default_rng(7)
    A = rng.standard_normal((2, 2) + grid32.shape)
    Y = skew_part(grid32, A)
    expected = A - np.swapaxes(A, 0, 1)
    assert np.array_equal(Y.values, expected)
    assert np.max(np.abs(Y.values + np.swapaxes(Y.values, 0, 1))) == 0.0


def test_four_dimensional_round_trip(grid4d):
    u = random_vector(grid4d, seed=8)
    back = VectorField.from_rspectral(grid4d, u.rhat)
    assert rel_err(back.values, u.values) < 1e-12


def test_skew_round_trip_through_upper_entries(grid4d):
    # rhat holds the d(d-1)/2 upper entries; from_rspectral rebuilds the
    # lower triangle by exact negation
    Y = random_skew(grid4d, seed=9)
    assert Y.rhat.shape[0] == 6
    back = SkewMatrixField.from_rspectral(grid4d, Y.rhat)
    assert rel_err(back.values, Y.values) < 1e-12
    assert np.max(np.abs(back.values + np.swapaxes(back.values, 0, 1))) == 0.0
