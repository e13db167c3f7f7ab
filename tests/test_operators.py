"""Symplectic operator calculus: closed forms, adjointness, identities."""

import numpy as np

from conftest import rel_err
from sympeuler.fields import ScalarField, SkewMatrixField, VectorField
from sympeuler.grids import GridSpec
from sympeuler.initial_conditions import (
    constant_field,
    random_potential,
    random_skew,
    random_symplectic,
    random_vector,
    steady_shear,
)
from sympeuler.operators import (
    advection_term,
    advective_deformation_flux,
    advective_deformation_strain,
    compressibility_defect,
    constraint_force,
    divergence_curl,
    jacobian,
    omega_deformation,
    omega_deformation_adjoint,
    project_symplectic,
    riesz_commutator_ratio,
    skew_divergence,
    symplectic_divergence,
    symplectic_gradient,
    symplectic_matrix,
    velocity_from_symplectic_divergence,
)
from sympeuler.spectral import inverse_laplacian, l2_inner, sobolev_norm


def lap(f):
    from sympeuler.spectral import partial_derivative
    out = np.zeros_like(f.values)
    for j in range(f.grid.dim):
        out += partial_derivative(partial_derivative(f, j), j).values
    return type(f)(f.grid, out)


def trig_pair(grid):
    x1, x2 = grid.coordinate_arrays()
    return np.sin(x1) * np.ones(grid.shape), np.sin(x2) * np.ones(grid.shape)


# ---------------------------------------------------------------------------
# symplectic matrix


def test_symplectic_matrix_properties():
    for n in (1, 2, 3):
        w = symplectic_matrix(n)
        assert np.array_equal(w.T, -w)
        assert np.array_equal(w @ w, -np.eye(2 * n))


# ---------------------------------------------------------------------------
# P


def test_p_constant_vanishes(grid32):
    assert np.max(np.abs(omega_deformation(
        constant_field(grid32, 0, 2.0)).values)) == 0.0


def test_p_of_symplectic_gradient_vanishes(grid64):
    H = random_potential(grid64, seed=0)
    out = omega_deformation(symplectic_gradient(H))
    assert np.max(np.abs(out.values)) < 1e-12 * max(1.0, sobolev_norm(H, 2.0))


def test_p_closed_form(grid64):
    # X = (sin x1, 0): P(X)[0,1] = -cos x1
    x1 = grid64.coordinate_arrays()[0]
    X = VectorField(grid64, np.stack([np.sin(x1) * np.ones(grid64.shape),
                                      np.zeros(grid64.shape)]))
    P = omega_deformation(X)
    assert np.max(np.abs(P.values[0, 1]
                         + np.cos(x1) * np.ones(grid64.shape))) < 1e-12


# ---------------------------------------------------------------------------
# P*


def test_p_star_constant_vanishes(grid32):
    Y = SkewMatrixField(grid32, np.zeros((2, 2) + grid32.shape))
    Y.values[0, 1] = 1.0
    Y.values[1, 0] = -1.0
    assert np.max(np.abs(omega_deformation_adjoint(Y).values)) < 1e-14


def test_p_star_closed_form(grid64):
    # Y[0,1] = sin x1 maps to (2 cos x1, 0)
    x1 = grid64.coordinate_arrays()[0]
    Y = SkewMatrixField(grid64, np.zeros((2, 2) + grid64.shape))
    Y.values[0, 1] = np.sin(x1)
    Y.values[1, 0] = -np.sin(x1)
    out = omega_deformation_adjoint(Y)
    assert np.max(np.abs(out.values[0]
                         - 2.0 * np.cos(x1) * np.ones(grid64.shape))) < 1e-12
    assert np.max(np.abs(out.values[1])) < 1e-12


def test_adjointness(grid64):
    for seed in range(5):
        X = random_vector(grid64, seed=seed)
        Y = random_skew(grid64, seed=100 + seed)
        a = l2_inner(omega_deformation_adjoint(Y), X)
        b = l2_inner(Y, omega_deformation(X))
        assert abs(a - b) / max(abs(a), abs(b)) < 1e-9


# ---------------------------------------------------------------------------
# Omega and the delta-formula chain


def test_divergence_curl_identities(grid64):
    for seed in range(5):
        Y = random_skew(grid64, seed=200 + seed)
        lhs = omega_deformation(omega_deformation_adjoint(Y))
        rhs = divergence_curl(Y)
        assert rel_err(lhs.values, 2.0 * rhs.values) < 1e-10
        neg_lap_div = -lap(skew_divergence(Y)).values
        div_curl = skew_divergence(divergence_curl(Y)).values
        assert rel_err(neg_lap_div, div_curl) < 1e-10


def test_delta_formula_chain(grid64):
    for seed in range(5):
        Y = random_skew(grid64, seed=300 + seed)
        py = omega_deformation_adjoint(Y)
        chain = inverse_laplacian(
            omega_deformation_adjoint(omega_deformation(py)))
        assert rel_err(py.values, -0.5 * chain.values) < 1e-9


# ---------------------------------------------------------------------------
# quadratic forms P_H, P_L, Q


def test_quadratic_forms_vanish_at_zero(grid32):
    z = VectorField(grid32, np.zeros((2,) + grid32.shape))
    assert np.max(np.abs(advective_deformation_strain(z).values)) == 0.0
    assert np.max(np.abs(advective_deformation_flux(z).values)) == 0.0
    assert np.max(np.abs(compressibility_defect(z).values)) == 0.0


def test_strain_vanishes_for_shear(grid64):
    assert np.max(np.abs(advective_deformation_strain(
        steady_shear(grid64)).values)) < 1e-13


def test_strain_equals_p_of_advection_on_symplectic(grid64):
    for seed in range(3):
        u = random_symplectic(grid64, seed=seed, decay=0.75)
        lhs = advective_deformation_strain(u)
        rhs = omega_deformation(advection_term(u))
        scale = max(np.max(np.abs(lhs.values)), np.max(np.abs(rhs.values)))
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-9 * scale


def test_flux_equals_strain_plus_defect(grid64):
    for seed in range(3):
        u = random_vector(grid64, seed=400 + seed)
        flux = advective_deformation_flux(u)
        split = advective_deformation_strain(u).values \
            + compressibility_defect(u).values
        assert rel_err(flux.values, split) < 1e-10


def test_flux_matches_strain_on_divergence_free(grid64):
    u = random_symplectic(grid64, seed=7)
    gap = advective_deformation_flux(u).values \
        - advective_deformation_strain(u).values
    assert np.max(np.abs(gap)) < 1e-9


def test_defect_vanishes_on_divergence_free(grid64):
    u = random_symplectic(grid64, seed=8)
    assert np.max(np.abs(compressibility_defect(u).values)) < 1e-11


def test_flux_minus_strain_shear_case(grid64):
    # u = (sin x1, 0) has div u = cos x1; explicit defect check
    x1 = grid64.coordinate_arrays()[0]
    u = VectorField(grid64, np.stack([np.sin(x1) * np.ones(grid64.shape),
                                      np.zeros(grid64.shape)]))
    gap = (advective_deformation_flux(u).values
           - advective_deformation_strain(u).values)
    q = compressibility_defect(u)
    assert np.max(np.abs(gap - q.values)) < 1e-10


# ---------------------------------------------------------------------------
# constraint force B


def test_constraint_force_zero_and_shear(grid64):
    z = VectorField(grid64, np.zeros((2,) + grid64.shape))
    assert np.max(np.abs(constraint_force(z).values)) == 0.0
    assert np.max(np.abs(constraint_force(steady_shear(grid64)).values)) < 1e-13


def test_constraint_force_orthogonal_to_symplectic(grid64):
    u = random_vector(grid64, seed=9)
    b = constraint_force(u)
    for seed in range(3):
        w = random_symplectic(grid64, seed=500 + seed)
        ip = l2_inner(b, w)
        scale = sobolev_norm(b, 0.0) * sobolev_norm(w, 0.0)
        assert abs(ip) < 1e-9 * scale


def test_constraint_force_has_zero_symplectic_divergence(grid64):
    u = random_vector(grid64, seed=10)
    zeta = symplectic_divergence(constraint_force(u))
    assert np.max(np.abs(zeta.values)) < 1e-9


def test_cutoff_independence_on_symplectic(grid64):
    u = random_symplectic(grid64, seed=11)
    outs = [constraint_force(u, r) for r in (0.5, 1.0, 2.0, 4.0)]
    for other in outs[1:]:
        assert np.max(np.abs(outs[0].values - other.values)) < 1e-9


# ---------------------------------------------------------------------------
# symplectic gradient / divergence / reconstruction


def test_symplectic_gradient_closed_form(grid64):
    s1, s2 = trig_pair(grid64)
    x1, x2 = grid64.coordinate_arrays()
    H = ScalarField(grid64, np.sin(x1) * np.sin(x2))
    sg = symplectic_gradient(H)
    assert np.max(np.abs(sg.values[0] - np.sin(x1) * np.cos(x2))) < 1e-12
    assert np.max(np.abs(sg.values[1] + np.cos(x1) * np.sin(x2))) < 1e-12


def test_symplectic_gradient_of_constant(grid32):
    H = ScalarField(grid32, np.full(grid32.shape, 3.5))
    assert np.max(np.abs(symplectic_gradient(H).values)) == 0.0


def test_symplectic_divergence_closed_form(grid64):
    x1, x2 = grid64.coordinate_arrays()
    H = ScalarField(grid64, np.sin(x1) * np.sin(x2))
    zeta = symplectic_divergence(symplectic_gradient(H))
    assert np.max(np.abs(zeta.values + 2.0 * np.sin(x1) * np.sin(x2))) < 1e-12


def test_symplectic_divergence_constant(grid32):
    assert np.max(np.abs(symplectic_divergence(
        constant_field(grid32, 1, -2.0)).values)) == 0.0


def test_sd_sg_is_laplacian(grid64):
    for seed in range(3):
        H = random_potential(grid64, seed=600 + seed)
        lhs = symplectic_divergence(symplectic_gradient(H))
        assert rel_err(lhs.values, lap(H).values) < 1e-11


def test_reconstruction_closed_form(grid64):
    x1, x2 = grid64.coordinate_arrays()
    zeta = ScalarField(grid64, -2.0 * np.sin(x1) * np.sin(x2))
    u = velocity_from_symplectic_divergence(zeta)
    H = ScalarField(grid64, np.sin(x1) * np.sin(x2))
    assert rel_err(u.values, symplectic_gradient(H).values) < 1e-12


def test_reconstruction_round_trip(grid64):
    for seed in range(3):
        u = random_symplectic(grid64, seed=700 + seed)
        mean = u.values.mean(axis=(1, 2), keepdims=True)
        back = velocity_from_symplectic_divergence(symplectic_divergence(u))
        assert np.max(np.abs(back.values - (u.values - mean))) < 1e-11


def test_reconstruction_zero(grid32):
    zeta = ScalarField(grid32, np.zeros(grid32.shape))
    assert np.max(np.abs(
        velocity_from_symplectic_divergence(zeta).values)) == 0.0


# ---------------------------------------------------------------------------
# projection


def test_project_fixes_symplectic_fields(grid64):
    u = random_symplectic(grid64, seed=12)
    out = project_symplectic(u)
    assert np.max(np.abs(out.values - u.values)) < 1e-12


def test_project_output_is_symplectic(grid64):
    u = random_vector(grid64, seed=13)
    out = project_symplectic(u)
    assert np.max(np.abs(omega_deformation(out).values)) < 1e-9
    again = project_symplectic(out)
    assert np.max(np.abs(again.values - out.values)) < 1e-10


def test_project_matches_least_squares_oracle():
    # brute-force L^2 projector onto ker(P) on a tiny grid
    grid = GridSpec(n=1, points_per_axis=8)
    size = 2 * grid.num_points
    cols = []
    for idx in range(size):
        e = np.zeros(size)
        e[idx] = 1.0
        Pe = omega_deformation(
            VectorField(grid, e.reshape((2,) + grid.shape)))
        cols.append(Pe.values.reshape(-1))
    P_mat = np.array(cols).T
    _, sing, vt = np.linalg.svd(P_mat)
    null = vt[np.sum(sing > 1e-10 * sing[0]):].T   # basis of ker(P)
    u = random_vector(grid, seed=14)
    flat = u.values.reshape(-1)
    oracle = null @ (null.T @ flat)
    ours = project_symplectic(u).values.reshape(-1)
    assert rel_err(ours, oracle) < 1e-8


def test_project_preserves_constants(grid32):
    u = constant_field(grid32, 0, 2.0)
    assert np.array_equal(project_symplectic(u).values, u.values)


# ---------------------------------------------------------------------------
# trace identity and commutator probe


def test_trace_identity_on_symplectic(grid64):
    omega = symplectic_matrix(1)
    for seed in range(3):
        u = random_symplectic(grid64, seed=800 + seed)
        J = jacobian(u)
        trace = np.einsum("ik,lk...,il...->...", omega, J, J)
        assert np.max(np.abs(trace)) < 1e-9


def test_commutator_ratio_zero_cases(grid64):
    x1 = grid64.coordinate_arrays()[0]
    f = ScalarField(grid64, np.sin(x1) * np.ones(grid64.shape))
    z = VectorField(grid64, np.zeros((2,) + grid64.shape))
    assert riesz_commutator_ratio(z, f, axis=0, s=3.0) == 0.0
    u = random_symplectic(grid64, seed=15)
    const = ScalarField(grid64, np.ones(grid64.shape))
    assert riesz_commutator_ratio(u, const, axis=0, s=3.0) < 1e-12


def test_commutator_ratio_bounded_over_sweep(grid64):
    u = random_symplectic(grid64, seed=16)
    band = (grid64.points_per_axis - 1) // 3
    x1 = grid64.coordinate_arrays()[0]
    ratios = []
    for k in range(1, band + 1, 4):
        f = ScalarField(grid64, np.sin(k * x1) * np.ones(grid64.shape))
        ratios.append(riesz_commutator_ratio(u, f, axis=1, s=3.0))
    # boundedness: the tail does not grow past the early sweep
    assert max(ratios[len(ratios) // 2:]) <= 2.0 * max(ratios[:len(ratios) // 2])


# ---------------------------------------------------------------------------
# divergence helpers


def test_divergence_of_symplectic_vanishes(grid64):
    u = random_symplectic(grid64, seed=17)
    div = np.einsum("ii...->...", jacobian(u))   # the trace of d_j u_i
    assert np.max(np.abs(div)) < 1e-11
