"""Symplectic vector calculus on periodic boxes: the reference operator chain.

The central object is the deformation operator taking a vector field X
to the skew-matrix field describing how the flow of X deforms the
standard symplectic form (the Lie derivative of the form along X),
together with its formal L^2 adjoint. Quadratic forms of a velocity
field expressing the deformation of the advection term, the constraint
force that keeps a flow symplectic, and the symplectic gradient /
divergence calculus are built on top.

This chain is the reference oracle for the fused kernel and the
diagnostics record in eulerian.py: one function per operator of the
paper, composed as the paper composes them, sharing nothing with the
kernel beyond spectral.py's symbols. Each operator takes one batched
rfftn of its input's independent components (cached on the field as
rhat; for a skew field the upper triangle) and one batched irfftn of its
output's; a quadratic form adds one round trip for its pointwise
products.

All quadratic forms apply the 2/3-rule truncation to their inputs and
outputs, so the algebraic identities between them hold to rounding on
the retained band.
"""

from __future__ import annotations

import functools

import numpy as np

from .fields import (
    ScalarField,
    SkewMatrixField,
    VectorField,
    _irfftn,
    _rfftn,
    skew_part,
)
from .grids import GridSpec
from .spectral import (
    _half_derivative_symbols,
    _half_inverse_laplacian,
    ball_cutoff_mask,
    dealias_mask,
    inverse_laplacian,
    lebesgue_norms,
    riesz_transform,
    sobolev_norm,
    two_thirds_truncate,
)

__all__ = [
    "symplectic_matrix",
    "jacobian",
    "skew_divergence",
    "omega_deformation",
    "omega_deformation_adjoint",
    "divergence_curl",
    "advective_deformation_strain",
    "advective_deformation_flux",
    "compressibility_defect",
    "constraint_force",
    "advection_term",
    "symplectic_gradient",
    "symplectic_divergence",
    "velocity_from_symplectic_divergence",
    "project_symplectic",
    "riesz_commutator_ratio",
]


@functools.lru_cache(maxsize=16)
def symplectic_matrix(n: int) -> np.ndarray:
    """Block-diagonal 2n x 2n matrix with [[0, 1], [-1, 0]] blocks."""
    omega = np.zeros((2 * n, 2 * n))
    for a in range(n):
        omega[2 * a, 2 * a + 1] = 1.0
        omega[2 * a + 1, 2 * a] = -1.0
    return omega


def _gradient_hat(grid: GridSpec, hat: np.ndarray) -> np.ndarray:
    """Half-lattice gradient: a new axis after hat's leading ones holds
    d_j, so a vector's hat gives G[i, j] = d_j u_i."""
    D = _half_derivative_symbols(grid)
    return np.stack([hat * D[j] for j in range(grid.dim)],
                    axis=hat.ndim - grid.dim)


def _divergence_hat(u: VectorField) -> np.ndarray:
    D = _half_derivative_symbols(u.grid)
    return sum(D[j] * u.rhat[j] for j in range(u.grid.dim))


def _skew_gradient(grid: GridSpec, V_hat: np.ndarray) -> SkewMatrixField:
    """The skew field A - A^T with A_ij = d_j V_i, from the half-lattice
    spectrum of V: upper entries d_j V_i - d_i V_j."""
    D = _half_derivative_symbols(grid)
    return SkewMatrixField.from_rspectral(grid, np.stack([
        D[j] * V_hat[i] - D[i] * V_hat[j]
        for i, j in zip(*np.triu_indices(grid.dim, 1))]))


def jacobian(u: VectorField) -> np.ndarray:
    """All partial derivatives as an array J[i, j] = d_j u_i (physical)."""
    return _irfftn(_gradient_hat(u.grid, u.rhat), u.grid.shape)


def _skew_divergence(Y: SkewMatrixField) -> np.ndarray:
    """div(Y)_k = sum_i d_i Y_{ik}, returned as stacked half-lattice array.

    With Y_{ji} = -Y_{ij}, the upper entry (i, j) adds d_i Y_{ij} to
    component j and -d_j Y_{ij} to component i."""
    D = _half_derivative_symbols(Y.grid)
    hat = Y.rhat
    out = np.zeros((Y.grid.dim,) + hat.shape[1:], dtype=complex)
    for e, (i, j) in enumerate(zip(*np.triu_indices(Y.grid.dim, 1))):
        out[j] += D[i] * hat[e]
        out[i] -= D[j] * hat[e]
    return out


def skew_divergence(Y: SkewMatrixField) -> VectorField:
    """Column-wise divergence of a skew matrix field, div(Y)_k = sum_i d_i Y_{ik}."""
    return VectorField.from_rspectral(Y.grid, _skew_divergence(Y))


def omega_deformation(X: VectorField) -> SkewMatrixField:
    """Skew field describing the deformation of the symplectic form by X.

    With J the Jacobian of X this is omega^T J - J^T omega; it vanishes
    exactly when the flow of X preserves the form. As omega is constant,
    (omega^T J)_ij = d_j (omega^T X)_i.
    """
    omega = symplectic_matrix(X.grid.n)
    return _skew_gradient(X.grid, np.tensordot(omega, X.rhat, axes=(0, 0)))


def omega_deformation_adjoint(Y: SkewMatrixField) -> VectorField:
    """Formal L^2 adjoint: -2 div(Y) . omega as a vector field."""
    omega = symplectic_matrix(Y.grid.n)
    out_hat = np.tensordot(omega, _skew_divergence(Y), axes=(0, 0)) * (-2.0)
    return VectorField.from_rspectral(Y.grid, out_hat)


def divergence_curl(Y: SkewMatrixField) -> SkewMatrixField:
    """Antisymmetrized gradient of the skew field's divergence vector."""
    return _skew_gradient(Y.grid, _skew_divergence(Y))


# ---------------------------------------------------------------------------
# quadratic forms of a velocity field


def _dealiased_skew(grid: GridSpec, matrix_values: np.ndarray) -> SkewMatrixField:
    return two_thirds_truncate(skew_part(grid, matrix_values))


def advective_deformation_strain(u: VectorField) -> SkewMatrixField:
    """Strain form: built from M_{ij} = sum_k d_j u_k d_k u_i.

    This is the first-derivative-products part of the deformation of the
    advection term; it carries the high-frequency content.
    """
    u = two_thirds_truncate(u)
    grid = u.grid
    omega = symplectic_matrix(grid.n)
    J = jacobian(u)
    M = np.einsum("kj...,ik...->ij...", J, J)
    A = np.tensordot(omega, M, axes=(0, 0))
    return _dealiased_skew(grid, A)


def advective_deformation_flux(u: VectorField) -> SkewMatrixField:
    """Flux (conservative) form: built from sum_k d_k(d_j u_k * u_i).

    Algebraically equals the strain form plus the compressibility defect;
    written in divergence form it stays bounded on low frequencies.
    """
    u = two_thirds_truncate(u)
    grid = u.grid
    omega = symplectic_matrix(grid.n)
    J = jacobian(u)
    # M~_{ij} = sum_k d_k (u_i * d_j u_k). As omega is constant,
    # (omega^T M~)_{ij} = sum_k d_k (v_i d_j u_k) with v = omega^T u, so
    # only the upper entries of its skew part are transformed:
    # F[e, k] = v_i J_kj - v_j J_ki for the e-th pair i < j
    v = np.tensordot(omega, u.values, axes=(0, 0))
    F_hat = _rfftn(np.stack([v[i] * J[:, j] - v[j] * J[:, i]
                             for i, j in zip(*np.triu_indices(grid.dim, 1))]),
                   grid.dim)
    D = _half_derivative_symbols(grid)
    S_hat = sum(D[k] * F_hat[:, k] for k in range(grid.dim))
    return SkewMatrixField.from_rspectral(
        grid, S_hat * dealias_mask(grid))


def compressibility_defect(u: VectorField) -> SkewMatrixField:
    """Defect between flux and strain forms: entries u_i d_j(div u).

    Vanishes identically on divergence-free (symplectic) fields.
    """
    u = two_thirds_truncate(u)
    grid = u.grid
    omega = symplectic_matrix(grid.n)
    grad_div = _irfftn(_gradient_hat(grid, _divergence_hat(u)), grid.shape)
    G = np.einsum("i...,j...->ij...", u.values, grad_div)
    A = np.tensordot(omega, G, axes=(0, 0))
    return _dealiased_skew(grid, A)


def constraint_force(u: VectorField, cutoff_radius: float = 1.0) -> VectorField:
    """Bounded quadratic force keeping symplectic data symplectic.

    High frequencies (outside the ball |xi| <= cutoff_radius) use the
    strain form, low frequencies the flux form; on symplectic fields the
    two agree and the split is invisible. The result is L^2-orthogonal
    to every symplectic field and has zero symplectic divergence.
    """
    grid = u.grid
    chi = ball_cutoff_mask(grid, cutoff_radius)
    div_strain = _skew_divergence(advective_deformation_strain(u))
    div_flux = _skew_divergence(advective_deformation_flux(u))
    omega = symplectic_matrix(grid.n)
    div_mix = (1.0 - chi) * div_strain + chi * div_flux
    adj_hat = np.tensordot(omega, div_mix, axes=(0, 0)) * (-2.0)
    # -1/2 inverse Laplacian of the mixed adjoint (zero mode discarded)
    return VectorField.from_rspectral(
        grid, -0.5 * _half_inverse_laplacian(grid) * adj_hat)


def advection_term(u: VectorField) -> VectorField:
    """(u . grad) u with 2/3-rule dealiasing."""
    u = two_thirds_truncate(u)
    adv = np.einsum("j...,ij...->i...", u.values, jacobian(u))
    return two_thirds_truncate(VectorField(u.grid, adv))


# ---------------------------------------------------------------------------
# symplectic gradient / divergence calculus


def symplectic_gradient(H: ScalarField) -> VectorField:
    """(d_2 H, -d_1 H, ..., d_{2n} H, -d_{2n-1} H)."""
    grid = H.grid
    D = _half_derivative_symbols(grid)
    hat = H.rhat
    comps = np.empty((grid.dim,) + hat.shape, dtype=complex)
    for a in range(grid.n):
        comps[2 * a] = hat * D[2 * a + 1]
        comps[2 * a + 1] = -hat * D[2 * a]
    return VectorField.from_rspectral(grid, comps)


def symplectic_divergence(u: VectorField) -> ScalarField:
    """d_2 u_1 - d_1 u_2 + ... + d_{2n} u_{2n-1} - d_{2n-1} u_{2n}."""
    grid = u.grid
    D = _half_derivative_symbols(grid)
    hat = u.rhat
    return ScalarField.from_rspectral(grid, sum(
        D[2 * a + 1] * hat[2 * a] - D[2 * a] * hat[2 * a + 1]
        for a in range(grid.n)))


def velocity_from_symplectic_divergence(zeta: ScalarField) -> VectorField:
    """Unique mean-free symplectic field with the given symplectic divergence.

    The symplectic divergence of a symplectic gradient is the Laplacian,
    so the inverse is the symplectic gradient of the inverse Laplacian.
    The zero mode of zeta is discarded.
    """
    return symplectic_gradient(inverse_laplacian(zeta))


def project_symplectic(u: VectorField) -> VectorField:
    """L^2-orthogonal projection onto fields preserving the symplectic form.

    Computed as u + (1/2) Delta^{-1} (adjoint o deformation)(u); the zero
    mode passes through unchanged.
    """
    correction = inverse_laplacian(
        omega_deformation_adjoint(omega_deformation(u))
    )
    return VectorField.from_rspectral(u.grid,
                                      u.rhat + 0.5 * correction.rhat)


# ---------------------------------------------------------------------------
# probes


def riesz_commutator_ratio(u: VectorField, f: ScalarField, axis: int, s: float) -> float:
    """|| [u.grad, R_axis] f ||_{L^2} / (||u||_{H^s} ||f||_{L^2})."""
    u = two_thirds_truncate(u)
    f = two_thirds_truncate(f)
    grid = u.grid

    def advect(g: ScalarField) -> ScalarField:
        grad = _irfftn(_gradient_hat(grid, g.rhat), grid.shape)
        total = sum(u.values[j] * grad[j] for j in range(grid.dim))
        return two_thirds_truncate(ScalarField(grid, total))

    rf = riesz_transform(f, axis)
    commutator = ScalarField(
        grid, advect(rf).values - riesz_transform(advect(f), axis).values)
    l2_comm, _ = lebesgue_norms(commutator)
    l2_f, _ = lebesgue_norms(f)
    denom = sobolev_norm(u, s) * l2_f
    if denom == 0.0:
        return 0.0
    return l2_comm / denom
