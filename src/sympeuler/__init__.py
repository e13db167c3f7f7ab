"""Pseudo-spectral laboratory for the symplectic Euler equations.

Periodic boxes in even dimension 2n, Fourier collocation with 2/3-rule
dealiasing, an Eulerian RK4 solver for the velocity formulation, and a
Lagrangian solver for the geodesic (flow-map) formulation, plus the
diagnostics used by the bundled experiments.
"""

from .grids import GridSpec
from .fields import ScalarField, SkewMatrixField, VectorField
from .spectral import (
    ball_cutoff_mask,
    dealias_band,
    inverse_laplacian,
    lebesgue_norms,
    partial_derivative,
    riesz_transform,
    sobolev_norm,
    two_thirds_truncate,
)
from .operators import (
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
    symplectic_divergence,
    symplectic_gradient,
    symplectic_matrix,
    velocity_from_symplectic_divergence,
)

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "ScalarField",
    "VectorField",
    "SkewMatrixField",
    "ball_cutoff_mask",
    "dealias_band",
    "inverse_laplacian",
    "lebesgue_norms",
    "partial_derivative",
    "riesz_transform",
    "sobolev_norm",
    "two_thirds_truncate",
    "advection_term",
    "advective_deformation_flux",
    "advective_deformation_strain",
    "compressibility_defect",
    "constraint_force",
    "divergence_curl",
    "jacobian",
    "omega_deformation",
    "omega_deformation_adjoint",
    "project_symplectic",
    "riesz_commutator_ratio",
    "symplectic_divergence",
    "symplectic_gradient",
    "symplectic_matrix",
    "velocity_from_symplectic_divergence",
    "__version__",
]
