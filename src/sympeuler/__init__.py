"""Pseudo-spectral laboratory for the symplectic Euler equations.

Periodic boxes in even dimension 2n, Fourier collocation with 2/3-rule
dealiasing, an Eulerian RK4 solver for the velocity formulation, and a
Lagrangian solver for the geodesic (flow-map) formulation, plus the
diagnostics used by the bundled experiments.
"""

__version__ = "0.1.0"
