"""Uniform periodic grids for pseudo-spectral work on [0, L)^{2n}."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on the box [0, box_length)^{2n}.

    The physical dimension is ``2 * n`` (coordinates come in symplectic
    pairs), sampled at ``points_per_axis`` points along every axis. The
    grid holds no frequencies: spectral.py builds every Fourier symbol
    on the rfftn half lattice of a real field on this grid.
    """

    n: int
    points_per_axis: int
    box_length: float = 2.0 * np.pi

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.points_per_axis < 4 or self.points_per_axis % 2 != 0:
            raise ValueError("points_per_axis must be an even integer >= 4")
        if not self.box_length > 0.0:
            raise ValueError("box_length must be positive")

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def spacing(self) -> float:
        return self.box_length / self.points_per_axis

    @property
    def num_points(self) -> int:
        return self.points_per_axis ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    @property
    def box_volume(self) -> float:
        return self.box_length ** self.dim

    @functools.cached_property
    def axis_coordinates(self) -> np.ndarray:
        return np.arange(self.points_per_axis) * self.spacing

    def coordinate_arrays(self) -> list[np.ndarray]:
        """Physical coordinates as broadcastable (sparse) meshgrid arrays."""
        return list(
            np.meshgrid(*([self.axis_coordinates] * self.dim), indexing="ij", sparse=True)
        )

    def coordinate_stack(self) -> np.ndarray:
        """Dense physical coordinates stacked as (dim, *shape)."""
        return np.stack(np.broadcast_arrays(*self.coordinate_arrays()))
