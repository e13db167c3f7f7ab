"""Shared fixtures: small grids, a relative-error helper and a one-shot
sized iterable."""

import numpy as np
import pytest

from sympeuler.grids import GridSpec


@pytest.fixture
def grid32() -> GridSpec:
    return GridSpec(n=1, points_per_axis=32)


@pytest.fixture
def grid64() -> GridSpec:
    return GridSpec(n=1, points_per_axis=64)


@pytest.fixture
def grid4d() -> GridSpec:
    return GridSpec(n=2, points_per_axis=16)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_2 / max(||a||_2, ||b||_2) over flattened arrays."""
    num = float(np.linalg.norm(np.ravel(a) - np.ravel(b)))
    den = max(float(np.linalg.norm(np.ravel(a))),
              float(np.linalg.norm(np.ravel(b))), 1e-300)
    return num / den


class OneShot:
    """A sized iterable that yields its items once, as a run does: a
    second pass finds the iterator spent and yields nothing."""

    def __init__(self, items, length: int):
        self._items, self._length = iter(items), length

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        return self._items
