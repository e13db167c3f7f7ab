"""Field snapshot I/O.

Layout: one UTF-8 JSON header line ending in a newline, then raw
little-endian float64 blocks in row-major axis order, one block per
component. Values are stored as physical samples; the header says so
with "representation": "physical", and the reader rejects any other
value. Diffeomorphisms store their displacement with a map=true header
flag.
"""

from __future__ import annotations

import json

import numpy as np

from .eulerian import _atomic_write
from .fields import ScalarField, VectorField
from .grids import GridSpec
from .lagrangian import DiffeoMap

__all__ = ["SnapshotError", "write_snapshot", "read_snapshot"]

_LE64 = np.dtype("<f8")


class SnapshotError(ValueError):
    """Malformed snapshot header or truncated payload."""


def _header_and_stack(obj) -> tuple[dict, np.ndarray]:
    """The snapshot header of obj and its (components, *shape) values."""
    if isinstance(obj, DiffeoMap):
        values = obj.displacement.values
    elif isinstance(obj, VectorField):
        values = obj.values
    elif isinstance(obj, ScalarField):
        values = obj.values[None]
    else:
        raise TypeError(f"cannot snapshot {type(obj).__name__}")
    grid = obj.grid
    return {
        "n": grid.n,
        "N": grid.points_per_axis,
        "L": grid.box_length,
        "representation": "physical",
        "components": values.shape[0],
        "map": isinstance(obj, DiffeoMap),
    }, values


def write_snapshot(path, obj) -> None:
    """Writes a ScalarField, VectorField, or DiffeoMap atomically."""
    header, values = _header_and_stack(obj)
    head = (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")
    _atomic_write(path, head, *(np.ascontiguousarray(comp, dtype=_LE64)
                                for comp in values))


def read_snapshot(path):
    """Returns a ScalarField, VectorField, or DiffeoMap."""
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"bad snapshot header: {exc}") from exc
        payload = fh.read()

    try:
        n, N, comps, L = (header[k] for k in ("n", "N", "components", "L"))
        is_map = header.get("map", False)
        if not all(type(v) is int for v in (n, N, comps)):
            raise TypeError("n, N and components must be integers")
        if type(L) not in (int, float):
            raise TypeError("L must be a number")
        if type(is_map) is not bool:
            raise TypeError("map must be a boolean")
        grid = GridSpec(n=n, points_per_axis=N, box_length=float(L))
        if not np.isfinite(grid.box_length):
            raise ValueError("L must be finite")
        representation = header["representation"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SnapshotError(f"bad snapshot header: {exc}") from exc
    if representation != "physical":
        raise SnapshotError(f"unknown representation {representation!r}")
    if comps not in ((grid.dim,) if is_map else (1, grid.dim)):
        raise SnapshotError(f"{comps} components in a {grid.dim}D "
                            + ("map" if is_map else "field"))

    expected = comps * grid.num_points * _LE64.itemsize
    if len(payload) != expected:
        raise SnapshotError(
            f"payload is {len(payload)} bytes, expected {expected}")
    flat = np.frombuffer(payload, dtype=_LE64)
    values = np.array(flat.reshape((comps,) + grid.shape))

    if is_map:
        return DiffeoMap(grid, VectorField(grid, values))
    if comps == 1:
        return ScalarField(grid, values[0])
    return VectorField(grid, values)
