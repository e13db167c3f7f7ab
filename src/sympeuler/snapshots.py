"""Field snapshot I/O.

Layout: one UTF-8 JSON header line ending in a newline, then raw
little-endian float64 blocks in row-major axis order, one block per
component. Spectral snapshots store two blocks per component (real part
then imaginary part). Diffeomorphisms store their displacement in
physical representation with a map=true header flag.
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


def _header_for(obj) -> tuple[dict, GridSpec]:
    if isinstance(obj, DiffeoMap):
        grid = obj.grid
        comps = grid.dim
    elif isinstance(obj, VectorField):
        grid = obj.grid
        comps = obj.values.shape[0]
    elif isinstance(obj, ScalarField):
        grid = obj.grid
        comps = 1
    else:
        raise TypeError(f"cannot snapshot {type(obj).__name__}")
    return {
        "n": grid.n,
        "N": grid.points_per_axis,
        "L": grid.box_length,
        "representation": "physical",
        "components": comps,
        "map": isinstance(obj, DiffeoMap),
    }, grid


def write_snapshot(path, obj, representation: str = "physical") -> None:
    """Writes a ScalarField, VectorField, or DiffeoMap atomically."""
    header, grid = _header_for(obj)
    if representation not in ("physical", "spectral"):
        raise ValueError(f"unknown representation {representation!r}")
    if isinstance(obj, DiffeoMap) and representation != "physical":
        raise ValueError("maps are stored in physical representation")
    header["representation"] = representation

    if isinstance(obj, DiffeoMap):
        values = obj.displacement.values
    elif isinstance(obj, ScalarField):
        values = obj.values[None]
    else:
        values = obj.values

    blocks = []
    for comp in values:
        if representation == "physical":
            blocks.append(np.ascontiguousarray(comp, dtype=_LE64))
        else:
            hat = np.fft.fftn(comp)
            blocks.append(np.ascontiguousarray(hat.real, dtype=_LE64))
            blocks.append(np.ascontiguousarray(hat.imag, dtype=_LE64))

    head = (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")
    _atomic_write(path, head, *blocks)


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
        grid = GridSpec(n=int(header["n"]),
                        points_per_axis=int(header["N"]),
                        box_length=float(header["L"]))
        comps = int(header["components"])
        representation = header["representation"]
        is_map = bool(header.get("map", False))
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"bad snapshot header: {exc}") from exc
    if representation not in ("physical", "spectral"):
        raise SnapshotError(f"unknown representation {representation!r}")

    per_comp = 1 if representation == "physical" else 2
    expected = comps * per_comp * grid.num_points * _LE64.itemsize
    if len(payload) != expected:
        raise SnapshotError(
            f"payload is {len(payload)} bytes, expected {expected}")

    flat = np.frombuffer(payload, dtype=_LE64)
    blocks = flat.reshape((comps * per_comp,) + grid.shape)
    if representation == "physical":
        values = np.array(blocks)
    else:
        values = np.stack([
            np.real(np.fft.ifftn(blocks[2 * i] + 1j * blocks[2 * i + 1]))
            for i in range(comps)
        ])

    if is_map:
        if comps != grid.dim:
            raise SnapshotError("map snapshot must have dim components")
        return DiffeoMap(grid, VectorField(grid, values))
    if comps == 1:
        return ScalarField(grid, values[0])
    return VectorField(grid, values)
