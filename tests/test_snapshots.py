"""Snapshot format: JSON header line plus little-endian float64 blocks."""

import json

import numpy as np
import pytest

from sympeuler.fields import ScalarField, VectorField
from sympeuler.initial_conditions import random_symplectic, random_vector
from sympeuler.lagrangian import DiffeoMap
from sympeuler.snapshots import SnapshotError, read_snapshot, write_snapshot


def test_scalar_round_trip(tmp_path, grid32):
    rng = np.random.default_rng(1)
    f = ScalarField(grid32, rng.standard_normal(grid32.shape))
    path = tmp_path / "f.snap"
    write_snapshot(path, f)
    g = read_snapshot(path)
    assert isinstance(g, ScalarField)
    assert g.grid == grid32
    assert np.array_equal(g.values, f.values)   # physical blocks are exact


def test_vector_round_trip(tmp_path, grid32):
    u = random_vector(grid32, seed=2)
    path = tmp_path / "u.snap"
    write_snapshot(path, u)
    v = read_snapshot(path)
    assert isinstance(v, VectorField)
    assert np.array_equal(v.values, u.values)


def test_map_round_trip(tmp_path, grid32):
    phi = DiffeoMap(grid32, random_symplectic(grid32, seed=3))
    path = tmp_path / "phi.snap"
    write_snapshot(path, phi)
    back = read_snapshot(path)
    assert isinstance(back, DiffeoMap)
    assert np.array_equal(back.displacement.values,
                          phi.displacement.values)
    header = json.loads(open(path, "rb").readline())
    assert header["map"] is True
    assert header["representation"] == "physical"


def test_header_contents(tmp_path, grid4d):
    u = VectorField(grid4d, np.zeros((4,) + grid4d.shape))
    path = tmp_path / "u.snap"
    write_snapshot(path, u)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    assert header == {"n": 2, "N": 16, "L": grid4d.box_length,
                      "representation": "physical", "components": 4,
                      "map": False}
    assert len(payload) == 4 * grid4d.num_points * 8


def test_spectral_representation_rejected(tmp_path, grid32):
    # snapshots hold physical samples only; a spectral header, even with
    # a payload of the old two-blocks-per-component size, is refused
    u = random_vector(grid32, seed=4)
    path = tmp_path / "u.snap"
    write_snapshot(path, u)
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["representation"] = "spectral"
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload + payload)
    with pytest.raises(SnapshotError):
        read_snapshot(path)


def test_corrupt_header(tmp_path, grid32):
    u = random_vector(grid32, seed=6)
    path = tmp_path / "u.snap"
    write_snapshot(path, u)
    data = path.read_bytes()
    path.write_bytes(b"not json at all\n" + data.split(b"\n", 1)[1])
    with pytest.raises(SnapshotError):
        read_snapshot(path)


def test_missing_header_key(tmp_path, grid32):
    u = random_vector(grid32, seed=7)
    path = tmp_path / "u.snap"
    write_snapshot(path, u)
    data = path.read_bytes()
    head, payload = data.split(b"\n", 1)
    header = json.loads(head)
    del header["components"]
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(SnapshotError):
        read_snapshot(path)


@pytest.mark.parametrize("change, comps", [
    ({"components": 3}, 3), ({"components": 0}, 0),
    ({"L": float("inf")}, 2), ({"N": 32.9}, 2), ({"n": True}, 2),
    ({"map": "no"}, 2), ({"map": 1}, 2), ({"L": True}, 2), ({"L": "6.28"}, 2),
], ids=["3-components", "0-components", "infinite-L", "fractional-N",
        "boolean-n", "string-map", "integer-map", "boolean-L", "string-L"])
def test_malformed_header_values(tmp_path, grid32, change, comps):
    # each payload has the size its header implies once read leniently
    # (int(32.9) = 32, int(True) = 1, bool("no") = True, float(True) = 1.0),
    # so only the header check refuses it
    header = {"n": 1, "N": 32, "L": grid32.box_length,
              "representation": "physical", "components": 2, "map": False,
              **change}
    path = tmp_path / "u.snap"
    path.write_bytes(json.dumps(header).encode() + b"\n"
                     + np.zeros((comps,) + grid32.shape).tobytes())
    with pytest.raises(SnapshotError):
        read_snapshot(path)


def test_truncated_payload(tmp_path, grid32):
    u = random_vector(grid32, seed=8)
    path = tmp_path / "u.snap"
    write_snapshot(path, u)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(SnapshotError):
        read_snapshot(path)


def test_bad_representation_in_header(tmp_path, grid32):
    u = random_vector(grid32, seed=9)
    path = tmp_path / "u.snap"
    write_snapshot(path, u)
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["representation"] = "mystery"
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(SnapshotError):
        read_snapshot(path)


def test_non_snapshot_type_rejected(tmp_path):
    with pytest.raises(TypeError):
        write_snapshot(tmp_path / "x.snap", np.zeros(4))
