"""Run configuration: YAML schema, validation, field construction.

One table, _SCHEMA, gives every key its type, default and range; parsing
checks the whole file against it before anything runs, so a YAML string
where a number belongs (1.0e8 without a sign is text in YAML 1.1) or a
negative norm fails here rather than deep in a solver. Rules that tie
keys together (s > n + 1, time.dt <= time.t_final, exactly one of dt and
cfl) follow the table. Errors carry dotted key paths (for example
``initial.seed: required for kind 'random_symplectic'``) so a bad file
pinpoints its own fix.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import yaml

from .fields import VectorField
from .grids import GridSpec
from .initial_conditions import (
    bump_symplectic,
    constant_field,
    random_symplectic,
    random_vector,
    steady_shear,
    trig_potential,
)
from .operators import symplectic_gradient

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_run_config",
           "build_initial_condition"]


class ConfigError(ValueError):
    """Invalid configuration; message carries the dotted key path."""


_RANDOM_KINDS = ("random_symplectic", "random_vector")
_KINDS = ("random_symplectic", "random_vector", "sympl_grad_bump",
          "sympl_grad_trig", "steady_shear", "constant", "zero")


@dataclasses.dataclass
class RunConfig:
    grid: GridSpec
    s: float
    cutoff_radius: float
    t_final: float
    dt: float | None            # exactly one of dt/cfl is set
    cfl: float | None
    initial: dict
    diag_every: int
    snapshot: str | None
    lagrangian_dt: float
    experiment: dict


_REQUIRED = object()

# section -> key -> (type, default[, range]); "" is the root and a dict-typed
# key names a section. A default of None leaves the key out unless the file
# sets it; its default then lives where it is read: GridSpec's box length, the
# grid-dependent bump geometry, build_nonuniform_config's signature. A range
# is checked right after the type; it names a row of _RANGES.
_SCHEMA = {
    "": {"grid": (dict, {}), "s": (float, 3.0),
         "cutoff_radius": (float, 1.0, "> 0"), "time": (dict, {}),
         "initial": (dict, {"kind": "zero"}), "output": (dict, {}),
         "lagrangian": (dict, {}), "experiment": (dict, {})},
    "grid": {"n": (int, 1), "points_per_axis": (int, 64),
             "box_length": (float, None)},
    "time": {"t_final": (float, 1.0, "> 0"), "dt": (float, None),
             "cfl": (float, None, "(0, 1]")},
    "initial": {"kind": (str, _REQUIRED), "seed": (int, None, ">= 0"),
                "decay": (float, 0.5), "norm": (float, 1.0, "> 0"),
                "center": (list, None), "radius": (float, None),
                "amplitude": (float, 1.0), "terms": (list, None),
                "direction": (int, 0), "magnitude": (float, 1.0)},
    "output": {"diag_every": (int, 1, ">= 1"),
               "snapshot": (str, "final.snap")},
    "lagrangian": {"dt": (float, 0.01, "> 0")},
    "experiment": {"seeds": (list, [0, 1, 2], "non-empty"),
                   "t_final": (float, 0.5, "> 0"),
                   "decay": (float, 0.8, "> 0"), "norm": (float, 1.0, "> 0"),
                   "K": (int, None, ">= 1"), "R": (float, None, "> 0"),
                   "epsilon": (float, None, "> 0"),
                   "cfl": (float, None, "(0, 1]")},
}
_EXPECTED = {float: "a number", int: "an integer", str: "a string",
             list: "a list", dict: "a mapping"}
_RANGES = {"> 0": (lambda v: v > 0, "must be positive"),
           ">= 0": (lambda v: v >= 0, "must be >= 0"),
           ">= 1": (lambda v: v >= 1, "must be >= 1"),
           "(0, 1]": (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
           "non-empty": (lambda v: len(v) > 0, "must not be empty")}


def _ctx(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _walk(raw: dict, section: str = "") -> dict:
    """Checks one section against _SCHEMA, types then ranges, and fills
    in its defaults."""
    schema = _SCHEMA[section]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"{_ctx(section, unknown[0])}: unknown key "
                          f"(allowed: {', '.join(sorted(schema))})")
    out = {}
    for key, (kind, default, *bounds) in schema.items():
        path = _ctx(section, key)
        if key not in raw and default is _REQUIRED:
            raise ConfigError(f"{path}: required")
        if key not in raw and default is None:
            continue
        value = raw.get(key, default)
        accepted = (int, float) if kind is float else kind
        # a float key takes finite floats and the integers a float can hold
        if (isinstance(value, bool) or not isinstance(value, accepted)
                or kind is float and not abs(value) <= sys.float_info.max):
            raise ConfigError(f"{path}: expected {_EXPECTED[kind]}, "
                              f"got {value!r}")
        out[key] = _walk(value, key) if kind is dict else kind(value)
        for within, message in map(_RANGES.get, bounds):
            if not within(out[key]):
                raise ConfigError(f"{path}: {message}")
    return out


def load_config(path) -> dict:
    """Parses the YAML file into a raw mapping."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: a scalar Python cannot build (2023-02-30, 5000 digits)
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return raw


def parse_run_config(raw: dict) -> RunConfig:
    tree = _walk(raw)
    try:
        grid = GridSpec(**tree["grid"])
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    n, s = grid.n, tree["s"]
    if not s > n + 1:
        raise ConfigError(f"s: must exceed {n + 1} (s > 2n/2 + 1 with "
                          f"n={n}); got {s}")

    time, isec, esec = tree["time"], tree["initial"], tree["experiment"]
    if ("dt" in time) == ("cfl" in time):
        raise ConfigError("time: set exactly one of dt, cfl")
    if "dt" in time and not 0 < time["dt"] <= time["t_final"]:
        raise ConfigError("time.dt: must lie in (0, t_final]")
    kind = isec["kind"]
    if kind not in _KINDS:
        raise ConfigError(f"initial.kind: unknown kind {kind!r} "
                          f"(one of {', '.join(_KINDS)})")
    if kind in _RANDOM_KINDS and "seed" not in isec:
        raise ConfigError(f"initial.seed: required for kind {kind!r}")
    if not all(isinstance(c, (int, float)) and not isinstance(c, bool)
               and abs(c) <= sys.float_info.max
               for c in isec.get("center", ())):
        raise ConfigError("initial.center: expected numbers")
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0
               for v in esec["seeds"]):
        raise ConfigError(f"experiment.seeds: expected integers >= 0, "
                          f"got {esec['seeds']!r}")

    return RunConfig(grid=grid, s=s, cutoff_radius=tree["cutoff_radius"],
                     t_final=time["t_final"], dt=time.get("dt"),
                     cfl=time.get("cfl"), initial=isec,
                     diag_every=tree["output"]["diag_every"],
                     snapshot=tree["output"]["snapshot"],
                     lagrangian_dt=tree["lagrangian"]["dt"],
                     experiment=esec)


def build_initial_condition(cfg: RunConfig) -> VectorField:
    grid, isec = cfg.grid, cfg.initial
    kind = isec["kind"]
    if kind == "zero":
        return VectorField(grid, np.zeros((grid.dim,) + grid.shape))
    if kind in _RANDOM_KINDS:
        # random_vector is generically non-symplectic; the residual
        # dichotomy needs it
        draw = random_symplectic if kind == "random_symplectic" else random_vector
        try:
            return draw(grid, seed=isec["seed"], decay=isec["decay"], s=cfg.s,
                        norm=isec["norm"])
        except ValueError as exc:   # a large decay underflows every mode
            raise ConfigError(f"initial.decay: {exc}") from exc
    if kind == "steady_shear":
        return steady_shear(grid, amplitude=isec["amplitude"])
    if kind == "constant":
        if not 0 <= isec["direction"] < grid.dim:
            raise ConfigError(f"initial.direction: must lie in "
                              f"[0, {grid.dim})")
        return constant_field(grid, isec["direction"],
                              magnitude=isec["magnitude"])
    if kind == "sympl_grad_bump":
        center = isec.get("center", [grid.box_length / 2.0] * grid.dim)
        if len(center) != grid.dim:
            raise ConfigError(f"initial.center: expected {grid.dim} "
                              "coordinates")
        try:
            return bump_symplectic(grid, np.asarray(center, dtype=float),
                                   isec.get("radius", grid.box_length / 8.0),
                                   amplitude=isec["amplitude"])
        except ValueError as exc:
            raise ConfigError(f"initial.radius: {exc}") from exc
    if kind == "sympl_grad_trig":
        try:
            return symplectic_gradient(trig_potential(grid, isec.get("terms")))
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"initial.terms: {exc}") from exc
    raise AssertionError(kind)
