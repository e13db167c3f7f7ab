"""Run configuration: YAML schema, validation, field construction.

Validation errors carry dotted key paths (for example
``initial.seed: required for kind 'random_symplectic'``) so a bad file
pinpoints its own fix.
"""

from __future__ import annotations

import dataclasses
import math

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
    project_every: int
    lagrangian_dt: float
    experiment: dict


def _ctx(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _get(section: dict, key: str, path: str, kind, default=None,
         required: bool = False):
    if key not in section:
        if required:
            raise ConfigError(f"{_ctx(path, key)}: required")
        return default
    value = section[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{_ctx(path, key)}: expected a number, "
                              f"got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{_ctx(path, key)}: expected an integer, "
                              f"got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{_ctx(path, key)}: expected a string, "
                              f"got {value!r}")
        return value
    if kind is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{_ctx(path, key)}: expected a mapping, "
                              f"got {value!r}")
        return value
    if kind is list:
        if not isinstance(value, list):
            raise ConfigError(f"{_ctx(path, key)}: expected a list, "
                              f"got {value!r}")
        return value
    raise AssertionError(kind)


def _reject_unknown(section: dict, allowed, path: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"{_ctx(path, unknown[0])}: unknown key "
                          f"(allowed: {', '.join(sorted(allowed))})")


def load_config(path) -> dict:
    """Parses the YAML file into a raw mapping."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return raw


def parse_run_config(raw: dict) -> RunConfig:
    _reject_unknown(raw, ("grid", "s", "cutoff_radius", "time", "initial",
                          "output", "lagrangian", "project_every",
                          "experiment"), "")

    gsec = _get(raw, "grid", "", dict, default={})
    _reject_unknown(gsec, ("n", "points_per_axis", "box_length"), "grid")
    n = _get(gsec, "n", "grid", int, default=1)
    N = _get(gsec, "points_per_axis", "grid", int, default=64)
    L = _get(gsec, "box_length", "grid", float, default=2.0 * math.pi)
    try:
        grid = GridSpec(n=n, points_per_axis=N, box_length=L)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    s = _get(raw, "s", "", float, default=3.0)
    if not s > n + 1:
        raise ConfigError(f"s: must exceed {n + 1} (s > 2n/2 + 1 with "
                          f"n={n}); got {s}")
    cutoff_radius = _get(raw, "cutoff_radius", "", float, default=1.0)
    if not cutoff_radius > 0:
        raise ConfigError("cutoff_radius: must be positive")

    tsec = _get(raw, "time", "", dict, default={})
    _reject_unknown(tsec, ("t_final", "dt", "cfl"), "time")
    t_final = _get(tsec, "t_final", "time", float, default=1.0)
    if not t_final > 0:
        raise ConfigError("time.t_final: must be positive")
    dt = _get(tsec, "dt", "time", float)
    cfl = _get(tsec, "cfl", "time", float)
    if (dt is None) == (cfl is None):
        raise ConfigError("time: set exactly one of dt, cfl")
    if dt is not None and not 0 < dt <= t_final:
        raise ConfigError("time.dt: must lie in (0, t_final]")
    if cfl is not None and not 0 < cfl <= 1:
        raise ConfigError("time.cfl: must lie in (0, 1]")

    isec = _get(raw, "initial", "", dict, default={"kind": "zero"})
    _reject_unknown(isec, ("kind", "seed", "decay", "norm", "center",
                           "radius", "amplitude", "terms", "direction",
                           "magnitude"), "initial")
    kind = _get(isec, "kind", "initial", str, required=True)
    if kind not in _KINDS:
        raise ConfigError(f"initial.kind: unknown kind {kind!r} "
                          f"(one of {', '.join(_KINDS)})")
    if kind in _RANDOM_KINDS and _get(isec, "seed", "initial", int) is None:
        raise ConfigError(f"initial.seed: required for kind {kind!r}")
    # coerce numeric knobs now so a YAML string (e.g. 1.0e8, which YAML 1.1
    # reads as text) fails here with a key path, not deep in a solver
    for key in ("decay", "norm", "amplitude", "magnitude", "radius"):
        if key in isec:
            isec[key] = _get(isec, key, "initial", float)
    if "norm" in isec and isec["norm"] <= 0.0:
        raise ConfigError("initial.norm: must be positive")
    if "direction" in isec:
        isec["direction"] = _get(isec, "direction", "initial", int)
    if "center" in isec:
        center = _get(isec, "center", "initial", list)
        if not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                   for c in center):
            raise ConfigError("initial.center: expected numbers")

    osec = _get(raw, "output", "", dict, default={})
    _reject_unknown(osec, ("diag_every", "snapshot"), "output")
    diag_every = _get(osec, "diag_every", "output", int, default=1)
    if diag_every < 1:
        raise ConfigError("output.diag_every: must be >= 1")
    snapshot = _get(osec, "snapshot", "output", str, default="final.snap")

    lsec = _get(raw, "lagrangian", "", dict, default={})
    _reject_unknown(lsec, ("dt",), "lagrangian")
    lagrangian_dt = _get(lsec, "dt", "lagrangian", float, default=0.01)
    if not lagrangian_dt > 0:
        raise ConfigError("lagrangian.dt: must be positive")

    project_every = _get(raw, "project_every", "", int, default=0)
    if project_every < 0:
        raise ConfigError("project_every: must be >= 0")

    esec = _get(raw, "experiment", "", dict, default={})
    _reject_unknown(esec, ("K", "R", "cfl", "epsilon", "t_final", "seeds",
                           "decay", "norm"), "experiment")

    return RunConfig(grid=grid, s=s, cutoff_radius=cutoff_radius,
                     t_final=t_final, dt=dt, cfl=cfl, initial=dict(isec),
                     diag_every=diag_every, snapshot=snapshot,
                     project_every=project_every,
                     lagrangian_dt=lagrangian_dt, experiment=dict(esec))


def build_initial_condition(cfg: RunConfig) -> VectorField:
    grid, isec = cfg.grid, cfg.initial
    kind = isec["kind"]
    if kind == "zero":
        return VectorField(grid, np.zeros((grid.dim,) + grid.shape))
    if kind == "random_symplectic":
        return random_symplectic(grid, seed=isec["seed"],
                                 decay=isec.get("decay", 0.5), s=cfg.s,
                                 norm=isec.get("norm", 1.0))
    if kind == "random_vector":
        # generically non-symplectic; the residual dichotomy needs this
        return random_vector(grid, seed=isec["seed"],
                             decay=isec.get("decay", 0.5), s=cfg.s,
                             norm=isec.get("norm", 1.0))
    if kind == "steady_shear":
        return steady_shear(grid, amplitude=isec.get("amplitude", 1.0))
    if kind == "constant":
        direction = isec.get("direction", 0)
        if not 0 <= direction < grid.dim:
            raise ConfigError(f"initial.direction: must lie in "
                              f"[0, {grid.dim})")
        return constant_field(grid, direction,
                              magnitude=isec.get("magnitude", 1.0))
    if kind == "sympl_grad_bump":
        center = isec.get("center")
        if center is None:
            center = [grid.box_length / 2.0] * grid.dim
        if len(center) != grid.dim:
            raise ConfigError(f"initial.center: expected {grid.dim} "
                              "coordinates")
        radius = isec.get("radius", grid.box_length / 8.0)
        try:
            return bump_symplectic(grid, np.asarray(center, dtype=float),
                                   float(radius),
                                   amplitude=isec.get("amplitude", 1.0))
        except ValueError as exc:
            raise ConfigError(f"initial.radius: {exc}") from exc
    if kind == "sympl_grad_trig":
        terms = isec.get("terms")
        try:
            return symplectic_gradient(trig_potential(grid, terms))
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"initial.terms: {exc}") from exc
    raise AssertionError(kind)
