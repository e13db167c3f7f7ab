"""Config schema validation and end-to-end CLI runs (in-process)."""

import csv
import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import sympeuler
from sympeuler.cli import main
from sympeuler.config import (
    _SCHEMA,
    ConfigError,
    build_initial_condition,
    load_config,
    parse_run_config,
)
from sympeuler.experiments import (
    ExperimentFailure,
    NonuniformRow,
    build_nonuniform_config,
)
from sympeuler.operators import omega_deformation
from sympeuler.snapshots import read_snapshot
from sympeuler.spectral import sobolev_norm


def parse(raw):
    return parse_run_config(raw)


def write_cfg(tmp_path, raw, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


BASE_TIME = {"time": {"cfl": 0.5}}


# ---------------------------------------------------------------------------
# schema


def test_defaults():
    cfg = parse({"time": {"cfl": 0.5}})
    assert cfg.grid.n == 1
    assert cfg.grid.points_per_axis == 64
    assert cfg.s == 3.0
    assert cfg.cutoff_radius == 1.0
    assert cfg.t_final == 1.0
    assert cfg.dt is None and cfg.cfl == 0.5
    assert cfg.initial["kind"] == "zero"
    assert cfg.snapshot == "final.snap"


def test_regularity_floor():
    with pytest.raises(ConfigError, match=r"s: must exceed 2"):
        parse({"s": 2.0, "time": {"cfl": 0.5}})
    with pytest.raises(ConfigError, match=r"s: must exceed 3"):
        parse({"grid": {"n": 2, "points_per_axis": 16}, "s": 2.5,
               "time": {"cfl": 0.5}})
    parse({"s": 2.0001, "time": {"cfl": 0.5}})   # just above the floor


def test_dt_cfl_exclusive():
    with pytest.raises(ConfigError, match="exactly one"):
        parse({"time": {"dt": 0.1, "cfl": 0.5}})
    with pytest.raises(ConfigError, match="exactly one"):
        parse({"time": {"t_final": 1.0}})


def test_time_bounds():
    with pytest.raises(ConfigError, match="t_final"):
        parse({"time": {"t_final": -1.0, "cfl": 0.5}})
    with pytest.raises(ConfigError, match="time.dt"):
        parse({"time": {"t_final": 1.0, "dt": 2.0}})
    with pytest.raises(ConfigError, match="time.cfl"):
        parse({"time": {"cfl": 1.5}})


_TINY = math.nextafter(0.0, 1.0)
_ABOVE_ONE = math.nextafter(1.0, 2.0)


# every key with a range, a value just outside it, a boundary value inside
# it and the message; listed here, not read from the schema, so a range
# dropped from the schema fails
_RANGE_CASES = [
    ("cutoff_radius", 0.0, _TINY, "must be positive"),
    ("time.t_final", 0.0, _TINY, "must be positive"),
    ("initial.norm", 0.0, _TINY, "must be positive"),
    ("lagrangian.dt", 0.0, _TINY, "must be positive"),
    ("experiment.t_final", 0.0, _TINY, "must be positive"),
    ("experiment.decay", 0.0, _TINY, "must be positive"),
    ("experiment.norm", 0.0, _TINY, "must be positive"),
    ("experiment.R", 0.0, _TINY, "must be positive"),
    ("experiment.epsilon", 0.0, _TINY, "must be positive"),
    ("initial.seed", -1, 0, "must be >= 0"),
    ("output.diag_every", 0, 1, "must be >= 1"),
    ("experiment.K", 0, 1, "must be >= 1"),
    ("time.cfl", _ABOVE_ONE, 1.0, "must lie in (0, 1]"),
    ("experiment.cfl", _ABOVE_ONE, 1.0, "must lie in (0, 1]"),
]


@pytest.mark.parametrize("path, outside, inside, message", _RANGE_CASES,
                         ids=[case[0] for case in _RANGE_CASES])
def test_range_messages(path, outside, inside, message):
    def raw(value):
        out = {"time": {"cfl": 0.5},
               "initial": {"kind": "random_symplectic", "seed": 1}}
        section, _, key = path.rpartition(".")
        (out.setdefault(section, {}) if section else out)[key] = value
        return out

    with pytest.raises(ConfigError) as excinfo:
        parse(raw(outside))
    assert str(excinfo.value) == f"{path}: {message}"
    parse(raw(inside))


def test_seed_required_for_random_kinds():
    for kind in ("random_symplectic", "random_vector"):
        with pytest.raises(ConfigError, match="initial.seed: required"):
            parse({"time": {"cfl": 0.5}, "initial": {"kind": kind}})
        with pytest.raises(ConfigError, match="initial.seed: must be >= 0"):
            parse({"time": {"cfl": 0.5},
                   "initial": {"kind": kind, "seed": -1}})


def test_unknown_keys_carry_dotted_path():
    with pytest.raises(ConfigError, match="grid.points: unknown key"):
        parse({"grid": {"points": 32}, "time": {"cfl": 0.5}})
    with pytest.raises(ConfigError, match="initial.sigma: unknown key"):
        parse({"time": {"cfl": 0.5},
               "initial": {"kind": "zero", "sigma": 1.0}})
    with pytest.raises(ConfigError, match="verbose: unknown key"):
        parse({"verbose": True, "time": {"cfl": 0.5}})


def test_bool_is_not_a_number():
    with pytest.raises(ConfigError, match="s: expected a number"):
        parse({"s": True, "time": {"cfl": 0.5}})


def test_string_norm_rejected():
    # YAML 1.1 reads 1.0e8 (no sign) as a string; catch it at the schema
    with pytest.raises(ConfigError, match="initial.norm: expected a number"):
        parse({"time": {"cfl": 0.5},
               "initial": {"kind": "random_symplectic", "seed": 1,
                           "norm": "1.0e8"}})
    with pytest.raises(ConfigError, match="initial.norm: must be positive"):
        parse({"time": {"cfl": 0.5},
               "initial": {"kind": "random_symplectic", "seed": 1,
                           "norm": -2.0}})


def test_underflowing_decay_is_a_config_error():
    # every mode of the draw underflows to zero; nothing can normalize it
    cfg = parse({"grid": {"points_per_axis": 32}, "time": {"cfl": 0.5},
                 "initial": {"kind": "random_symplectic", "seed": 1,
                             "decay": 1000.0}})
    with pytest.raises(ConfigError, match="initial.decay: cannot normalize"):
        build_initial_condition(cfg)


def test_readme_example_parses_with_every_experiment_default():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    example = text.split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg = parse(yaml.safe_load(example))
    # the nonuniform defaults live in build_nonuniform_config's signature,
    # the others in the schema
    signature = inspect.signature(build_nonuniform_config).parameters
    defaults = {key: signature[key].default
                for key in ("R", "K", "epsilon", "cfl")}
    defaults.update(parse({"time": {"cfl": 0.5}}).experiment)
    assert cfg.experiment == defaults
    # the experiment table's range column states each schema range
    ranges = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[1] in ("`oracle2d`", "`nonuniform`"):
            ranges[cells[0].strip("`")] = cells[3].removeprefix("integer ")
    schema = {key: row[2] for key, row in _SCHEMA["experiment"].items()
              if len(row) > 2}
    assert {key: ranges[key] for key in schema} == schema


def test_center_validation():
    with pytest.raises(ConfigError, match="initial.center: expected numbers"):
        parse({"time": {"cfl": 0.5},
               "initial": {"kind": "sympl_grad_bump",
                           "center": ["a", 1.0]}})
    cfg = parse({"time": {"cfl": 0.5},
                 "initial": {"kind": "sympl_grad_bump",
                             "center": [1.0, 2.0, 3.0]}})
    with pytest.raises(ConfigError, match="initial.center: expected 2"):
        build_initial_condition(cfg)


def test_direction_bounds():
    cfg = parse({"time": {"cfl": 0.5},
                 "initial": {"kind": "constant", "direction": 5}})
    with pytest.raises(ConfigError, match="initial.direction"):
        build_initial_condition(cfg)


def test_grid_errors_wrapped():
    with pytest.raises(ConfigError, match="grid:"):
        parse({"grid": {"points_per_axis": 7}, "time": {"cfl": 0.5}})
    with pytest.raises(ConfigError, match="cutoff_radius"):
        parse({"cutoff_radius": 0.0, "time": {"cfl": 0.5}})


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("a: [1, 2\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(bad)
    for text in ("s: " + "1" * 5000, "s: 2023-02-30"):
        bad.write_text(text + "\n")   # YAML scalars Python cannot build
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(bad)
    listy = tmp_path / "list.yaml"
    listy.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="root must be a mapping"):
        load_config(listy)
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert load_config(empty) == {}


# ---------------------------------------------------------------------------
# initial-condition construction


def test_build_zero_and_constant(grid32):
    cfg = parse({"time": {"cfl": 0.5}})
    assert np.max(np.abs(build_initial_condition(cfg).values)) == 0.0
    cfg = parse({"grid": {"points_per_axis": 32}, "time": {"cfl": 0.5},
                 "initial": {"kind": "constant", "direction": 1,
                             "magnitude": -0.5}})
    u = build_initial_condition(cfg)
    assert np.all(u.values[1] == -0.5)
    assert np.all(u.values[0] == 0.0)


def test_build_shear_closed_form():
    cfg = parse({"grid": {"points_per_axis": 32}, "time": {"cfl": 0.5},
                 "initial": {"kind": "steady_shear", "amplitude": 2.0}})
    u = build_initial_condition(cfg)
    x2 = cfg.grid.coordinate_arrays()[1]
    assert np.max(np.abs(u.values[0] - 2.0 * np.sin(x2))) < 1e-12
    assert np.max(np.abs(u.values[1])) == 0.0


def test_build_symplectic_kinds_satisfy_constraint():
    # spectrally constructed kinds sit on the manifold to rounding
    for kind, extra in (("random_symplectic", {"seed": 4}),
                        ("sympl_grad_trig", {})):
        cfg = parse({"grid": {"points_per_axis": 32}, "time": {"cfl": 0.5},
                     "initial": {"kind": kind, **extra}})
        u = build_initial_condition(cfg)
        res = sobolev_norm(omega_deformation(u), 0.0)
        assert res < 1e-9 * max(sobolev_norm(u, 1.0), 1e-300), kind


def test_build_bump_residual_converges():
    # the bump kind samples an analytic gradient; its spectral constraint
    # residual is aliasing error and must shrink under refinement
    residuals = []
    for N in (32, 64, 128):
        cfg = parse({"grid": {"points_per_axis": N}, "time": {"cfl": 0.5},
                     "initial": {"kind": "sympl_grad_bump"}})
        u = build_initial_condition(cfg)
        residuals.append(sobolev_norm(omega_deformation(u), 0.0)
                         / sobolev_norm(u, 1.0))
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] < 0.3 * residuals[0]


def test_build_random_vector_breaks_constraint():
    cfg = parse({"grid": {"points_per_axis": 32}, "time": {"cfl": 0.5},
                 "initial": {"kind": "random_vector", "seed": 4}})
    u = build_initial_condition(cfg)
    assert sobolev_norm(omega_deformation(u), 0.0) > 1e-3


# ---------------------------------------------------------------------------
# CLI


def run_cli(*argv):
    return main(list(argv))


def test_cli_run_eulerian_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"grid": {"points_per_axis": 32},
                               "time": {"t_final": 0.2, "dt": 0.1}})
    code = run_cli("run-eulerian", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "l2=0" in out
    snap = read_snapshot(tmp_path / "final.snap")
    assert np.max(np.abs(snap.values)) == 0.0
    with open(tmp_path / "diagnostics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "l2", "hs", "p_residual", "sdiv_l2",
                       "sdiv_linf", "bkm_integrand", "bkm_integral"]
    assert len(rows) == 4   # t = 0, 0.1, 0.2 (+ header)


def test_cli_shear_conserves_diagnostics(tmp_path):
    cfg = write_cfg(tmp_path, {"grid": {"points_per_axis": 32},
                               "time": {"t_final": 0.5, "dt": 0.1},
                               "initial": {"kind": "steady_shear"}})
    assert run_cli("run-eulerian", "--config", cfg, "--out", str(tmp_path),
                   "--quiet") == 0
    with open(tmp_path / "diagnostics.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    l2 = [float(r[1]) for r in rows]
    assert max(l2) - min(l2) < 1e-10 * l2[0]
    assert max(float(r[3]) for r in rows) < 1e-10


def test_cli_config_error_is_json_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"s": 2.0, "time": {"cfl": 0.5}})
    code = run_cli("run-eulerian", "--config", cfg, "--out", str(tmp_path))
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "ConfigError"
    assert payload["exit_code"] == 2
    assert "must exceed" in payload["message"]


def test_cli_numerical_failure_exit_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "grid": {"points_per_axis": 32},
        "time": {"t_final": 1.0, "dt": 0.5},
        "initial": {"kind": "random_symplectic", "seed": 3,
                    "norm": 1.0e8}})
    code = run_cli("run-eulerian", "--config", cfg, "--out", str(tmp_path))
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "DiscretizationFailure"
    assert payload["exit_code"] == 3


def test_cli_oracle_blow_up_exit_3(tmp_path, capsys, monkeypatch):
    # the solver under test runs first, so the oracle alone gets data it
    # cannot step; its failure must reach the CLI as a typed one
    import sympeuler.cli as cli
    from sympeuler.fields import VectorField
    oracle = cli.oracle_2d_solve
    monkeypatch.setattr(cli, "oracle_2d_solve", lambda u0, t, dt: oracle(
        VectorField(u0.grid, 1.0e8 * u0.values), t, dt))
    cfg = write_cfg(tmp_path, {
        "grid": {"points_per_axis": 32},
        "time": {"dt": 0.05},
        "initial": {"kind": "random_symplectic", "seed": 0, "norm": 0.5},
        "experiment": {"seeds": [0], "t_final": 0.5}})
    with np.errstate(all="ignore"):
        code = run_cli("experiment", "oracle2d", "--config", cfg,
                       "--out", str(tmp_path), "--quiet")
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "DiscretizationFailure"
    assert payload["exit_code"] == 3


def config_error_of(capsys, *argv):
    """Runs the CLI, expects exit 2, returns the JSON error message."""
    assert run_cli(*argv) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "ConfigError"
    assert payload["exit_code"] == 2
    return payload["message"]


@pytest.mark.parametrize("section, key, value", [
    ("output", "directory", "elsewhere"),
    ("experiment", "probe_points_per_axis", 32),
])
def test_cli_rejects_keys_nothing_reads(tmp_path, capsys, section, key, value):
    # a key no code reads would silently fall back to --out or N/2
    cfg = write_cfg(tmp_path, {"grid": {"points_per_axis": 32},
                               "time": {"cfl": 0.5}, section: {key: value}})
    message = config_error_of(capsys, "run-eulerian", "--config", cfg,
                              "--out", str(tmp_path / "out"))
    assert message.startswith(f"{section}.{key}: unknown key")


def test_cli_rejects_retired_project_every(tmp_path, capsys):
    # the run no longer projects; a file that asks for it must not run
    cfg = write_cfg(tmp_path, {"grid": {"points_per_axis": 32},
                               "time": {"cfl": 0.5}, "project_every": 1})
    message = config_error_of(capsys, "run-eulerian", "--config", cfg,
                              "--out", str(tmp_path / "out"))
    assert message.startswith("project_every: unknown key")


@pytest.mark.parametrize("kind, experiment, key", [
    ("nonuniform", {"K": "3"}, "K"),
    ("nonuniform", {"K": 0}, "K"),
    ("nonuniform", {"cfl": 1.5}, "cfl"),
    ("oracle2d", {"seeds": 3}, "seeds"),
    ("oracle2d", {"seeds": [-1]}, "seeds"),
    ("oracle2d", {"t_final": "0.5"}, "t_final"),
    ("oracle2d", {"norm": -1}, "norm"),
])
def test_cli_experiment_keys_checked_before_any_solve(tmp_path, capsys, kind,
                                                      experiment, key):
    cfg = write_cfg(tmp_path, {"grid": {"points_per_axis": 32},
                               "time": {"cfl": 0.5}, "experiment": experiment})
    out = tmp_path / "out"
    message = config_error_of(capsys, "experiment", kind, "--config", cfg,
                              "--out", str(out))
    assert message.startswith(f"experiment.{key}:")
    assert not out.exists()


@pytest.mark.parametrize("selector", ["x", "13"])
def test_cli_verify_bad_criteria_is_config_error(capsys, selector):
    message = config_error_of(capsys, "verify", "--criteria", selector)
    assert message.startswith("--criteria:") and selector in message


@pytest.mark.parametrize("selector", [",", "", " , "],
                         ids=["comma", "empty", "blank"])
def test_cli_verify_empty_criteria_is_config_error(capsys, selector):
    # a selection that names no criterion would run nothing and pass
    message = config_error_of(capsys, "verify", "--criteria", selector)
    assert message == f"--criteria: {selector!r} names no criterion"


@pytest.mark.parametrize("raw, path", [
    ({"s": math.inf}, "s"),
    ({"s": math.nan}, "s"),
    ({"grid": {"points_per_axis": 16, "box_length": math.inf}},
     "grid.box_length"),
    ({"time": {"t_final": math.inf, "cfl": 0.5}}, "time.t_final"),
    ({"initial": {"kind": "random_symplectic", "seed": 1,
                  "norm": math.inf}}, "initial.norm"),
    ({"cutoff_radius": math.inf}, "cutoff_radius"),
    ({"initial": {"kind": "sympl_grad_bump", "center": [math.inf, 0.1]}},
     "initial.center"),
    ({"s": 10 ** 400}, "s"),
    ({"time": {"t_final": 10 ** 400, "cfl": 0.5}}, "time.t_final"),
    ({"initial": {"kind": "sympl_grad_bump", "center": [10 ** 400, 0.1]}},
     "initial.center"),
], ids=["s-inf", "s-nan", "box_length-inf", "t_final-inf", "norm-inf",
        "cutoff_radius-inf", "center-inf", "s-int", "t_final-int",
        "center-int"])
def test_cli_non_finite_numbers_are_config_errors(tmp_path, capsys, raw,
                                                  path):
    # YAML reads .inf and .nan as floats; no key or list entry takes them,
    # nor an integer too long for a float, which YAML keeps exact
    cfg = write_cfg(tmp_path, {"grid": {"points_per_axis": 16},
                               "time": {"cfl": 0.5}, **raw})
    out = tmp_path / "out"
    message = config_error_of(capsys, "run-eulerian", "--config", cfg,
                              "--out", str(out))
    assert message.startswith(f"{path}: expected ")
    assert not out.exists()


def test_cli_out_naming_a_file_is_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept")
    cfg = write_cfg(tmp_path, {"grid": {"points_per_axis": 16},
                               "time": {"t_final": 0.1, "dt": 0.1}})
    message = config_error_of(capsys, "run-eulerian", "--config", cfg,
                              "--out", str(taken))
    assert message.startswith("--out:")
    assert taken.read_text() == "kept"


def fail_nonuniform(monkeypatch, error):
    import sympeuler.cli as cli

    def fail(**kwargs):
        raise error
    monkeypatch.setattr(cli, "build_nonuniform_config", fail)


def test_cli_experiment_failure_exit_3(tmp_path, capsys, monkeypatch):
    fail_nonuniform(monkeypatch, ExperimentFailure("separation outside"))
    assert run_cli("experiment", "nonuniform", "--out", str(tmp_path),
                   "--quiet") == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "ExperimentFailure"


def test_cli_foreign_errors_keep_their_traceback(tmp_path, monkeypatch):
    # only the package's own error types map to exit codes; anything else
    # is a bug, not a numerical failure
    fail_nonuniform(monkeypatch, ValueError("a bug"))
    with pytest.raises(ValueError, match="a bug"):
        run_cli("experiment", "nonuniform", "--out", str(tmp_path), "--quiet")


def test_cli_experiment_nonuniform_writes_outputs(tmp_path):
    cfg = write_cfg(tmp_path, {
        "grid": {"points_per_axis": 96, "box_length": 0.75},
        "time": {"cfl": 0.5}, "experiment": {"K": 1}})
    assert run_cli("experiment", "nonuniform", "--config", cfg,
                   "--out", str(tmp_path), "--quiet") == 0
    with open(tmp_path / "nonuniform.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == NonuniformRow._fields
    assert len(rows) == 2 and rows[1][0] == "1"
    constants = json.loads((tmp_path / "constants.json").read_text())
    assert set(constants) == {
        "C1", "C2", "C3", "C4", "C5", "m_star", "base_max_speed",
        "probe_max_speed", "x_star", "R", "R_used", "s", "K", "candidate",
        "radii", "probe_points_per_axis", "gap_floor", "gap_floor_over_k1",
        "C_floor"}
    assert constants["gap_floor"] == float(rows[1][2])   # output_gap_hs
    assert constants["radii"] == [float(rows[1][5])]     # r_k
    # the file's m* is the one the run's separation bracket used
    assert abs(float(rows[1][4]) / constants["m_star"] - 1.0) <= 1e-7


def test_cli_experiment_probes_writes_json(tmp_path):
    assert run_cli("experiment", "probes", "--out", str(tmp_path),
                   "--quiet") == 0
    report = json.loads((tmp_path / "probes.json").read_text())
    x_keys = {"commutator": "wavenumbers", "disjoint_support": "distances",
              "log_estimate": "levels"}
    assert set(report) == set(x_keys)
    for name, block in report.items():
        assert set(block) == {"constant", "stability", "sweep", x_keys[name]}
        assert block["constant"] == max(block["sweep"])
        assert len(block[x_keys[name]]) == len(block["sweep"])


def test_cli_eulerian_dt_must_divide_t_final(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"grid": {"points_per_axis": 32},
                               "time": {"t_final": 1.0, "dt": 0.3}})
    out = tmp_path / "out"
    message = config_error_of(capsys, "run-eulerian", "--config", cfg,
                              "--out", str(out))
    assert message.startswith("time.dt:")
    assert not (out / "diagnostics.csv").exists()


def test_cli_lagrangian_dt_must_divide_t_final(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"grid": {"points_per_axis": 32},
                               "time": {"t_final": 1.0, "cfl": 0.5},
                               "lagrangian": {"dt": 0.3}})
    out = tmp_path / "out"
    message = config_error_of(capsys, "run-lagrangian", "--config", cfg,
                              "--out", str(out))
    assert message.startswith("lagrangian.dt:")
    assert not (out / "diagnostics.csv").exists()


def test_cli_exp_map_dt_must_divide_one(tmp_path, capsys):
    # exp-map always integrates to T = 1, whatever time.t_final says
    cfg = write_cfg(tmp_path, {"grid": {"points_per_axis": 32},
                               "time": {"t_final": 0.6, "cfl": 0.5},
                               "lagrangian": {"dt": 0.3}})
    out = tmp_path / "out"
    message = config_error_of(capsys, "exp-map", "--config", cfg,
                              "--out", str(out))
    assert message.startswith("lagrangian.dt:")
    assert not (out / "phi.snap").exists()


def test_cli_resolution_guard_exit_4(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "grid": {"points_per_axis": 48, "box_length": 0.75},
        "time": {"cfl": 0.7},
        "initial": {"kind": "random_symplectic", "seed": 7},
        "experiment": {"K": 6}})
    code = run_cli("experiment", "nonuniform", "--config", cfg,
                   "--out", str(tmp_path), "--quiet")
    assert code == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "ResolutionGuardError"
    assert payload["exit_code"] == 4


def test_cli_deterministic_reruns(tmp_path):
    cfg = write_cfg(tmp_path, {
        "grid": {"points_per_axis": 32},
        "time": {"t_final": 0.2, "cfl": 0.5},
        "initial": {"kind": "random_symplectic", "seed": 11, "norm": 0.3}})
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("run-eulerian", "--config", cfg, "--out", str(out),
                       "--quiet") == 0
        outs.append(out)
    assert (outs[0] / "final.snap").read_bytes() == \
        (outs[1] / "final.snap").read_bytes()
    assert (outs[0] / "diagnostics.csv").read_bytes() == \
        (outs[1] / "diagnostics.csv").read_bytes()


def test_cli_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, {
        "grid": {"points_per_axis": 32},
        "time": {"t_final": 0.1, "cfl": 0.5},
        "initial": {"kind": "random_symplectic", "seed": 11, "norm": 0.3}})
    snaps = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        assert run_cli("run-eulerian", "--config", cfg, "--out", str(out),
                       "--seed", seed, "--quiet") == 0
        snaps.append((out / "final.snap").read_bytes())
    assert snaps[0] != snaps[1]


def test_cli_seed_without_config_draws_random(tmp_path):
    # without a file the default initial section is a seeded random draw
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        assert run_cli("run-eulerian", "--out", str(out), "--seed", seed,
                       "--quiet") == 0
        with open(out / "diagnostics.csv", newline="") as fh:
            assert all(float(row[1]) > 0 for row in list(csv.reader(fh))[1:])
        outs.append((out / "final.snap").read_bytes())
    assert outs[0] != outs[1]


def test_cli_exp_map_writes_phi(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"grid": {"points_per_axis": 32},
                               "time": {"cfl": 0.5},
                               "lagrangian": {"dt": 0.25}})
    code = run_cli("exp-map", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    assert "symplectic_residual=0" in capsys.readouterr().out
    phi = read_snapshot(tmp_path / "phi.snap")
    assert np.max(np.abs(phi.displacement.values)) == 0.0


def test_cli_lagrangian_equivalence(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "grid": {"points_per_axis": 32},
        "time": {"t_final": 0.25, "cfl": 0.5},
        "initial": {"kind": "random_symplectic", "seed": 5, "norm": 0.3},
        "lagrangian": {"dt": 0.05}})
    code = run_cli("run-lagrangian", "--config", cfg, "--out", str(tmp_path),
                   "--check-equivalence")
    assert code == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("equivalence_hsm1=")]
    assert line and float(line[0].split("=")[1]) < 1e-3
    assert (tmp_path / "phi.snap").exists()
    with open(tmp_path / "diagnostics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "symplectic_residual"
    assert len(rows) == 3


@pytest.mark.parametrize("n, dt, low, high", [
    pytest.param(32, 0.1, 1e-7, 1e-6, id="coarse"),
    pytest.param(64, 0.05, 0.0, 1e-8, id="resolved"),
])
def test_cli_lagrangian_prints_psi_gap(tmp_path, capsys, n, dt, low, high):
    # the solve transports psi instead of inverting phi; the printed gap
    # to invert(phi) is a spatial drift at N=32 (3.5e-7, the same at
    # dt=0.05) and the RK4 time error at N=64 (9.2e-10, 1.4e-8 at dt=0.1)
    cfg = write_cfg(tmp_path, {
        "grid": {"points_per_axis": n},
        "time": {"t_final": 0.5, "cfl": 0.5},
        "initial": {"kind": "random_symplectic", "seed": 5, "decay": 1.0,
                    "norm": 20.0},
        "lagrangian": {"dt": dt}})
    code = run_cli("run-lagrangian", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("t=0.5 symplectic_residual=")
    gap = float(line.split("psi_gap=")[1])
    assert low < gap < high


def test_cli_lagrangian_expect_residual(tmp_path, capsys):
    # the residual dichotomy is a statement about the time-1 map
    cfg = write_cfg(tmp_path, {
        "grid": {"points_per_axis": 32},
        "time": {"t_final": 1.0, "cfl": 0.5},
        "initial": {"kind": "random_vector", "seed": 9, "decay": 1.0,
                    "norm": 0.05},
        "lagrangian": {"dt": 0.05}})
    code = run_cli("run-lagrangian", "--config", cfg, "--out", str(tmp_path),
                   "--expect-residual", "--quiet")
    assert code == 0
    out = capsys.readouterr().out
    assert "residual=" in out and "quarter_p_l2=" in out


def test_cli_oracle2d_quick(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "grid": {"points_per_axis": 64},
        "time": {"cfl": 0.4},
        "initial": {"kind": "random_symplectic", "seed": 0, "norm": 0.5},
        "experiment": {"seeds": [0], "t_final": 0.1}})
    code = run_cli("experiment", "oracle2d", "--config", cfg,
                   "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "seed=0 rel_l2_discrepancy=" in out
    line = [l for l in out.splitlines() if l.startswith("max_discrepancy=")]
    assert float(line[0].split("=")[1]) < 1e-8


def test_cli_quiet_silences_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"grid": {"points_per_axis": 32},
                               "time": {"t_final": 0.1, "dt": 0.1}})
    assert run_cli("run-eulerian", "--config", cfg, "--out", str(tmp_path),
                   "--quiet") == 0
    assert capsys.readouterr().out == ""


def test_cli_verify_single_criterion(capsys):
    assert run_cli("verify", "--criteria", "9") == 0
    out = capsys.readouterr().out
    assert "criterion  9" in out and "PASS" in out


def test_cli_module_entry_point():
    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(sympeuler.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "sympeuler.cli", "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "run-eulerian" in proc.stdout
