"""Command-line front end.

Subcommands: run-eulerian, run-lagrangian, exp-map,
experiment {nonuniform, oracle2d, probes}, verify.
Exit codes: 0 ok, 1 acceptance failure; EXIT_CODES maps the package's
error types to 2 (config error), 3 (numerical failure) and
4 (resolution guard).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    build_initial_condition,
    load_config,
    parse_run_config,
)
from .eulerian import (
    DIAGNOSTIC_COLUMNS,
    DiscretizationFailure,
    EulerianState,
    cfl_timestep,
    diagnostics,
    integrate,
    step_count,
    write_diagnostics_csv,
    write_json,
)
from .experiments import (
    ExperimentFailure,
    NonuniformRow,
    ResolutionGuardError,
    build_nonuniform_config,
    oracle_2d_solve,
    probe_report,
    run_nonuniform,
)
from .fields import VectorField
from .initial_conditions import random_symplectic
from .lagrangian import (
    DiffeoMap,
    InversionError,
    compose,
    exp_map,
    geodesic_integrate,
    invert,
    symplectic_residual,
)
from .operators import omega_deformation
from .snapshots import write_snapshot
from .spectral import sobolev_norm

EXIT_OK = 0
EXIT_FAIL = 1
# the package's own error types; any other exception is a bug and keeps
# its traceback
EXIT_CODES = {ConfigError: 2, DiscretizationFailure: 3, InversionError: 3,
              ExperimentFailure: 3, ResolutionGuardError: 4}


def _say(args, *parts) -> None:
    if not args.quiet:
        print(*parts, flush=True)


def _load(args) -> RunConfig:
    raw = load_config(args.config) if args.config else {"time": {"cfl": 0.5}}
    if args.seed is not None:
        # a file without an initial section gets a seeded random draw
        initial = raw.get("initial", {"kind": "random_symplectic"})
        if isinstance(initial, dict):
            raw["initial"] = {**initial, "seed": args.seed}
    return parse_run_config(raw)


def _out_dir(args) -> str:
    out = args.out if args.out is not None else "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ConfigError(f"--out: {exc}") from exc
    return out


def _check_divides(key: str, dt: float, t_final: float) -> None:
    """A configured step must split the run's horizon into whole steps."""
    try:
        step_count(t_final, dt)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _timestep(cfg: RunConfig, u0: VectorField, t_final: float) -> float:
    if cfg.dt is None:
        return cfl_timestep(u0, t_final, cfg.cfl)
    _check_divides("time.dt", cfg.dt, t_final)
    return cfg.dt


def cmd_run_eulerian(args) -> int:
    cfg = _load(args)
    u0 = build_initial_condition(cfg)
    out = _out_dir(args)
    dt = _timestep(cfg, u0, cfg.t_final)
    result = integrate(
        u0, cfg.t_final, dt, cutoff_radius=cfg.cutoff_radius,
        diag_every=cfg.diag_every, s=cfg.s,
        csv_path=os.path.join(out, "diagnostics.csv"))
    if cfg.snapshot:
        write_snapshot(os.path.join(out, cfg.snapshot), result.state.u)
    last = result.records[-1]
    _say(args, f"t={last.t:.6g} l2={last.l2:.12g} hs={last.hs:.12g} "
               f"p_residual={last.p_residual:.6g}")
    return EXIT_OK


def cmd_run_lagrangian(args) -> int:
    cfg = _load(args)
    _check_divides("lagrangian.dt", cfg.lagrangian_dt, cfg.t_final)
    u0 = build_initial_condition(cfg)
    if args.check_equivalence:
        dt = _timestep(cfg, u0, cfg.t_final)
    out = _out_dir(args)
    state = geodesic_integrate(u0, cfg.t_final, cfg.lagrangian_dt,
                               cutoff_radius=cfg.cutoff_radius)
    inverse = invert(state.phi)
    u_final = compose(state.v, inverse)
    rows = []
    residuals = []
    for t, phi, u in ((0.0, DiffeoMap.identity(cfg.grid), u0),
                      (state.t, state.phi, u_final)):
        rows.append(diagnostics(EulerianState(t, u), cfg.s,
                                rows[-1] if rows else None))
        residuals.append(symplectic_residual(phi))

    write_diagnostics_csv(
        os.path.join(out, "diagnostics.csv"),
        [(*r, q) for r, q in zip(rows, residuals)],
        columns=DIAGNOSTIC_COLUMNS + ("symplectic_residual",))
    if cfg.snapshot:
        write_snapshot(os.path.join(out, "phi.snap"), state.phi)
        write_snapshot(os.path.join(out, cfg.snapshot), state.v)

    gap = state.psi.displacement.values - inverse.displacement.values
    _say(args, f"t={state.t:.6g} symplectic_residual={residuals[-1]:.6g} "
               f"psi_gap={np.max(np.abs(gap)):.6g}")
    if args.check_equivalence:
        eres = integrate(u0, cfg.t_final, dt, cutoff_radius=cfg.cutoff_radius,
                         diag_every=10 ** 9, s=cfg.s)
        diff = VectorField(cfg.grid,
                           u_final.values - eres.state.u.values)
        gap = sobolev_norm(diff, cfg.s - 1.0)
        print(f"equivalence_hsm1={gap:.12g}")
    if args.expect_residual:
        p_norm = sobolev_norm(omega_deformation(u0), 0.0)
        bound = 0.25 * p_norm
        print(f"residual={residuals[-1]:.12g} quarter_p_l2={bound:.12g}")
        if residuals[-1] < bound:
            raise DiscretizationFailure(
                state.t, f"residual {residuals[-1]:.6g} below "
                         f"(1/4)*||P(u0)||_L2 = {bound:.6g}")
    return EXIT_OK


def cmd_exp_map(args) -> int:
    cfg = _load(args)
    _check_divides("lagrangian.dt", cfg.lagrangian_dt, 1.0)
    u0 = build_initial_condition(cfg)
    out = _out_dir(args)
    phi = exp_map(u0, dt=cfg.lagrangian_dt, cutoff_radius=cfg.cutoff_radius)
    write_snapshot(os.path.join(out, "phi.snap"), phi)
    _say(args, f"symplectic_residual={symplectic_residual(phi):.12g}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    esec = cfg.experiment
    if args.kind == "nonuniform":
        # forward only what the file sets: the defaults live in
        # build_nonuniform_config, and without a file so does the grid
        kwargs = {k: esec[k] for k in ("R", "K", "epsilon", "cfl") if k in esec}
        if "seed" in cfg.initial:
            kwargs["seed"] = cfg.initial["seed"]
        ncfg = build_nonuniform_config(
            grid=cfg.grid if args.config else None, s=cfg.s, **kwargs)
        progress = None
        if not args.quiet:
            progress = lambda row: print(
                f"k={row.k} input={row.input_dist_hs:.6g} "
                f"gap={row.output_gap_hs:.6g} sep={row.separation:.6g}",
                flush=True)
        report = run_nonuniform(ncfg, progress=progress)
        write_diagnostics_csv(os.path.join(out, "nonuniform.csv"),
                              report.rows, columns=NonuniformRow._fields)
        write_json(os.path.join(out, "constants.json"), report.constants)
        _say(args, f"gap_floor={report.constants['gap_floor']:.6g}")
        return EXIT_OK
    if args.kind == "oracle2d":
        if cfg.grid.n != 1:
            raise ConfigError("grid.n: oracle2d requires n = 1")
        seeds, t_final = esec["seeds"], esec["t_final"]
        if args.seed is not None:
            seeds = [args.seed + i for i in range(len(seeds))]
        worst = 0.0
        for seed in seeds:
            try:
                u0 = random_symplectic(cfg.grid, seed=seed,
                                       decay=esec["decay"], s=cfg.s,
                                       norm=esec["norm"])
            except ValueError as exc:   # a large decay underflows every mode
                raise ConfigError(f"experiment.decay: {exc}") from exc
            dt = _timestep(cfg, u0, t_final)
            ours = integrate(u0, t_final, dt,
                             cutoff_radius=cfg.cutoff_radius,
                             diag_every=10 ** 9, s=cfg.s).state.u
            ref = oracle_2d_solve(u0, t_final, dt)
            num = np.sqrt(((ours.values - ref.values) ** 2).sum()
                          * cfg.grid.cell_volume)
            den = sobolev_norm(u0, 0.0)
            rel = num / den
            worst = max(worst, rel)
            _say(args, f"seed={seed} rel_l2_discrepancy={rel:.12g}")
        _say(args, f"max_discrepancy={worst:.12g}")
        return EXIT_OK
    report = probe_report(s=cfg.s)   # argparse admits no other kind
    write_json(os.path.join(out, "probes.json"), report)
    for name, block in report.items():
        _say(args, f"{name}: constant={block['constant']:.6g} "
                   f"stability={block['stability']:.4f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .acceptance import run_criteria
    results = run_criteria(args.criteria, quiet=args.quiet)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sympeuler",
        description="Symplectic Euler equations: solvers, flow maps, "
                    "experiments.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", metavar="PATH", default=None)
        sp.add_argument("--out", metavar="DIR", default=None)
        sp.add_argument("--seed", metavar="INT", type=int, default=None)
        sp.add_argument("--quiet", action="store_true")

    sp = sub.add_parser("run-eulerian", help="time-step the velocity form")
    common(sp)
    sp.set_defaults(func=cmd_run_eulerian)

    sp = sub.add_parser("run-lagrangian", help="time-step the geodesic form")
    common(sp)
    sp.add_argument("--check-equivalence", action="store_true")
    sp.add_argument("--expect-residual", action="store_true")
    sp.set_defaults(func=cmd_run_lagrangian)

    sp = sub.add_parser("exp-map", help="time-1 geodesic exponential")
    common(sp)
    sp.set_defaults(func=cmd_exp_map)

    sp = sub.add_parser("experiment", help="scripted experiments")
    sp.add_argument("kind", choices=("nonuniform", "oracle2d", "probes"))
    common(sp)
    sp.set_defaults(func=cmd_experiment)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    common(sp)
    sp.add_argument("--criteria", metavar="N[,N...]", default=None)
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        code = next(c for t, c in EXIT_CODES.items() if isinstance(exc, t))
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "exit_code": code}))
        return code


if __name__ == "__main__":
    sys.exit(main())
