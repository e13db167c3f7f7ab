"""Acceptance suite: twelve numbered criteria with pinned tolerances.

Each criterion is a self-contained measurement that prints one PASS/FAIL
line.  A criterion passes only if its numerical checks hold AND it
finishes inside its wall-clock budget.  `run_criteria` is the entry
point shared by the CLI `verify` subcommand and the pytest wrappers.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable

import numpy as np

from .config import ConfigError
from .eulerian import (Integration, cfl_timestep, dt_for_speed, integrate,
                       max_speed)
from .experiments import (build_nonuniform_config, oracle_2d_solve,
                          probe_report, run_nonuniform)
from .fields import VectorField
from .grids import GridSpec
from .initial_conditions import (random_potential, random_skew,
                                 random_symplectic, random_vector,
                                 scale_to_sobolev)
from .lagrangian import (compose, exp_map, flow_from_velocity,
                         geodesic_integrate, invert, symplectic_residual)
from .operators import (advective_deformation_flux,
                        advective_deformation_strain, compressibility_defect,
                        constraint_force, divergence_curl, omega_deformation,
                        omega_deformation_adjoint, skew_divergence,
                        symplectic_divergence, symplectic_gradient,
                        velocity_from_symplectic_divergence)
from .spectral import l2_inner, partial_derivative, sobolev_norm, inverse_laplacian

__all__ = ["CriterionResult", "run_criteria"]


@dataclasses.dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    budget_seconds: float


def _flat_l2(grid: GridSpec, values: np.ndarray) -> float:
    return float(np.sqrt(np.sum(values**2) * grid.cell_volume))


def _rel(grid: GridSpec, a: np.ndarray, b: np.ndarray) -> float:
    num = _flat_l2(grid, a - b)
    den = max(_flat_l2(grid, a), _flat_l2(grid, b), 1e-300)
    return num / den


def _with_max_speed(u: VectorField, target: float) -> VectorField:
    return VectorField(u.grid, u.values * (target / max_speed(u)))


def _laplacian(u):
    out = None
    for axis in range(u.grid.dim):
        term = partial_derivative(partial_derivative(u, axis), axis)
        out = term if out is None else type(u)(u.grid, out.values + term.values)
    return out


# ---------------------------------------------------------------------------
# criterion 1: operator identities


def _identity_suite(grid: GridSpec, draws: int, tol: float,
                    seed0: int) -> tuple[bool, str]:
    worst = 0.0
    worst_name = ""

    def note(name: str, rel: float) -> None:
        nonlocal worst, worst_name
        if rel > worst:
            worst, worst_name = rel, name

    for i in range(draws):
        X = random_vector(grid, seed0 + i)
        Y = random_skew(grid, seed0 + 1000 + i)
        H = random_potential(grid, seed0 + 2000 + i)
        u = random_vector(grid, seed0 + 3000 + i)

        # adjointness <P* Y, X> = <Y, P X>
        a = l2_inner(omega_deformation_adjoint(Y), X)
        b = l2_inner(Y, omega_deformation(X))
        note("adjointness", abs(a - b) / max(abs(a), abs(b), 1e-300))

        # P P* = 2 Omega
        lhs = omega_deformation(omega_deformation_adjoint(Y))
        rhs = divergence_curl(Y)
        note("PP*=2Omega", _rel(grid, lhs.values, 2.0 * rhs.values))

        # -Lap div Y = div Omega(Y)
        divY = skew_divergence(Y)
        lhs_v = _laplacian(divY)
        rhs_v = skew_divergence(divergence_curl(Y))
        note("-Lap.div=div.Omega", _rel(grid, -lhs_v.values, rhs_v.values))

        # delta formula: P* Y = -1/2 InvLap (P* P P*) Y
        py = omega_deformation_adjoint(Y)
        chain = omega_deformation_adjoint(omega_deformation(py))
        recon = inverse_laplacian(chain)
        note("delta-chain", _rel(grid, py.values, -0.5 * recon.values))

        # flux form = strain form + compressibility defect
        flux = advective_deformation_flux(u)
        split = advective_deformation_strain(u).values + \
            compressibility_defect(u).values
        note("flux=strain+defect", _rel(grid, flux.values, split))

        # P applied to a symplectic gradient vanishes
        sg = symplectic_gradient(H)
        num = _flat_l2(grid, omega_deformation(sg).values)
        note("P(sympl_grad)=0", num / max(sobolev_norm(sg, 1.0), 1e-300))

        # sympl_div o sympl_grad = Lap
        lhs_s = symplectic_divergence(sg)
        rhs_s = _laplacian(H)
        note("sd.sg=Lap", _rel(grid, lhs_s.values, rhs_s.values))

    ok = worst <= tol
    return ok, f"max_rel={worst:.3e} ({worst_name}), tol={tol:.0e}, draws={draws}"


def criterion_1() -> tuple[bool, str]:
    grid = GridSpec(n=1, points_per_axis=32)
    return _identity_suite(grid, draws=20, tol=1e-9, seed0=100)


# ---------------------------------------------------------------------------
# criterion 2: symplectic-divergence round trip


def _reconstruction_suite(grids, seeds, tol: float) -> tuple[bool, str]:
    worst = 0.0
    for grid, seed in zip(grids, seeds):
        u = random_symplectic(grid, seed)
        mean = u.values.mean(axis=tuple(range(1, 1 + grid.dim)), keepdims=True)
        recon = velocity_from_symplectic_divergence(symplectic_divergence(u))
        worst = max(worst, _rel(grid, recon.values, u.values - mean))
    ok = worst <= tol
    return ok, f"max_rel={worst:.3e}, tol={tol:.0e}"


def criterion_2() -> tuple[bool, str]:
    g64 = GridSpec(n=1, points_per_axis=64)
    g128 = GridSpec(n=1, points_per_axis=128)
    grids = [g64] * 5 + [g128]
    return _reconstruction_suite(grids, seeds=range(6), tol=1e-11)


# ---------------------------------------------------------------------------
# criterion 3: conservation over T=1 with symplectic data


def _conservation_suite(grid: GridSpec, seed: int, speed: float, cfl: float,
                        l2_tol: float, p_tol: float, sdiv_tol: float,
                        s: float = 3.0) -> tuple[bool, str]:
    u0 = _with_max_speed(random_symplectic(grid, seed, decay=0.75, s=s), speed)
    dt = dt_for_speed(grid, max_speed(u0), 1.0, cfl)
    res = integrate(u0, 1.0, dt, diag_every=10, s=s)

    l2_0 = res.records[0].l2
    l2_drift = max(abs(r.l2 - l2_0) for r in res.records) / l2_0
    hs0 = res.records[0].hs
    p_max = max(r.p_residual for r in res.records) / hs0
    # symplectic data has sdiv = Lap(psi) != 0, so relative drift is meaningful
    sdiv_0 = max(res.records[0].sdiv_l2, 1e-300)
    sdiv_drift = max(abs(r.sdiv_l2 - res.records[0].sdiv_l2)
                     for r in res.records) / sdiv_0
    ok = l2_drift <= l2_tol and p_max <= p_tol and sdiv_drift <= sdiv_tol
    return ok, (f"l2_drift={l2_drift:.3e} (tol {l2_tol:.0e}), "
                f"p_rel={p_max:.3e} (tol {p_tol:.0e}), "
                f"sdiv_drift={sdiv_drift:.3e} (tol {sdiv_tol:.0e}), "
                f"steps={round(1.0 / dt)}")


def criterion_3() -> tuple[bool, str]:
    grid = GridSpec(n=1, points_per_axis=256)
    return _conservation_suite(grid, seed=11, speed=0.5, cfl=0.125,
                               l2_tol=1e-7, p_tol=1e-7, sdiv_tol=1e-5)


# ---------------------------------------------------------------------------
# criterion 4: frozen transport of the symplectic divergence


def criterion_4() -> tuple[bool, str]:
    # transport-by-composition needs a divergence-free flow, i.e. data on
    # the symplectic manifold; there sdiv = Lap(psi) is still nontrivial
    grid = GridSpec(n=1, points_per_axis=128)
    u0 = _with_max_speed(random_symplectic(grid, seed=21, decay=0.75), 0.3)
    dt = dt_for_speed(grid, max_speed(u0), 1.0, 0.25)
    res = Integration(u0, 1.0, dt, diag_every=10**9)
    phi = flow_from_velocity(res, dt)
    zeta0 = symplectic_divergence(u0)
    zeta1 = symplectic_divergence(res.state.u)
    transported = compose(zeta0, invert(phi))
    rel = _flat_l2(grid, zeta1.values - transported.values) / \
        _flat_l2(grid, zeta0.values)
    return rel <= 1e-3, f"rel_l2={rel:.3e}, tol=1e-03, steps={round(1.0/dt)}"


# ---------------------------------------------------------------------------
# criterion 5: Eulerian/Lagrangian equivalence at T=1


def criterion_5() -> tuple[bool, str]:
    grid = GridSpec(n=1, points_per_axis=128)
    s = 3.0
    u0 = _with_max_speed(random_symplectic(grid, seed=31, decay=0.75, s=s),
                         0.15)
    lag = geodesic_integrate(u0, 1.0, dt=0.01)
    u_lag = compose(lag.v, invert(lag.phi))
    dt = cfl_timestep(u0, 1.0, cfl=0.25)
    u_eul = integrate(u0, 1.0, dt, diag_every=10**9, s=s).state.u
    gap = sobolev_norm(VectorField(grid, u_lag.values - u_eul.values), s - 1.0)
    bound = 1e-3 * sobolev_norm(u0, s)
    return gap <= bound, f"hs_m1_gap={gap:.3e}, bound={bound:.3e}"


# ---------------------------------------------------------------------------
# criterion 6: flow-map scaling law


def criterion_6() -> tuple[bool, str]:
    grid = GridSpec(n=1, points_per_axis=64)
    u0 = _with_max_speed(random_symplectic(grid, seed=41, decay=0.75), 0.2)
    dt = 0.02
    worst = 0.0
    for lam in (0.5, 2.0):
        scaled = VectorField(grid, lam * u0.values)
        a = geodesic_integrate(scaled, 1.0, dt).phi
        b = geodesic_integrate(u0, lam, lam * dt).phi
        worst = max(worst, float(np.abs(a.displacement.values
                                        - b.displacement.values).max()))
    return worst <= 1e-6, f"max_abs={worst:.3e}, tol=1e-06, lambdas=(0.5,2)"


# ---------------------------------------------------------------------------
# criterion 7: 2D vorticity oracle


def criterion_7() -> tuple[bool, str]:
    grid = GridSpec(n=1, points_per_axis=128)
    worst = 0.0
    for seed in range(3):
        u0 = _with_max_speed(random_symplectic(grid, seed, decay=0.75), 0.5)
        dt = dt_for_speed(grid, max_speed(u0), 0.5, 0.4)
        ours = integrate(u0, 0.5, dt, diag_every=10**9).state.u
        ref = oracle_2d_solve(u0, 0.5, dt)
        worst = max(worst, _rel(grid, ours.values, ref.values))
    return worst <= 1e-6, f"max_rel_l2={worst:.3e}, tol=1e-06, seeds=3"


# ---------------------------------------------------------------------------
# criterion 8: symplectic residual dichotomy


def criterion_8() -> tuple[bool, str]:
    grid = GridSpec(n=1, points_per_axis=64)
    u_s = _with_max_speed(random_symplectic(grid, seed=51, decay=1.0), 0.05)
    res_s = symplectic_residual(exp_map(u_s, dt=0.01))

    u_n = scale_to_sobolev(random_vector(grid, seed=52, decay=1.0), 3.0, 0.05)
    res_n = symplectic_residual(exp_map(u_n, dt=0.01))
    p_norm = sobolev_norm(omega_deformation(u_n), 0.0)

    ok = res_s <= 1e-6 and res_n >= 0.25 * p_norm
    return ok, (f"symplectic_residual={res_s:.3e} (tol 1e-06), "
                f"nonsymplectic_residual={res_n:.3e} >= "
                f"0.25*|P(u0)|={0.25 * p_norm:.3e}")


# ---------------------------------------------------------------------------
# criterion 9: cutoff independence of the constraint force


def criterion_9() -> tuple[bool, str]:
    grid = GridSpec(n=1, points_per_axis=64)
    radii = (0.5, 1.0, 2.0, 4.0)
    worst = 0.0
    for seed in range(5):
        u = random_symplectic(grid, seed + 61, decay=0.75)
        forces = [constraint_force(u, r) for r in radii]
        for i in range(len(forces)):
            for j in range(i + 1, len(forces)):
                worst = max(worst, _flat_l2(
                    grid, forces[i].values - forces[j].values))
    return worst <= 1e-9, f"max_pairwise_l2={worst:.3e}, tol=1e-09"


# ---------------------------------------------------------------------------
# criterion 10: nonuniform-dependence experiment


def criterion_10() -> tuple[bool, str]:
    rows, constants = run_nonuniform(build_nonuniform_config())
    input_err = max(abs(r.input_dist_hs - 1.0 / r.k) * r.k for r in rows)
    floor_ratio = constants["gap_floor_over_k1"]
    m_star = constants["m_star"]
    sep_ok = all(m_star / (2 * r.k) <= r.separation <= 3 * m_star / r.k
                 for r in rows)
    ok = input_err <= 1e-6 and floor_ratio >= 0.05 and sep_ok
    return ok, (f"K={len(rows)}, input_err={input_err:.2e}, "
                f"gap_floor/gap1={floor_ratio:.3f} (>=0.05), "
                f"separations within [m*/2k, 3m*/k]={sep_ok}, "
                f"m*={m_star:.6f}, R_used={constants['R_used']:.3f}")


# ---------------------------------------------------------------------------
# criterion 11: probe stability


def criterion_11() -> tuple[bool, str]:
    report = probe_report()
    parts = []
    ok = True
    for name in ("commutator", "disjoint_support", "log_estimate"):
        st = report[name]["stability"]
        ok = ok and 0.8 <= st <= 1.2
        parts.append(f"{name}: C={report[name]['constant']:.4f} "
                     f"stability={st:.3f}")
    return ok, "; ".join(parts) + " (band 0.8..1.2)"


# ---------------------------------------------------------------------------
# criterion 12: four-dimensional smoke test (criteria 1-3 at N=16, tol x100)


def criterion_12() -> tuple[bool, str]:
    grid = GridSpec(n=2, points_per_axis=16)
    ok1, d1 = _identity_suite(grid, draws=20, tol=1e-7, seed0=500)
    ok2, d2 = _reconstruction_suite([grid] * 3, seeds=(71, 72, 73), tol=1e-9)
    ok3, d3 = _conservation_suite(grid, seed=81, speed=0.5, cfl=0.05,
                                  l2_tol=1e-5, p_tol=1e-5, sdiv_tol=1e-3)
    return ok1 and ok2 and ok3, (f"identities[{d1}] reconstruction[{d2}] "
                                 f"conservation[{d3}]")


# ---------------------------------------------------------------------------
# registry and runner


@dataclasses.dataclass(frozen=True)
class _Criterion:
    number: int
    name: str
    budget_seconds: float
    fn: Callable[[], tuple[bool, str]]


CRITERIA = (
    _Criterion(1, "operator identities", 30.0, criterion_1),
    _Criterion(2, "reconstruction round trip", 5.0, criterion_2),
    _Criterion(3, "conservation T=1", 300.0, criterion_3),
    _Criterion(4, "frozen divergence transport", 600.0, criterion_4),
    _Criterion(5, "eulerian/lagrangian equivalence", 900.0, criterion_5),
    _Criterion(6, "flow scaling law", 600.0, criterion_6),
    _Criterion(7, "2d vorticity oracle", 600.0, criterion_7),
    _Criterion(8, "residual dichotomy", 600.0, criterion_8),
    _Criterion(9, "cutoff independence", 60.0, criterion_9),
    _Criterion(10, "nonuniform dependence", 1800.0, criterion_10),
    _Criterion(11, "probe stability", 300.0, criterion_11),
    _Criterion(12, "n=2 smoke", 1200.0, criterion_12),
)


def _parse_selection(selection: str | None) -> set[int]:
    known = {c.number for c in CRITERIA}
    if selection is None:
        return known
    numbers = set()
    for tok in filter(None, selection.replace(" ", "").split(",")):
        try:
            numbers.add(int(tok))
        except ValueError:
            raise ConfigError(f"--criteria: bad criterion selector "
                              f"{tok!r}") from None
    if not numbers:
        raise ConfigError(f"--criteria: {selection!r} names no criterion")
    if numbers - known:
        raise ConfigError(f"--criteria: unknown criteria "
                          f"{sorted(numbers - known)}")
    return numbers


def run_criteria(selection: str | None = None,
                 quiet: bool = False) -> list[CriterionResult]:
    """Run the selected criteria (all by default), one PASS/FAIL line each.

    `selection` is a comma-separated string of criterion numbers.  A
    criterion fails if its checks fail, it raises, or it runs past its
    wall-clock budget.
    """
    numbers = _parse_selection(selection)
    results = []
    for crit in CRITERIA:
        if crit.number not in numbers:
            continue
        start = time.perf_counter()
        try:
            checks_ok, detail = crit.fn()
        except Exception as exc:  # a crash is a failure, not an abort
            checks_ok, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        passed = checks_ok and elapsed <= crit.budget_seconds
        if checks_ok and not passed:
            detail += f" [over budget {crit.budget_seconds:.0f}s]"
        results.append(CriterionResult(crit.number, crit.name, passed,
                                       detail, elapsed, crit.budget_seconds))
        if not quiet:
            tag = "PASS" if passed else "FAIL"
            print(f"criterion {crit.number:2d} {crit.name}: {tag} "
                  f"({elapsed:.1f}s <= {crit.budget_seconds:.0f}s) {detail}",
                  flush=True)
    return results
