"""Eulerian time integration of u_t + (u.grad)u = B(u).

Classical explicit RK4 with a fixed step; the step is chosen from a CFL
condition on the initial data (the equation is globally well-posed, so
blow-up-style aborts are always reported as discretization failures,
never as PDE blow-up). Diagnostics track the conserved quantities: L^2
norm, constraint residual ||P(u)||, symplectic divergence in L^2/L^inf,
and the BKM integrand/integral as a health check.

The right-hand side runs through one skew-first real-FFT kernel
(fast_rhs; fast_force is its B(u)-only entry, used by the geodesic
equations), half spectrum in and out. It forms only the upper entries of
omega^T X - X^T omega, using that omega is a signed permutation:
(omega^T X)_ij = sigma_i X_{p(i), j} with p(i) = i^1, sigma_i = -1 for
even i and +1 for odd i. The compositional chain in operators.py
(constraint_force, advection_term, eulerian_rhs) is the reference oracle
for the kernel and for the diagnostics record; both take their
half-lattice symbols from spectral.py, so they keep the same modes on
every shell; both run their physical pass strip by strip (_strips).

rk4 is the one RK4 step of the package: the Eulerian run, the geodesic
integrator and the flow map all call it. The run, Integration, steps u
on the half lattice and yields it after each step, so lagrangian.py
steps the flow map as the samples arrive, building its interpolators
from their spectra; integrate drains it. Traced points are summed
from the stage spectra too, so values are transformed only for
snapshots and the record's Jacobian.
_atomic_write (temp file plus rename) is the one writer behind every
output file: the diagnostics CSV, snapshots and JSON sidecars
(write_json).
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
import os
import secrets
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .fields import VectorField
from .grids import GridSpec
from .interp import fourier_sample
from .operators import advection_term, constraint_force
from .spectral import (
    _half_derivative_symbols,
    _half_inverse_laplacian,
    _half_shape,
    _sobolev_sq,
    ball_cutoff_mask,
    dealias_band,
    dealias_mask,
)

__all__ = [
    "DiscretizationFailure",
    "EulerianState",
    "DiagnosticsRecord",
    "DIAGNOSTIC_COLUMNS",
    "step_count",
    "cfl_timestep",
    "eulerian_rhs",
    "fast_rhs",
    "fast_force",
    "rk4",
    "integrate",
    "Integration",
    "write_diagnostics_csv",
    "write_json",
]


class DiscretizationFailure(RuntimeError):
    """Raised when the discrete solution leaves the trustworthy regime."""

    def __init__(self, t: float, reason: str):
        super().__init__(f"discretization failure at t={t:.6g}: {reason}")
        self.t = t
        self.reason = reason


@dataclasses.dataclass
class EulerianState:
    t: float
    u: VectorField


class DiagnosticsRecord(NamedTuple):
    t: float
    l2: float
    hs: float
    p_residual: float
    sdiv_l2: float
    sdiv_linf: float
    bkm_integrand: float
    bkm_integral: float


DIAGNOSTIC_COLUMNS = DiagnosticsRecord._fields


def step_count(t_final: float, dt: float) -> int:
    """Number of steps; dt must divide t_final to rounding."""
    if t_final <= 0 or dt <= 0:
        raise ValueError("t_final and dt must be positive")
    steps = round(t_final / dt)
    if steps < 1 or abs(steps * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ValueError(f"dt={dt!r} does not divide t_final={t_final!r}")
    return steps


def max_speed(u: VectorField) -> float:
    return float(np.max(np.abs(u.values)))


def dt_for_speed(grid: GridSpec, speed: float, t_final: float,
                 cfl: float = 0.5) -> float:
    """Largest dt <= cfl*dx/speed that divides t_final evenly."""
    bound = cfl * grid.spacing / speed if speed > 0 else t_final
    steps = max(1, math.ceil(t_final / bound - 1e-12))
    return t_final / steps


def cfl_timestep(u0: VectorField, t_final: float, cfl: float = 0.5) -> float:
    """Largest dt <= cfl*dx/|u0|_inf that divides t_final evenly."""
    return dt_for_speed(u0.grid, max_speed(u0), t_final, cfl)


def eulerian_rhs(u: VectorField, cutoff_radius: float = 1.0) -> VectorField:
    """B(u) - (u.grad)u with dealiased quadratic terms."""
    force = constraint_force(u, cutoff_radius)
    adv = advection_term(u)
    return VectorField(u.grid, force.values - adv.values)


def _partner(i: int) -> int:
    """p(i) = i^1: the symplectic partner of coordinate i."""
    return i ^ 1


def _sign(i: int) -> float:
    """sigma_i = omega[p(i), i]: -1 on first, +1 on second coordinates."""
    return 1.0 if i % 2 else -1.0


def _skew(d: int, out: np.ndarray, scratch: np.ndarray, entry) -> None:
    """Upper entries of omega^T X - X^T omega in row-major order, the (i, j)
    one divided by sigma_i: X_{p(i) j} - sigma_i sigma_j X_{p(j) i}, where
    entry(a, b, o) writes X_ab into o. No plane is allocated."""
    pairs = ((i, j) for i in range(d) for j in range(i + 1, d))
    for e, (i, j) in enumerate(pairs):
        entry(_partner(i), j, out[e])
        entry(_partner(j), i, scratch)
        combine = np.subtract if _sign(i) == _sign(j) else np.add
        combine(out[e], scratch, out=out[e])


_STRIP_POINTS = 8192    # grid points per strip: 32 rows at 2D N=256


def _strips(grid: GridSpec) -> Iterator[tuple[int, int]]:
    """First-axis row ranges [r0, r1) of about _STRIP_POINTS points each."""
    N = grid.points_per_axis
    rows = max(1, _STRIP_POINTS // N ** (grid.dim - 1))
    return ((r0, min(r0 + rows, N)) for r0 in range(0, N, rows))


@functools.lru_cache(maxsize=4)
def _work_buffers(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Scratch arrays (spec, phys, prod, planes) shared by the kernel and
    the diagnostics record, neither of which is reentrant.

    spec (complex, half lattice) holds u in rows [0, d), J in rows
    [d, d + d^2) (row d + d*i + j is J_ij = d_j u_i) and grad div u in the
    last d rows, phys the same on one strip (_strips); prod, a strip too,
    (u.grad)u, the strain and defect skew entries and a scratch row; planes
    the record's skew entries and sdiv. Reusing them pays: a fresh multi-MiB
    FFT output costs about as much as the transform itself, and even a
    temporary plane costs more than the arithmetic that fills it.
    """
    d = grid.dim
    rows = 2 * d + d * d
    strip = (max(r1 - r0 for r0, r1 in _strips(grid)),) + grid.shape[1:]
    return (np.empty((rows,) + _half_shape(grid), dtype=complex),
            np.empty((rows,) + strip),
            np.empty((d * d + 1,) + strip),
            np.empty((d * (d - 1) // 2 + 1,) + grid.shape))


class _SkewKernel:
    """B(u) - (u.grad)u, or B(u) alone, in one skew-first rfft pass.

    Same algebra as eulerian_rhs: B(u) = Delta^{-1} ((div S) . omega) with
    S = omega^T X - X^T omega, X = J.J (strain form, J_ij = d_j u_i) plus,
    on the frequency ball chi, the compressibility defect X = u (x) grad
    div u (strain + defect = flux form, exact on the dealiased band). Since
    omega is a signed permutation, (omega^T X)_ij = sigma_i X_{p(i), j}
    with p(i) = i^1, so only the d(d-1)/2 upper entries of S are formed,
    in physical space, and the final omega contraction is a sign and an
    index. Per call, from the input half spectrum: the full-axis inverse
    passes of u, J and (with the defect) grad div u as one batch, per strip
    (_strips) their irfft, the advection and skew entries and their rfft,
    then the forward full-axis passes, whose masked combination is the
    output spectrum; 12 planes in 2D with the defect. Only the first
    dealias_band(N) + 1 columns of the last axis hold retained modes, and
    the full-axis passes of both batches skip the rest (86 of 129 run at
    N=256). The defect term is skipped when chi * Delta^{-1} vanishes on
    every retained mode (only k = 0 lies in the ball, as on small boxes).
    The compositional chain in operators.py is the reference these values
    are tested against.
    """

    def __init__(self, grid: GridSpec, cutoff_radius: float):
        self.grid = grid
        d = grid.dim
        self.axes = tuple(range(-d, 0))
        # every symbol below is cut to the retained columns
        self.cols = c = dealias_band(grid.points_per_axis) + 1
        self.deriv = [D[..., :c] for D in _half_derivative_symbols(grid)]
        mask = dealias_mask(grid)[..., :c].astype(float)
        self.mask = mask
        self.neg_mask = -mask
        inv_lap = _half_inverse_laplacian(grid)[..., :c]
        chi = ball_cutoff_mask(grid, cutoff_radius)[..., :c]
        self.pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        index = {pair: e for e, pair in enumerate(self.pairs)}
        # B_j = sigma_j Delta^{-1} div_{p(j)} S, div_k S = sum_i d_i S_ik,
        # S_ik = -S_ki; inv_lap is the symbol -1/|xi|^2 of Delta^{-1}. The
        # entry e = (a, b) is formed as S_ab / sigma_a (see _skew), so its
        # sigma_a moves into the coefficient
        self.coef = []
        for j in range(d):
            q = _partner(j)
            terms = []
            for i in range(d):
                if i == q:
                    continue
                e, sign = ((index[(i, q)], _sign(i)) if i < q
                           else (index[(q, i)], -_sign(q)))
                terms.append(
                    (e, _sign(j) * sign * inv_lap * mask * self.deriv[i]))
            self.coef.append(terms)
        self.defect = bool(np.any(chi * mask * inv_lap))
        self.chi = chi if self.defect else None

    def __call__(self, u_hat: np.ndarray, advect: bool) -> np.ndarray:
        grid, d, c = self.grid, self.grid.dim, self.cols
        n_pairs = len(self.pairs)
        spec, phys, prod, _ = _work_buffers(grid)
        n_inv = d + d * d + (d if self.defect else 0)
        n_out = d + n_pairs * (2 if self.defect else 1)
        spec, phys = spec[:n_inv], phys[:n_inv]
        # the columns past c stay zero through the full-axis passes
        spec[..., c:] = 0.0
        kept = spec[..., :c]
        hat = np.multiply(u_hat[..., :c], self.mask, out=kept[:d])
        for j in range(d):
            np.multiply(hat, self.deriv[j], out=kept[d + j:d + d * d:d])
        if self.defect:
            # div u is the trace of J, whose spectrum is already formed;
            # it sits in the row of d_0 div u, which is written last
            div_hat = np.sum(kept[d:d + d * d:d + 1], axis=0,
                             out=kept[d + d * d])
            for j in reversed(range(d)):
                np.multiply(self.deriv[j], div_hat, out=kept[d + d * d + j])
        # the inverse batch in place: irfftn would allocate its complex
        # intermediate afresh on every call
        np.fft.ifftn(kept, axes=self.axes[:-1], out=kept)
        first = 0 if advect else d
        for r0, r1 in _strips(grid):
            # the strip's rfft overwrites only spec rows its irfft has read
            ph, pr = phys[:, :r1 - r0], prod[:, :r1 - r0]
            np.fft.irfft(spec[:, r0:r1], n=grid.points_per_axis, axis=-1,
                         out=ph)
            u, J = ph[:d], ph[d:d + d * d].reshape((d, d) + ph.shape[1:])
            if advect:
                for i in range(d):
                    np.einsum("j...,j...->...", u, J[i], out=pr[i])
            _skew(d, pr[d:d + n_pairs], pr[-1], lambda a, b, o: np.einsum(
                "k...,k...->...", J[a], J[:, b], out=o))
            if self.defect:
                g = ph[d + d * d:]
                _skew(d, pr[d + n_pairs:n_out], pr[-1],
                      lambda a, b, o: np.multiply(u[a], g[b], out=o))
            np.fft.rfft(pr[first:n_out], axis=-1, out=spec[first:n_out, r0:r1])
        prod_hat = spec[:n_out, ..., :c]
        np.fft.fftn(prod_hat[first:], axes=self.axes[:-1],
                    out=prod_hat[first:])
        skew_hat = prod_hat[d:d + n_pairs]
        if self.defect:
            defect_hat = prod_hat[d + n_pairs:]
            skew_hat += np.multiply(self.chi, defect_hat, out=defect_hat)
        # a fresh output: the work buffers are overwritten by the next call
        out = np.zeros((d,) + spec.shape[1:], dtype=complex)
        term = spec[n_out, ..., :c]
        for j in range(d):
            if advect:
                np.multiply(prod_hat[j], self.neg_mask, out=out[j, ..., :c])
            for e, coef in self.coef[j]:
                out[j, ..., :c] += np.multiply(coef, skew_hat[e], out=term)
        return out


@functools.lru_cache(maxsize=4)
def _kernel(grid: GridSpec, cutoff_radius: float) -> _SkewKernel:
    return _SkewKernel(grid, cutoff_radius)


def fast_rhs(u: VectorField, cutoff_radius: float = 1.0) -> VectorField:
    """eulerian_rhs through the skew-first spectral kernel, from u.rhat
    to a field built from its half spectrum (values only when read)."""
    kernel = _kernel(u.grid, float(cutoff_radius))
    return VectorField.from_rspectral(u.grid, kernel(u.rhat, advect=True))


def fast_force(u: VectorField, cutoff_radius: float = 1.0) -> VectorField:
    """constraint_force through the same kernel, spectrum in and out."""
    kernel = _kernel(u.grid, float(cutoff_radius))
    return VectorField.from_rspectral(u.grid, kernel(u.rhat, advect=False))


def diagnostics(state: EulerianState, s: float,
                prev: DiagnosticsRecord | None = None) -> DiagnosticsRecord:
    """Builds a record; the BKM integral is accumulated by trapezoid
    between successive records, from zero at the first (prev None).

    Reads the state's half spectrum u.rhat: L^2 and H^s are Parseval sums
    on it, and its Jacobian, whose last-axis irfft runs per strip, feeds the
    deformation residual, the symplectic divergence and |grad u|_inf.
    Records see un-dealiased fields, so the derivative symbols are the
    Nyquist-zeroed ones of spectral.py, as in operators.jacobian.
    """
    u = state.u
    grid = u.grid
    d = grid.dim
    hat = u.rhat
    l2 = math.sqrt(_sobolev_sq(grid, hat, 0.0))
    hs = math.sqrt(_sobolev_sq(grid, hat, s))
    spec, phys, work, planes = _work_buffers(grid)
    deriv = _half_derivative_symbols(grid)
    jac_hat = spec[d:d + d * d]
    for j in range(d):
        np.multiply(hat, deriv[j], out=jac_hat[j::d])
    np.fft.ifftn(jac_hat, axes=tuple(range(-d, -1)), out=jac_hat)
    # P = omega^T J - J^T omega: _skew's entries differ from P's upper ones
    # only in sign, and both triangles count in the Frobenius norm. They and
    # sdiv fill whole planes, summed at once by einsum (vdot's sums follow
    # the BLAS thread count); a max folds over strips exactly
    entries, sdiv = planes[:-1], planes[-1]
    peak = 0.0
    for r0, r1 in _strips(grid):
        ph, w = phys[d:d + d * d, :r1 - r0], work[:, :r1 - r0]
        J = np.fft.irfft(jac_hat[:, r0:r1], n=grid.points_per_axis, axis=-1,
                         out=ph).reshape((d, d) + ph.shape[1:])
        _skew(d, entries[:, r0:r1], w[-1],
              lambda a, b, o: np.copyto(o, J[a, b]))
        strip = np.subtract(J[0, 1], J[1, 0], out=sdiv[r0:r1])
        for a in range(1, grid.n):
            strip += J[2 * a, 2 * a + 1]
            strip -= J[2 * a + 1, 2 * a]
        peak = np.maximum(peak, np.einsum("ij...,ij...->...", J, J,
                                          out=w[0]).max())
    p_sq = 0.0
    for entry in entries:
        p_sq += float(np.einsum("i,i->", entry.ravel(), entry.ravel()))
    p_res = math.sqrt(2.0 * p_sq * grid.cell_volume)
    flat = sdiv.ravel()
    sdiv_l2 = math.sqrt(float(np.einsum("i,i->", flat, flat))
                        * grid.cell_volume)
    sdiv_linf = float(max(sdiv.max(), -sdiv.min()))
    integrand = math.sqrt(float(peak))
    if prev is None:
        integral = 0.0
    else:
        integral = prev.bkm_integral + 0.5 * (state.t - prev.t) * (
            prev.bkm_integrand + integrand)
    return DiagnosticsRecord(state.t, l2, hs, p_res, sdiv_l2, sdiv_linf,
                             integrand, integral)


def _check_finite(t: float, arrays: Sequence[np.ndarray],
                  what: str = "velocity field") -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise DiscretizationFailure(t, f"NaN/Inf in {what}")


def rk4(rhs: Callable[[float, tuple], tuple], y: tuple, dt: float) -> tuple:
    """One classical RK4 step of the system y' = f(t, y), y a tuple of arrays.

    rhs(c, y) returns the derivatives at the stage offset c * dt, c in
    {0, 1/2, 1/2, 1}. Each stage input and result component is one fresh
    array, summed in the order of a + c dt k and a + (dt/6)(p + 2q + 2r +
    w), so bitwise equal; no k is written to, as one may be its stage input.
    The weighted sum starts as 2 k2 + k1 right after k2 and takes 2 k3
    right after k3, so k1 is freed before the third stage runs and k2
    before the fourth.
    """
    def axpy(s, xs, bases):  # s x + b, one fresh array per component
        return tuple(np.add(t, b, out=t)
                     for t, b in zip((np.multiply(x, s) for x in xs), bases))

    k1 = rhs(0.0, y)
    k2 = rhs(0.5, axpy(0.5 * dt, k1, y))
    out = axpy(2.0, k2, k1)
    del k1
    k3 = rhs(0.5, axpy(0.5 * dt, k2, y))
    del k2
    for o, r in zip(out, k3):
        o += 2.0 * r
    k4 = rhs(1.0, axpy(dt, k3, y))
    for o, w, a in zip(out, k4, y):
        o += w
        o *= dt / 6.0
        o += a
    return out


@dataclasses.dataclass(eq=False)
class Integration:
    """The Eulerian run from u0 to t_final, as an iterable.

    rk4 steps the half spectrum u.rhat, each stage through fast_rhs, so a
    step runs only the kernel's transforms. Iterating yields u at t = 0,
    dt, ..., t_final, each after its step's finite check, trace update,
    diagnostics and H^s guard (a Parseval sum, every step), and fills in
    state, records (see DIAGNOSTIC_COLUMNS) and trace. Nothing keeps the
    history. trace_points (dim, M) move with the RK4 stage velocities,
    summed from each stage's half spectrum by fourier_sample (exact
    trigonometric interpolation, no transform); trace (steps+1, dim, M)
    holds their unwrapped (covering-space) positions.
    """

    u0: VectorField
    t_final: float
    dt: float
    cutoff_radius: float = 1.0
    diag_every: int = 1
    s: float = 3.0
    trace_points: np.ndarray | None = None
    state: EulerianState | None = dataclasses.field(default=None, init=False)
    records: list[DiagnosticsRecord] = dataclasses.field(
        default_factory=list, init=False)
    trace: np.ndarray | None = dataclasses.field(default=None, init=False)

    def __len__(self) -> int:
        """The number of samples an iteration yields: steps + 1."""
        return step_count(self.t_final, self.dt) + 1

    def __iter__(self) -> Iterator[VectorField]:
        grid, dt = self.u0.grid, self.dt
        steps = step_count(self.t_final, dt)
        _check_finite(0.0, (self.u0.rhat,))
        self.state = EulerianState(0.0, self.u0)
        self.records = [diagnostics(self.state, self.s)]
        hs_limit = 1e6 * max(self.records[0].hs, 1e-300)
        tracing = self.trace_points is not None
        y = (self.u0.rhat,)
        if tracing:
            y += (np.array(self.trace_points, dtype=float),)
            self.trace = np.empty((steps + 1,) + y[1].shape)
            self.trace[0] = y[1]

        def rhs(c, y):
            u = VectorField.from_rspectral(grid, y[0])
            k = (fast_rhs(u, self.cutoff_radius).rhat,)
            if tracing:
                # positions move through the same stage fields (coupled RK4)
                k += (fourier_sample(grid, y[0], y[1]),)
            return k

        yield self.u0
        for step in range(1, steps + 1):
            y = rk4(rhs, y, dt)
            _check_finite(step * dt, y)
            new_u = VectorField.from_rspectral(grid, y[0])
            if tracing:
                self.trace[step] = y[1]
            self.state = EulerianState(step * dt, new_u)
            if step % self.diag_every == 0 or step == steps:
                self.records.append(
                    diagnostics(self.state, self.s, self.records[-1]))
                hs = self.records[-1].hs    # the same sum over y[0]
            else:
                hs = math.sqrt(_sobolev_sq(grid, y[0], self.s))
            if hs > hs_limit:
                raise DiscretizationFailure(
                    self.state.t, "H^s norm exceeded 1e6 x initial")
            yield new_u


def integrate(u0: VectorField, t_final: float, dt: float,
              csv_path: str | os.PathLike | None = None,
              **options) -> Integration:
    """Runs Integration(u0, t_final, dt, **options), whose fields list
    the options, to its end and, given csv_path, writes its records
    there; see DIAGNOSTIC_COLUMNS for the CSV layout."""
    run = Integration(u0, t_final, dt, **options)
    for _ in run:
        pass
    if csv_path is not None:
        write_diagnostics_csv(csv_path, run.records)
    return run


def _atomic_write(path: str | os.PathLike, *chunks) -> None:
    """Writes the bytes-like chunks (bytes, C-contiguous arrays) to path
    through a temp file and a rename, so readers see the old file or the
    new one, never a torn write. The temp file is created with mode 0o666,
    so the process umask applies as it does for open()."""
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_diagnostics_csv(path: str | os.PathLike,
                          rows: Sequence[Sequence[float]],
                          columns: Sequence[str] = DIAGNOSTIC_COLUMNS) -> None:
    """Atomic CSV write of number tuples; integers as integers, floats via
    repr round-trip."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([str(int(x)) if isinstance(x, (int, np.integer))
                         else repr(float(x)) for x in row])
    _atomic_write(path, buf.getvalue().encode("utf-8"))


def write_json(path: str | os.PathLike, payload: dict) -> None:
    """Atomic write of payload as indented JSON with sorted keys."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _atomic_write(path, text.encode("utf-8"))
