"""In-memory spans around calls into sympeuler's layers.

The tracer swaps timing wrappers into the module attributes that callers
look up at call time (``sympeuler.eulerian.fast_rhs``, ``numpy.fft.rfftn``,
``sympeuler.lagrangian.PeriodicInterpolator``, ...). Nothing under ``src/``
changes: an untraced run and a traced run differ only by these wrappers.

A span is (name, start, end, parent span, solve id, quantity). The solve
id names the timed round (or the set-up) the span belongs to. Spans are
recorded only while a round or a set-up is open, so the output checks
that run between rounds leave no spans.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

import numpy as np

# (span name, module, attribute). Every sympeuler module attribute bound to
# the same function is wrapped, so calls through any import site count.
FUNCTION_LAYERS = (
    ("eulerian.integrate", "sympeuler.eulerian", "integrate"),
    ("eulerian.fast_rhs", "sympeuler.eulerian", "fast_rhs"),
    ("eulerian.diagnostics", "sympeuler.eulerian", "diagnostics"),
    ("eulerian.write_diagnostics_csv", "sympeuler.eulerian",
     "write_diagnostics_csv"),
    ("operators.constraint_force", "sympeuler.operators", "constraint_force"),
    ("operators.jacobian", "sympeuler.operators", "jacobian"),
    ("lagrangian.geodesic_rhs", "sympeuler.lagrangian", "geodesic_rhs"),
    ("lagrangian.invert", "sympeuler.lagrangian", "invert"),
    ("lagrangian.compose", "sympeuler.lagrangian", "compose"),
    ("lagrangian.flow_from_velocity", "sympeuler.lagrangian",
     "flow_from_velocity"),
    ("spectral.spectral_upsample", "sympeuler.spectral", "spectral_upsample"),
    ("snapshots.write_snapshot", "sympeuler.snapshots", "write_snapshot"),
    ("experiments.oracle_2d_solve", "sympeuler.experiments",
     "oracle_2d_solve"),
)

FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                 "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


def _fft_points(args, kwargs, result) -> int:
    # elements of the real-space side of the transform
    return max(np.size(args[0]), np.size(result))


QUANTITIES = {
    "eulerian.write_diagnostics_csv": _file_bytes,
    "snapshots.write_snapshot": _file_bytes,
}


class Tracer:
    """Collects spans; `install` swaps wrappers in, `uninstall` restores."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, solve id, qty]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.solve_id: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.solve_id, 0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, quantity: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = int(quantity)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]} closed out of order")

    def traced(self, name: str, fn, quantity=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.solve_id is None:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if quantity is not None:
                tracer.spans[index][5] = int(quantity(args, kwargs, result))
            return result

        wrapper.__traced__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import numpy.fft
        import sympeuler.interp as interp_mod

        modules = [m for name, m in sorted(sys.modules.items())
                   if name.split(".")[0] == "sympeuler" and m is not None]
        for span_name, module_name, attr in FUNCTION_LAYERS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.traced(span_name, original,
                                  QUANTITIES.get(span_name))
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)

        for attr in FFT_FUNCTIONS:
            self._patch(numpy.fft, attr,
                        self.traced("fft", getattr(numpy.fft, attr),
                                    _fft_points))

        original_cls = interp_mod.PeriodicInterpolator
        tracer = self

        class TracedInterpolator(original_cls):
            def __init__(self, *args, **kwargs):
                if tracer.solve_id is None:
                    super().__init__(*args, **kwargs)
                    return
                index = tracer.open("interp.build")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.close(index)

            def __call__(self, points):
                if tracer.solve_id is None:
                    return super().__call__(points)
                index = tracer.open("interp.eval")
                try:
                    return super().__call__(points)
                finally:
                    tracer.close(index, np.prod(np.shape(points)[1:]))

        for module in modules:
            if getattr(module, "PeriodicInterpolator", None) is original_cls:
                self._patch(module, "PeriodicInterpolator", TracedInterpolator)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- analysis -------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def solve_totals(spans: list[list], solve_id: str,
                 solves: int = 1) -> dict[str, float]:
    """Per-layer counts and times of one round's spans, per solve: the
    round's totals divided by its number of solves."""
    own = self_times(spans)
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, (name, start, end, parent, sid, qty) in enumerate(spans):
        if sid != solve_id:
            continue
        add(name + ".calls", 1)
        add(name + ".s", end - start)
        add(name + ".self_s", own[i])
        add(name + ".quantity", qty)
        if name == "interp.eval" and parent >= 0 \
                and spans[parent][0] == "lagrangian.invert":
            add("invert.sweeps", 1)
    return {k: v / solves for k, v in out.items()}


# Per-layer metrics: name -> (unit, function of one solve's totals).
def _get(key):
    return lambda t: t.get(key, 0.0)


def _ratio(num, den):
    return lambda t: t.get(num, 0.0) / t[den] if t.get(den) else 0.0


PER_SOLVE_METRICS = {
    "eulerian.fast_rhs.calls": ("count", _get("eulerian.fast_rhs.calls")),
    "eulerian.fast_rhs.s": ("s", _get("eulerian.fast_rhs.s")),
    "eulerian.diagnostics.calls": ("count", _get("eulerian.diagnostics.calls")),
    "eulerian.diagnostics.s": ("s", _get("eulerian.diagnostics.s")),
    "eulerian.integrate.self_s": ("s", _get("eulerian.integrate.self_s")),
    "eulerian.write_diagnostics_csv.s":
        ("s", _get("eulerian.write_diagnostics_csv.s")),
    "eulerian.write_diagnostics_csv.bytes":
        ("bytes", _get("eulerian.write_diagnostics_csv.quantity")),
    "operators.constraint_force.calls":
        ("count", _get("operators.constraint_force.calls")),
    "operators.constraint_force.s": ("s", _get("operators.constraint_force.s")),
    "operators.jacobian.calls": ("count", _get("operators.jacobian.calls")),
    "operators.jacobian.s": ("s", _get("operators.jacobian.s")),
    "lagrangian.geodesic_rhs.calls":
        ("count", _get("lagrangian.geodesic_rhs.calls")),
    "lagrangian.geodesic_rhs.self_s":
        ("s", _get("lagrangian.geodesic_rhs.self_s")),
    "lagrangian.invert.calls": ("count", _get("lagrangian.invert.calls")),
    "lagrangian.invert.s": ("s", _get("lagrangian.invert.s")),
    "lagrangian.invert.sweeps_per_call":
        ("1", _ratio("invert.sweeps", "lagrangian.invert.calls")),
    "lagrangian.compose.calls": ("count", _get("lagrangian.compose.calls")),
    "lagrangian.compose.s": ("s", _get("lagrangian.compose.s")),
    "lagrangian.flow_from_velocity.self_s":
        ("s", _get("lagrangian.flow_from_velocity.self_s")),
    "interp.build.calls": ("count", _get("interp.build.calls")),
    "interp.build.s": ("s", _get("interp.build.s")),
    "interp.eval.calls": ("count", _get("interp.eval.calls")),
    "interp.eval.s": ("s", _get("interp.eval.s")),
    "interp.eval.points": ("count", _get("interp.eval.quantity")),
    "interp.evals_per_build":
        ("1", _ratio("interp.eval.calls", "interp.build.calls")),
    "spectral.spectral_upsample.s": ("s", _get("spectral.spectral_upsample.s")),
    "fft.calls": ("count", _get("fft.calls")),
    "fft.points": ("count", _get("fft.quantity")),
    "fft.s": ("s", _get("fft.s")),
    "snapshots.write_snapshot.s": ("s", _get("snapshots.write_snapshot.s")),
    "snapshots.write_snapshot.bytes":
        ("bytes", _get("snapshots.write_snapshot.quantity")),
    "trace.spans": ("count", lambda t: sum(
        v for k, v in t.items() if k.endswith(".calls"))),
}

# Measured over the set-ups, not the solves: the reference solve is set-up
# work (it sits inside setup_s on eulerian_diag).
PER_SETUP_METRICS = {
    "experiments.oracle_2d_solve.s":
        ("s", _get("experiments.oracle_2d_solve.s")),
}


def layer_metrics(spans, round_ids, setup_ids,
                  solves_per_round: int) -> dict[str, dict]:
    """Median over rounds (set-ups) of each per-layer metric, per solve."""
    out = {}
    for table, ids, solves in ((PER_SOLVE_METRICS, round_ids,
                                solves_per_round),
                               (PER_SETUP_METRICS, setup_ids, 1)):
        totals = [solve_totals(spans, i, solves) for i in ids]
        for name, (unit, fn) in table.items():
            out[name] = {"value": statistics.median(fn(t) for t in totals),
                         "unit": unit}
    return out
