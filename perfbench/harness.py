"""Set-up, timed solves, output checks and metrics for one workload run."""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy

import tracer as tracing

SETUPS = 3
# the most of a round's wall time that may fall outside every traced layer
MAX_UNTRACED_SHARE = 0.05

# unit and direction of each end-to-end metric (BENCHMARK.json holds bounds)
END_TO_END_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "err_ref": "1",
    "pass_rate": "1",
}


def clear_solver_caches() -> None:
    """Empties sympeuler's lru caches so each set-up fills them afresh."""
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] != "sympeuler" or module is None:
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@contextlib.contextmanager
def phase(tracer, phase_id: str, root: str):
    """Opens a root span and tags spans with phase_id while tracing."""
    if tracer is None:
        yield
        return
    tracer.solve_id = phase_id
    index = tracer.open(root)
    try:
        yield
    finally:
        tracer.close(index)
        tracer.solve_id = None


def _git_sha(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _l3_bytes() -> int | None:
    path = "/sys/devices/system/cpu/cpu0/cache/index3/size"
    try:
        with open(path) as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def environment(root: str, seed: int, thread_caps: dict,
                field_bytes: int) -> dict:
    l3 = _l3_bytes()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(root),
        "seed": seed,
        "thread_caps": thread_caps,
        "processes": 1,
        "field_bytes": field_bytes,
        "l3_bytes": l3,
        "memory_note": (
            "one velocity field is {:.2f} MiB against a {} L3: the working "
            "set is cache-sized, so this benchmark measures no memory "
            "bandwidth".format(field_bytes / 2 ** 20,
                               f"{l3 / 2 ** 20:.0f} MiB" if l3 else "unknown")),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up SETUPS times, then solve rounds until `seconds` have passed.

    A round is one `workload.solve(cases)` call. Its wall time divided by
    the number of cases is one solve_s sample.

    Returns {"result": <the contract's last line>, "record": <details>}.
    """
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        return _run(workload, seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _run(workload, seed, seconds, tracer) -> dict:
    setup_s, setup_ids = [], []
    for k in range(SETUPS):
        clear_solver_caches()
        setup_ids.append(f"setup{k}")
        t0 = time.perf_counter()
        with phase(tracer, setup_ids[-1], "setup"):
            cases = workload.setup(seed)
        setup_s.append(time.perf_counter() - t0)
    setup_peak_rss_mb = peak_rss_mb()

    attempted = failed = 0
    round_s, solve_s, errors, round_ids, problems = [], [], [], [], []
    digests: dict[str, set] = {c.label: set() for c in cases}
    start = time.perf_counter()
    # the first round always runs; a later one only if, at the mean round
    # time so far, it ends within `seconds`
    while not round_ids or (time.perf_counter() - start) * \
            (len(round_ids) + 1) / len(round_ids) <= seconds:
        # one round: every case in one call, timed as a unit
        round_ids.append(f"round{len(round_ids) + 1}")
        attempted += len(cases)
        t0 = time.perf_counter()
        try:
            with phase(tracer, round_ids[-1], "solve"):
                outs = workload.solve(cases)
        except Exception as exc:  # a failed round is counted, not fatal
            outs = [exc] * len(cases)
        round_s.append(time.perf_counter() - t0)
        solve_s.append(round_s[-1] / len(cases))
        for case, out in zip(cases, outs):
            where = f"{round_ids[-1]} ({case.label})"
            try:
                if isinstance(out, Exception):
                    raise out
                err = workload.check(case, out)
                digests[case.label].add(workload.digest(out))
            except Exception as exc:
                problems.append(f"{where}: {type(exc).__name__}: {exc}")
                errors.append(1.0)  # a solve that raised is wholly wrong
                failed += 1
                continue
            errors.append(err)
            if not err <= workload.tolerance:
                problems.append(f"{where}: err_ref {err:.3e} above "
                                f"{workload.tolerance:.0e}")
                failed += 1

    for label, seen in digests.items():
        if len(seen) > 1:
            problems.append(f"repeated solves of {label} differ bitwise")

    record = {
        "workload": workload.name,
        "field_bytes": max(c.u0.values.nbytes for c in cases),
        "setup_s": setup_s,
        "cold_setup_over_warm": setup_s[0] / statistics.median(setup_s[1:]),
        "solves_per_round": len(cases),
        "round_s": round_s,
        "solve_s": solve_s,
        "samples": len(solve_s),
        "err_ref": errors,
        "tolerance": workload.tolerance,
        "digests": {k: sorted(v) for k, v in digests.items()},
        "setup_peak_rss_mb": setup_peak_rss_mb,
    }
    if tracer is None:
        metrics = {
            "solve_s": statistics.median(solve_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb(),
            "err_ref": max(errors),
            "pass_rate": (attempted - failed) / attempted,
        }
        record["solves_raised_peak_rss"] = \
            metrics["peak_rss_mb"] > setup_peak_rss_mb
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}
    else:
        problems += untraced_time_problems(tracer.spans, round_ids, round_s)
        metrics = tracing.layer_metrics(tracer.spans, round_ids, setup_ids,
                                        len(cases))
        metrics["trace.solve_s"] = {"value": statistics.median(solve_s),
                                    "unit": "s"}
        record["spans"] = tracer.spans
    record["problems"] = problems
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return {"result": result, "record": record}


def untraced_time_problems(spans, round_ids, round_s) -> list[str]:
    """The traced layers must account for each round's wall time.

    The root span's self time is the time spent outside every traced
    layer. Above MAX_UNTRACED_SHARE of the wall time, the per-layer
    metrics no longer say where the solve spends its time, for instance
    because the solve moved into a function the tracer does not wrap.
    """
    own = tracing.self_times(spans)
    roots = {s[4]: i for i, s in enumerate(spans) if s[3] == -1}
    problems = []
    for rid, wall in zip(round_ids, round_s):
        outside = own[roots[rid]]
        if outside > MAX_UNTRACED_SHARE * wall:
            problems.append(f"{rid}: {outside:.4f} s of {wall:.4f} s "
                            f"outside every traced layer")
    return problems


def write_record(path: str, env: dict, outcome: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"env": env, **outcome["record"],
                   "result": outcome["result"]}, fh)
