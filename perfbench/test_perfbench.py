"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

They check that every metric of BENCHMARK.json appears with its unit,
that spans nest and the traced layers account for each round's wall
time, that a seed fixes the outputs bit for bit, and that the benchmark
refuses to run without the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "eulerian_diag": {"points": 16},
    "geodesic_exp": {"points": 16, "t_final": 0.02},
    "flow_probe": {"points": 16},
}


def tiny(name, tmp_path, **overrides):
    workload = WORKLOADS[name](str(tmp_path), **{**TINY[name], **overrides})
    workload.tolerance = 1e-3  # a 16-point grid resolves the data coarsely
    return workload


def err_ref(workload) -> float:
    result = harness.run(workload, seed=1, seconds=0.0, trace=False)["result"]
    return result["metrics"]["err_ref"]["value"]


def nesting_errors(spans: list[list]) -> list[str]:
    """Children must lie inside their parent, siblings must not overlap."""
    errors = []
    last_end: dict[int, float] = {}
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if end is None or end < start:
            errors.append(f"span {i} ({name}) has no valid end")
            continue
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                errors.append(f"span {i} ({name}) leaves its parent")
            if start < last_end.get(parent, start):
                errors.append(f"span {i} ({name}) overlaps a sibling")
            last_end[parent] = end
    return errors


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_declared_workloads_are_the_implemented_ones():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert names == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_reports_end_to_end_metrics(name, tmp_path):
    result = harness.run(tiny(name, tmp_path), seed=1, seconds=0.0,
                         trace=False)["result"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_layers_with_nested_spans(name, tmp_path):
    outcome = harness.run(tiny(name, tmp_path), seed=1, seconds=0.0,
                          trace=True)
    metrics = outcome["result"]["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
    spans = outcome["record"]["spans"]
    assert nesting_errors(spans) == []
    assert {s[0] for s in spans if s[3] == -1} == {"setup", "solve"}
    # the untraced-time check is part of correctness in traced runs
    assert outcome["result"]["correct"], outcome["record"]["problems"]
    import sympeuler.eulerian
    import numpy.fft
    assert not hasattr(sympeuler.eulerian.fast_rhs, "__traced__")
    assert not hasattr(numpy.fft.rfftn, "__traced__")


def test_layers_seen_per_workload(tmp_path):
    def layers(name):
        outcome = harness.run(tiny(name, tmp_path / name), seed=1,
                              seconds=0.0, trace=True)
        return {k: v["value"] for k, v in outcome["result"]["metrics"].items()}

    for name in WORKLOADS:
        (tmp_path / name).mkdir()
    euler, geo, flow = (layers(n) for n in
                        ("eulerian_diag", "geodesic_exp", "flow_probe"))
    assert euler["eulerian.fast_rhs.calls"] > 0
    assert euler["interp.build.calls"] == 0
    assert euler["experiments.oracle_2d_solve.s"] > 0
    assert geo["eulerian.fast_rhs.calls"] == 0
    assert geo["lagrangian.invert.sweeps_per_call"] >= 1
    assert flow["interp.evals_per_build"] > 1
    assert flow["lagrangian.invert.calls"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_fixes_outputs_bitwise(name, tmp_path):
    def digests(seed):
        record = harness.run(tiny(name, tmp_path), seed=seed, seconds=0.0,
                             trace=False)["record"]
        return record["digests"]

    first = digests(3)
    assert all(len(v) == 1 for v in first.values())
    assert digests(3) == first
    other = digests(4)
    assert all(other[k] != first[k] for k in first)


def test_err_ref_measures_discretisation(tmp_path):
    """err_ref falls when the step (Eulerian) or grid (interpolating
    forms) is refined, and sits far above rounding."""
    coarse = err_ref(tiny("eulerian_diag", tmp_path, points=32))
    fine = err_ref(tiny("eulerian_diag", tmp_path, points=32, cfl=0.25))
    assert 1e-12 < fine < coarse / 4
    for name in ("geodesic_exp", "flow_probe"):
        coarse = err_ref(tiny(name, tmp_path))
        fine = err_ref(tiny(name, tmp_path, points=32))
        assert 1e-12 < fine < coarse / 4


def test_self_times_subtract_children():
    spans = [["solve", 0.0, 10.0, -1, "s1", 0],
             ["a", 1.0, 4.0, 0, "s1", 0],
             ["fft", 2.0, 3.0, 1, "s1", 0],
             ["b", 5.0, 9.0, 0, "s1", 0]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert nesting_errors(spans) == []
    spans[3][1] = 3.5  # overlaps its sibling "a"
    assert nesting_errors(spans)


def test_untraced_time_check_fails_when_layers_miss_the_solve():
    covered = [["solve", 0.0, 10.0, -1, "round1", 0],
               ["eulerian.integrate", 0.1, 9.9, 0, "round1", 0]]
    assert harness.untraced_time_problems(covered, ["round1"], [10.0]) == []
    # the same round with the work in a function the tracer does not wrap
    missed = [["solve", 0.0, 10.0, -1, "round1", 0],
              ["eulerian.integrate", 0.1, 5.0, 0, "round1", 0]]
    problems = harness.untraced_time_problems(missed, ["round1"], [10.0])
    assert len(problems) == 1 and "outside every traced layer" in problems[0]


def test_layer_metrics_are_per_solve():
    """A round of two solves reports half its totals per solve."""
    spans = [["solve", 0.0, 4.0, -1, "round1", 0],
             ["eulerian.fast_rhs", 0.0, 1.0, 0, "round1", 0],
             ["eulerian.fast_rhs", 2.0, 3.0, 0, "round1", 0],
             ["setup", 5.0, 6.0, -1, "setup0", 0]]
    metrics = tracing.layer_metrics(spans, ["round1"], ["setup0"], 2)
    assert metrics["eulerian.fast_rhs.calls"]["value"] == 1.0
    assert metrics["eulerian.fast_rhs.s"]["value"] == 1.0


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geodesic_exp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
