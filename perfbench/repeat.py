"""Runs the benchmark over several seeds and summarises the spread.

    python3 perfbench/repeat.py --workload flow_probe --seeds 1-10 \
        [--trace-seeds 1-2] [--out summary.json]

Each run is one `perfbench/run.py` process, started only after the
previous one has ended, measuring for BENCHMARK.json's run_seconds. For every end-to-end metric the summary gives the
median, the quartiles (statistics.quantiles(values, n=4)) and the
interquartile spread as a share of the median, next to the metric's bound
from BENCHMARK.json. Traced runs add the per-layer medians, the layer
shares of the traced solve time and the tracing overhead (traced solve_s
minus untraced solve_s, medians over runs).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900

# layer time -> its share of the traced solve time, reported per workload
SHARES = {
    "fast_rhs": ("eulerian.fast_rhs.s",),
    "diagnostics": ("eulerian.diagnostics.s",),
    "interp": ("interp.build.s", "interp.eval.s"),
    "constraint_force": ("operators.constraint_force.s",),
    "fft": ("fft.s",),
}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["samples"] = json.loads(lines[-2])["samples"]
    return result


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0,
            "values": values}


def summarise(workload, untraced, traced, bounds) -> dict:
    out = {"workload": workload, "runs": len(untraced),
           "all_correct": all(r["correct"] for r in untraced + traced),
           "samples_per_run": [r["samples"]["samples"] for r in untraced],
           "end_to_end": {}}
    for name, bound in bounds.items():
        s = spread([r["metrics"][name]["value"] for r in untraced])
        s["bound"] = bound
        s["within_bound_over_3"] = s["iqr_over_median"] < bound / 3
        out["end_to_end"][name] = s
    if traced:
        layers = {name: statistics.median(r["metrics"][name]["value"]
                                          for r in traced)
                  for name in traced[0]["metrics"]}
        solve = layers["trace.solve_s"]
        out["per_layer"] = layers
        out["shares_of_traced_solve"] = {
            k: sum(layers[n] for n in names) / solve
            for k, names in SHARES.items()}
        out["tracing_overhead_s"] = \
            solve - out["end_to_end"]["solve_s"]["median"]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="1-10", type=seed_range)
    p.add_argument("--trace-seeds", default=None, type=seed_range)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summaries = []
    for workload in args.workload:
        untraced = []
        for seed in args.seeds:
            untraced.append(run_once(workload, seed, seconds, 0))
            print(workload, seed, json.dumps(
                {k: v["value"] for k, v in untraced[-1]["metrics"].items()}),
                flush=True)
        traced = [run_once(workload, seed, seconds, 1)
                  for seed in (args.trace_seeds or [])]
        summaries.append(summarise(workload, untraced, traced, bounds))
        for name, s in summaries[-1]["end_to_end"].items():
            print(f"  {name}: median {s['median']:.6g} "
                  f"IQR/median {s['iqr_over_median']:.4f} "
                  f"(bound {s['bound']})", flush=True)
    summary = {"seconds": seconds, "seeds": args.seeds,
               "trace_seeds": args.trace_seeds, "workloads": summaries}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
