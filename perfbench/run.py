"""sympeuler benchmark: one workload per process, checked outputs, metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eulerian_diag --seed 1 \
        --seconds 27 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The lines before it give
the environment and the raw samples; the full record (spans included when
tracing) goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_ROOT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("eulerian_diag", "geodesic_exp", "flow_probe")

# BLAS/OpenMP pools capped before numpy loads. Everything runs in this one
# process; the FFTs and the spline code are single-threaded anyway.
THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREAD_CAP = 1


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "sympeuler", "__init__.py")):
        print(f"no sympeuler sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    caps = {var: str(THREAD_CAP) for var in THREAD_CAP_VARS}
    os.environ.update(caps)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import harness
    from workloads import WORKLOADS

    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}-pid{os.getpid()}")
    os.makedirs(out_dir)
    workload = WORKLOADS[args.workload](out_dir)
    outcome = harness.run(workload, args.seed, args.seconds, bool(args.trace))
    record = outcome["record"]
    env = harness.environment(ROOT, args.seed, caps, record["field_bytes"])
    harness.write_record(os.path.join(out_dir, "record.json"), env, outcome)

    print(json.dumps({"env": env}))
    print(json.dumps({"samples": {k: record[k] for k in (
        "samples", "solves_per_round", "round_s", "solve_s", "setup_s",
        "cold_setup_over_warm", "setup_peak_rss_mb", "solves_raised_peak_rss",
        "err_ref", "tolerance", "digests", "problems") if k in record}}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
