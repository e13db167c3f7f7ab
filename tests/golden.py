"""Golden outputs of the CLI: the commands, and how their outputs are read.

`tests/golden.json` holds, for each command in COMMANDS, the sha256 of its
standard output and of every file it writes, the numbers parsed from each
of them, the twelve criterion lines of `sympeuler verify` with their
seconds stripped, and the numpy and scipy versions and the machine that
wrote them. `tests/test_golden.py` reruns the commands and compares;
`tests/test_acceptance.py` compares each criterion's line. A change that
moves outputs on purpose regenerates the file from the root of a checkout
(about 80 s, most of it `verify`):

    python tests/golden.py

Pytest does not collect this module (its name does not start with test_).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import scipy
import yaml

GOLDEN = Path(__file__).with_name("golden.json")
SRC = Path(__file__).resolve().parents[1] / "src"

# name -> (CLI arguments, run config); small sizes keep the six under 15 s
COMMANDS = {
    "run-eulerian": (["run-eulerian"], {
        "grid": {"points_per_axis": 64},
        "time": {"t_final": 1.0, "cfl": 0.5},
        "initial": {"kind": "random_symplectic", "seed": 7, "decay": 0.75}}),
    "run-lagrangian": (["run-lagrangian", "--check-equivalence"], {
        "grid": {"points_per_axis": 32},
        "time": {"t_final": 0.5, "cfl": 0.5},
        "initial": {"kind": "random_symplectic", "seed": 5, "norm": 0.3},
        "lagrangian": {"dt": 0.05}}),
    "exp-map": (["exp-map"], {
        "grid": {"points_per_axis": 32},
        "time": {"cfl": 0.5},
        "initial": {"kind": "random_symplectic", "seed": 3, "norm": 0.3},
        "lagrangian": {"dt": 0.05}}),
    "oracle2d": (["experiment", "oracle2d"], {
        "grid": {"points_per_axis": 64},
        "time": {"cfl": 0.4},
        "experiment": {"seeds": [0, 1], "t_final": 0.1, "norm": 0.5}}),
    "probes": (["experiment", "probes"], {"time": {"cfl": 0.5}}),
    # the smallest grid the nonuniform experiment's 8-cell guard admits
    "nonuniform": (["experiment", "nonuniform"], {
        "grid": {"points_per_axis": 128, "box_length": 0.75},
        "time": {"cfl": 0.5},
        "experiment": {"K": 2}}),
}

# set before numpy loads in the child: a BLAS pool may split sums by thread
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS",
                                     "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# a decimal number not glued to a name, so "sdiv_l2" holds none
_NUMBER = re.compile(rb"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# payload values kept per snapshot, evenly strided
SNAPSHOT_SAMPLES = 256
# "criterion  3 conservation T=1: PASS (5.3s <= 300s) ...": the seconds
# follow the host, the rest of the line does not
_VERIFY_LINE = re.compile(r"criterion +(\d+) [^:]*: (PASS|FAIL) ")
_SECONDS = re.compile(r"\(\d+\.\ds <= \d+s\) ")


def environment() -> dict:
    """What decides whether outputs can match byte for byte."""
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def load() -> tuple[dict, bool, str]:
    """The stored file; whether its outputs are compared byte for byte,
    which holds where numpy, scipy and the machine are the ones that
    wrote it; and the name of that comparison mode."""
    stored = json.loads(GOLDEN.read_text())
    exact = all(stored[key] == value for key, value in environment().items())
    mode = ("sha256 of every byte" if exact else
            "parsed numbers to a relative 1e-12, since the file was written "
            "with numpy {numpy}, scipy {scipy} on {machine}".format(**stored))
    return stored, exact, mode


def _cli(*argv: str) -> bytes:
    """The stdout of `sympeuler argv` in a fresh interpreter with one BLAS
    thread, on this checkout's sources."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sympeuler.cli", *argv], capture_output=True,
        env={**os.environ, **ONE_THREAD, "PYTHONPATH": path})
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')}")
    return proc.stdout


def run(name: str, workdir: Path) -> dict[str, bytes]:
    """Runs one command; returns its stdout and the files it wrote, by
    name."""
    argv, config = COMMANDS[name]
    cfg, out = workdir / "run.yaml", workdir / "out"
    cfg.write_text(yaml.safe_dump(config))
    stdout = _cli(*argv, "--config", str(cfg), "--out", str(out))
    return {"stdout": stdout,
            **{p.name: p.read_bytes() for p in sorted(out.iterdir())}}


def run_all(workdir: Path) -> dict[str, dict[str, bytes]]:
    """Every command, two at a time (the nonuniform run takes as long as
    the other five), each in its own subdirectory."""
    def one(name):
        (workdir / name).mkdir()
        return run(name, workdir / name)

    with ThreadPoolExecutor(2) as pool:
        return dict(zip(COMMANDS, pool.map(one, COMMANDS)))


def record(output: str, data: bytes) -> dict:
    """sha256 of the bytes; the text with each number replaced by '#'
    (a snapshot's header line) as a sha256, and the numbers, a snapshot
    adding SNAPSHOT_SAMPLES of its payload values."""
    text, samples = data, []
    if output.endswith(".snap"):
        text, payload = data.split(b"\n", 1)
        values = np.frombuffer(payload, dtype="<f8")
        picks = np.linspace(0, values.size - 1,
                            min(values.size, SNAPSHOT_SAMPLES)).round()
        samples = values[np.unique(picks.astype(int))].tolist()
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "text_sha256": hashlib.sha256(_NUMBER.sub(b"#", text)).hexdigest(),
            "numbers": [float(m) for m in _NUMBER.findall(text)] + samples}


def verify_lines(stdout: str) -> dict[str, str]:
    """The criterion lines of `sympeuler verify` output, by criterion
    number, each with its seconds stripped."""
    lines = {}
    for line in stdout.splitlines():
        match = _VERIFY_LINE.match(line)
        if match:
            lines[match[1]] = _SECONDS.sub("", line, count=1)
    return lines


def verdict(line: str) -> str:
    """PASS or FAIL, as a criterion line reads."""
    return _VERIFY_LINE.match(line)[2]


def number_mismatches(got: dict, want: dict, rel: float = 1e-12) -> list[str]:
    """Where two records disagree once read as numbers: the text around
    the numbers, their count, or a number off by more than rel times the
    larger of its golden value and the largest golden number of the
    output (so entries at rounding level get the output's rounding)."""
    if got["text_sha256"] != want["text_sha256"]:
        return ["text around the numbers differs"]
    if len(got["numbers"]) != len(want["numbers"]):
        return [f"{len(got['numbers'])} numbers, expected "
                f"{len(want['numbers'])}"]
    scale = max(map(abs, want["numbers"]), default=0.0)
    return [f"number {i}: {a!r}, expected {b!r}"
            for i, (a, b) in enumerate(zip(got["numbers"], want["numbers"]))
            if not abs(a - b) <= rel * max(abs(b), scale)]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_all(Path(tmp))
    verify = verify_lines(_cli("verify").decode())
    golden = {**environment(),
              "commands": {name: {output: record(output, data)
                                  for output, data in outputs.items()}
                           for name, outputs in runs.items()},
              "verify": verify}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}: {len(runs)} commands, "
          f"{sum(map(len, runs.values()))} outputs, "
          f"{len(verify)} verify lines")


if __name__ == "__main__":
    main()
