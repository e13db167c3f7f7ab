"""Acceptance suite: one test per numbered criterion.

Each test delegates to the packaged criterion runner (also reachable as
``sympeuler verify``) so the tolerances, draw counts, and time budgets
live in exactly one place. Runtime is dominated by criterion 10; the
whole file takes about two minutes (`sympeuler verify` took 104 to
119 s on a 2-vCPU host).

Each criterion's line, as `sympeuler verify` prints it, is compared with
the one in tests/golden.json (seconds stripped): as exact text where the
golden outputs are compared byte for byte, elsewhere on PASS or FAIL
only.
"""

import golden
from sympeuler.acceptance import run_criteria

GOLDEN, BYTES, MODE = golden.load()


def _run(number, capsys):
    results = run_criteria(str(number))
    assert len(results) == 1
    r = results[0]
    assert r.passed, f"criterion {number}: {r.detail}"
    assert r.seconds <= r.budget_seconds, (
        f"criterion {number} took {r.seconds:.1f}s "
        f"(budget {r.budget_seconds:.0f}s)")
    [line] = golden.verify_lines(capsys.readouterr().out).values()
    want = GOLDEN["verify"][str(number)]
    if BYTES:
        assert line == want, f"line compared as exact text ({MODE})"
    else:
        assert golden.verdict(line) == golden.verdict(want), (
            f"line compared on PASS or FAIL only ({MODE})")


def test_criterion_01_operator_identities(capsys):
    _run(1, capsys)


def test_criterion_02_reconstruction_round_trip(capsys):
    _run(2, capsys)


def test_criterion_03_conservation_laws(capsys):
    _run(3, capsys)


def test_criterion_04_frozen_transport(capsys):
    _run(4, capsys)


def test_criterion_05_formulation_equivalence(capsys):
    _run(5, capsys)


def test_criterion_06_scaling_symmetry(capsys):
    _run(6, capsys)


def test_criterion_07_oracle_agreement(capsys):
    _run(7, capsys)


def test_criterion_08_residual_dichotomy(capsys):
    _run(8, capsys)


def test_criterion_09_cutoff_independence(capsys):
    _run(9, capsys)


def test_criterion_10_nonuniform_gap_floor(capsys):
    _run(10, capsys)


def test_criterion_11_probe_stability(capsys):
    _run(11, capsys)


def test_criterion_12_higher_dimension_smoke(capsys):
    _run(12, capsys)
