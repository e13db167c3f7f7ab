"""Acceptance suite: one test per numbered criterion.

Each test delegates to the packaged criterion runner (also reachable as
``sympeuler verify``) so the tolerances, draw counts, and time budgets
live in exactly one place. Runtime is dominated by criterion 10; the
whole file takes about two minutes (`sympeuler verify` took 104 to
119 s on a 2-vCPU host).
"""

from sympeuler.acceptance import run_criteria


def _run(number):
    results = run_criteria(str(number), quiet=True)
    assert len(results) == 1
    r = results[0]
    assert r.passed, f"criterion {number}: {r.detail}"
    assert r.seconds <= r.budget_seconds, (
        f"criterion {number} took {r.seconds:.1f}s "
        f"(budget {r.budget_seconds:.0f}s)")


def test_criterion_01_operator_identities():
    _run(1)


def test_criterion_02_reconstruction_round_trip():
    _run(2)


def test_criterion_03_conservation_laws():
    _run(3)


def test_criterion_04_frozen_transport():
    _run(4)


def test_criterion_05_formulation_equivalence():
    _run(5)


def test_criterion_06_scaling_symmetry():
    _run(6)


def test_criterion_07_oracle_agreement():
    _run(7)


def test_criterion_08_residual_dichotomy():
    _run(8)


def test_criterion_09_cutoff_independence():
    _run(9)


def test_criterion_10_nonuniform_gap_floor():
    _run(10)


def test_criterion_11_probe_stability():
    _run(11)


def test_criterion_12_higher_dimension_smoke():
    _run(12)
