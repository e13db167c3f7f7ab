"""The CLI's outputs against tests/golden.json (written by tests/golden.py).

Where numpy, scipy and the machine are the ones that wrote the file,
every output must match byte for byte. Elsewhere the bytes may
legitimately differ, so the numbers parsed from each output are compared
to a relative 1e-12 instead. The end of the pytest report names the mode
that ran; neither mode skips.
"""

import pytest

import golden

GOLDEN, BYTES, MODE = golden.load()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return golden.run_all(tmp_path_factory.mktemp("golden"))


def test_golden_file_covers_every_command():
    assert sorted(GOLDEN["commands"]) == sorted(golden.COMMANDS)


@pytest.mark.parametrize("name", list(golden.COMMANDS))
def test_cli_outputs_match_golden(runs, name):
    want = GOLDEN["commands"][name]
    got = {output: golden.record(output, data)
           for output, data in runs[name].items()}
    assert sorted(got) == sorted(want)
    if BYTES:
        mismatches = {output: "sha256 differs" for output in want
                      if got[output]["sha256"] != want[output]["sha256"]}
    else:
        mismatches = {output: golden.number_mismatches(got[output],
                                                       want[output])
                      for output in want}
        mismatches = {k: v for k, v in mismatches.items() if v}
    assert mismatches == {}, MODE


def test_number_comparison_tells_rounding_from_a_change():
    # the fallback mode's own check: a one-ulp move passes, a move of
    # 1e-11 relative fails, and a near-zero entry is held to the output's
    # rounding, not to its own magnitude
    want = golden.record("out.txt", b"a=1.5 b=2.5e-17\n")
    assert golden.number_mismatches(
        golden.record("out.txt", b"a=1.5000000000000002 b=3e-17\n"),
        want) == []
    assert golden.number_mismatches(
        golden.record("out.txt", b"a=1.500000000015 b=2.5e-17\n"),
        want) == ["number 0: 1.500000000015, expected 1.5"]
    assert golden.number_mismatches(
        golden.record("out.txt", b"a=1.5 c=2.5e-17\n"), want) == [
        "text around the numbers differs"]
