"""Byte-for-byte checks of CLI outputs that refactors must leave unchanged.

Each file under tests/data is the output of the command next to it in
GOLDEN.  Most were written before `simulate` lost its `workers` option, so
the Bernoulli Monte Carlo record had a `workers` key, which was then deleted
from it; every other byte is as the command wrote it.  The uniform Monte
Carlo record spans several of simulate's time blocks; it was written, as is,
before simulate drew its arrivals in time blocks.  Two kinks of the sqrt
endpoints file (k = 2 and 3) moved by one ulp when maximin_kinks began to
sum each kink's ladder as a running sum; a 60-digit mpmath evaluation of
the exact kinks shows both new values closer to the truth than the old.
"""

from pathlib import Path

import pytest

from ehpolicy.cli import main

DATA = Path(__file__).parent / "data"

# name -> (command line, {output flag: golden file})
GOLDEN = {
    "curve_awgn": (
        ["curve", "--reward", "awgn:1", "--p", "0.5"],
        {"--out": "curve_awgn1_p0.5.csv", "--endpoints-out": "curve_awgn1_p0.5.endpoints.csv"},
    ),
    "curve_sqrt": (
        ["curve", "--reward", "sqrt", "--p", "0.3"],
        {"--out": "curve_sqrt_p0.3.csv", "--endpoints-out": "curve_sqrt_p0.3.endpoints.csv"},
    ),
    "evaluate_series": (
        ["evaluate", "--method", "series", "--policy", "maximin", "--c", "2", "--p", "0.1"],
        {"--out": "evaluate_series_maximin.json"},
    ),
    "evaluate_mc": (
        ["evaluate", "--method", "mc", "--n", "2000", "--paths", "8", "--c", "2", "--p", "0.1"],
        {"--out": "evaluate_mc.json"},
    ),
    "evaluate_mc_uniform": (
        ["evaluate", "--method", "mc", "--family", "uniform", "--c", "2", "--p", "0.5",
         "--n", "5000", "--paths", "16"],
        {"--out": "evaluate_mc_uniform.json"},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_file(name, tmp_path):
    argv, outputs = GOLDEN[name]
    args = list(argv)
    for flag, filename in outputs.items():
        args += [flag, str(tmp_path / filename)]
    assert main(args) == 0
    for filename in outputs.values():
        assert (tmp_path / filename).read_bytes() == (DATA / filename).read_bytes(), filename
