"""Byte-for-byte checks of CLI outputs that refactors must leave unchanged.

Each file under tests/data is the output of the command next to it in
GOLDEN, and an output that does change is rewritten by that command.  The
uniform Monte Carlo record spans several of simulate's time blocks; it was
first written before simulate drew its arrivals in time blocks, and the
blocks left it unchanged.  Two kinks of the sqrt endpoints file (k = 2 and
3) moved by one ulp when maximin_kinks began to sum each kink's ladder as a
running sum; a 60-digit mpmath evaluation of the exact kinks shows both new
values closer to the truth than the old.  When MaximinAwgnPolicy began to
interpolate its kinks, 91 omega values of the awgn curve moved by at most
8.9e-16, and the mpmath evaluation shows the curve's worst error falling
from 8.9e-16 to 7.6e-16 and its summed error from 4.7e-14 to 2.7e-14; the
series record gained a rounding term in its tolerance, and its value,
which moved by 2e-17, lies within it; and the two maximin Monte Carlo
records moved in their last digits.  When MaximinPolicy began to return x
itself below its first kink, the omega of the 26 sqrt curve rows there
became exactly x, which the mpmath evaluation gives exactly.
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
