"""Byte-for-byte checks of CLI outputs that refactors must leave unchanged.

Each file under tests/data is the output of the command next to it in
GOLDEN, and an output that does change is rewritten by that command;
verify.txt is the standard output of `ehpolicy verify`, which
test_cold_start checks.  The
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
became exactly x, which the mpmath evaluation gives exactly.  When the
policy solve became a numpy GMRES, the value-iteration record's residual
fell from 7.4e-15 to 6.7e-16 and its value moved by 5.6e-17: each record is
a span-criterion result whose gain lies within residual/2 of its value, and
the two values lie 5.6e-17 apart, within half the sum of the two spans
(4.1e-15), so both bound the same gain.  The fixed-fraction series record
was first written when the walk's tail bound gained its concavity term
p r'(0) L: that walk stops after 1490 rungs, not 3377, and its value lies
4.8e-16 below the value the r(c) bound gave (0.00499179107641708, residual
1.0e-15) and 4.9e-16 below a 60-digit mpmath sum of the series, within its
residual of 9.8e-16 and its tolerance of 4.3e-14.  When MaximinPolicy began
to start each level at its kink table and to stop it on that level's own
residual, 174 of the 201 omega values of the sqrt curve moved, by at most
4.3e-13: the array bisection had stopped every level on the worst residual
of them all.  Against the mpmath evaluation, the curve's worst error fell
from 4.27e-13 to 1.23e-15 and its summed error from 2.45e-11 to 7.26e-14;
its x, phi and greedy columns and its endpoints file are unchanged.  When
a FixedFractionPolicy on awgn or sqrt began to sum its tail as a power
series, the fixed-fraction series record's value rose by 4.9e-16 and now
lies 5.7e-19 from `mpmath_oracle.fraction_series(1.0, 0.01, 2.0)` (it lay
4.9e-16 below); its residual, now the truncation bound of that power
series, fell from 9.8e-16 to 4.9e-20, and its tolerance from 4.3e-14 to
9.6e-18.

series_bits.json is a standing grid of bits for changes that must not move
any: every series cell of SERIES_GRID as the hex of its (value, residual,
tolerance) or its error text, the ergodic levels of its maximin cells at
c <= 8, and one renewal-path simulate a policy kind.  _series_bits computes
it, and `PYTHONPATH=src python tests/test_golden.py` rewrites it.

vi_bits.json is the same for value iteration: for every model of VI_GRID,
optimal_gain's (value, residual, tolerance) as hex and a digest of its
actions, and each policy kind's policy_gain as hex, as metrics.sweep builds
the policies.  The models are the value-iteration benchmark's five laws,
one slow-mixing law on 2000 cells, the two laws on which a later Howard
switch runs slower, and grids of 3, 127 and 128 cells, on both sides of
the expectation's direct-correlation cut.  _vi_bits computes it, and the
same command rewrites it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ehpolicy import evaluation as ev
from ehpolicy import policies as pol
from ehpolicy import rewards as rw
from ehpolicy.arrivals import from_mcr, from_nmcr
from ehpolicy.checks import _sample_rewards
from ehpolicy.cli import main
from ehpolicy.metrics import POLICY_KINDS, make_policy

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
    "evaluate_series_fixed_fraction": (
        ["evaluate", "--method", "series", "--policy", "fixed_fraction", "--c", "2", "--p", "0.01"],
        {"--out": "evaluate_series_fixed_fraction.json"},
    ),
    "evaluate_vi": (
        ["evaluate", "--method", "vi", "--family", "uniform", "--c", "2", "--p", "0.5"],
        {"--out": "evaluate_vi_uniform.json"},
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


# rewards x capacities x ratios of series_bits.json, every policy kind a cell
SERIES_GRID = (
    {
        "awgn:1": rw.RewardFunction.awgn(1.0),
        "awgn:2.5": rw.RewardFunction.awgn(2.5),
        "sqrt": rw.RewardFunction.sqrt_rate(),
        # the awgn:1 closed forms as a custom reward: its maximin inverts
        "log1p": next(r for r in _sample_rewards() if r.kind == "custom"),
    },
    (0.1, 0.5, 2.0, 8.0, 50.0),
    (1e-3, 0.01, 0.1, 0.3, 0.5, 0.9, 0.999),
)


def _hexes(*values) -> list[str]:
    return [float(v).hex() for v in values]


def _series_bits() -> dict:
    """The bits series_bits.json holds, keyed by cell."""
    rewards, capacities, ratios = SERIES_GRID
    series, levels = {}, {}
    for name, reward in rewards.items():
        for c in capacities:
            for p in ratios:
                for kind in POLICY_KINDS:
                    key = f"{name} c={c!r} p={p!r} {kind}"
                    try:
                        r = ev.bernoulli_reward(make_policy(kind, reward, p), reward, c, p)
                        series[key] = _hexes(r.value, r.residual, r.tolerance)
                    except (ValueError, RuntimeError) as e:  # part of the record
                        series[key] = f"{type(e).__name__}: {e}"
                    if kind == "maximin" and c <= 8.0:
                        policy = make_policy(kind, reward, p)
                        levels[key] = _hexes(*pol.ergodic_levels(policy, c))
    reward, law = rw.RewardFunction.awgn(1.0), from_mcr("bernoulli", 2.0, 0.5)
    simulated = {}
    for kind in POLICY_KINDS:
        r = ev.simulate(make_policy(kind, reward, 0.5), law, reward, 2000, 64, seed=0)
        simulated[kind] = _hexes(r.value, r.stderr, r.tolerance)
    return {"series": series, "ergodic_levels": levels, "simulate": simulated}


def test_series_bits_match_the_standing_grid():
    want = json.loads((DATA / "series_bits.json").read_text())
    got = _series_bits()
    assert got.keys() == want.keys()
    for part, cells in want.items():
        assert got[part].keys() == cells.keys(), part
        moved = [key for key, bits in cells.items() if got[part][key] != bits]
        assert not moved, f"{part}: {len(moved)} cells moved, first {moved[:3]}"


# name -> (arrival law, grid cells) of vi_bits.json, all with reward awgn:1
VI_GRID = {
    "uniform c=2 nmcr=0.1": (from_nmcr("uniform", 2.0, 0.1), 1000),
    "uniform c=2 nmcr=0.5": (from_nmcr("uniform", 2.0, 0.5), 1000),
    "uniform c=8 nmcr=0.1": (from_nmcr("uniform", 8.0, 0.1), 1000),
    "uniform c=8 nmcr=0.5": (from_nmcr("uniform", 8.0, 0.5), 1000),
    "exponential c=1 nmcr=0.5": (from_nmcr("exponential", 1.0, 0.5), 1000),
    "uniform c=16 mcr=0.02": (from_mcr("uniform", 16.0, 0.02), 2000),
    "uniform c=2 nmcr=0.2": (from_nmcr("uniform", 2.0, 0.2), 1000),
    "exponential c=4 nmcr=0.1": (from_nmcr("exponential", 4.0, 0.1), 1000),
    **{
        f"{family} c={c!r} nmcr={r!r} cells={cells}": (from_nmcr(family, c, r), cells)
        for family, c, r in (("uniform", 2.0, 0.1), ("exponential", 1.0, 0.5))
        for cells in (3, 127, 128)
    },
}


def _vi_bits() -> dict:
    """The bits vi_bits.json holds, keyed by model and then by solve."""
    reward = rw.RewardFunction.awgn(1.0)
    bits = {}
    for name, (law, cells) in VI_GRID.items():
        model = ev.build_mdp(reward, law, cells)
        best, actions = ev.optimal_gain(model)
        digest = hashlib.sha256(actions.astype("<i8").tobytes()).hexdigest()[:16]
        cell = {"optimal_gain": _hexes(best.value, best.residual, best.tolerance) + [digest]}
        for kind in POLICY_KINDS:
            r = ev.policy_gain(model, make_policy(kind, reward, law.mcr()))
            cell[kind] = _hexes(r.value, r.residual, r.tolerance)
        bits[name] = cell
    return bits


def test_vi_bits_match_the_standing_grid():
    want = json.loads((DATA / "vi_bits.json").read_text())
    got = _vi_bits()
    assert got.keys() == want.keys()
    moved = [key for key, bits in want.items() if got[key] != bits]
    assert not moved, f"{len(moved)} models moved, first {moved[:3]}"


if __name__ == "__main__":
    (DATA / "series_bits.json").write_text(json.dumps(_series_bits(), indent=1) + "\n")
    (DATA / "vi_bits.json").write_text(json.dumps(_vi_bits(), indent=1) + "\n")
