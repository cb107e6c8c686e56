"""End-to-end tests of the command-line front end (in-process)."""

import json
import math
import re
import subprocess
import sys
import warnings

import mpmath
import mpmath_oracle
import numpy as np
import pytest

from ehpolicy import arrivals as arr
from ehpolicy import checks
from ehpolicy import evaluation as ev
from ehpolicy import metrics as mx
from ehpolicy import policies as pol
from ehpolicy import rewards as rw
from ehpolicy.cli import main


def read(path):
    return path.read_text()


class TestCurve:
    def test_default_curve_hits_known_points(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--out", str(out)]) == 0
        lines = read(out).splitlines()
        assert lines[0] == "x,omega,phi,greedy"
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 0.0, 0.0, 0.0]
        by_x = {}
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            by_x[vals[0]] = vals
        assert abs(by_x[4.0][1] - 3.0) <= 1e-9   # maximin kink
        assert by_x[4.0][2] == 2.0               # half of the level
        assert by_x[4.0][3] == 4.0               # greedy spends it all

    def test_endpoints_file_derived_from_out(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--out", str(out)]) == 0
        ep = tmp_path / "curve.endpoints.csv"
        lines = read(ep).splitlines()
        assert lines[0] == "k,x,y"
        rows = [line.split(",") for line in lines[1:]]
        got = [(int(k), float(x), float(y)) for k, x, y in rows[:3]]
        want = [(0, 0.0, 0.0), (1, 1.0, 1.0), (2, 4.0, 3.0)]
        for (gk, gx, gy), (wk, wx, wy) in zip(got, want):
            assert gk == wk
            assert gx == pytest.approx(wx, abs=1e-12)
            assert gy == pytest.approx(wy, abs=1e-12)

    def test_explicit_endpoints_path(self, tmp_path):
        out = tmp_path / "c.csv"
        ep = tmp_path / "kinks.csv"
        assert main(["curve", "--out", str(out), "--endpoints-out", str(ep)]) == 0
        assert ep.exists()

    def test_sqrt_reward_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--reward", "sqrt", "--p", "0.5", "--x-max", "8",
                     "--points", "9", "--out", str(out)]) == 0
        lines = read(out).splitlines()
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == 8.0
        assert abs(last[1] - 7.0) <= 1e-8

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            assert main(["curve", "--p", "0.3", "--out", str(target)]) == 0
        assert read(a) == read(b)

    def test_endpoints_reach_past_x_max_at_small_p(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--p", "1e-5", "--x-max", "10", "--out", str(out)]) == 0
        rows = read(tmp_path / "curve.endpoints.csv").splitlines()[1:]
        xs = [float(row.split(",")[1]) for row in rows]
        assert xs[-2] <= 10.0 < xs[-1]

    def test_unreachable_x_max_rejected_without_output(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--p", "0.5", "--x-max", "1e308", "--out", str(out)]) == 1
        assert not out.exists()

    def test_bad_p_rejected(self):
        assert main(["curve", "--p", "1.5"]) == 1
        assert main(["curve", "--p", "oops"]) == 1

    def test_bad_points_rejected(self):
        assert main(["curve", "--points", "1"]) == 1


class TestEvaluate:
    def test_series_json_record(self, tmp_path):
        out = tmp_path / "eval.json"
        rc = main([
            "evaluate", "--family", "bernoulli", "--c", "1", "--p", "0.5",
            "--policy", "maximin", "--method", "series", "--out", str(out),
        ])
        assert rc == 0
        record = json.loads(read(out))
        assert record["method"] == "bernoulli_series"
        assert record["value"] == pytest.approx(0.173287, abs=1e-6)
        assert record["value"] == pytest.approx(0.25 * math.log(2.0), abs=1e-12)
        assert record["policy"] == "maximin"
        assert record["family"] == "bernoulli"
        assert record["reward"] == "awgn:1.0"
        assert record["p"] == 0.5
        assert record["mcr"] == 0.5

    def test_vi_method(self, tmp_path):
        out = tmp_path / "eval.json"
        rc = main([
            "evaluate", "--family", "uniform", "--c", "2", "--nmcr", "0.5",
            "--method", "vi", "--grid-N", "150", "--out", str(out),
        ])
        assert rc == 0
        record = json.loads(read(out))
        assert record["method"] == "value_iteration"
        assert record["grid"] == 150
        assert record["tolerance"] > 0.0

    def test_mc_method_matches_library_call(self, tmp_path):
        out = tmp_path / "eval.json"
        rc = main([
            "evaluate", "--family", "exponential", "--c", "1", "--nmcr", "0.4",
            "--policy", "greedy", "--method", "mc", "--n", "2000", "--paths", "8",
            "--seed", "9", "--out", str(out),
        ])
        assert rc == 0
        record = json.loads(read(out))
        direct = ev.simulate(
            pol.GreedyPolicy(),
            arr.from_nmcr("exponential", 1.0, 0.4),
            rw.RewardFunction.awgn(1.0),
            2000, 8, 9,
        )
        assert record["value"] == direct.value
        assert record["stderr"] == direct.stderr

    def test_csv_format(self, tmp_path):
        out = tmp_path / "eval.csv"
        rc = main([
            "evaluate", "--family", "bernoulli", "--c", "1", "--p", "0.5",
            "--format", "csv", "--out", str(out),
        ])
        assert rc == 0
        header, row = read(out).splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert float(record["value"]) == pytest.approx(0.25 * math.log(2.0), abs=1e-12)

    def test_argument_errors(self):
        base = ["evaluate", "--family", "bernoulli", "--c", "1"]
        assert main(base) == 1                                    # no ratio at all
        assert main(base + ["--p", "0.5", "--nmcr", "0.5"]) == 1  # both ratios
        assert main(base + ["--p", "0.5", "--policy", "magic"]) == 1
        assert main(base + ["--p", "0.5", "--method", "exact"]) == 1
        assert main(base + ["--p", "0.5", "--format", "xml"]) == 1
        assert main(["evaluate", "--family", "uniform", "--c", "1",
                     "--nmcr", "0.5", "--method", "series"]) == 1
        assert main(base + ["--p", "0.5", "--workers", "2"]) == 1

    def test_nonconvergence_exit_code(self, tmp_path, monkeypatch):
        # c=2 keeps the policy below full drain, so coupling is gradual; with
        # the solve returning its guess, the sweeps start from 0 and the
        # span cannot reach 1e-30 in 10 of them
        monkeypatch.setattr(ev, "_solve", lambda operator, rhs, guess, rtol, applied=None: guess)
        rc = main([
            "evaluate", "--family", "uniform", "--c", "2", "--nmcr", "0.5",
            "--method", "vi", "--grid-N", "60", "--eps", "1e-30",
            "--max-iter", "10", "--out", str(tmp_path / "x.json"),
        ])
        assert rc == 2


class TestSweep:
    def test_csv_matches_library(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--family", "bernoulli", "--c-grid", "0.5,1",
            "--p", "0.2,0.5", "--policies", "maximin,fixed_fraction",
            "--out", str(out),
        ])
        assert rc == 0
        lines = read(out).splitlines()
        assert lines[0] == mx.CSV_HEADER
        assert len(lines) == 1 + 2 * 2 * 2

    def test_rerun_is_byte_identical(self, tmp_path):
        args = [
            "sweep", "--family", "exponential", "--c", "1", "--nmcr", "0.5",
            "--policies", "greedy", "--method", "mc", "--n", "2000",
            "--paths", "8", "--seed", "4",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_range_grid_syntax(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--family", "bernoulli", "--c-grid", "0.5:2:4",
            "--p", "0.5", "--policies", "greedy", "--out", str(out),
        ])
        assert rc == 0
        rows = read(out).splitlines()[1:]
        cs = [float(r.split(",")[1]) for r in rows]
        assert cs == [0.5, 1.0, 1.5, 2.0]

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main([
            "sweep", "--family", "bernoulli", "--c", "1", "--p", "0.5",
            "--policies", "maximin", "--format", "json", "--out", str(out),
        ])
        assert rc == 0
        rows = json.loads(read(out))
        assert len(rows) == 1
        assert rows[0]["policy"] == "maximin"
        assert rows[0]["multiplicative_factor"] == pytest.approx(1.0, abs=1e-12)
        assert "nmcr" not in rows[0]

    def test_argument_errors(self):
        assert main(["sweep", "--c", "1", "--p", "0.5"]) == 1          # no family
        assert main(["sweep", "--family", "bernoulli", "--p", "0.5"]) == 1  # no c
        assert main(["sweep", "--family", "bernoulli", "--c", "1",
                     "--c-grid", "1,2", "--p", "0.5"]) == 1
        assert main(["sweep", "--family", "bernoulli", "--c", "1",
                     "--p", "0.5", "--policies", "maximin,wizard"]) == 1
        assert main(["sweep", "--family", "uniform", "--c", "1",
                     "--nmcr", "0.5", "--method", "series"]) == 1


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# single-cell check\n"
            "family = bernoulli\n"
            "c = 1\n"
            "p = 0.5\n"
            "method = series\n"
        )
        out = tmp_path / "eval.json"
        rc = main(["evaluate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        record = json.loads(read(out))
        assert record["value"] == pytest.approx(0.25 * math.log(2.0), abs=1e-12)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=bernoulli\nc=1\np=0.3\n")
        out = tmp_path / "eval.json"
        rc = main(["evaluate", "--config", str(cfg), "--p", "0.5", "--out", str(out)])
        assert rc == 0
        record = json.loads(read(out))
        assert record["p"] == 0.5

    def test_dashed_keys_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=uniform\nc=2\nnmcr=0.5\nmethod=vi\ngrid-N=120\n")
        out = tmp_path / "eval.json"
        rc = main(["evaluate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert json.loads(read(out))["grid"] == 120

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=bernoulli\nc=1\np=0.5\nmode=fast\n")
        assert main(["evaluate", "--config", str(cfg)]) == 1

    def test_workers_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=bernoulli\nc=1\np=0.5\nworkers=2\n")
        assert main(["evaluate", "--config", str(cfg)]) == 1

    def test_sweep_config_matches_flags_byte_for_byte(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = bernoulli\np = 0.5\nc-grid = 0.5:2:4\npolicies = greedy\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["sweep", "--family", "bernoulli", "--p", "0.5", "--c-grid", "0.5:2:4",
                     "--policies", "greedy", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flag_overrides_config_grid(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=bernoulli\nc=1\np = 0.2,0.3\npolicies=maximin\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--p", "0.5", "--out", str(out)]) == 0
        rows = read(out).splitlines()[1:]
        assert [float(r.split(",")[2]) for r in rows] == [0.5]

    def test_bad_config_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = oops\n")
        assert main(["curve", "--config", str(cfg)]) == 1

    def test_key_of_another_subcommand_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=bernoulli\nc=1\np=0.5\nx-max = 3\n")
        assert main(["evaluate", "--config", str(cfg)]) == 1

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family bernoulli\n")
        assert main(["evaluate", "--config", str(cfg)]) == 1

    def test_missing_file_rejected(self, tmp_path):
        assert main(["evaluate", "--config", str(tmp_path / "absent.cfg")]) == 1


_RUN_FLAGS = ["--n", "--paths", "--grid-N", "--eps", "--tol", "--max-iter", "--seed",
              "--out", "--format", "--config"]
FLAGS = {
    "curve": ["--help", "--reward", "--p", "--x-max", "--points", "--out",
              "--endpoints-out", "--config"],
    "evaluate": ["--help", "--reward", "--family", "--c", "--p", "--nmcr", "--policy",
                 "--method"] + _RUN_FLAGS,
    "sweep": ["--help", "--reward", "--family", "--c", "--c-grid", "--p", "--nmcr",
              "--policies", "--method"] + _RUN_FLAGS,
    "verify": ["--help", "--seed", "--config"],
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_lists_each_flag_once_in_order(command, capsys):
    assert main([command, "--help"]) == 0
    shown = re.findall(r"^  (?:-h, )?(--?[\w-]+)", capsys.readouterr().out, re.M)
    assert shown == FLAGS[command]


# the library's ValueError texts that evaluate and sweep print as they are
_CELL_ERRORS = {
    "bad family": (["--family", "gauss", "--p", "0.5"],
                   "unknown family 'gauss'; expected one of "
                   "('bernoulli', 'uniform', 'exponential')"),
    "mcr out of range": (["--family", "uniform", "--p", "1.5"], "mcr must lie in (0, 1)"),
    "nmcr for bernoulli": (["--family", "bernoulli", "--nmcr", "0.5"],
                           "bernoulli arrivals have no nominal ratio; use from_mcr"),
    "nmcr zero": (["--family", "uniform", "--nmcr", "0"], "nmcr must be positive"),
    "nmcr negative": (["--family", "uniform", "--nmcr", "-2"], "nmcr must be positive"),
}


@pytest.mark.parametrize("case", list(_CELL_ERRORS))
@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_cell_errors_print_the_library_text(command, case, capsys):
    args, text = _CELL_ERRORS[case]
    assert main([command, "--c", "1", "--method", "vi"] + args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {text}\n"


# a capacity or curve end that parses to inf (inf, or 1e309 past the float
# range) is refused by name before any evaluator or numpy sees it; values at
# or below 0 and NaN keep their texts
_RANGE_ERRORS = {
    "evaluate series inf": (["evaluate", "--c", "inf", "--p", "0.5"],
                            "c must be finite, got inf"),
    "evaluate series 1e309": (["evaluate", "--c", "1e309", "--p", "0.5"],
                              "c must be finite, got inf"),
    "evaluate vi inf": (["evaluate", "--c", "inf", "--method", "vi", "--family", "uniform",
                         "--nmcr", "0.5"], "c must be finite, got inf"),
    "evaluate mc inf": (["evaluate", "--c", "inf", "--method", "mc", "--p", "0.5"],
                        "c must be finite, got inf"),
    "evaluate nan": (["evaluate", "--c", "nan", "--p", "0.5"], "c must be positive, got nan"),
    "evaluate zero": (["evaluate", "--c", "0", "--p", "0.5"], "c must be positive, got 0.0"),
    "sweep grid inf": (["sweep", "--family", "bernoulli", "--c-grid", "1,inf", "--p", "0.5"],
                       "c must be finite, got inf"),
    "sweep grid 1e309": (["sweep", "--family", "bernoulli", "--c-grid", "1e309", "--p", "0.5"],
                         "c must be finite, got inf"),
    "sweep c inf": (["sweep", "--family", "bernoulli", "--c", "inf", "--p", "0.5"],
                    "c must be finite, got inf"),
    "sweep grid negative": (["sweep", "--family", "bernoulli", "--c-grid", "1,-inf",
                             "--p", "0.5"], "every c must be positive"),
    "curve inf": (["curve", "--x-max", "inf"], "x_max must be finite, got inf"),
    "curve 1e309": (["curve", "--x-max", "1e309"], "x_max must be finite, got inf"),
    "curve nan": (["curve", "--x-max", "nan"], "x_max must be positive, got nan"),
}


@pytest.mark.parametrize("case", list(_RANGE_ERRORS))
def test_capacity_range_errors_name_the_capacity(case, capsys):
    args, text = _RANGE_ERRORS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning on the way raises
        assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {text}\n"


# values the CLI's own parsers refuse, each with its one error line
_PARSE_ERRORS = {
    "sqrt with a parameter": (
        ["evaluate", "--reward", "sqrt:2", "--p", "0.5"],
        "argument --reward: bad value 'sqrt:2' (sqrt reward takes no parameter)",
    ),
    "unknown reward": (
        ["evaluate", "--reward", "foo", "--p", "0.5"],
        "argument --reward: bad value 'foo' (unknown reward 'foo'; expected awgn[:gamma] or sqrt)",
    ),
    "range grid of two parts": (
        ["sweep", "--family", "bernoulli", "--c-grid", "1:2", "--p", "0.5"],
        "argument --c-grid: bad value '1:2' (range grid must be lo:hi:count)",
    ),
    "range grid of no points": (
        ["sweep", "--family", "bernoulli", "--c-grid", "1:2:0", "--p", "0.5"],
        "argument --c-grid: bad value '1:2:0' (grid count must be positive)",
    ),
    "empty policy list": (
        ["sweep", "--family", "bernoulli", "--c", "1", "--p", "0.5", "--policies", ","],
        "argument --policies: bad value ',' (empty policy list)",
    ),
    "negative seed": (["evaluate", "--p", "0.5", "--seed", "-1"], "seed must be nonnegative"),
}


@pytest.mark.parametrize("case", list(_PARSE_ERRORS))
def test_value_parser_errors_print_one_line(case, capsys):
    args, text = _PARSE_ERRORS[case]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {text}\n"


def test_verify_failure_exits_3_and_names_the_first_counterexample(monkeypatch, capsys):
    rows = [checks.CheckResult("kept", True, ""), checks.CheckResult("broken", False, "x = 2")]
    monkeypatch.setattr(checks, "run_all", lambda seed: rows)
    assert main(["verify"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "ok   kept\nFAIL broken: x = 2\n1/2 checks passed\n"
    assert captured.err == "first counterexample: broken: x = 2\n"


@pytest.mark.parametrize("policy", ["maximin", "fixed_fraction"])
def test_series_tolerance_is_finite_near_the_float_maximum(policy, capsys):
    args = ["evaluate", "--reward", "sqrt", "--policy", policy, "--c", "1.7e308", "--p", "0.5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow in the climbs' sum raises
        assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = json.loads(captured.out)
    assert out["residual"] <= out["tolerance"] < math.inf


@pytest.mark.parametrize("p", ["0.001", "0.1"])
def test_sqrt_maximin_at_the_float_maximum(p, capsys):
    # past the kink cap (p = 1e-3) or the float range (p = 0.1) the kink
    # table extends its last segment, whose slope has converged by then
    args = ["evaluate", "--family", "bernoulli", "--c", "1.7976931348623157e308", "--p", p,
            "--reward", "sqrt", "--policy", "maximin", "--method", "series"]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert math.isfinite(json.loads(captured.out)["value"])


def test_awgn_maximin_past_the_last_finite_kink(capsys):
    # the kink after x_1022 ~ 2**1023 at p = 0.5 lies past the float maximum
    assert main(["evaluate", "--reward", "awgn", "--c", "1.7e308", "--p", "0.5"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    value = json.loads(captured.out)["value"]
    exact = mpmath_oracle.maximin_series_closed(1.0, 0.5, 1.7e308)
    assert abs(mpmath.mpf(value) / exact - 1) <= 5e-14


class TestTopLevel:
    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["plot"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_verify_rejects_negative_seed(self):
        assert main(["verify", "--seed", "-1"]) == 1

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "eval.json"
        proc = subprocess.run(
            [sys.executable, "-m", "ehpolicy", "evaluate", "--family", "bernoulli",
             "--c", "1", "--p", "0.5", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(read(out))["value"] == pytest.approx(
            0.25 * math.log(2.0), abs=1e-12
        )
