"""Unit tests for the gap/factor metrics and the sweep driver."""

import csv
import io
import math

import numpy as np
import pytest

from ehpolicy import metrics as mx
from ehpolicy import policies as pol
from ehpolicy import rewards as rw

AWGN1 = rw.RewardFunction.awgn(1.0)
SQRT = rw.RewardFunction.sqrt_rate()

# frozen from an independent series run: fixed fraction vs maximin, c=1, p=0.5
FRACTION_FACTOR_C1_P05 = 0.8030483115386222
# minimum of the worst-case floor over the reciprocal grid 1/n, n <= 401
F0_GRID_MIN = 0.6325797385923723


class TestScalarMetrics:
    def test_gap_and_factor(self):
        gap, factor = mx.gap_and_factor(0.75, 1.0)
        assert gap == 0.25
        assert factor == 0.75

    def test_zero_optimal_rejected(self):
        with pytest.raises(ValueError):
            mx.gap_and_factor(0.0, 0.0)

    def test_universal_upper_bound(self):
        assert mx.universal_upper_bound(AWGN1, 2.0, 0.5) == AWGN1.value(1.0)
        assert mx.universal_upper_bound(SQRT, 3.0, 1.0 / 3.0) == SQRT.value(1.0)

    def test_f0_known_values(self):
        assert mx.f0(0.5) == pytest.approx(0.75, abs=1e-15)
        assert mx.f0(1.0 / 3.0) == pytest.approx(0.7037037037037036, abs=1e-14)

    def test_f0_floor(self):
        floor = 1.0 - 1.0 / math.e
        grid = [1.0 / n for n in range(2, 402)]
        vals = [mx.f0(q) for q in grid]
        assert all(v >= floor for v in vals)
        assert min(vals) == pytest.approx(F0_GRID_MIN, abs=1e-14)
        assert min(vals) - floor <= 1e-3

    def test_small_capacity_factor_limit(self):
        assert mx.small_capacity_factor_limit(0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert mx.small_capacity_factor_limit(0.9) == pytest.approx(1.0 / 1.1, abs=1e-15)


class TestMakePolicy:
    def test_kinds(self):
        assert isinstance(mx.make_policy("maximin", AWGN1, 0.5), pol.MaximinAwgnPolicy)
        assert isinstance(mx.make_policy("maximin", SQRT, 0.5), pol.MaximinPolicy)
        assert isinstance(mx.make_policy("fixed_fraction", AWGN1, 0.3), pol.FixedFractionPolicy)
        assert isinstance(mx.make_policy("greedy", AWGN1, 0.3), pol.GreedyPolicy)

    def test_fraction_inherits_ratio(self):
        policy = mx.make_policy("fixed_fraction", AWGN1, 0.37)
        assert policy.p == 0.37

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            mx.make_policy("thresholded", AWGN1, 0.5)


class TestSweepBernoulli:
    REPORTS = None

    @pytest.fixture(autouse=True)
    def _run_once(self):
        if TestSweepBernoulli.REPORTS is None:
            TestSweepBernoulli.REPORTS = mx.sweep(
                AWGN1,
                ("maximin", "fixed_fraction", "greedy"),
                "bernoulli",
                (0.5, 1.0),
                p_values=(0.2, 0.5),
            )
        self.reports = TestSweepBernoulli.REPORTS

    def test_row_count_and_labels(self):
        assert len(self.reports) == 2 * 2 * 3
        assert {r.policy for r in self.reports} == {"maximin", "fixed_fraction", "greedy"}
        assert all(r.family == "bernoulli" for r in self.reports)
        assert all(r.nmcr is None for r in self.reports)
        assert all(r.mcr == r.p for r in self.reports)

    def test_maximin_is_the_reference(self):
        for r in self.reports:
            if r.policy == "maximin":
                assert r.additive_gap == pytest.approx(0.0, abs=1e-15)
                assert r.multiplicative_factor == pytest.approx(1.0, abs=1e-12)

    def test_fraction_factor_frozen_value(self):
        row = next(
            r for r in self.reports
            if r.policy == "fixed_fraction" and r.c == 1.0 and r.p == 0.5
        )
        assert row.multiplicative_factor == pytest.approx(FRACTION_FACTOR_C1_P05, abs=1e-12)

    def test_rows_internally_consistent(self):
        for r in self.reports:
            assert r.additive_gap == pytest.approx(r.optimal_gain - r.policy_gain, abs=1e-15)
            assert r.multiplicative_factor == pytest.approx(
                r.policy_gain / r.optimal_gain, abs=1e-15
            )
            assert 0.0 <= r.multiplicative_factor <= 1.0 + 1e-12
            assert r.tolerance >= 0.0


class TestSweepSeriesOnce:
    @pytest.mark.parametrize(
        "kinds, calls",
        [(mx.POLICY_KINDS, 3), (("fixed_fraction",), 2)],
        ids=["all_kinds", "fixed_fraction_only"],
    )
    def test_one_series_per_policy(self, kinds, calls, monkeypatch):
        # the maximin row reuses the series that gives the optimum; without a
        # maximin row that series is the one extra call
        seen = []
        series = mx.bernoulli_reward

        def counted(policy, *args, **kwargs):
            seen.append(policy.kind)
            return series(policy, *args, **kwargs)

        monkeypatch.setattr(mx, "bernoulli_reward", counted)
        reports = mx.sweep(SQRT, kinds, "bernoulli", [2.0], p_values=[0.3])
        assert len(seen) == calls, seen
        assert [r.policy for r in reports] == list(kinds)


class TestSweepTolerance:
    def test_bisection_reference_tolerance_bounds_every_policy(self):
        # the bisection maximin reference sits up to marginal(0) * 1e-12 / p
        # below the exact optimum, which greedy can beat by 3e-13
        reports = mx.sweep(
            SQRT, mx.POLICY_KINDS, "bernoulli", (0.5, 2.0, 8.0),
            p_values=(0.01, 0.1, 0.3, 0.5, 0.9),
        )
        for r in reports:
            assert r.policy_gain <= r.optimal_gain + r.tolerance, r

    @pytest.mark.parametrize("reward", [AWGN1, SQRT], ids=["awgn:1", "sqrt"])
    def test_optimal_tolerance_adds_the_references_inversion_slack(self, reward):
        # the maximin row adds its own series tolerance to the optimum's; the
        # awgn kink table inverts nothing, the sqrt bisection adds
        # marginal(0) * 1e-12 / p
        c, p = 2.0, 0.1
        series = mx.bernoulli_reward(pol.maximin_policy(reward, p), reward, c, p).tolerance
        best = series + (0.5 * 1e-12 / p if reward.kind == "sqrt" else 0.0)
        (report,) = mx.sweep(reward, ["maximin"], "bernoulli", [c], p_values=[p])
        assert report.tolerance.hex() == (series + best).hex()


class TestSweepGridFamilies:
    def test_uniform_rows(self):
        reports = mx.sweep(
            AWGN1,
            ("maximin", "greedy"),
            "uniform",
            (1.0,),
            nmcr_values=(0.5,),
            grid_cells=200,
            vi_eps=1e-8,
        )
        assert len(reports) == 2
        for r in reports:
            assert r.family == "uniform"
            assert r.p is None
            assert r.nmcr == 0.5
            assert r.mcr == pytest.approx(0.5, abs=1e-12)
            assert r.tolerance > 0.0
            assert r.policy_gain <= r.optimal_gain + r.tolerance

    def test_mc_evaluator_is_seeded(self):
        kwargs = dict(
            nmcr_values=(0.4,), grid_cells=150, vi_eps=1e-8,
            policy_evaluator="mc", mc_slots=2_000, mc_paths=8, seed=3,
        )
        a = mx.sweep(AWGN1, ("greedy",), "exponential", (1.0,), **kwargs)
        b = mx.sweep(AWGN1, ("greedy",), "exponential", (1.0,), **kwargs)
        assert a[0].policy_gain == b[0].policy_gain
        assert a[0].tolerance == b[0].tolerance

    def test_ratio_arguments_validated(self):
        with pytest.raises(ValueError):
            mx.sweep(AWGN1, ("maximin",), "uniform", (1.0,))
        with pytest.raises(ValueError):
            mx.sweep(
                AWGN1, ("maximin",), "uniform", (1.0,),
                p_values=(0.5,), nmcr_values=(0.5,),
            )

    def test_policy_kinds_validated(self):
        with pytest.raises(ValueError):
            mx.sweep(AWGN1, ("maximin", "oracle"), "bernoulli", (1.0,), p_values=(0.5,))


class TestCsv:
    def test_header_is_stable(self):
        assert mx.CSV_HEADER == (
            "family,c,p,nmcr,mcr,policy,policy_gain,optimal_gain,"
            "additive_gap,multiplicative_factor,tolerance"
        )

    def test_round_trip_through_csv_reader(self):
        reports = mx.sweep(
            AWGN1, ("maximin", "greedy"), "bernoulli", (1.0,), p_values=(0.5,)
        )
        buffer = io.StringIO()
        mx.write_csv(reports, buffer)
        rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        assert len(rows) == len(reports)
        for parsed, report in zip(rows, reports):
            assert parsed["family"] == report.family
            assert parsed["policy"] == report.policy
            assert parsed["nmcr"] == ""
            assert float(parsed["policy_gain"]) == report.policy_gain
            assert float(parsed["mcr"]) == report.mcr

    def test_output_is_deterministic(self):
        reports = mx.sweep(AWGN1, ("maximin",), "bernoulli", (1.0,), p_values=(0.5,))
        bufs = [io.StringIO(), io.StringIO()]
        for buf in bufs:
            mx.write_csv(reports, buf)
        assert bufs[0].getvalue() == bufs[1].getvalue()
        assert bufs[0].getvalue().splitlines()[0] == mx.CSV_HEADER
