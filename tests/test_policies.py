"""Unit tests for the stationary control policies."""

import math
import re
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest
from mpmath_oracle import Maximin

from ehpolicy import evaluation as ev
from ehpolicy import policies as pol
from ehpolicy import rewards as rw
from ehpolicy.checks import _sample_rewards

EPS = np.finfo(float).eps

AWGN1 = rw.RewardFunction.awgn(1.0)
SQRT = rw.RewardFunction.sqrt_rate()
# the awgn:1 closed forms as a custom reward, so its maximin policy bisects
LOG1P = next(r for r in _sample_rewards() if r.kind == "custom")


class _Shaped(pol.StationaryPolicy):
    """Admissible but deliberately misshapen policy for the shape checks."""

    kind = "shaped"

    def __init__(self, fn):
        self._fn = fn

    def _evaluate(self, arr):
        return self._fn(arr)


class TestBaselines:
    def test_greedy_spends_everything(self):
        x = np.linspace(0.0, 9.0, 19)
        np.testing.assert_array_equal(pol.GreedyPolicy().evaluate(x), x)

    def test_fixed_fraction(self):
        phi = pol.FixedFractionPolicy(0.5)
        x = np.linspace(0.0, 9.0, 19)
        np.testing.assert_array_equal(phi.evaluate(x), 0.5 * x)
        assert phi.p == 0.5

    def test_fraction_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                pol.FixedFractionPolicy(bad)

    def test_scalar_round_trip(self):
        assert isinstance(pol.GreedyPolicy().evaluate(2.0), float)
        out = pol.FixedFractionPolicy(0.3).evaluate([[1.0, 2.0]])
        assert np.asarray(out).shape == (1, 2)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            pol.GreedyPolicy().evaluate(-0.5)


class TestMaximinAwgn:
    def test_known_points(self):
        omega = pol.MaximinAwgnPolicy(1.0, 0.5)
        assert omega.evaluate(0.0) == 0.0
        assert omega.evaluate(0.5) == pytest.approx(0.5, abs=1e-15)
        assert omega.evaluate(1.0) == pytest.approx(1.0, abs=1e-15)
        assert omega.evaluate(2.0) == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert omega.evaluate(4.0) == pytest.approx(3.0, abs=1e-12)
        assert omega.evaluate(11.0) == pytest.approx(7.0, abs=1e-12)

    def test_identity_region(self):
        # one ladder rung: consume everything while gamma * x <= p / (1 - p)
        for gamma in (0.5, 1.0, 2.0):
            for p in (0.2, 0.5, 0.8):
                omega = pol.MaximinAwgnPolicy(gamma, p)
                limit = p / ((1.0 - p) * gamma)
                x = np.linspace(0.0, limit, 41)
                np.testing.assert_allclose(omega.evaluate(x), x, atol=1e-13)

    def test_endpoints(self):
        pts = pol.awgn_endpoints(1.0, 0.5, 3)
        coords = [(e.k, e.x, e.y) for e in pts]
        expect = [(0, 0.0, 0.0), (1, 1.0, 1.0), (2, 4.0, 3.0), (3, 11.0, 7.0)]
        for got, want in zip(coords, expect):
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], abs=1e-12)
            assert got[2] == pytest.approx(want[2], abs=1e-12)

    def test_endpoints_on_curve_and_linear_between(self):
        omega = pol.MaximinAwgnPolicy(1.0, 0.5)
        pts = pol.awgn_endpoints(1.0, 0.5, 5)
        for e in pts:
            assert omega.evaluate(e.x) == pytest.approx(e.y, abs=1e-10)
        for left, right in zip(pts[:-1], pts[1:]):
            x = np.linspace(left.x, right.x, 33)
            vals = omega.evaluate(x)
            second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
            assert np.max(np.abs(second)) <= 1e-9

    def test_continuity_at_kinks(self):
        omega = pol.MaximinAwgnPolicy(1.0, 0.5)
        for e in pol.awgn_endpoints(1.0, 0.5, 4)[1:]:
            below = omega.evaluate(e.x - 1e-9)
            above = omega.evaluate(e.x + 1e-9)
            assert abs(above - below) <= 1e-8

    def test_segment_index(self):
        omega = pol.MaximinAwgnPolicy(1.0, 0.5)
        idx = omega.segment_index(np.array([0.5, 2.0, 5.0, 20.0]))
        np.testing.assert_array_equal(idx, [1, 2, 3, 4])
        assert pol.awgn_segment_index(1.0, 0.5, 2.0) == 2

    def test_segment_index_just_inside_far_kinks_at_small_p(self):
        # the segment ending at kink E_k has index k; at p = 1e-5 the kinks
        # below x = 600 reach k = 10 758
        kinks = pol.maximin_kinks(AWGN1, 1e-5, 600.0)
        x = np.array([e.x for e in kinks])
        inside = x[1:] - 1e-3 * np.diff(x)
        idx = pol.awgn_segment_index(1.0, 1e-5, inside)
        np.testing.assert_array_equal(idx, [e.k for e in kinks[1:]])

    @pytest.mark.parametrize("p", [1e-3, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    def test_segment_index_matches_linear_search(self, gamma, p):
        grid = np.linspace(0.0, 50.0, 2001)
        ends = pol.awgn_endpoints(gamma, p, 40)
        x = np.concatenate([grid, [e.x for e in ends]])
        gx = gamma * x
        want = np.ones(x.shape, dtype=np.int64)
        while True:
            past = (1.0 + p * (gx + want)) * (1.0 - p) ** want >= 1.0
            if not past.any():
                break
            want += past
        got = pol.awgn_segment_index(gamma, p, x)
        np.testing.assert_array_equal(got[: len(grid)], want[: len(grid)])
        # the closed-form endpoint E_k and the policy's running-sum kink x_k
        # differ by ulps, so E_k lands on either side of x_k: in segment k
        # or k + 1.  Either way the policy there is the exact one.
        omega, exact = pol.MaximinAwgnPolicy(gamma, p), Maximin(gamma, p, ends[-1].x)
        for e, k in zip(ends, got[len(grid):]):
            assert k in (e.k, e.k + 1), (e.k, k)
            want_y = exact(e.x)
            bound = 5 * EPS * (exact.segment(e.x) + 1 / p) * want_y
            assert abs(omega.evaluate(e.x) - want_y) <= bound, e.k

    @pytest.mark.parametrize("p", [1e-6, 1e-3, 0.1, 0.5])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_evaluates_its_kinks_bit_for_bit(self, gamma, p):
        kinks = pol.maximin_kinks(rw.RewardFunction.awgn(gamma), p, 20.0)[:-1]
        x = np.array([e.x for e in kinks])
        y = np.array([e.y for e in kinks])
        np.testing.assert_array_equal(pol.MaximinAwgnPolicy(gamma, p).evaluate(x), y)

    @pytest.mark.parametrize("p", [1e-6, 1e-3, 0.1, 0.5])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_matches_an_mpmath_oracle(self, gamma, p):
        # within the kink bound of TestMaximinKinks, at the segment's index
        x = 10.0 ** np.random.default_rng(7).uniform(-6.0, np.log10(20.0), 200)
        got = pol.MaximinAwgnPolicy(gamma, p).evaluate(x)
        exact = Maximin(gamma, p, 20.0)
        for xi, yi in zip(x, got):
            want = exact(xi)
            err = abs(mpmath.mpf(yi) / want - 1)
            assert err <= 5 * EPS * (exact.segment(xi) + 1 / p), (xi, float(err))

    def test_level_past_the_kink_cap_raises(self):
        # x = 10 lies past the 10**5-th kink at p = 1e-9; np.interp would
        # clamp it to the last kink's consumption
        with pytest.raises(ValueError, match=r"do not pass upto=10\.0 within 100000 kinks"):
            pol.MaximinAwgnPolicy(1.0, 1e-9).evaluate(10.0)

    def test_nondecreasing_and_concave(self):
        for p in (0.1, 0.5, 0.9):
            report = pol.normality_check(pol.MaximinAwgnPolicy(1.0, p), 25.0)
            assert report.passed

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            pol.MaximinAwgnPolicy(0.0, 0.5)
        with pytest.raises(ValueError):
            pol.MaximinAwgnPolicy(1.0, 1.0)


class TestMaximinKinks:
    def test_factory_picks_closed_form_for_awgn(self):
        assert isinstance(pol.maximin_policy(AWGN1, 0.5), pol.MaximinAwgnPolicy)
        assert isinstance(pol.maximin_policy(SQRT, 0.5), pol.MaximinPolicy)

    @pytest.mark.parametrize("p", [0.01, 0.5, 0.9])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_awgn_matches_closed_form(self, gamma, p):
        kinks = pol.maximin_kinks(rw.RewardFunction.awgn(gamma), p, 50.0)
        closed = pol.awgn_endpoints(gamma, p, len(kinks) - 1)
        assert (kinks[0].x, kinks[0].y) == (0.0, 0.0)
        for got, want in zip(kinks[1:], closed[1:]):
            assert got.k == want.k
            assert abs(got.x - want.x) <= 1e-12 * want.x
            assert abs(got.y - want.y) <= 1e-12 * want.y

    def test_sqrt_kinks_on_curve_through_first_past_upto(self):
        kinks = pol.maximin_kinks(SQRT, 0.3, 8.0)
        assert kinks[-2].x <= 8.0 < kinks[-1].x
        omega = pol.MaximinPolicy(SQRT, 0.3)
        for e in kinks:
            assert omega.evaluate(e.x) == pytest.approx(e.y, abs=1e-10)

    def test_covers_far_upto_at_small_p(self):
        kinks = pol.maximin_kinks(AWGN1, 1e-5, 600.0)
        assert kinks[-2].x <= 600.0 < kinks[-1].x

    def test_cap_raises_instead_of_truncating(self, monkeypatch):
        monkeypatch.setattr(pol, "_LADDER_CAP", 10)
        with pytest.raises(ValueError, match=r"p=0\.01 .*upto=100\.0"):
            pol.maximin_kinks(AWGN1, 0.01, 100.0)

    def test_refusal_at_the_cap_is_fast(self):
        started = time.perf_counter()
        message = "maximin kinks at p=1e-09 do not pass upto=10 within 100000 kinks and float range"
        with pytest.raises(ValueError, match=re.escape(message)):
            pol.maximin_kinks(AWGN1, 1e-9, upto=10)
        assert time.perf_counter() - started < 1.0

    def test_accepted_request_near_the_cap_is_fast(self):
        started = time.perf_counter()
        kinks = pol.maximin_kinks(SQRT, 1e-9, 10)
        assert time.perf_counter() - started < 1.0
        assert kinks[-2].x <= 10 < kinks[-1].x

    @pytest.mark.parametrize("p", [1e-6, 1e-3, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("gamma", [1.0, 2.5, None], ids=["awgn:1", "awgn:2.5", "sqrt"])
    def test_kinks_match_an_mpmath_oracle(self, gamma, p):
        # the exact kink is x_k = y_1 + ... + y_k with y_i = (s**i - 1)/gamma
        # for awgn and s**(2i) - 1 for sqrt, s = 1/(1-p), here at 60 digits.
        # Rounding bound, to first order in u = eps/2: s is rounded twice
        # (2u) and pow adds at most an ulp (2u), so s**k is off by (2k + 2)u;
        # s**k - 1 >= kp magnifies that by at most 1 + 1/(kp), and the
        # subtraction and the division by gamma add 2u, so y_k is off by at
        # most (2k + 4)u + 4u/p; squaring first (sqrt) gives (4k + 6)u +
        # 4.5u/p.  The running sum of k positive terms adds (k - 1)u, so x_k
        # is off by at most (5k + 5)u + 4.5u/p <= 5 eps (k + 1/p), relative.
        reward = SQRT if gamma is None else rw.RewardFunction.awgn(gamma)
        kinks = pol.maximin_kinks(reward, p, 20.0)
        exact = Maximin(gamma, p, 21.0)
        for e in kinks[1:]:
            err = abs(mpmath.mpf(e.x) / exact.x[e.k] - 1)
            assert err <= 5 * EPS * (e.k + 1 / p), (e.k, float(err))

    def test_custom_reward_at_small_p_walks_like_closed_form(self):
        # the running sum serves custom rewards as it serves the built-in
        # ones, one cutoff per kink; the walk stops near k = 100
        custom = rw.RewardFunction.custom(
            value=lambda u: 0.5 * np.log1p(u),
            marginal=lambda u: 0.5 / (1.0 + u),
            marginal_inverse=lambda y: 0.5 / y - 1.0,
        )
        kinks = pol.maximin_kinks(custom, 1e-3, 5.0)
        closed = pol.maximin_kinks(AWGN1, 1e-3, 5.0)
        assert [e.k for e in kinks] == [e.k for e in closed]
        for got, want in zip(kinks, closed):
            assert got.x == pytest.approx(want.x, rel=1e-9)
            assert got.y == pytest.approx(want.y, rel=1e-9)

    def test_overflow_raises(self):
        with pytest.raises(ValueError, match=r"p=0\.5 .*upto=1e\+308"):
            pol.maximin_kinks(SQRT, 0.5, 1e308)


class TestMaximinGeneric:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_matches_closed_form(self, gamma, p):
        x = np.linspace(0.0, 40.0, 401)
        closed = pol.MaximinAwgnPolicy(gamma, p).evaluate(x)
        generic = pol.MaximinPolicy(rw.RewardFunction.awgn(gamma), p).evaluate(x)
        assert np.max(np.abs(closed - generic)) <= 1e-8

    @pytest.mark.parametrize("p", [0.01, 0.1, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("reward", [SQRT, LOG1P, AWGN1], ids=["sqrt", "custom", "awgn"])
    def test_greedy_up_to_the_first_kink(self, reward, p):
        omega = pol.MaximinPolicy(reward, p)
        first = omega.kinks.x[1]
        assert first == rw.step_down_cutoff(reward, omega.scale)
        x = np.linspace(0.0, first, 201)
        assert x[-1] == first
        np.testing.assert_array_equal(omega.evaluate(x), x)
        assert omega.evaluate(first) == first
        # inside a mixed array, too
        mixed = np.concatenate([x, first + x[1:]])
        np.testing.assert_array_equal(omega.evaluate(mixed)[: x.size], x)

    def test_sqrt_known_points(self):
        omega = pol.MaximinPolicy(SQRT, 0.5)
        assert omega.evaluate(3.0) == pytest.approx(3.0, abs=1e-9)
        assert omega.evaluate(8.0) == pytest.approx(7.0, abs=1e-9)

    def test_inversion_residual(self):
        omega = pol.MaximinPolicy(AWGN1, 0.3)
        x = np.linspace(0.0, 60.0, 301)
        consumed = omega.evaluate(x)
        residual = np.abs(np.asarray(rw.ladder_sum(AWGN1, omega.scale, consumed)) - x)
        assert np.max(residual) <= 1e-10

    # consumptions at p = 0.1, frozen from the bisection when every step
    # still called the validating ladder_sum
    FROZEN = {
        "sqrt": (
            "0x1.999999999999ap-5 0x1.153729043e465p-2 0x1.cd991838d5966p-1 "
            "0x1.e9a08b1bded00p+0 0x1.e3f4f34c93d40p+1",
            "0x1.006b8602f7000p+0",
        ),
        "custom": (
            "0x1.999999999999ap-5 0x1.af286bca1aecdp-3 0x1.45af1ea68621ap-1 "
            "0x1.4856af46c0180p+0 0x1.3507be8ca9320p+1",
            "0x1.6a2b663486000p-1",
        ),
    }

    @pytest.mark.parametrize("reward", [SQRT, LOG1P], ids=["sqrt", "custom"])
    def test_bisection_runs_the_raw_kernel(self, reward, monkeypatch):
        def validating(*args):
            raise AssertionError("the bisection called the validating ladder_sum")

        monkeypatch.setattr(rw, "ladder_sum", validating)
        monkeypatch.setattr(pol, "ladder_sum", validating)
        omega = pol.MaximinPolicy(reward, 0.1)
        many, one = self.FROZEN[reward.kind]
        u = omega.evaluate(np.array([0.05, 0.3, 1.7, 5.0, 12.5]))
        assert [float(v).hex() for v in u] == many.split()
        assert omega.evaluate(2.0).hex() == one

    def test_output_admissible(self):
        omega = pol.MaximinPolicy(SQRT, 0.7)
        x = np.linspace(0.0, 30.0, 151)
        u = omega.evaluate(x)
        assert np.all(u >= 0.0) and np.all(u <= x)


class TestReserve:
    def test_reserve_complements_consumption(self):
        omega = pol.MaximinAwgnPolicy(1.0, 0.5)
        x = np.linspace(0.0, 20.0, 81)
        np.testing.assert_allclose(
            omega.reserve(x), x - omega.evaluate(x), atol=1e-12
        )
        assert np.all(omega.reserve(x) >= 0.0)
        np.testing.assert_array_equal(omega.reserve(x), omega.reserve_iter(1, x))
        assert omega.reserve(3.0) == omega.reserve_iter(1, 3.0)

    def test_reserve_iter_composes(self):
        omega = pol.MaximinAwgnPolicy(1.0, 0.4)
        x = np.linspace(0.0, 20.0, 41)
        twice = omega.reserve(omega.reserve(x))
        np.testing.assert_allclose(omega.reserve_iter(2, x), twice, atol=1e-12)
        np.testing.assert_array_equal(omega.reserve_iter(0, x), x)

    def test_replanning_consistency(self):
        # consuming and re-planning walks the same ladder
        omega = pol.MaximinAwgnPolicy(1.0, 0.5)
        x = np.linspace(0.0, 30.0, 61)
        head = omega.evaluate(x)
        for i in (1, 2, 3):
            lhs = omega.evaluate(omega.reserve_iter(i, x))
            rhs = np.asarray(rw.step_down_iter(AWGN1, omega.scale, i, head))
            assert np.max(np.abs(lhs - rhs)) <= 1e-8


class TestErgodicLevels:
    def test_awgn_walk(self):
        omega = pol.MaximinAwgnPolicy(1.0, 0.5)
        levels = pol.ergodic_levels(omega, 4.0)
        np.testing.assert_allclose(levels, [4.0, 1.0, 0.0], atol=1e-12)
        assert levels[-1] == 0.0

    def test_last_level_exactly_zero(self):
        for c in (0.7, 2.0, 9.5):
            levels = pol.ergodic_levels(pol.MaximinAwgnPolicy(1.0, 0.3), c)
            assert levels[0] == c
            assert levels[-1] == 0.0
            assert np.all(np.diff(levels) < 0.0)

    def test_non_maximin_rejected(self):
        with pytest.raises(ValueError):
            pol.ergodic_levels(pol.GreedyPolicy(), 1.0)

    @pytest.mark.parametrize("c", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("kind", ["awgn", "sqrt"])
    def test_is_the_series_ladder(self, kind, p, c, monkeypatch):
        omega = pol.maximin_policy(AWGN1 if kind == "awgn" else SQRT, p)
        walked = []
        kernel = omega._evaluate

        def counted(arr):
            walked.append(arr[0])
            return kernel(arr)

        levels = pol.ergodic_levels(omega, c)
        monkeypatch.setattr(omega, "_evaluate", counted)
        ev.bernoulli_reward(omega, omega.reward, c, p)
        np.testing.assert_array_equal(levels, walked + [0.0])

    def test_walk_past_the_rung_cap_raises(self, monkeypatch):
        omega = pol.MaximinAwgnPolicy(1.0, 0.1)
        omega.evaluate(2.0)  # walks its kinks past 2 before the cap drops
        monkeypatch.setattr(pol, "_LADDER_CAP", 3)
        assert len(pol.ergodic_levels(omega, 0.5)) == 4  # three rungs
        with pytest.raises(RuntimeError, match="not at 0 after 3 rungs"):
            pol.ergodic_levels(omega, 2.0)

    def test_small_p_awgn_matches_an_mpmath_oracle(self):
        # the exact ladder from c = 1 at p = 1e-6 has ~1414 rungs, each level
        # the exact reserve of the one before
        c, p = 1.0, 1e-6
        levels = pol.ergodic_levels(pol.MaximinAwgnPolicy(1.0, p), c)
        exact = Maximin(1.0, p, c)
        want = [mpmath.mpf(c)]
        with mpmath.workdps(60):
            while want[-1] > 0:
                want.append(want[-1] - exact(want[-1]))
        assert len(levels) == len(want)
        k = len(levels)
        worst = max(abs(mpmath.mpf(got) - w) for got, w in zip(levels, want))
        assert worst <= 5 * EPS * (k + 1 / p) * c


class TestGreedIndex:
    def test_greedy_value(self):
        got = pol.greed_index(pol.GreedyPolicy(), AWGN1, 1.0)
        want = 1.0 - AWGN1.marginal(1.0) / AWGN1.marginal(0.0)
        assert got == pytest.approx(want, abs=1e-9)

    def test_fixed_fraction_value(self):
        got = pol.greed_index(pol.FixedFractionPolicy(0.5), AWGN1, 1.0)
        assert got == pytest.approx(0.25 / 1.5, abs=1e-6)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("c", [0.5, 2.0, 8.0])
    def test_maximin_bounded_by_p(self, p, c):
        got = pol.greed_index(pol.MaximinAwgnPolicy(1.0, p), AWGN1, c)
        assert got <= p + 1e-6


class TestNormalityCheck:
    def test_shipped_policies_pass(self):
        for policy in (
            pol.GreedyPolicy(),
            pol.FixedFractionPolicy(0.3),
            pol.MaximinAwgnPolicy(2.0, 0.6),
            pol.MaximinPolicy(SQRT, 0.4),
        ):
            assert pol.normality_check(policy, 8.0).passed

    def test_decreasing_policy_fails(self):
        c = 1.0
        bad = _Shaped(lambda arr: arr * (1.0 - arr / c))
        report = pol.normality_check(bad, c)
        assert not report.nondecreasing
        assert not report.passed
        assert report.max_decrease > 0.0

    def test_convex_policy_fails(self):
        c = 1.0
        bad = _Shaped(lambda arr: arr * arr / c)
        report = pol.normality_check(bad, c)
        assert not report.concave
        assert not report.passed
        assert report.max_convexity > 0.0


def test_import_leaves_mpmath_out():
    # mpmath is a test dependency: the oracle tests use it, the package not
    code = "import sys, ehpolicy; print('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
