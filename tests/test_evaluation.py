"""Unit tests for the three long-run reward evaluators."""

import itertools
import math
import pickle
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import mpmath
import mpmath_oracle as oracle
import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from ehpolicy import arrivals as arr
from ehpolicy import evaluation as ev
from ehpolicy import policies as pol
from ehpolicy import rewards as rw
from ehpolicy.checks import _sample_rewards, evaluation_checks
from ehpolicy.metrics import POLICY_KINDS, make_policy

AWGN1 = rw.RewardFunction.awgn(1.0)
SQRT = rw.RewardFunction.sqrt_rate()
# convex, so its reward table is not concave and the sweep takes the exact scan
CONVEX = rw.RewardFunction.custom(
    lambda u: u * u, lambda u: 2.0 * u, lambda y: 0.5 * y, validate=False
)
# the awgn:1 closed forms as a custom reward, so its maximin policy inverts
# and a fixed fraction walks its whole ladder (awgn sums the tail)
LOG1P = next(r for r in _sample_rewards() if r.kind == "custom")

# frozen series values, computed once from the level walk by hand
T_MAXIMIN_C1_P05 = 0.17328679513998632   # = 0.25 * ln 2
T_MAXIMIN_C2_P05 = 0.28116757230940415
T_FRACTION_C1_P05 = 0.13915766824910514


class _AfterCalls(pol.StationaryPolicy):
    """Consumes half the battery for `calls` evaluations, then `bad`."""

    def __init__(self, calls, bad):
        self.calls, self.bad = calls, bad

    def _evaluate(self, arr):
        self.calls -= 1
        return 0.5 * arr if self.calls >= 0 else np.full_like(arr, self.bad)


class _BadBelow(pol.StationaryPolicy):
    """Consumes half the battery down to `floor`, then `bad`; nothing when
    empty.  Stateless, so it runs the renewal path on 0-or-c arrivals."""

    def __init__(self, floor, bad):
        self.floor, self.bad = floor, bad

    def _evaluate(self, arr):
        return np.where((0.0 < arr) & (arr < self.floor), self.bad, 0.5 * arr)


class _Fraction(pol.StationaryPolicy):
    """Consumes a fixed fraction of the level without being a
    FixedFractionPolicy, so the series walks it rung by rung."""

    def __init__(self, fraction):
        self.fraction = fraction

    def _evaluate(self, arr):
        return self.fraction * arr


class _ScalarRung:
    """Stands in for a policy's _rung: lists the level of each call and
    answers a level asked before from memory."""

    def __init__(self, policy):
        self.kernel, self.levels, self.seen = policy._rung, [], {}

    def __call__(self, level, last=None):
        self.levels.append(level)
        if level not in self.seen:
            self.seen[level] = self.kernel(level, last)
        return self.seen[level]


class _Steps:
    """Stands in for the reserve ladder's step: lists the level of each rung
    walked, by every ladder, while installed."""

    def __init__(self, monkeypatch):
        self.levels = []
        step = pol._Ladder.step

        def counted(ladder):
            self.levels.append(ladder.level)
            return step(ladder)

        monkeypatch.setattr(pol._Ladder, "step", counted)


class _Tiring(pol.FixedFractionPolicy):
    """A fixed fraction that shrinks a little each time it is asked: a
    subclass of a built-in policy whose _evaluate breaks the per-level
    contract."""

    def _evaluate(self, arr):
        self.p *= 0.999
        return self.p * arr


class _HalfFraction(pol.FixedFractionPolicy):
    """A fixed-fraction subclass whose kernels consume half of every level,
    whatever its p."""

    def _evaluate(self, arr):
        return 0.5 * arr

    def _rung(self, level, last=None):
        return 0.5 * level


def _spliced_flags(monkeypatch) -> list:
    """Spies on simulate's _spliced_block while installed, and returns the
    list it fills: whether each block's chunks all met their full copies."""
    met, spliced = [], ev._spliced_block

    def spy(*args):
        out = spliced(*args)
        met.append(out[1])
        return out

    monkeypatch.setattr(ev, "_spliced_block", spy)
    return met


class _Idle(pol.StationaryPolicy):
    """Consumes nothing, so the battery never empties."""

    def _evaluate(self, arr):
        return np.zeros_like(arr)


def _guess(operator, rhs, guess, rtol, applied=None):
    """Stands in for evaluation._solve: a solve that returns its guess, so
    no solve moves the value: policy_gain sweeps from 0, optimal_gain's
    Howard steps leave its sweeps where they were, and both run as plain
    relative value iteration."""
    return guess


def transition_row(model: ev.MdpModel, i: int, j: int) -> np.ndarray:
    """The model's explicit next-state distribution for state i and action
    j: arrival k moves the chain to min(i - j + k, states - 1)."""
    n = model.states
    row = np.zeros(n)
    np.add.at(row, np.minimum((i - j) + np.arange(n), n - 1), model.mass)
    return row


def stationary_gain(P: np.ndarray, rewards_by_state: np.ndarray) -> float:
    """Long-run average reward of a fixed chain via its stationary law."""
    n = P.shape[0]
    a = np.vstack([P.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    dist, *_ = np.linalg.lstsq(a, b, rcond=None)
    return float(dist @ rewards_by_state)


def brute_force_best(model: ev.MdpModel) -> float:
    """Enumerate every deterministic stationary policy on the grid."""
    n = model.states
    best = -np.inf
    for actions in itertools.product(*(range(i + 1) for i in range(n))):
        P = np.vstack([transition_row(model, i, actions[i]) for i in range(n)])
        value = stationary_gain(P, model.action_rewards[list(actions)])
        best = max(best, value)
    return best


class TestBernoulliSeries:
    def test_greedy_is_single_term(self):
        for c in (0.25, 1.0, 3.0):
            for p in (0.1, 0.5, 0.9):
                res = ev.bernoulli_reward(pol.GreedyPolicy(), AWGN1, c, p)
                assert res.value == p * AWGN1.value(c)
                assert res.residual == 0.0

    def test_maximin_known_values(self):
        omega = pol.MaximinAwgnPolicy(1.0, 0.5)
        res1 = ev.bernoulli_reward(omega, AWGN1, 1.0, 0.5)
        assert res1.value == pytest.approx(0.25 * math.log(2.0), abs=1e-15)
        assert res1.value == pytest.approx(T_MAXIMIN_C1_P05, abs=1e-15)
        assert res1.residual == 0.0
        res2 = ev.bernoulli_reward(omega, AWGN1, 2.0, 0.5)
        assert res2.value == pytest.approx(T_MAXIMIN_C2_P05, abs=1e-15)

    def test_fixed_fraction_known_value(self):
        res = ev.bernoulli_reward(pol.FixedFractionPolicy(0.5), AWGN1, 1.0, 0.5)
        assert res.value == pytest.approx(T_FRACTION_C1_P05, abs=1e-15)
        assert res.residual is not None and res.residual <= 1e-15

    def test_sqrt_exact_walks(self):
        omega = pol.MaximinPolicy(SQRT, 0.5)
        # c = 3 is the first kink, which the policy spends whole: 0.5 r(3)
        res3 = ev.bernoulli_reward(omega, SQRT, 3.0, 0.5)
        assert res3.value == 0.5 * (math.sqrt(4.0) - 1.0)
        # from 8 the policy spends 7 (leaving 1), then spends the final 1
        res8 = ev.bernoulli_reward(omega, SQRT, 8.0, 0.5)
        want = 0.5 * (math.sqrt(8.0) - 1.0) + 0.25 * (math.sqrt(2.0) - 1.0)
        assert res8.value == pytest.approx(want, abs=1e-9)

    def test_hand_rolled_two_level_walk(self):
        # c=2, p=0.5: consume 5/3 then 1/3
        omega = pol.MaximinAwgnPolicy(1.0, 0.5)
        want = 0.5 * AWGN1.value(5.0 / 3.0) + 0.25 * AWGN1.value(1.0 / 3.0)
        res = ev.bernoulli_reward(omega, AWGN1, 2.0, 0.5)
        assert res.value == pytest.approx(want, abs=1e-14)

    def test_method_label(self):
        res = ev.bernoulli_reward(pol.GreedyPolicy(), AWGN1, 1.0, 0.5)
        assert res.method == "bernoulli_series"
        assert res.as_dict()["method"] == "bernoulli_series"
        assert "stderr" not in res.as_dict()

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            ev.bernoulli_reward(pol.GreedyPolicy(), AWGN1, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [-0.25, math.nan])
    @pytest.mark.parametrize("calls", [0, 3])
    def test_invalid_consumption_is_rejected(self, bad, calls):
        with pytest.raises(ValueError, match="u must be finite and nonnegative"):
            ev.bernoulli_reward(_AfterCalls(calls, bad), AWGN1, 1.0, 0.5, tol=1e-300)

    def test_small_p_maximin_ladder_ends_exactly(self, monkeypatch):
        # the exact ladder from c = 1 at p = 1e-6 has ~1414 rungs; its last
        # level lies on the greedy segment, which the policy consumes whole
        monkeypatch.setattr(ev, "_SERIES_RUNGS", 10**4)
        omega = pol.MaximinAwgnPolicy(1.0, 1e-6)
        rungs = []
        kernel = omega._evaluate

        def counted(arr):
            rungs.append(arr[0])
            return kernel(arr)

        monkeypatch.setattr(omega, "_evaluate", counted)
        started = time.perf_counter()
        res = ev.bernoulli_reward(omega, AWGN1, 1.0, 1e-6)
        assert time.perf_counter() - started < 1.0
        assert res.residual == 0.0
        assert len(rungs) <= 1500
        assert abs(mpmath.mpf(res.value) - oracle.maximin_series(1.0, 1e-6, 1.0)) <= res.tolerance

    @pytest.mark.parametrize("c", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("p", [0.01, 0.1, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("reward", [SQRT, LOG1P, AWGN1], ids=["sqrt", "custom", "awgn"])
    def test_bisection_maximin_ladders_end_exactly(self, reward, p, c, monkeypatch):
        # below its first kink the policy spends the whole level, so the walk
        # stops on 0 after the rungs ergodic_levels lists, not on a tail bound
        omega = pol.MaximinPolicy(reward, p)
        levels = pol.ergodic_levels(omega, c)
        rungs = _Steps(monkeypatch)
        res = ev.bernoulli_reward(omega, reward, c, p)
        assert res.residual == 0.0
        assert len(rungs.levels) == len(levels) - 1

    @pytest.mark.parametrize(
        "p, c",
        [(1e-6, 1.0)] + list(itertools.product([0.01, 0.1, 0.3, 0.5, 0.9], [0.5, 2.0, 8.0])),
    )
    def test_sqrt_maximin_lies_within_its_slack_of_an_mpmath_oracle(self, p, c):
        # the benchmark's sqrt cells and one small p: the inverted policy
        # sits within inversion_tol of the exact one, which costs at most
        # r'(0) inversion_tol / p of reward (metrics.sweep's slack)
        omega = pol.MaximinPolicy(SQRT, p)
        res = ev.bernoulli_reward(omega, SQRT, c, p)
        slack = SQRT.marginal(0.0) * omega.inversion_tol / p
        assert abs(mpmath.mpf(res.value) - oracle.maximin_series(None, p, c)) <= res.tolerance + slack

    @pytest.mark.parametrize("kind", ["maximin", "greedy", "fixed_fraction"])
    @pytest.mark.parametrize("c", [0.5, 2.0, 8.0, 20.0])
    @pytest.mark.parametrize("p", [1e-3, 0.01, 0.1, 0.5, 0.9])
    def test_tolerance_bounds_the_error_to_an_mpmath_oracle(self, p, c, kind):
        policy, exact = {
            "maximin": (pol.MaximinAwgnPolicy(1.0, p), oracle.maximin_series),
            "greedy": (pol.GreedyPolicy(), oracle.greedy_series),
            "fixed_fraction": (pol.FixedFractionPolicy(p), oracle.fraction_series),
        }[kind]
        res = ev.bernoulli_reward(policy, AWGN1, c, p)
        assert abs(mpmath.mpf(res.value) - exact(1.0, p, c)) <= res.tolerance

    @pytest.mark.parametrize("kind", ["fixed_fraction", "idle"])
    @pytest.mark.parametrize("c", [0.5, 2.0, 8.0, 20.0])
    @pytest.mark.parametrize("p", [1e-3, 0.01, 0.1, 0.5, 0.9])
    def test_residual_bounds_the_exact_tail(self, p, c, kind, monkeypatch):
        # the exact tail after the rungs walked: for fixed fraction the series
        # from c (1-p)**n, for a policy that consumes nothing 0; the idle walk
        # keeps its level, so r(c) is the smaller bound at p r'(0) c > r(c)
        policy = pol.FixedFractionPolicy(p) if kind == "fixed_fraction" else _Idle()
        walked = _ScalarRung(policy)
        monkeypatch.setattr(policy, "_rung", walked)
        res = ev.bernoulli_reward(policy, LOG1P, c, p)
        n = len(walked.levels)
        tail = oracle.fraction_tail(1.0, p, c, n) if kind == "fixed_fraction" else 0
        assert 0 < tail <= res.residual <= 1e-15 or tail == res.value == 0.0

    def test_nonconvergence_names_the_series(self, monkeypatch):
        # the level falls by 1e-3 a rung and the survivor by 1e-7 at p = 1e-7,
        # so the tail bound (1 - p)**n * p r'(0) L_(n+1) needs ~17 000 rungs:
        # the walk, which no prediction cuts short, meets the cap first
        monkeypatch.setattr(ev, "_SERIES_RUNGS", 1000)
        message = r"^Bernoulli series tail bound \S+ after 1000 rungs$"
        with pytest.raises(ev.NonConvergenceError, match=message) as info:
            ev.bernoulli_reward(_Fraction(1e-3), AWGN1, 1.0, 1e-7)
        assert info.value.iterations == 1000
        assert info.value.needed is None
        bound = 1e-7 * AWGN1.marginal(0.0) * (1.0 - 1e-3) ** 1000
        assert info.value.span == pytest.approx(bound * (1.0 - 1e-7) ** 1000)

    @pytest.mark.parametrize("c, p", [(1.0, 1e-7), (2.0, 1e-5)])
    def test_a_fixed_point_past_the_cap_fails_fast(self, c, p):
        # a policy that consumes nothing keeps the level at c, so from rung 1
        # on the tail bound is (1 - p)**n * min(r(c), p r'(0) c) and needs
        # ~1.8e8 (p = 1e-7) or ~2.3e6 rungs, past the 10**6 cap; the fixed
        # point shows at the end of the first block, which raises
        started = time.perf_counter()
        with pytest.raises(ev.NonConvergenceError, match=r"tol needs \d+ rungs$") as info:
            ev.bernoulli_reward(_Idle(), AWGN1, c, p)
        assert time.perf_counter() - started < 1.0
        bound = min(AWGN1.value(c), p * AWGN1.marginal(0.0) * c)
        assert abs(info.value.needed - math.log(bound / 1e-15) / -math.log1p(-p)) <= 2
        assert info.value.iterations == ev._SERIES_RUNGS
        assert info.value.span == pytest.approx(bound * (1.0 - p) ** ev._SERIES_RUNGS)

    def test_a_fixed_point_within_the_cap_still_walks(self, monkeypatch):
        # the idle walk at p = 0.01 needs ~2 900 rungs, past one block, and
        # keeps the bits of the walk that has no fixed-point prediction
        want = ev.bernoulli_reward(_Idle(), AWGN1, 1.0, 0.01)
        monkeypatch.setattr(ev, "_fixed_point_fails_fast", lambda *args: None)
        assert ev.bernoulli_reward(_Idle(), AWGN1, 1.0, 0.01) == want

    @pytest.mark.parametrize("p", [1e-5, 1e-6])
    def test_fixed_fraction_past_the_cap_fails_fast(self, p):
        # the tail bound shrinks as (1 - p)**(2n) once p r'(0) L_(n+1) is below
        # r(1), and needs ~1.1e6 (p = 1e-5) or ~1.0e7 rungs, past the 10**6
        # cap; a fraction at most 1/2 never empties the battery
        started = time.perf_counter()
        with pytest.raises(ev.NonConvergenceError, match=r"tol needs \d+ rungs$") as info:
            ev.bernoulli_reward(pol.FixedFractionPolicy(p), LOG1P, 1.0, p)
        assert time.perf_counter() - started < 0.1
        top, start = LOG1P.value(1.0), p * LOG1P.marginal(0.0) * 1.0
        squared = math.ceil(math.log(start / 1e-15) / -(2.0 * math.log1p(-p)))
        assert squared < math.log(top / 1e-15) / -math.log1p(-p)
        assert info.value.needed == squared
        assert info.value.iterations == ev._SERIES_RUNGS
        assert info.value.span == pytest.approx(start * (1.0 - p) ** (2 * ev._SERIES_RUNGS))

    @pytest.mark.parametrize("fraction", [0.01, 0.5])
    def test_fixed_fraction_walks_that_finish_within_the_cap_still_run(
        self, fraction, monkeypatch
    ):
        # the walk's count lies within _fraction_rungs' rounding of its
        # prediction, 1455 rungs at fraction 0.01 and 42 at 0.5
        policy = pol.FixedFractionPolicy(fraction)
        walked = _ScalarRung(policy)
        monkeypatch.setattr(policy, "_rung", walked)
        res = ev.bernoulli_reward(policy, LOG1P, 1.0, 0.01)
        rungs = len(walked.levels)
        start = 0.01 * LOG1P.marginal(0.0) * 1.0
        needed, rounding = ev._fraction_rungs(fraction, 1.0 - 0.01, LOG1P.value(1.0), start, 1e-15)
        assert abs(needed - rungs) <= rounding < 2.0
        monkeypatch.setattr(ev, "_SERIES_RUNGS", rungs)  # a cap the walk just meets
        assert ev.bernoulli_reward(policy, LOG1P, 1.0, 0.01) == res
        monkeypatch.setattr(ev, "_SERIES_RUNGS", rungs - 1)
        with pytest.raises(ev.NonConvergenceError):
            ev.bernoulli_reward(policy, LOG1P, 1.0, 0.01)

    def test_fixed_fraction_above_one_half_walks_to_zero(self, monkeypatch):
        # a fraction above 1/2 is not predicted, but its walk ends quickly
        # however small p is: its levels fall by 10 a rung, so the p r'(0) L
        # bound passes tol = 1e-15 in a few rungs; with tol = 0 the walk
        # goes on until that bound rounds to 0, at the latest once 0.9 * L
        # rounds up to L at the least subnormal and the level hits 0
        policy = pol.FixedFractionPolicy(0.9)
        walked = _ScalarRung(policy)
        monkeypatch.setattr(policy, "_rung", walked)
        for tol, most in ((1e-15, 10), (0.0, 400)):
            walked.levels.clear()
            res = ev.bernoulli_reward(policy, LOG1P, 1.0, 1e-7, tol)
            assert res.residual <= tol
            assert len(walked.levels) <= most


def steps_down(policy):
    """Whether the policy's reserve ladder steps each rung down from the one
    before (a custom reward's MaximinPolicy), so that a rung after the first
    is not the public evaluate at its level."""
    return isinstance(policy, pol.MaximinPolicy) and policy.reward.affine is None


def per_rung_series(policy, reward, c, p, tol=1e-15):
    """The Bernoulli series walked one rung at a time through the public
    evaluate and value, added with plain Python floats, climb and drift in
    units of 2**shift as the walk keeps them; returns the rung count and
    (value, residual, tolerance).  A policy that steps down its ladder
    consumes what its own ladder from c does."""
    top = reward.value(c)
    slope = reward.marginal(0.0)
    shift = max(math.frexp(c)[1] - 1, 0)
    total = climb = drift = 0.0
    level, survivor, rungs = c, 1.0, 0
    ladder = pol._Ladder(policy, c) if steps_down(policy) else None
    while True:
        rungs += 1
        u = ladder.step() if ladder else min(policy.evaluate(level), level)
        if not 0.0 <= u <= level:
            raise ValueError("u must be finite and nonnegative")
        weight = p * survivor
        total += weight * reward.value(u)
        climb += math.ldexp(level, -shift)
        drift += weight * climb
        level = max(level - u, 0.0)
        survivor *= 1.0 - p
        residual = 0.0 if level == 0.0 else survivor * min(top, p * slope * level)
        if level == 0.0 or residual <= tol:
            break
    eps = float(np.finfo(float).eps)
    rounding = (
        eps
        * (
            math.ldexp(1.5 * (rungs + 1) * total + (rungs + 4) * residual, -shift)
            + 3.5 * slope * (drift + p * survivor * climb)
        )
        * math.ldexp(1.0, shift)
    )
    return rungs, (total, residual, residual + rounding)


SERIES_REWARDS = {
    "awgn:1": AWGN1,
    "awgn:2.5": rw.RewardFunction.awgn(2.5),
    "sqrt": SQRT,
    "custom": LOG1P,
}


def series_policy(kind, reward, p):
    """The policy of that kind.  A fixed fraction on awgn or sqrt is the
    same kernel in a plain StationaryPolicy, which the series walks rung by
    rung."""
    if kind == "greedy":
        return pol.GreedyPolicy()
    if kind == "fixed_fraction":  # awgn and sqrt sum a FixedFractionPolicy's tail
        return pol.FixedFractionPolicy(p) if reward.kind == "custom" else _Fraction(p)
    return pol.maximin_policy(reward, p)


# every reward x policy kind x p x c cell but one slow group, whose long
# walks the block-boundary test below covers: a fixed-fraction walk at
# p = 1e-3 is ~13-15k rungs of public calls in the reference
SERIES_CELLS = [
    (reward, kind, p, c)
    for reward in sorted(SERIES_REWARDS)
    for kind in ("maximin", "fixed_fraction", "greedy")
    for p in (1e-3, 0.01, 0.1, 0.5, 0.9)
    for c in (0.5, 2.0, 8.0)
    if not (p == 1e-3 and kind == "fixed_fraction")
]


class TestSeriesBlocks:
    """The walk scores its rungs once per block and sums them in rung order,
    so it returns the bits of the rung-at-a-time reference above."""

    @pytest.mark.parametrize("reward, kind, p, c", SERIES_CELLS)
    def test_matches_the_per_rung_walk_bit_for_bit(self, reward, kind, p, c):
        reward = SERIES_REWARDS[reward]
        policy = series_policy(kind, reward, p)
        _, want = per_rung_series(policy, reward, c, p)
        res = ev.bernoulli_reward(policy, reward, c, p)
        assert (res.value, res.residual, res.tolerance) == want

    @pytest.mark.parametrize("kind", ["fixed_fraction", "greedy"])
    @pytest.mark.parametrize("reward", ["awgn:1", "custom", "sqrt"])  # gamma c in range
    def test_near_the_float_maximum_matches_the_per_rung_walk(self, reward, kind):
        # climb and drift are summed in units of 2**1023 there
        reward, c, p = SERIES_REWARDS[reward], 1.7e308, 0.5
        policy = series_policy(kind, reward, p)
        _, want = per_rung_series(policy, reward, c, p)
        res = ev.bernoulli_reward(policy, reward, c, p)
        assert (res.value, res.residual, res.tolerance) == want
        assert math.isfinite(res.tolerance)

    @pytest.mark.parametrize("kind", ["maximin", "fixed_fraction"])
    @pytest.mark.parametrize("reward", sorted(SERIES_REWARDS))
    def test_walks_across_block_boundaries(self, reward, kind, monkeypatch):
        reward = SERIES_REWARDS[reward]
        inverts = kind == "maximin" and reward.affine is None
        if inverts:
            # at p = 0.01 a custom head past 1 024 rungs lies near 1e13, where
            # the absolute inversion_tol is below the float spacing and the
            # top rung's inversion runs all 200 regula falsi steps
            monkeypatch.setattr(ev, "_SLOT_BLOCK", 8)
        block = ev._SLOT_BLOCK
        p = 0.1 if inverts else 0.01
        policy = series_policy(kind, reward, p)
        for n in (block - 1, block, block + 1, 3 * block + 7):
            if kind == "maximin":
                # a head between the kinks x_(n-1) and x_n walks n rungs to 0
                policy.kinks.cover(0.0)
                while len(policy.kinks.x) <= n:
                    policy.kinks.cover(policy.kinks.x[-1])
                c, tol = 0.5 * (policy.kinks.x[n - 1] + policy.kinks.x[n]), 0.0
            else:
                # the tail bound after n rungs, as the walk rounds it
                c, level, survivor = 2.0, 2.0, 1.0
                for _ in range(n):
                    level -= p * level
                    survivor *= 1.0 - p
                tol = survivor * min(reward.value(c), p * reward.marginal(0.0) * level)
            rungs, want = per_rung_series(policy, reward, c, p, tol)
            assert rungs == n
            res = ev.bernoulli_reward(policy, reward, c, p, tol)
            assert (res.value, res.residual, res.tolerance) == want, n

    @pytest.mark.parametrize("bad", [-0.25, math.nan])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_invalid_consumption_in_a_later_block_is_rejected(self, bad, blocks, monkeypatch):
        monkeypatch.setattr(ev, "_SLOT_BLOCK", 8)
        policy = _AfterCalls(blocks * 8 + 3, bad)
        with pytest.raises(ValueError, match="u must be finite and nonnegative"):
            ev.bernoulli_reward(policy, AWGN1, 1.0, 0.5, tol=1e-300)
        assert policy.calls == -1  # raised on the first bad rung

    def test_memory_does_not_grow_with_rungs(self):
        def peak(p):
            tracemalloc.start()
            try:
                ev.bernoulli_reward(pol.FixedFractionPolicy(p), LOG1P, 1.0, p)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1e-2)  # first-call allocations
        short, long = peak(1e-2), peak(1e-3)  # ~1.5k and ~13k rungs
        assert long <= 1.1 * short, (short, long)

    @pytest.mark.parametrize("kind", ["maximin", "fixed_fraction", "greedy"])
    @pytest.mark.parametrize("c", [1e300, 2.0**1000 + 2.0**948])
    def test_large_capacities_keep_the_per_rung_bits(self, kind, c):
        # the walk sums its climbs in units of c's power of two; below the
        # float maximum that moves no bit of the rung-at-a-time reference
        policy = series_policy(kind, SQRT, 0.5)
        _, want = per_rung_series(policy, SQRT, c, 0.5)
        res = ev.bernoulli_reward(policy, SQRT, c, 0.5)
        assert (res.value, res.residual, res.tolerance) == want

    @pytest.mark.parametrize(
        "reward, kind",
        [("sqrt", "maximin"), ("sqrt", "fixed_fraction"), ("sqrt", "greedy"),
         ("awgn:1", "maximin"), ("awgn:1", "fixed_fraction"), ("awgn:1", "greedy")],
    )
    @pytest.mark.parametrize("c", [1.7e308, float(np.finfo(float).max)])
    def test_tolerance_stays_finite_near_the_float_maximum(self, reward, kind, c):
        # c + L_2 + ... passes the float maximum, and so did the climbs and
        # the rounding term summed in plain units
        reward = SERIES_REWARDS[reward]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ev.bernoulli_reward(make_policy(kind, reward, 0.5), reward, c, 0.5)
        assert math.isfinite(res.value)
        assert res.residual <= res.tolerance < math.inf


class TestLargeCapacities:
    """The awgn and sqrt kink tables serve large capacities in time that
    grows with the kinks they walk, within their tolerance of the 60-digit
    series.  Past the kink cap or the float range a table extends its last
    segment once the segment slopes have converged, e K log s >= 37 after K
    kinks, and refuses the level otherwise."""

    BIG = float(np.finfo(float).max)

    @pytest.mark.parametrize("c", [8.0, 1e4, 1e10, 1e100, 1e300])
    @pytest.mark.parametrize("p", [1e-3, 0.01, 0.5])
    def test_sqrt_series_within_its_tolerance(self, p, c):
        # past 1e100 at p = 1e-3 the table walks its 10**5 kinks and extends
        res = ev.bernoulli_reward(pol.maximin_policy(SQRT, p), SQRT, c, p)
        exact = oracle.maximin_series_closed(None, p, c)
        assert abs(mpmath.mpf(res.value) - exact) <= res.tolerance

    @pytest.mark.parametrize(
        "gamma, p", [(None, 1e-3), (None, 0.1), (None, 0.5), (1.0, 0.1), (1.0, 0.5)]
    )
    def test_the_float_maximum_is_served_near_the_oracle(self, gamma, p):
        # the tolerance says nothing this far out (ROADMAP item 10): check
        # the value's relative error instead
        reward = SQRT if gamma is None else rw.RewardFunction.awgn(gamma)
        res = ev.bernoulli_reward(pol.maximin_policy(reward, p), reward, self.BIG, p)
        exact = oracle.maximin_series_closed(gamma, p, self.BIG)
        assert abs(mpmath.mpf(res.value) / exact - 1) <= 5e-14

    @pytest.mark.parametrize("reward", [AWGN1, SQRT], ids=["awgn", "sqrt"])
    def test_unconverged_slopes_are_refused(self, reward):
        # 10**5 kinks at p = 1e-5 give e K log s = 1 (awgn) or 2 (sqrt)
        started = time.perf_counter()
        policy = pol.maximin_policy(reward, 1e-5)
        message = r"^maximin kinks at p=1e-05 do not pass upto=1000000\.0 within 100000 kinks"
        with pytest.raises(ValueError, match=message):
            ev.bernoulli_reward(policy, reward, 1e6, 1e-5)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("cap", [50, 60])
    def test_the_extension_waits_for_the_slopes(self, cap, monkeypatch):
        # awgn:1 at p = 0.5 has e K log s = K log 2: 34.7 after 50 kinks and
        # 41.6 after 60, and c lies past both caps' last kinks
        monkeypatch.setattr(pol, "_LADDER_CAP", cap)
        policy, c = pol.maximin_policy(AWGN1, 0.5), 1e30
        if cap == 50:
            with pytest.raises(ValueError, match="within 50 kinks"):
                ev.bernoulli_reward(policy, AWGN1, c, 0.5)
            return
        res = ev.bernoulli_reward(policy, AWGN1, c, 0.5)
        assert policy._xs[-1] == self.BIG and len(policy.kinks.x) == 61
        exact = oracle.maximin_series_closed(1.0, 0.5, c)
        assert abs(mpmath.mpf(res.value) / exact - 1) <= 5e-14


class TestFoldRungs:
    """_fold_rungs adds a block's weighted rewards in Python floats, rung by
    rung, to the bits of numpy's sequential accumulate and of the same rungs
    folded as two blocks."""

    @pytest.mark.parametrize("n", [1, 2, 37, 1024])
    @pytest.mark.parametrize("reward", [AWGN1, SQRT, LOG1P], ids=["awgn", "sqrt", "log1p"])
    def test_a_block_sums_in_rung_order(self, reward, n):
        weights = (0.3 * 0.7 ** np.arange(9, 9 + n)).tolist()
        spent = np.random.default_rng(n).uniform(0.0, 2.0, n).tolist()
        total = 0.125  # a block after others
        block, used = list(weights), list(spent)
        out = ev._fold_rungs(total, reward, block, used)
        assert block == used == [] and type(out) is float
        terms = np.array(weights) * reward._value(np.array(spent))
        terms[0] += total
        folds = {out.hex(), float(np.add.accumulate(terms)[-1]).hex()}
        k = n // 2  # the first k rungs, then the rest
        head = ev._fold_rungs(total, reward, weights[:k], spent[:k])
        folds.add(ev._fold_rungs(head, reward, weights[k:], spent[k:]).hex())
        assert len(folds) == 1, folds


def closed_forms(gamma):
    """awgn:gamma, or sqrt when gamma is None, and the same closed forms as
    a custom reward, which a fixed fraction walks to the end."""
    if gamma is None:
        return SQRT, rw.RewardFunction.custom(
            lambda u: u / (np.sqrt(1.0 + u) + 1.0),
            lambda u: 0.5 / np.sqrt(1.0 + u),
            lambda y: (0.5 / y) ** 2 - 1.0,
            validate=False,
        )
    return rw.RewardFunction.awgn(gamma), rw.RewardFunction.custom(
        lambda u: 0.5 * np.log1p(gamma * u),
        lambda u: gamma / (2.0 * (1.0 + gamma * u)),
        lambda y: (gamma / (2.0 * y) - 1.0) / gamma,
        validate=False,
    )


GRID_REWARDS = {name: closed_forms(gamma) for name, gamma in
                (("awgn:0.001", 1e-3), ("awgn:1", 1.0), ("awgn:1000", 1e3), ("sqrt", None))}


class TestFractionTail:
    """A FixedFractionPolicy on awgn or sqrt walks a head and sums the rest
    of its series as a power series in the level, with the sums exchanged."""

    @pytest.mark.parametrize("fraction", ["p", 0.3])
    @pytest.mark.parametrize("c", [1e-3, 1.0, 8.0, 1e3])
    @pytest.mark.parametrize("p", [1e-6, 1e-4, 0.01, 0.5, 0.99])
    @pytest.mark.parametrize("reward", sorted(GRID_REWARDS))
    def test_lies_within_its_tolerance_of_the_oracle(self, reward, p, c, fraction):
        # and that tolerance is no larger than the walk's on the same closed
        # forms, wherever the walk finishes within the cap
        built, custom = GRID_REWARDS[reward]
        f = p if fraction == "p" else fraction
        gamma = None if built.kind == "sqrt" else built.gamma
        res = ev.bernoulli_reward(pol.FixedFractionPolicy(f), built, c, p)
        assert res.residual <= 1e-15
        assert abs(mpmath.mpf(res.value) - oracle.fraction_series(gamma, p, c, f)) <= res.tolerance
        try:
            walk = ev.bernoulli_reward(pol.FixedFractionPolicy(f), custom, c, p)
        except ev.NonConvergenceError as error:
            assert error.needed is not None  # refused at once, not walked
        else:
            assert res.tolerance <= walk.tolerance

    @pytest.mark.parametrize("reward", ["awgn:1", "sqrt"])
    @pytest.mark.parametrize("p", [1e-5, 1e-6])
    def test_small_p_cells_that_the_walk_refuses_finish(self, p, reward):
        # the walk needs ~1.1e6 (p = 1e-5) or ~1.0e7 rungs; p c <= 1/2, so
        # the whole ladder is one power series
        built, custom = GRID_REWARDS[reward]
        with pytest.raises(ev.NonConvergenceError):
            ev.bernoulli_reward(pol.FixedFractionPolicy(p), custom, 1.0, p)
        started = time.perf_counter()
        res = ev.bernoulli_reward(pol.FixedFractionPolicy(p), built, 1.0, p)
        assert time.perf_counter() - started < 0.1
        gamma = None if built.kind == "sqrt" else built.gamma
        assert abs(mpmath.mpf(res.value) - oracle.fraction_series(gamma, p, 1.0)) <= res.tolerance

    @pytest.mark.parametrize("reward", ["awgn:1", "sqrt"])
    def test_the_benchmark_cells_walk_a_short_head(self, reward, monkeypatch):
        # the head ends at the first level L with p L <= 1/2: at once where
        # p c <= 1/2, which is every cell at p = 0.01
        heads = {}
        for c in (0.5, 2.0, 8.0):
            for p in (0.01, 0.1, 0.3, 0.5, 0.9):
                policy = pol.FixedFractionPolicy(p)
                walked = _ScalarRung(policy)
                monkeypatch.setattr(policy, "_rung", walked)
                ev.bernoulli_reward(policy, SERIES_REWARDS[reward], c, p)
                if walked.levels:
                    heads[p, c] = len(walked.levels)
        assert heads == {
            (0.1, 8.0): 5, (0.3, 2.0): 1, (0.3, 8.0): 5, (0.5, 2.0): 1,
            (0.5, 8.0): 3, (0.9, 2.0): 1, (0.9, 8.0): 2,
        }

    def test_a_subclass_walks_its_own_kernel(self):
        # its p of 1e-6 would predict ~1.0e7 rungs and a power series in
        # that fraction, but its kernel halves the level: ~50 rungs of walk
        res = ev.bernoulli_reward(_HalfFraction(1e-6), AWGN1, 1.0, 1e-6)
        assert res == ev.bernoulli_reward(_Fraction(0.5), AWGN1, 1.0, 1e-6)
        assert res.tolerance < 1e-15

    def test_a_stateful_subclass_keeps_the_walk(self, monkeypatch):
        # walked rung by rung through its own _evaluate, which tires once a
        # rung, and never handed to the fixed fraction's power series
        def summed(*args):
            raise AssertionError("the walk summed a subclass's tail")

        parent = ev.bernoulli_reward(pol.FixedFractionPolicy(0.3), AWGN1, 2.0, 0.3)
        monkeypatch.setattr(ev, "_fraction_tail", summed)
        policy, walked = _Tiring(0.3), _Steps(monkeypatch)
        res = ev.bernoulli_reward(policy, AWGN1, 2.0, 0.3)
        tired = 0.3
        for _ in walked.levels:
            tired *= 0.999
        assert len(walked.levels) > 1 and policy.p == tired
        assert res.residual <= 1e-15 and res != parent

    def test_a_tol_of_zero_keeps_the_walk(self):
        # no truncation of the power series meets tol = 0
        policy = pol.FixedFractionPolicy(0.9)
        res = ev.bernoulli_reward(policy, AWGN1, 1.0, 0.5, 0.0)
        assert res == ev.bernoulli_reward(policy, LOG1P, 1.0, 0.5, 0.0)

    def test_a_head_past_the_cap_fails_fast(self):
        # p c = 10 at p = 1e-6: the head needs log(20) / 1e-6 ~ 3.0e6 rungs
        # before the level is under the power series' radius, and the walk's
        # tail bound ~1.8e7
        started = time.perf_counter()
        with pytest.raises(ev.NonConvergenceError, match=r"tol needs \d+ rungs$") as info:
            ev.bernoulli_reward(pol.FixedFractionPolicy(1e-6), AWGN1, 1e7, 1e-6)
        assert time.perf_counter() - started < 0.1
        assert abs(info.value.needed - math.log(20.0) / -math.log1p(-1e-6)) <= 2


class TestDerivativeCheck:
    def test_identity_at_smooth_point(self):
        check = ev.bernoulli_derivative_check(AWGN1, 0.5, 2.0)
        assert not check.skipped
        assert check.analytic_slope == pytest.approx(3.0 / 32.0, abs=1e-15)
        assert abs(check.fd_slope - check.analytic_slope) <= 1e-4

    def test_kink_is_skipped_with_warning(self):
        with pytest.warns(UserWarning):
            check = ev.bernoulli_derivative_check(AWGN1, 0.5, 4.0)
        assert check.skipped
        assert check.nearest_kink == pytest.approx(4.0, abs=1e-9)

    def test_kink_far_out_at_small_p_is_skipped(self):
        # at p = 1e-5 the kink past x = 600 is the 10 758th
        kink = pol.maximin_kinks(AWGN1, 1e-5, 600.0)[-1]
        with pytest.warns(UserWarning):
            check = ev.bernoulli_derivative_check(AWGN1, 1e-5, kink.x)
        assert check.skipped
        assert check.nearest_kink == kink.x

    def test_a_capacity_the_series_serves_past_the_last_kink(self):
        # at p = 0.5 the awgn kink after 8.99e307 lies past the float range,
        # so the table extends its last segment, and the check reads the
        # kinks walked instead of asking for one past c
        check = ev.bernoulli_derivative_check(AWGN1, 0.5, 1.7e308, h=1e300)
        assert not check.skipped and check.nearest_kink < 1.7e308
        assert abs(check.fd_slope / check.analytic_slope - 1.0) <= 1e-4

    @pytest.mark.parametrize("p", [0.3, 0.7])
    @pytest.mark.parametrize("c", [0.6, 1.7, 3.3])
    def test_identity_across_cells(self, p, c):
        check = ev.bernoulli_derivative_check(AWGN1, p, c)
        if check.skipped:
            pytest.skip("landed on a kink")
        assert abs(check.fd_slope - check.analytic_slope) <= 1e-4


class TestMdpModel:
    def test_grid_and_rewards(self):
        model = ev.build_mdp(AWGN1, arr.BernoulliArrivals(1.0, 0.5), 4)
        np.testing.assert_allclose(model.grid, [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(model.action_rewards, AWGN1.value(model.grid))
        assert model.cell == 0.25

    @pytest.mark.parametrize(
        "dist",
        [
            arr.BernoulliArrivals(1.0, 0.3),
            arr.LimitedUniformArrivals(1.0, 1.4),
            arr.LimitedExponentialArrivals(1.0, 2.0),
        ],
        ids=["bernoulli", "uniform", "exponential"],
    )
    @pytest.mark.parametrize("cells", [8, 126, 127, 300])
    def test_expectation_is_the_chains_next_state_mean(self, dist, cells):
        # below 128 levels (cells + 1) the operator correlates directly, and
        # from 128 on by FFT
        model = ev.build_mdp(AWGN1, dist, cells)
        n = model.states
        v = np.cumsum(np.random.default_rng(cells).random(n))
        want = [transition_row(model, m, 0) @ v for m in range(n)]
        got = model._expected_next(v)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15 * np.abs(v).max() * n)


class TestOptimalGain:
    def test_single_cell_chain_is_one_shot(self):
        model = ev.build_mdp(AWGN1, arr.BernoulliArrivals(1.0, 0.5), 1)
        res, actions = ev.optimal_gain(model, eps=1e-12)
        assert res.value == pytest.approx(0.5 * AWGN1.value(1.0), abs=1e-9)
        assert actions[1] == 1

    @pytest.mark.parametrize(
        "reward, dist",
        [
            pytest.param(AWGN1, arr.BernoulliArrivals(1.0, 0.4), id="dist0"),
            pytest.param(AWGN1, arr.LimitedUniformArrivals(1.0, 1.0), id="dist1"),
            pytest.param(AWGN1, arr.LimitedUniformArrivals(1.0, 1.8), id="dist2"),
            pytest.param(CONVEX, arr.LimitedUniformArrivals(1.0, 1.8), id="convex_reward"),
        ],
    )
    @pytest.mark.parametrize("cells", [2, 3])
    def test_matches_brute_force_enumeration(self, reward, dist, cells):
        model = ev.build_mdp(reward, dist, cells)
        res, _ = ev.optimal_gain(model, eps=1e-11)
        assert res.value == pytest.approx(brute_force_best(model), abs=1e-8)

    def test_matches_series_on_fine_grid(self):
        omega = pol.MaximinAwgnPolicy(1.0, 0.5)
        series = ev.bernoulli_reward(omega, AWGN1, 2.0, 0.5)
        model = ev.build_mdp(AWGN1, arr.BernoulliArrivals(2.0, 0.5), 500)
        res, _ = ev.optimal_gain(model, eps=1e-9)
        assert abs(res.value - series.value) <= res.tolerance + 1e-12

    def assert_keeps_the_last_spans(self, monkeypatch, max_iter, kept):
        # with the solve returning its guess, the certificate sweeps start
        # from 0, as plain value iteration does, and cannot reach 1e-30;
        # three sweeps and one Howard step come first
        monkeypatch.setattr(ev, "_solve", _guess)
        model = ev.build_mdp(AWGN1, arr.BernoulliArrivals(1.0, 0.5), 20)
        message = (
            rf"^value iteration span \S+ after {max_iter} sweeps; "
            rf"the last {kept} spans contract by (\S+) a sweep$"
        )
        with pytest.raises(ev.NonConvergenceError, match=message) as info:
            ev.optimal_gain(model, eps=1e-30, max_iter=max_iter)
        assert info.value.iterations == max_iter
        assert info.value.span > 1e-30
        # only the last few plain sweeps' spans are kept, the last of them
        # the one reported, so their ratio spans kept - 1 sweeps
        spans = info.value.spans
        assert len(spans) == kept and spans[-1] == info.value.span
        rho = float(re.match(message, str(info.value)).group(1))
        assert rho == pytest.approx((spans[-1] / spans[0]) ** (1 / (kept - 1)), rel=1e-5)

    def test_nonconvergence_raises(self, monkeypatch):
        self.assert_keeps_the_last_spans(monkeypatch, 25, ev._KEPT_SPANS)

    def test_nonconvergence_keeps_no_span_from_before_howard(self, monkeypatch):
        # the Howard step falls where the last 8 sweeps would be
        self.assert_keeps_the_last_spans(monkeypatch, 8, 4)

    def test_method_label_and_tolerance(self):
        model = ev.build_mdp(AWGN1, arr.BernoulliArrivals(1.0, 0.5), 50)
        res, _ = ev.optimal_gain(model, eps=1e-9)
        assert res.method == "value_iteration"
        assert res.tolerance > 0.0

    # the last entry counts the Howard steps whose bias was not concave, so
    # their improvement took the bracketed maximization; only uniform c=2
    # nmcr=0.1 mixes slowly enough for Howard to pay, and three of its six
    # steps bracket.  No sweep or step scans every action; with the
    # concavity checks forced false every one does, with the same bits.
    @pytest.mark.parametrize(
        "dist, cells, brackets",
        [
            pytest.param(arr.from_nmcr("uniform", 2.0, 0.5), 1000, 0, id="dist0-1000"),
            pytest.param(arr.from_nmcr("exponential", 1.0, 0.5), 1000, 0, id="dist1-1000"),
            pytest.param(arr.BernoulliArrivals(2.0, 0.1), 500, 0, id="dist2-500"),
            pytest.param(arr.from_nmcr("uniform", 2.0, 0.1), 1000, 3, id="dist3-1000"),
        ],
    )
    def test_slope_merge_matches_exact_scan_bit_for_bit(
        self, dist, cells, brackets, monkeypatch
    ):
        model = ev.build_mdp(AWGN1, dist, cells)
        phases = _Phases(monkeypatch)
        calls = []
        bracketed, scanned = ev._bracketed, ev._scanned
        monkeypatch.setattr(ev, "_bracketed", lambda *a: calls.append("b") or bracketed(*a))
        monkeypatch.setattr(ev, "_scanned", lambda *a: calls.append("s") or scanned(*a))
        merged, merged_actions = ev.optimal_gain(model)
        plain, howard, certificate = phases.concave()
        assert plain[0]  # the reward table
        assert all(plain) and all(certificate)  # every value-iteration sweep merged
        assert howard.count(False) == brackets
        assert calls == ["b"] * brackets
        monkeypatch.setattr(ev, "_is_concave", lambda seq: False)
        exact, exact_actions = ev.optimal_gain(model)
        assert set(calls[brackets:]) == {"s"}  # every choice scanned
        assert (merged.value, merged.residual, merged.tolerance) == (
            exact.value,
            exact.residual,
            exact.tolerance,
        )
        np.testing.assert_array_equal(merged_actions, exact_actions)


class TestExpectation:
    @staticmethod
    def _inputs(n):
        rng = np.random.default_rng(n)
        mass = rng.random(n)
        v = np.cumsum(rng.random(n))
        return v, mass / mass.sum(), np.concatenate([v, np.full(n - 1, v[-1])])

    @pytest.mark.parametrize("n", [128, 129, 1000, 2001])
    def test_large_grids_equal_fftconvolve_bit_for_bit(self, n):
        v, mass, vext = self._inputs(n)
        want = fftconvolve(vext, mass[::-1], "valid")
        np.testing.assert_array_equal(ev._expectation(mass)(v), want)

    @pytest.mark.parametrize("n", [1, 2, 127])
    def test_small_grids_equal_correlate(self, n):
        v, mass, vext = self._inputs(n)
        want = np.correlate(vext, mass, mode="valid")
        np.testing.assert_array_equal(ev._expectation(mass)(v), want)

    @staticmethod
    def _trimmed(n, k):
        """_inputs(n) with mass zero past its first k cells."""
        v, mass, vext = TestExpectation._inputs(n)
        mass[k:] = 0.0
        return v, mass / mass.sum(), vext

    @pytest.mark.parametrize(
        "n, k", [(n, k) for n in (128, 1001, 4097, 8000) for k in (1, 2, 201, n) if k <= n]
    )
    def test_support_is_trimmed_bit_for_bit(self, n, k):
        v, mass, vext = self._trimmed(n, k)
        got = ev._expectation(mass)(v)
        want = fftconvolve(vext[: n + k - 1], mass[:k][::-1], "valid")
        np.testing.assert_array_equal(got, want)
        # and the correlation with all of mass, to within FFT rounding
        full = np.correlate(vext, mass, mode="valid")
        np.testing.assert_allclose(got, full, rtol=0.0, atol=1e-15 * np.abs(v).max() * n)

    @pytest.mark.parametrize("n, k", [(2, 1), (5, 2), (127, 1), (127, 3), (127, 64)])
    def test_small_grids_correlate_the_support(self, n, k):
        v, mass, vext = self._trimmed(n, k)
        want = np.correlate(vext[: n + k - 1], mass[:k], mode="valid")
        np.testing.assert_array_equal(ev._expectation(mass)(v), want)

    def test_fft_length_is_scipys_next_fast_len(self):
        targets = range(1, 2**15 + 1)
        assert [ev._next_fast_len(t) for t in targets] == [next_fast_len(t, True) for t in targets]

    def test_import_leaves_scipy_signal_out(self):
        code = "import sys, ehpolicy; print('scipy.signal' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def _candidates(rewards, w):
    """Every candidate sum rewards[j] + w[i - j] as a plain matrix, -inf for j > i."""
    states = np.arange(len(w))
    i, j = states[:, None], states[None, :]
    return np.where(j <= i, rewards[j] + w[np.abs(i - j)], -np.inf)


def _concave_pair(seed):
    """Two concave sequences of one length 2-300, with slopes from a shared
    pool, and whether their sums are exact.

    On a grid of 2**-3 or 2**-20 the sums are exact, so ties stay ties; a
    small pool gives many tied slopes, within and across the two.  Unrounded
    slopes are drawn without replacement, so each sequence's slopes are
    distinct and it stays concave as computed; ties are then only across
    the two.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 301))
    bits = (3, 20, None)[seed % 3]
    if bits is None:
        pool = rng.uniform(-10.0, 10.0, int(rng.integers(n - 1, 2 * n + 1)))
    else:
        pool = rng.uniform(-10.0, 10.0, int(rng.integers(1, 2 * n + 1)))
        pool = np.round(pool * 2.0**bits) / 2.0**bits

    def sequence():
        slopes = np.sort(rng.choice(pool, n - 1, replace=bits is not None))[::-1]
        return rng.integers(-80, 81) / 8.0 + np.concatenate([[0.0], np.cumsum(slopes)])

    return sequence(), sequence(), bits is not None


def _perturbed_pair(seed):
    """A reward table concave as computed, of 1, 2, 3, 127, 128 or 1000
    levels, and a concave w perturbed at a random share of its levels by up
    to 1e-16 to 1e-3 of its largest magnitude, sometimes offset by 1e6."""
    rng = np.random.default_rng(seed)
    n = (1, 2, 3, 127, 128, 1000)[seed % 6]

    def concave():
        slopes = np.sort(rng.normal(size=n - 1))[::-1] / n
        return rng.normal() + np.concatenate([[0.0], np.cumsum(slopes)])

    rewards, w = concave(), concave()
    size = 10.0 ** rng.uniform(-16, -3) * (np.abs(w).max() + 1.0)
    w = w + size * rng.normal(size=n) * (rng.random(n) < rng.uniform(0.0, 1.0))
    if seed % 5 == 0:
        w = w + 1e6
    return rewards, w


def _tied_pair(seed):
    """A reward table concave as computed and a w of 3-39 levels, each a
    small-integer concave shape times a step of 1/8, 0.1, 1/3, 2**-20 or 7
    plus an offset, w with one level moved by up to 2 steps: exact ties,
    plateaus, and sums that round."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))

    def shape():
        slopes = np.sort(rng.integers(-4, 5, n - 1))[::-1]
        return np.concatenate([[0], np.cumsum(slopes)])

    steps, offsets = (0.125, 0.1, 1 / 3, 2.0**-20, 7.0), (0.0, 0.1, -0.3, 1 / 3, 1e3 + 0.1, -2.5)
    w = shape()
    w[rng.integers(0, n)] += rng.integers(-2, 3)
    w = offsets[rng.integers(6)] + w * steps[rng.integers(5)]
    while True:  # a reward table concave as computed
        rewards = offsets[rng.integers(6)] + shape() * steps[rng.integers(5)]
        if ev._is_concave(rewards):
            return rewards, w


def _flat_pairs():
    """Constant and plateaued w, against concave reward tables with and
    without flat stretches of their own."""
    for n in (3, 127, 1000):
        grid = np.arange(n)
        rising = np.log1p(grid / n)
        flat = np.minimum(grid, n // 3) * 0.125
        bump = np.minimum(np.sqrt(grid / n), 0.5)
        bump[n // 2] += 1e-12
        for w in (np.full(n, 0.7), np.minimum(rising, rising[n // 2]), bump):
            for rewards in (rising, flat, np.zeros(n)):
                yield rewards, w


# the slow-mixing cells whose Howard steps meet biases that are not concave
SLOW_CELLS = (
    (arr.from_nmcr("uniform", 2.0, 0.1), 1000),
    (arr.from_nmcr("uniform", 8.0, 0.1), 1000),
    (arr.from_mcr("uniform", 16.0, 0.02), 2000),
)


class TestBestActions:
    @pytest.mark.parametrize("seed", range(200))
    def test_slope_merge_attains_the_exact_max_within_four_ulps(self, seed):
        rewards, w, exact = _concave_pair(seed)
        assert ev._is_concave(rewards) and ev._is_concave(w)
        n = len(w)
        actions = ev._best_actions(rewards, w, rewards_concave=True)
        states = np.arange(n)
        assert actions.shape == (n,)
        assert np.all((0 <= actions) & (actions <= states))
        got = rewards[actions] + w[states - actions]
        cand = _candidates(rewards, w)
        best = cand.max(axis=1)
        assert np.all(np.abs(got - best) <= 4.0 * np.spacing(np.abs(best)))
        if exact:  # tied sums are truly tied, and the smallest j must win
            np.testing.assert_array_equal(actions, cand.argmax(axis=1))

    @pytest.mark.parametrize("block", [1, 100, 280, 2**18])  # n=40: 1, 2, 7, 40 rows
    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_exact_scan_takes_the_smallest_maximizer(self, block, n, monkeypatch):
        # small integers, not concave, with many tied sums
        rng = np.random.default_rng(1000 * n + block)
        rewards = rng.integers(0, 4, n).astype(float)
        w = rng.integers(0, 4, n).astype(float)
        monkeypatch.setattr(ev, "_SCAN_BLOCK", block)
        actions = ev._best_actions(rewards, w, rewards_concave=False)
        np.testing.assert_array_equal(actions, _candidates(rewards, w).argmax(axis=1))

    # _bracketed against the scan, bit for bit.  A zero margin fails tied
    # seeds 21225 and 25400 (2 of their first 30 000), and a window that
    # grows on one side only fails dozens of these cases.
    @pytest.mark.parametrize("seed", range(120))
    def test_bracket_equals_the_scan_on_perturbed_concave_pairs(self, seed):
        rewards, w = _perturbed_pair(seed)
        assert ev._is_concave(rewards)
        np.testing.assert_array_equal(ev._bracketed(rewards, w), ev._scanned(rewards, w))

    @pytest.mark.parametrize("seed", [*range(100), 21225, 25400])
    def test_bracket_equals_the_scan_on_ties(self, seed):
        rewards, w = _tied_pair(seed)
        np.testing.assert_array_equal(ev._bracketed(rewards, w), ev._scanned(rewards, w))

    def test_bracket_equals_the_scan_on_flat_stretches(self):
        cases = list(_flat_pairs())
        for rewards, w in cases:
            assert ev._is_concave(rewards)
            np.testing.assert_array_equal(ev._bracketed(rewards, w), ev._scanned(rewards, w))
        assert len(cases) == 27

    def test_bracket_equals_the_scan_on_every_howard_bias_of_the_slow_cells(self, monkeypatch):
        seen = []
        bracketed = ev._bracketed

        def logged(rewards, w):
            seen.append((rewards, w.copy()))
            return bracketed(rewards, w)

        monkeypatch.setattr(ev, "_bracketed", logged)
        for law, cells in SLOW_CELLS:
            ev.optimal_gain(ev.build_mdp(AWGN1, law, cells))
        monkeypatch.undo()
        assert len(seen) == 15  # 3 + 3 at 1000 cells, 9 at 2000
        for rewards, w in seen:
            assert not ev._is_concave(w)
            np.testing.assert_array_equal(ev._bracketed(rewards, w), ev._scanned(rewards, w))

    def test_bracket_falls_back_to_the_scan_on_non_finite_values(self):
        rewards = np.log1p(np.arange(5.0))
        w = np.array([0.0, 1.0, 0.5, np.inf, 2.0])
        assert ev._bracketed(rewards, w) is None
        w[3] = np.nan
        assert ev._bracketed(rewards, w) is None
        np.testing.assert_array_equal(
            ev._best_actions(rewards, w, rewards_concave=True), ev._scanned(rewards, w)
        )


class _AboveOne(pol.StationaryPolicy):
    """Consumes half the level at or below 1, and above it `above`, or the
    whole level when above is None."""

    def __init__(self, above=None):
        self.above = above

    def _evaluate(self, arr):
        return np.where(arr > 1.0, arr if self.above is None else self.above, 0.5 * arr)


class TestPolicyGain:
    def test_matches_stationary_solve(self):
        dist = arr.LimitedUniformArrivals(1.0, 1.2)
        model = ev.build_mdp(AWGN1, dist, 3)
        policy = pol.FixedFractionPolicy(0.5)
        res = ev.policy_gain(model, policy, eps=1e-11)
        # snap the policy to the grid exactly as the evaluator does
        h = model.cell
        actions = [int(np.floor(policy.evaluate(level) / h + 1e-9)) for level in model.grid]
        P = np.vstack([transition_row(model, i, actions[i]) for i in range(model.states)])
        want = stationary_gain(P, model.action_rewards[actions])
        assert res.value == pytest.approx(want, abs=1e-9)

    def test_never_beats_optimal(self):
        model = ev.build_mdp(AWGN1, arr.LimitedExponentialArrivals(1.0, 2.0), 200)
        best, _ = ev.optimal_gain(model, eps=1e-9)
        for policy in (
            pol.GreedyPolicy(),
            pol.FixedFractionPolicy(0.5),
            pol.MaximinAwgnPolicy(1.0, 0.5),
        ):
            mine = ev.policy_gain(model, policy, eps=1e-9)
            assert mine.value <= best.value + 1e-9

    def test_greedy_on_grid_is_exact_action_match(self):
        model = ev.build_mdp(AWGN1, arr.BernoulliArrivals(1.0, 0.5), 10)
        res = ev.policy_gain(model, pol.GreedyPolicy(), eps=1e-11)
        assert res.value == pytest.approx(0.5 * AWGN1.value(1.0), abs=1e-9)

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(ev, "_solve", _guess)
        model = ev.build_mdp(AWGN1, arr.BernoulliArrivals(1.0, 0.5), 20)
        with pytest.raises(ev.NonConvergenceError):
            ev.policy_gain(model, pol.GreedyPolicy(), eps=1e-30, max_iter=25)

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_a_nan_or_negative_consumption_raises(self, bad):
        # as bernoulli_reward and simulate raise, where the grid's cast and
        # clip once read NaN, and -1 as consuming 0
        model = ev.build_mdp(AWGN1, arr.from_nmcr("uniform", 2.0, 0.5), 200)
        with pytest.raises(ValueError, match="^u must be finite and nonnegative$"):
            ev.policy_gain(model, _AboveOne(bad))

    def test_an_infinite_consumption_spends_the_level(self):
        model = ev.build_mdp(AWGN1, arr.from_nmcr("uniform", 2.0, 0.5), 200)
        whole = ev.policy_gain(model, _AboveOne())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast of inf to an integer
            assert ev.policy_gain(model, _AboveOne(math.inf)) == whole


def dense_policy_system(model: ev.MdpModel, actions) -> tuple[np.ndarray, np.ndarray]:
    """The policy-evaluation system of _policy_bias as a dense matrix and
    rhs: g + h[i] - sum_j P[i, j] h[j] = rewards[actions[i]] with h[0] = 0,
    in the unknowns x = (g, h[1:])."""
    n = model.states
    P = np.vstack([transition_row(model, i, actions[i]) for i in range(n)])
    A = np.eye(n) - P
    A[:, 0] = 1.0
    return A, model.action_rewards[np.asarray(actions)]


def grid_actions(model: ev.MdpModel, policy) -> np.ndarray:
    """policy_gain's snap of a policy onto the grid's actions."""
    u = policy.evaluate(model.grid)
    actions = np.floor(u / model.cell + 1e-9).astype(np.int64)
    return np.minimum(np.maximum(actions, 0), np.arange(model.states))


SOLVE_MODELS = [
    pytest.param(arr.LimitedUniformArrivals(1.0, 1.2), 3, id="uniform-3"),
    pytest.param(arr.BernoulliArrivals(1.0, 0.3), 20, id="bernoulli-20"),
    pytest.param(arr.from_nmcr("uniform", 2.0, 0.1), 90, id="slow-uniform-90"),
    pytest.param(arr.from_nmcr("exponential", 1.0, 0.5), 150, id="exponential-150"),
]


# optimal_gain and policy_gain on a slow uniform and a Bernoulli law in a
# fresh interpreter; prints the scipy modules loaded
VI_SCIPY_MODULES = """
import sys
from ehpolicy import arrivals, evaluation, policies, rewards
reward = rewards.RewardFunction.awgn(1.0)
for law in (arrivals.from_nmcr("uniform", 2.0, 0.1), arrivals.BernoulliArrivals(1.0, 0.5)):
    model = evaluation.build_mdp(reward, law, 300)
    evaluation.optimal_gain(model)
    evaluation.policy_gain(model, policies.maximin_policy(reward, law.mcr()))
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


class TestSolve:
    def test_a_zero_operator_returns_the_guess(self):
        # its first Arnoldi vector has no new direction: no step is taken
        guess = np.arange(5.0)
        out = ev._solve(np.zeros_like, np.ones(5), guess, 1e-10)
        assert out.tolist() == guess.tolist()

    @pytest.mark.parametrize("rtol", [1e-8, 1e-13])
    @pytest.mark.parametrize("law, cells", SOLVE_MODELS)
    @pytest.mark.parametrize(
        "policy",
        [pol.GreedyPolicy(), pol.FixedFractionPolicy(0.3), pol.MaximinAwgnPolicy(1.0, 0.2)],
        ids=["greedy", "fraction", "maximin"],
    )
    def test_matches_a_dense_solve_within_rtol(self, law, cells, policy, rtol):
        model = ev.build_mdp(AWGN1, law, cells)
        A, b = dense_policy_system(model, grid_actions(model, policy))
        want = np.linalg.solve(A, b)
        rng = np.random.default_rng(cells)
        for guess in (np.zeros(model.states), rng.random(model.states)):
            got = ev._solve(lambda x: A @ x, b, guess, rtol)
            assert np.linalg.norm(b - A @ got) <= rtol * np.linalg.norm(b)
            bound = np.linalg.cond(A) * rtol * np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=0.0, atol=bound)

    @pytest.mark.parametrize("law, cells", SOLVE_MODELS)
    def test_policy_bias_solves_the_dense_system(self, law, cells):
        # the matvec is one expectation, so the residual against the dense
        # matrix also carries the expectation's rounding
        model = ev.build_mdp(AWGN1, law, cells)
        actions = grid_actions(model, pol.MaximinAwgnPolicy(1.0, 0.2))
        A, b = dense_policy_system(model, actions)
        expected_next = ev._expectation(model.mass)
        x = ev._policy_bias(
            expected_next, model.action_rewards, actions, np.zeros(model.states), 1e-13
        )
        assert np.linalg.norm(b - A @ x) <= 1e-13 * np.linalg.norm(b) + 1e-14 * cells

    def test_zero_rhs_gives_zero(self):
        A = np.array([[2.0, 1.0], [0.0, 3.0]])
        got = ev._solve(lambda x: A @ x, np.zeros(2), np.array([5.0, -1.0]), 1e-13)
        np.testing.assert_array_equal(got, np.zeros(2))

    @pytest.mark.parametrize("after", [0, 1, 5])
    def test_non_finite_operator_gives_back_the_guess(self, after):
        A = np.diag(np.arange(1.0, 41.0)) + np.tril(np.ones((40, 40)), -1)
        calls = []

        def operator(x):
            calls.append(1)
            return A @ x if len(calls) <= after else np.full_like(x, np.nan)

        guess = np.ones(40)
        got = ev._solve(operator, np.arange(40.0), guess, 1e-13)
        assert got is guess
        np.testing.assert_array_equal(guess, np.ones(40))

    def test_value_iteration_imports_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c", VI_SCIPY_MODULES], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


# the value-iteration benchmark's five arrival laws, on its 1000-cell grid
BENCH_LAWS = {
    "uniform-c2-nmcr0.1": arr.from_nmcr("uniform", 2.0, 0.1),
    "uniform-c2-nmcr0.5": arr.from_nmcr("uniform", 2.0, 0.5),
    "uniform-c8-nmcr0.1": arr.from_nmcr("uniform", 8.0, 0.1),
    "uniform-c8-nmcr0.5": arr.from_nmcr("uniform", 8.0, 0.5),
    "exponential-c1-nmcr0.5": arr.from_nmcr("exponential", 1.0, 0.5),
}
PI_MODELS = [
    pytest.param(AWGN1, law, 1000, id=name) for name, law in BENCH_LAWS.items()
] + [
    pytest.param(AWGN1, arr.BernoulliArrivals(2.0, 0.1), 500, id="bernoulli-c2-p0.1"),
    pytest.param(AWGN1, arr.BernoulliArrivals(1.0, 0.5), 200, id="bernoulli-c1-p0.5"),
    pytest.param(SQRT, arr.from_nmcr("exponential", 4.0, 0.2), 600, id="exponential-sqrt"),
    pytest.param(CONVEX, arr.from_nmcr("uniform", 2.0, 0.3), 150, id="convex-scan"),
    pytest.param(AWGN1, arr.from_nmcr("uniform", 2.0, 0.1), 127, id="direct-127"),
    pytest.param(AWGN1, arr.from_nmcr("exponential", 1.0, 0.5), 40, id="direct-40"),
    pytest.param(SQRT, arr.BernoulliArrivals(1.0, 0.3), 9, id="direct-9"),
]


def maximin_for(reward, mcr):
    """The maximin policy for a reward; the convex reward, which the maximin
    construction does not cover, gets a fixed fraction instead."""
    if reward is CONVEX:
        return pol.FixedFractionPolicy(0.7)
    return pol.maximin_policy(reward, mcr)


def _agree(a: ev.EvaluationResult, b: ev.EvaluationResult) -> bool:
    """Whether two span-criterion results can bound the same gain: each lies
    within its span/2 of it, up to the rounding of value = (hi + lo)/2."""
    slack = 4.0 * np.spacing(max(abs(a.value), abs(b.value)))
    return abs(a.value - b.value) <= 0.5 * (a.residual + b.residual) + slack


class _Phases:
    """Logs optimal_gain's work as it happens: each action choice ("sweep"),
    each concavity check (True or False), each Krylov solve ("solve") and
    the switch to Howard ("switch").  The plain sweeps come before the
    switch, each Howard step is one solve and one action choice, and the
    certificate sweeps follow the last solve, the tight one."""

    def __init__(self, monkeypatch):
        self.log = []
        pays, solve, best, is_concave = ev._howard_pays, ev._solve, ev._best_actions, ev._is_concave

        def logged_pays(spans, eps):
            if pays(spans, eps):
                self.log.append("switch")
                return True
            return False

        def logged_solve(*args):
            self.log.append("solve")
            return solve(*args)

        def logged_best(*args):
            self.log.append("sweep")
            return best(*args)

        def logged_concave(seq):
            self.log.append(is_concave(seq))
            return self.log[-1]

        monkeypatch.setattr(ev, "_howard_pays", logged_pays)
        monkeypatch.setattr(ev, "_solve", logged_solve)
        monkeypatch.setattr(ev, "_best_actions", logged_best)
        monkeypatch.setattr(ev, "_is_concave", logged_concave)

    def _split(self):
        """The log before the switch, up to the last solve, and after it."""
        log = self.log
        if "switch" not in log:
            return log, [], []
        switch = log.index("switch")
        last = len(log) - log[::-1].index("solve")
        return log[:switch], log[switch:last], log[last:]

    def counts(self):
        """(plain sweeps, Howard steps, certificate sweeps)."""
        return tuple(part.count("sweep") for part in self._split())

    def concave(self):
        """The concavity checks of each phase, in order."""
        return tuple([e for e in part if isinstance(e, bool)] for part in self._split())


class TestPolicyIteration:
    @pytest.mark.parametrize("reward, law, cells", PI_MODELS)
    def test_optimal_gain_agrees_with_plain_value_iteration(
        self, reward, law, cells, monkeypatch
    ):
        model = ev.build_mdp(reward, law, cells)
        pi, _ = ev.optimal_gain(model)
        with monkeypatch.context() as patched:
            patched.setattr(ev, "_solve", _guess)
            vi, _ = ev.optimal_gain(model)
        assert pi.residual <= 1e-9 and vi.residual <= 1e-9
        assert _agree(pi, vi), (pi, vi)
        assert pi.tolerance == 0.5 * pi.residual + 0.5 * model.slope_bound * model.cell

    @pytest.mark.parametrize("reward, law, cells", PI_MODELS)
    def test_policy_gain_agrees_with_plain_value_iteration(
        self, reward, law, cells, monkeypatch
    ):
        model = ev.build_mdp(reward, law, cells)
        for policy in (
            maximin_for(reward, law.mcr()),
            pol.FixedFractionPolicy(0.3),
            pol.GreedyPolicy(),
        ):
            pi = ev.policy_gain(model, policy)
            with monkeypatch.context() as patched:
                patched.setattr(ev, "_solve", _guess)
                vi = ev.policy_gain(model, policy)
            assert _agree(pi, vi), (policy, pi, vi)
            assert pi.tolerance == 0.5 * pi.residual + model.slope_bound * model.cell

    # plain sweeps to eps on the three fast-mixing laws, which never switch
    FAST_SWEEPS = {"uniform-c2-nmcr0.5": 14, "uniform-c8-nmcr0.5": 17, "exponential-c1-nmcr0.5": 10}

    @pytest.mark.parametrize("law", BENCH_LAWS.values(), ids=BENCH_LAWS.keys())
    def test_few_howard_steps_and_certificate_sweeps(self, law, monkeypatch, request):
        model = ev.build_mdp(AWGN1, law, 1000)
        phases = _Phases(monkeypatch)
        ev.optimal_gain(model)
        plain, howard, certificate = phases.counts()
        name = request.node.callspec.id
        if name in self.FAST_SWEEPS:
            assert (plain, howard, certificate) == (self.FAST_SWEEPS[name], 0, 0)
        else:
            assert 3 <= plain <= 10
            assert 1 <= howard <= 12
            assert 1 <= certificate <= 2

    def test_howard_steps_count_against_the_sweep_cap(self, monkeypatch):
        # one Howard step from the switch is far from optimal, so the one
        # sweep left finds a span above eps
        model = ev.build_mdp(AWGN1, BENCH_LAWS["uniform-c2-nmcr0.1"], 1000)
        with monkeypatch.context() as patched:
            phases = _Phases(patched)
            ev.optimal_gain(model)
        plain = phases.counts()[0]
        phases = _Phases(monkeypatch)
        with pytest.raises(ev.NonConvergenceError) as info:
            ev.optimal_gain(model, max_iter=plain + 2)
        assert info.value.iterations == plain + 2 and info.value.span > 1e-9
        assert phases.counts() == (plain, 1, 1)

    # expectations a benchmark round takes: 406 when set; 433 before the
    # solves after a Howard step and from a zero guess took their first
    # residual without a matvec; 732 with Howard from the first sweep and a
    # BiCGSTAB solve
    ROUND_EXPECTATIONS = 410
    # candidate sums the maximizations of a benchmark round evaluate: 27 027
    # when set, in the six bracketed Howard improvements (n * the widest
    # window each); the six exact scans took 3 006 003 (n(n+1)/2 each)
    ROUND_SUMS = 40_000

    @staticmethod
    def _benchmark_round():
        """One vi_uniform round: optimal_gain and the sweep's three
        policies on each of the five laws."""
        for law in BENCH_LAWS.values():
            model = ev.build_mdp(AWGN1, law, 1000)
            ev.optimal_gain(model)
            for kind in POLICY_KINDS:
                ev.policy_gain(model, make_policy(kind, AWGN1, law.mcr()))

    def test_a_benchmark_round_stays_under_its_expectation_count(self, monkeypatch):
        # a count, so it does not depend on timing
        calls = []
        expectation = ev._expectation

        def counted(mass):
            expected_next = expectation(mass)

            def step(v):
                calls.append(1)
                return expected_next(v)

            return step

        monkeypatch.setattr(ev, "_expectation", counted)
        self._benchmark_round()
        assert len(calls) <= self.ROUND_EXPECTATIONS

    def test_a_benchmark_round_stays_under_its_candidate_sum_count(self, monkeypatch):
        sums = []
        window_argmax, scanned = ev._window_argmax, ev._scanned

        def windows(rewards, w, lo, hi):
            sums.append(len(w) * (int((hi - lo).max()) + 1))
            return window_argmax(rewards, w, lo, hi)

        def scan(rewards, w):
            sums.append(len(w) * (len(w) + 1) // 2)
            return scanned(rewards, w)

        monkeypatch.setattr(ev, "_window_argmax", windows)
        monkeypatch.setattr(ev, "_scanned", scan)
        self._benchmark_round()
        assert len(sums) == 6 and sum(sums) <= self.ROUND_SUMS

    def test_a_model_builds_its_expectation_once(self, monkeypatch):
        built = []
        expectation = ev._expectation
        monkeypatch.setattr(ev, "_expectation", lambda mass: built.append(1) or expectation(mass))
        model = ev.build_mdp(AWGN1, BENCH_LAWS["uniform-c2-nmcr0.5"], 300)
        ev.optimal_gain(model)
        for kind in POLICY_KINDS:
            ev.policy_gain(model, make_policy(kind, AWGN1, 0.25))
        assert len(built) == 1

    def test_a_used_model_pickles_and_gives_the_same_bits(self):
        model = ev.build_mdp(AWGN1, BENCH_LAWS["uniform-c2-nmcr0.5"], 300)
        best, actions = ev.optimal_gain(model)
        copy = pickle.loads(pickle.dumps(model))
        again, again_actions = ev.optimal_gain(copy)
        assert (again.value, again.residual) == (best.value, best.residual)
        np.testing.assert_array_equal(again_actions, actions)
        np.testing.assert_array_equal(copy.mass, model.mass)

    def test_slow_mixing_cell_converges(self):
        # uniform c=16, mcr=0.02 mixes slowly: plain value iteration takes seconds
        model = ev.build_mdp(AWGN1, arr.from_mcr("uniform", 16.0, 0.02), 2000)
        res, _ = ev.optimal_gain(model)
        assert res.method == "value_iteration"
        assert res.residual <= 1e-9
        assert res.tolerance >= 0.5 * res.residual + 0.5 * model.slope_bound * model.cell


def per_slot_simulate(policy, arrivals, reward, n, paths, seed):
    """simulate's result from the plain per-slot loop: all n x paths draws at
    once, then the public evaluate and value on every slot.  On 0-or-c
    arrivals every level is a rung of the ladder from c or 0, so a policy
    that steps down its ladder consumes what that ladder does there."""
    draws = np.empty((n, paths))
    for idx, seed_seq in enumerate(np.random.SeedSequence(seed).spawn(paths)):
        draws[:, idx] = arrivals.sample(np.random.default_rng(seed_seq), n)
    evaluate = policy.evaluate
    if steps_down(policy) and isinstance(arrivals, arr.BernoulliArrivals):
        ladder, spent = pol._Ladder(policy, arrivals.c), {0.0: 0.0}
        while ladder.level > 0.0:
            level = ladder.level
            spent[level] = ladder.step()
        evaluate = np.vectorize(spent.__getitem__, otypes=[float])
    stored = np.zeros(paths)
    totals = np.zeros(paths)
    for t in range(n):
        lvl = np.minimum(stored + draws[t], arrivals.c)
        u = np.minimum(evaluate(lvl), lvl)
        totals += reward.value(u)
        stored = lvl - u
    means = totals / n
    return float(np.mean(means)), float(np.std(means, ddof=1) / np.sqrt(paths))


SIM_LAWS = {
    "bernoulli": arr.BernoulliArrivals(2.0, 0.3),
    # at 1e-3 some paths stay uncharged for a whole block, and the fixed
    # fraction's ladder reaches its subnormal fixed point after ~2 100 rungs
    "bernoulli_rare": arr.BernoulliArrivals(2.0, 1e-3),
    "bernoulli_dense": arr.BernoulliArrivals(2.0, 0.99),
    "uniform": arr.from_mcr("uniform", 2.0, 0.5),
    # slow mixing: the fixed fraction's and the maximin's chunks do not all
    # meet within _CHUNK slots, so the slot loop takes over
    "uniform_slow": arr.from_mcr("uniform", 8.0, 0.1),
    "exponential": arr.from_nmcr("exponential", 1.0, 0.5),
}
SIM_POLICIES = {
    "greedy": (pol.GreedyPolicy(), AWGN1),
    "fixed_fraction": (pol.FixedFractionPolicy(0.3), SQRT),
    "maximin_awgn": (pol.MaximinAwgnPolicy(1.0, 0.4), AWGN1),
    "maximin_sqrt": (pol.MaximinPolicy(SQRT, 0.4), SQRT),
    "maximin_sqrt_table": (pol.MaximinSqrtPolicy(0.4), SQRT),
    "maximin_log1p": (pol.MaximinPolicy(LOG1P, 0.4), LOG1P),
}


class TestSimulate:
    @pytest.mark.parametrize("law", sorted(SIM_LAWS))
    @pytest.mark.parametrize("kind", sorted(SIM_POLICIES))
    @pytest.mark.parametrize("paths", [2, 64])
    def test_matches_the_per_slot_loop_bit_for_bit(self, law, kind, paths, monkeypatch):
        # the inverting policies are slow per slot, so their blocks are
        # shortened; the block boundaries are then crossed as often as at full
        # length, and on 0-or-c arrivals so are the slot counts since a charge
        if kind in ("maximin_sqrt", "maximin_log1p"):
            monkeypatch.setattr(ev, "_SLOT_BLOCK", 8)
        block, chunk = ev._SLOT_BLOCK, ev._CHUNK
        policy, reward = SIM_POLICIES[kind]
        # chunk boundaries, and a short last chunk in a short last block
        chunks = (chunk - 1, chunk, chunk + 1, 2 * block + chunk + 5)
        for n in (1, block - 1, block, block + 1, 3 * block + 7) + chunks:
            res = ev.simulate(policy, SIM_LAWS[law], reward, n, paths, seed=n)
            want = per_slot_simulate(policy, SIM_LAWS[law], reward, n, paths, seed=n)
            assert (res.value, res.stderr) == want, n

    @pytest.mark.parametrize("kind", ["greedy", "fixed_fraction"])
    @pytest.mark.parametrize("paths", [3, 1024])
    def test_renewal_blocks_of_mc_wides_shape(self, kind, paths):
        # 1 024 paths make a full block square, where an axis swapped in a
        # reshape or transpose raises nothing; the short last block and 3
        # paths, which do not divide it, leave no two axes of equal length.
        # 3 paths run the running maximum and sum as one accumulate down the
        # slots, 1 024 one slot row at a time (ev._ROW_PATHS)
        policy, reward = SIM_POLICIES[kind]
        law, n = arr.BernoulliArrivals(2.0, 0.5), 2 * ev._SLOT_BLOCK + 7
        res = ev.simulate(policy, law, reward, n, paths, seed=5)
        assert (res.value, res.stderr) == per_slot_simulate(policy, law, reward, n, paths, seed=5)

    @pytest.mark.parametrize("paths", [7, 10])
    def test_renewal_slices_and_groups_match_the_per_slot_loop(self, paths, monkeypatch):
        # 24-element scratch buffers in 8-slot blocks: paths draw in groups
        # of 3, which 7 and 10 paths leave one over, and are scored in slices
        # of 3 or 2 slot rows; 29 slots end in a short block of 5.  The fixed
        # fraction's ladder is long, so its table grows all through the call
        monkeypatch.setattr(ev, "_GATHER", 24)
        monkeypatch.setattr(ev, "_SLOT_BLOCK", 8)
        grew, walk = [], ev._walked

        def spy(ladder, reward, table, rung):
            table_after = walk(ladder, reward, table, rung)
            grew.append(table_after.size > table.size)
            return table_after

        monkeypatch.setattr(ev, "_walked", spy)
        policy, reward = SIM_POLICIES["fixed_fraction"]
        law, n, seed, rows = arr.BernoulliArrivals(2.0, 0.2), 29, 2, 24 // paths
        res = ev.simulate(policy, law, reward, n, paths, seed)
        assert (res.value, res.stderr) == per_slot_simulate(policy, law, reward, n, paths, seed)
        # a path's run before its first charge crosses the first slice boundary
        draws = [law.sample(rng, n) for rng in spawned(seed, paths)]
        assert any(not d[: rows + 1].any() for d in draws)
        # the table grows at a slice that starts inside a block after the
        # first; _walked runs once a slice
        blocks = [(start, min(8, n - start)) for start in range(0, n, 8)]
        slices = [(start, lo) for start, cols in blocks for lo in range(0, cols, rows)]
        assert len(grew) == len(slices)
        assert any(g for (start, lo), g in zip(slices, grew) if start and lo)

    @pytest.mark.parametrize("paths", [256, 1024])
    def test_the_renewal_path_holds_one_bool_block(self, paths):
        # the charges, one bool a draw, and scratch buffers of _GATHER
        # elements: a group of paths' uniforms, and a slice's counts, gains
        # and np.take's intp index copy, ~3.7 times 8 * _GATHER bytes in all.
        # A whole block of float uniforms with one of int32 counts, 13 and 49
        # times 8 * _GATHER bytes over the charges at 256 and 1 024 paths, fails
        policy, reward = SIM_POLICIES["greedy"]
        law, streams = arr.BernoulliArrivals(2.0, 0.5), ev._streams(0, paths)
        ev._renewal_totals(policy, law, reward, ev._SLOT_BLOCK, streams)  # first-call allocations
        tracemalloc.start()
        try:
            ev._renewal_totals(policy, law, reward, 3 * ev._SLOT_BLOCK, streams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= paths * ev._SLOT_BLOCK + 5 * 8 * ev._GATHER, peak

    @pytest.mark.parametrize(
        "paths,blocks", [(2, [True] * 7 + [False]), (64, [False])], ids=["mid-call", "first-block"]
    )
    def test_the_slot_loop_takes_over_where_a_chunk_does_not_meet(self, paths, blocks, monkeypatch):
        # with 3-slot chunks the fixed fraction's copies often do not meet
        # in time: with 2 paths first in the eighth block, with 64 in the first
        monkeypatch.setattr(ev, "_CHUNK", 3)
        monkeypatch.setattr(ev, "_SLOT_BLOCK", 8)
        met = _spliced_flags(monkeypatch)
        policy, reward, law, n = pol.FixedFractionPolicy(0.3), SQRT, SIM_LAWS["uniform"], 85
        res = ev.simulate(policy, law, reward, n, paths, seed=0)
        assert (res.value, res.stderr) == per_slot_simulate(policy, law, reward, n, paths, seed=0)
        # whether each block's chunks met; none run after the first that did not
        assert met == blocks

    def test_verifys_splice_check_runs_the_splice(self, monkeypatch):
        # verify runs one block through the chunks and through the slot loop;
        # its NaN check that follows reaches the chunks too, which never meet
        met = _spliced_flags(monkeypatch)
        assert all(row.passed for row in evaluation_checks(0))
        assert met[0] is True

    @pytest.mark.parametrize("broken", ["chunk 0 from c", "carried level off"])
    def test_verifys_splice_check_fails_on_a_broken_splice(self, broken, monkeypatch):
        spliced = ev._spliced_block

        def spoilt(policy, draws, spent, full, level, c, cols):
            if broken == "chunk 0 from c":
                return spliced(policy, draws, spent, full, np.full_like(level, c), c, cols)
            end, met = spliced(policy, draws, spent, full, level, c, cols)
            return np.nextafter(end, math.inf), met

        monkeypatch.setattr(ev, "_spliced_block", spoilt)
        rows = {row.name: row.passed for row in evaluation_checks(0)}
        assert rows.pop("chunked splice matches the slot loop bit for bit") is False
        assert all(rows.values())

    @pytest.mark.parametrize("kind", ["greedy", "fixed_fraction", "maximin_awgn"])
    @pytest.mark.parametrize("law", ["uniform", "uniform_slow"])
    def test_blocks_shorter_than_a_chunk(self, kind, law, monkeypatch):
        monkeypatch.setattr(ev, "_SLOT_BLOCK", 8)
        policy, reward = SIM_POLICIES[kind]
        for n in (7, 8, 9, 100):
            res = ev.simulate(policy, SIM_LAWS[law], reward, n, 16, seed=n)
            want = per_slot_simulate(policy, SIM_LAWS[law], reward, n, 16, seed=n)
            assert (res.value, res.stderr) == want, n

    @pytest.mark.parametrize("law", ["uniform", "exponential", "uniform_slow"])
    def test_a_plain_policy_runs_the_chunks(self, law, monkeypatch):
        # a StationaryPolicy with only _evaluate, of no built-in class; on the
        # slow-mixing law its chunks do not all meet and the slot loop takes over
        met = _spliced_flags(monkeypatch)
        policy, n = _Fraction(0.3), 2 * ev._SLOT_BLOCK + 9
        res = ev.simulate(policy, SIM_LAWS[law], SQRT, n, 8, seed=3)
        assert (res.value, res.stderr) == per_slot_simulate(policy, SIM_LAWS[law], SQRT, n, 8, 3)
        assert met == ([False] if law == "uniform_slow" else [True] * 3)

    @pytest.mark.parametrize("reward", [AWGN1, SQRT, LOG1P], ids=["awgn", "sqrt", "log1p"])
    def test_every_policy_runs_the_chunks(self, reward, monkeypatch):
        # every class the factories return, and policies of no built-in
        # class or subclasses of one: simulate lists no classes
        met = _spliced_flags(monkeypatch)
        made = [make_policy(kind, reward, 0.5) for kind in POLICY_KINDS]
        custom = [_Fraction(0.5), _HalfFraction(0.3), _Idle()]
        for policy in [pol.maximin_policy(reward, 0.5)] + made + custom:
            met.clear()
            ev.simulate(policy, SIM_LAWS["uniform"], reward, 300, 8, seed=4)
            assert met == [True], type(policy).__name__

    @pytest.mark.parametrize("kind", ["greedy", "fixed_fraction", "maximin_awgn"])
    def test_the_chunks_run_on_mc_longs_law(self, kind):
        # the slot loop calls _evaluate once a slot, the chunks far fewer times
        policy, reward = SIM_POLICIES[kind]
        calls = []
        kernel = policy._evaluate
        policy._evaluate = lambda arr: calls.append(arr.size) or kernel(arr)
        try:
            n = 20 * ev._SLOT_BLOCK
            ev.simulate(policy, arr.from_mcr("uniform", 2.0, 0.5), reward, n, 64, seed=1)
        finally:
            del policy._evaluate
        assert 0 < len(calls) <= n / 4, len(calls)

    def test_the_renewal_ladder_ends_at_its_fixed_point(self):
        # 0.3 L rounds to 0 once L is the least subnormal, which then stays
        ladder = pol._Ladder(pol.FixedFractionPolicy(0.3), 2.0)
        gains = ev._walked(ladder, SQRT, np.empty(0), 10**4)
        assert ladder.fixed and ladder.level == 5e-324
        assert 2000 < gains.size < 2200
        assert gains[-1] == SQRT.value(0.0)

    @pytest.mark.parametrize("bad", [-0.25, math.nan])
    @pytest.mark.parametrize("block", [0, 1])
    def test_invalid_consumption_is_rejected(self, bad, block):
        # `bad` starts with the first call of the given block, after as many
        # calls as a run of the blocks before it makes
        dist = arr.from_mcr("uniform", 2.0, 0.5)
        counted = _AfterCalls(10**9, bad)
        if block:
            ev.simulate(counted, dist, AWGN1, block * ev._SLOT_BLOCK, 4, seed=0)
        calls = 10**9 - counted.calls
        with pytest.raises(ValueError, match="u must be finite and nonnegative"):
            ev.simulate(_AfterCalls(calls, bad), dist, AWGN1, 2 * ev._SLOT_BLOCK, 4, seed=0)

    @pytest.mark.parametrize("bad", [-0.25, math.nan])
    @pytest.mark.parametrize("law", ["bernoulli", "uniform"])
    def test_invalid_stationary_consumption_is_rejected(self, bad, law):
        # from c = 2 the ladder halves to 1, 0.5 and 0.25, where `bad` starts;
        # on 0-or-c arrivals that rung comes from the renewal path's table
        with pytest.raises(ValueError, match="u must be finite and nonnegative"):
            ev.simulate(_BadBelow(0.3, bad), SIM_LAWS[law], AWGN1, 2 * ev._SLOT_BLOCK, 4, seed=0)

    @pytest.mark.parametrize(
        "law,kind",
        [
            ("bernoulli", "greedy"),  # the renewal path
            ("uniform", "greedy"),  # the chunks
            ("uniform", "maximin_awgn"),
            ("uniform", "custom"),  # the chunks, for a policy of no built-in class
        ],
    )
    def test_memory_does_not_grow_with_slots(self, law, kind):
        dist = SIM_LAWS[law]
        policy, reward = SIM_POLICIES[kind] if kind != "custom" else (_Fraction(0.3), AWGN1)

        def peak(n):
            tracemalloc.start()
            try:
                ev.simulate(policy, dist, reward, n, 16, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(ev._SLOT_BLOCK)  # first-call allocations
        short, long = peak(2 * ev._SLOT_BLOCK), peak(20 * ev._SLOT_BLOCK)
        assert long <= 1.1 * short, (short, long)

    def test_agrees_with_series(self):
        omega = pol.MaximinAwgnPolicy(1.0, 0.5)
        series = ev.bernoulli_reward(omega, AWGN1, 2.0, 0.5)
        mc = ev.simulate(omega, arr.BernoulliArrivals(2.0, 0.5), AWGN1, 20_000, 32, seed=0)
        assert mc.stderr > 0.0
        assert abs(mc.value - series.value) <= 4.0 * mc.stderr

    def test_workers_argument_removed(self):
        dist = arr.LimitedUniformArrivals(1.0, 1.4)
        with pytest.raises(TypeError):
            ev.simulate(pol.FixedFractionPolicy(0.4), dist, AWGN1, 2_000, 8, seed=5, workers=2)

    def test_seed_controls_stream(self):
        dist = arr.LimitedExponentialArrivals(1.0, 1.0)
        a = ev.simulate(pol.GreedyPolicy(), dist, AWGN1, 1_000, 4, seed=1)
        b = ev.simulate(pol.GreedyPolicy(), dist, AWGN1, 1_000, 4, seed=1)
        c = ev.simulate(pol.GreedyPolicy(), dist, AWGN1, 1_000, 4, seed=2)
        assert a.value == b.value
        assert a.value != c.value

    def test_tolerance_is_three_stderr(self):
        res = ev.simulate(
            pol.GreedyPolicy(), arr.BernoulliArrivals(1.0, 0.5), AWGN1, 1_000, 4, seed=0
        )
        assert res.tolerance == pytest.approx(3.0 * res.stderr, abs=1e-18)
        assert res.method == "monte_carlo"

    @pytest.mark.parametrize("power", [-1000, 1000])
    def test_stderr_scales_with_the_means_by_a_power_of_two(self, power):
        # the squared deviations of means near 2**-1000 underflow, and those
        # of means near 2**1000 overflow, unless the means are scaled first
        totals = 500.0 * (1.0 + 0.01 * np.random.default_rng(0).standard_normal(16))
        want = ev._estimate(totals, 500).stderr * 2.0**power
        assert ev._estimate(totals * 2.0**power, 500).stderr == want

    @pytest.mark.parametrize(
        "law",
        [arr.from_mcr("uniform", 1e-300, 0.5), arr.BernoulliArrivals(1e-300, 0.5)],
        ids=["uniform", "bernoulli"],
    )
    def test_a_tiny_capacity_keeps_its_stderr(self, law):
        # rewards ~1e-300, whose squared deviations underflow to 0
        res = ev.simulate(pol.GreedyPolicy(), law, AWGN1, 500, 8, seed=1)
        assert res.stderr > 0.0
        assert res.tolerance == 3.0 * res.stderr

    def test_needs_two_paths(self):
        with pytest.raises(ValueError):
            ev.simulate(pol.GreedyPolicy(), arr.BernoulliArrivals(1.0, 0.5), AWGN1, 100, 1, 0)

    @pytest.mark.parametrize("seed", [2**32, 2**64 + 5, 2**128 + 3])
    @pytest.mark.parametrize(
        "law, paths, n",
        [("bernoulli", 3, 50), ("bernoulli", 1025, 12), ("uniform", 3, 2 * ev._CHUNK + 5)],
        ids=["renewal-3", "renewal-1025", "chunked-3"],
    )
    @pytest.mark.parametrize("kind", ["greedy", "maximin_awgn"])
    def test_seeds_of_several_words_match_the_per_slot_loop(self, seed, law, paths, n, kind):
        # a seed from 2**32 up has two or more entropy words, and one from
        # 2**128 up more than the pool, which takes the extra mixing rounds
        policy, reward = SIM_POLICIES[kind]
        res = ev.simulate(policy, SIM_LAWS[law], reward, n, paths, seed)
        want = per_slot_simulate(policy, SIM_LAWS[law], reward, n, paths, seed)
        assert (res.value.hex(), res.stderr.hex()) == tuple(x.hex() for x in want)


def spawned(seed, paths):
    """numpy's own generators for the children of SeedSequence(seed)."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(paths)]


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3, 2**200 + 7])
    @pytest.mark.parametrize("paths", [2, 3, 64, 1024, 1025])
    def test_states_equal_numpys_spawned_children(self, seed, paths):
        got = [rng.bit_generator.state for rng in ev._streams(seed, paths)]
        assert got == [rng.bit_generator.state for rng in spawned(seed, paths)]

    @pytest.mark.parametrize("seed", [2.5, True, np.int64(7), np.uint64(2**63), "11"])
    def test_seeds_pass_through_int(self, seed):
        got = [rng.bit_generator.state for rng in ev._streams(seed, 3)]
        assert got == [rng.bit_generator.state for rng in spawned(int(seed), 3)]

    @pytest.mark.parametrize("seed", [-1, -(2**40), -1.5])
    def test_negative_seeds_raise_numpys_error(self, seed):
        dist = arr.BernoulliArrivals(1.0, 0.5)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            ev.simulate(pol.GreedyPolicy(), dist, AWGN1, 10, 2, seed)

    @pytest.mark.parametrize("seed", [None, "x", math.nan, math.inf, 1j])
    def test_seeds_that_int_refuses_raise_its_error(self, seed):
        with pytest.raises(Exception) as want:
            int(seed)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            ev._streams(seed, 3)

    @pytest.mark.parametrize(
        "name", ["_INIT_A", "_MULT_A", "_INIT_B", "_MULT_B", "_MIX_MULT_L", "_MIX_MULT_R"]
    )
    def test_a_mutated_hash_constant_trips_the_spot_check(self, name, monkeypatch):
        # a hash that no longer matches numpy's falls back to numpy's spawn
        monkeypatch.setattr(ev, name, getattr(ev, name) ^ 0x80)
        for paths in (3, 64):
            got = [rng.bit_generator.state for rng in ev._streams(7, paths)]
            assert got == [rng.bit_generator.state for rng in spawned(7, paths)]

    def test_import_leaves_numpy_random_out(self):
        code = "import sys, ehpolicy; print('numpy.random' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_the_per_slot_reference_spawns_with_numpy(self, monkeypatch):
        # the reference draws from numpy's own spawn, so it checks _streams
        def refuse(seed, paths):
            raise AssertionError("the reference must not use _streams")

        monkeypatch.setattr(ev, "_streams", refuse)
        policy, reward = SIM_POLICIES["greedy"]
        per_slot_simulate(policy, SIM_LAWS["uniform"], reward, 5, 3, 2**128 + 3)
        with pytest.raises(AssertionError, match="_streams"):
            ev.simulate(policy, SIM_LAWS["uniform"], reward, 5, 3, 2**128 + 3)


class TestEvaluationResult:
    def test_as_dict_drops_missing_fields(self):
        res = ev.EvaluationResult(value=1.0, method="x")
        assert res.as_dict() == {"value": 1.0, "method": "x"}

    def test_as_dict_keeps_present_fields(self):
        res = ev.EvaluationResult(value=1.0, method="x", stderr=0.1, tolerance=0.3)
        assert res.as_dict() == {"value": 1.0, "method": "x", "stderr": 0.1, "tolerance": 0.3}
