"""Unit tests for the stationary control policies."""

import itertools
import math
import re
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest
from mpmath_oracle import Maximin, maximin_series_closed

from ehpolicy import arrivals as arr
from ehpolicy import evaluation as ev
from ehpolicy import policies as pol
from ehpolicy import rewards as rw
from ehpolicy.checks import _sample_rewards

EPS = np.finfo(float).eps

AWGN1 = rw.RewardFunction.awgn(1.0)
SQRT = rw.RewardFunction.sqrt_rate()
# the awgn:1 closed forms as a custom reward, so its maximin policy inverts
LOG1P = next(r for r in _sample_rewards() if r.kind == "custom")
# r'(u) = exp(1 - sqrt(1 + u)): its ladder steps down from x to
# (sqrt(1 + x) - log s)**2 - 1, which is not affine, so ladder_sum is not
# linear between the kinks
CURVED = rw.RewardFunction.custom(
    value=lambda u: 4.0 - 2.0 * (np.sqrt(1.0 + u) + 1.0) * np.exp(1.0 - np.sqrt(1.0 + u)),
    marginal=lambda u: np.exp(1.0 - np.sqrt(1.0 + u)),
    marginal_inverse=lambda y: (1.0 - np.log(y)) ** 2 - 1.0,
)


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


class TestScalarKernel:
    """_rung, the reserve ladder's one scalar kernel, returns the bits
    _evaluate returns for its level."""

    TINY = np.finfo(float).smallest_normal
    LEVELS = np.concatenate(
        [
            [0.0, 5e-324, 1e-310, np.nextafter(TINY, 0.0), TINY, 1e300, np.finfo(float).max],
            np.random.default_rng(13).uniform(0.0, 10.0, 200),
            10.0 ** np.random.default_rng(14).uniform(-320.0, 300.0, 200),
        ]
    )
    P_VALUES = (1e-6, 1e-3, 0.01, 0.1, 0.5, 0.9)

    def _levels(self, reward, p, top, count=40):
        """Levels at 0, subnormals, both neighbours of the first kink, the
        kinks x_2..x_8 and random levels in [0, top]."""
        walk = pol.KinkWalk(reward, p)
        while len(walk.x) <= 8:
            walk.cover(walk.x[-1])
        first = walk.x[1]
        levels = [0.0, 5e-324, 1e-310, self.TINY, np.nextafter(first, 0.0), first]
        levels += [np.nextafter(first, np.inf)] + walk.x[2:9]
        return levels + list(np.random.default_rng(15).uniform(0.0, top, count))

    @pytest.mark.parametrize(
        "policy",
        [pol.GreedyPolicy()]
        + [pol.FixedFractionPolicy(f) for f in (0.01, 0.3, 1.0 / 3.0, 0.5, 0.9, 0.7261839415)]
        + [pol.MaximinAwgnPolicy(1.0, p) for p in P_VALUES]
        + [pol.MaximinSqrtPolicy(p) for p in (1e-6, 0.5)]
        + [pol.MaximinPolicy(SQRT, p) for p in (1e-3, 0.5)],
        ids=lambda policy: f"{policy.kind}-{policy.p}",
    )
    def test_the_first_rung_keeps_the_bits_of_evaluate(self, policy):
        # the maximins' kink tables end in the float range, so they take
        # their own kinks' neighbours instead of the huge levels
        assert type(policy)._rung is not pol.StationaryPolicy._rung
        if isinstance(policy, pol._Maximin):
            levels = np.array(self._levels(policy.reward, policy.p, 10.0))
        else:
            levels = self.LEVELS
        got = [policy._rung(float(x)) for x in levels]
        assert all(type(u) is float for u in got)
        want = policy._evaluate(levels)
        assert [u.hex() for u in got] == [float(u).hex() for u in want]

    @pytest.mark.parametrize("p", [1e-6, 1e-3, 0.1, 0.5])
    @pytest.mark.parametrize(
        "reward", [SQRT, AWGN1, LOG1P, CURVED], ids=["sqrt", "awgn", "log1p", "curved"]
    )
    def test_maximin_array_keeps_the_bits_of_each_level(self, reward, p):
        # every level is inverted on its own, so an array, the scalar
        # evaluate and the first rung of a certified block give the same bits
        policy = pol.MaximinPolicy(reward, p)
        assert type(policy)._rung is not pol.StationaryPolicy._rung
        walk = pol.KinkWalk(reward, p)
        while len(walk.x) <= 12:
            walk.cover(walk.x[-1])
        levels = np.array(self._levels(reward, p, walk.x[12]))
        many = policy.evaluate(levels)
        assert [float(u).hex() for u in many] == [policy.evaluate(x).hex() for x in levels]
        assert [float(u).hex() for u in many] == [policy._rung(float(x)).hex() for x in levels]

    @pytest.mark.parametrize("gamma", [1.0, None], ids=["awgn:1", "sqrt"])
    def test_maximin_floats_keep_the_bits_of_evaluate_at_huge_levels(self, gamma):
        # the midpoint 0.5 lo + 0.5 hi stays finite where lo + hi would
        # overflow, and above the root a ladder past the float range gives
        # a +inf residual, which brackets like any positive one
        reward = SQRT if gamma is None else rw.RewardFunction.awgn(gamma)
        policy = pol.MaximinPolicy(reward, 0.5)
        for x in (1e300, 1.7e308, np.finfo(float).max):
            want = policy._evaluate(np.array([x]))[0]
            assert policy._rung(float(x)).hex() == float(want).hex(), x
            # the consumption, not the whole level: its ladder sums to x
            assert want < x
            assert rw.ladder_sum(reward, policy.scale, want) == pytest.approx(x, rel=2 * EPS)

    def test_a_nan_residual_stalls_the_bisection(self):
        # 1 + gamma x overflows, so the ladder is inf - inf; the stall check
        # reports the NaN rather than return the whole level
        policy = pol.MaximinPolicy(rw.RewardFunction.awgn(1e10), 0.5)
        for run in (policy.evaluate, policy._rung):
            with pytest.raises(RuntimeError, match="stalled, residual nan$"):
                run(1e300)
        assert policy.evaluate(1e290) == pytest.approx(5e289, rel=1e-12)

    def test_a_custom_maximin_subclass_is_walked_through_its_evaluate(self):
        calls = []

        class Counted(pol.MaximinPolicy):
            def _evaluate(self, arr):
                calls.append(arr.copy())
                return super()._evaluate(arr)

        policy = Counted(LOG1P, 0.1)
        level = 3.0 * policy.kinks.x[1]
        assert policy._rung(level) == pol.MaximinPolicy(LOG1P, 0.1)._rung(level)
        assert len(calls) == 1 and calls[0].shape == (1,)

    def test_a_policy_with_only_evaluate_is_walked_through_it(self):
        calls = []

        def half(arr):
            calls.append(arr.copy())
            return 0.5 * arr

        policy = _Shaped(half)
        assert policy._rung(3.0) == 1.5 and len(calls) == 1
        calls.clear()
        # awgn:1 as a custom reward, which a FixedFractionPolicy walks too
        res = ev.bernoulli_reward(policy, LOG1P, 1.0, 0.5)
        assert calls and all(arr.shape == (1,) for arr in calls)
        assert res == ev.bernoulli_reward(pol.FixedFractionPolicy(0.5), LOG1P, 1.0, 0.5)


class _Halved(pol.MaximinPolicy):
    """A maximin subclass whose _evaluate differs from the table's."""

    def __init__(self, reward, p):
        super().__init__(reward, p)
        self.calls = 0

    def _evaluate(self, arr):
        self.calls += 1
        return 0.5 * super()._evaluate(arr)


class _Spoilt(pol.MaximinPolicy):
    """The sqrt maximin at p = 0.1, consuming `bad` at levels below 1: from
    c = 4 its ladder 4, 2.37, 1.25, 0.53, 0.13, 0 meets it at the fourth rung."""

    def __init__(self, bad):
        super().__init__(SQRT, 0.1)
        self.bad = bad

    def _evaluate(self, arr):
        return np.where(arr < 1.0, self.bad, super()._evaluate(arr))


class TestKinkTable:
    """_Maximin._table, the ladders' scalar lookup in the kink table, is
    np.interp's arithmetic in Python floats, bit for bit."""

    BIG = float(np.finfo(float).max)

    @pytest.mark.parametrize("p", [0.1, 0.5])
    @pytest.mark.parametrize("name", ["awgn", "sqrt", "log1p"])
    def test_keeps_the_bits_of_np_interp(self, name, p):
        # the awgn and sqrt tables, and the table the log1p inversion starts at
        policy = pol.maximin_policy({"awgn": AWGN1, "sqrt": SQRT, "log1p": LOG1P}[name], p)
        policy._cover(1e300)
        assert policy._xs is policy.kinks.x and policy._ys is policy.kinks.y
        policy._cover(self.BIG)  # past the float range: the last segment extended
        assert policy._xs[-1] == self.BIG > policy.kinks.x[-1]
        xs, ys = policy._arrays()
        assert policy._xs == xs.tolist() and policy._ys == ys.tolist()
        inside = xs[:-1] + np.random.default_rng(3).random(xs.size - 1) * np.diff(xs)
        levels = np.concatenate(
            [[0.0, self.BIG], xs, np.nextafter(xs, 0.0), np.nextafter(xs[:-1], np.inf), inside]
        )
        for level in levels.tolist():
            got = policy._table(level)
            assert type(got) is float
            assert got.hex() == float(np.interp(level, xs, ys)).hex(), level
        assert type(policy._table(np.float64(self.BIG))) is float

    @pytest.mark.parametrize("reward", [AWGN1, SQRT], ids=["awgn", "sqrt"])
    def test_the_series_walk_reads_the_lists(self, reward):
        # the arrays are built only for np.interp and searchsorted
        policy = pol.maximin_policy(reward, 0.01)
        ev.bernoulli_reward(policy, reward, 50.0, 0.01)
        assert policy._x.size == 0
        xs, ys = policy._arrays()
        assert xs.tolist() == policy._xs and ys.tolist() == policy._ys
        assert policy._arrays()[0] is xs  # kept until the table grows


class TestLookAhead:
    """The reserve ladder of a hand-built awgn or sqrt MaximinPolicy
    certifies every rung, so each rung keeps the bits that _evaluate gives
    its level alone; a custom reward's ladder inverts its top rung and
    steps down from there by the ladder step."""

    REWARDS = {"sqrt": SQRT, "awgn": AWGN1, "log1p": LOG1P, "curved": CURVED}

    @staticmethod
    def head(reward, p, rungs):
        """A level between the kinks x_(rungs-1) and x_rungs, whose ladder
        walks that many rungs to 0."""
        walk = pol.KinkWalk(reward, p)
        while len(walk.x) <= rungs:
            walk.cover(walk.x[-1])
        return 0.5 * (walk.x[rungs - 1] + walk.x[rungs])

    @staticmethod
    def step(ladder):
        """One rung of the reserve ladder: its level and its consumption."""
        level = ladder.level
        u = ladder.step()
        assert type(u) is float
        return level, u

    def walk(self, policy, level, most=10_000):
        ladder, rungs = pol._Ladder(policy, level), []
        while ladder.level > 0.0 and len(rungs) < most:
            rungs.append(self.step(ladder))
        return rungs

    @staticmethod
    def assert_alone(policy, rungs):
        """Each rung's consumption is _evaluate's on its level alone, on a
        policy that has seen nothing else."""
        fresh = type(policy)(policy.reward, policy.p)
        for level, u in rungs:
            want = fresh._evaluate(np.array([level]))[0]
            assert u.hex() == float(want).hex(), level

    @staticmethod
    def assert_stepped(policy, rungs):
        """The first rung is _evaluate's on its level, on a policy that has
        seen nothing else, and each later rung the public step_down of the
        one before, or the whole level at or below x_1 or after a step to 0."""
        fresh = type(policy)(policy.reward, policy.p)
        x1 = fresh.kinks.x[1]
        want = float(fresh._evaluate(np.array([rungs[0][0]]))[0])
        for i, (level, u) in enumerate(rungs):
            if i:
                want = rw.step_down(policy.reward, policy.scale, rungs[i - 1][1])
            if level <= x1 or want == 0.0:
                want = level
            assert u.hex() == min(want, level).hex(), (i, level)

    @pytest.mark.parametrize("p", [1e-6, 1e-3, 0.1, 0.5])
    @pytest.mark.parametrize("name", ["sqrt", "awgn"])
    def test_whole_ladders_keep_the_bits_of_each_level(self, name, p):
        reward = self.REWARDS[name]
        policy = pol.MaximinPolicy(reward, p)
        rungs = self.walk(policy, self.head(reward, p, 40))
        assert len(rungs) == 40
        self.assert_alone(policy, rungs)

    @pytest.mark.parametrize("p", [1e-6, 1e-3, 0.1, 0.5])
    @pytest.mark.parametrize("name", ["log1p", "curved"])
    def test_custom_ladders_step_down_from_one_inversion(self, name, p, monkeypatch):
        reward = self.REWARDS[name]
        policy = pol.MaximinPolicy(reward, p)
        calls, ladder_sum = [], pol._ladder_sum

        def counted(*args):
            calls.append(args[2].size)
            return ladder_sum(*args)

        monkeypatch.setattr(pol, "_ladder_sum", counted)
        ladder = pol._Ladder(policy, self.head(reward, p, 40))
        rungs = [self.step(ladder)]
        inverted = len(calls)  # the top rung's certificate and refinement
        while ladder.level > 0.0:
            rungs.append(self.step(ladder))
        assert len(rungs) == 40 and inverted and len(calls) == inverted
        self.assert_stepped(policy, rungs)
        # the recursion's rung is the policy at the ladder's true level, within
        # inversion_tol plus the walk's level drift, 3.5 eps times the climb
        # L_1 + ... + L_i (bernoulli_reward's drift term), of the policy at
        # the walk's level, which _evaluate finds within inversion_tol
        levels = np.array([level for level, _ in rungs])
        alone = type(policy)(reward, p)._evaluate(levels)
        slack = 2 * policy.inversion_tol + 3.5 * EPS * np.cumsum(levels)
        assert np.all(np.abs(np.array([u for _, u in rungs]) - alone) <= slack)

    def test_a_step_to_zero_spends_the_level_left_whole(self):
        # the float level can drift above x_1 where the true ladder ends (log1p
        # from c = 1e18 at p = 0.1 keeps 758.9 there): the rung spends it all,
        # so the ladder still ends at exactly 0
        policy = pol.MaximinPolicy(LOG1P, 0.1)
        x1 = policy.kinks.x[1]
        assert rw.step_down(LOG1P, policy.scale, 0.5 * x1) == 0.0
        assert policy._rung(3.0 * x1, 0.5 * x1) == 3.0 * x1

    @pytest.mark.parametrize("p", [1e-6, 0.01])
    def test_ladders_started_off_another_keep_their_bits(self, p):
        policy = pol.MaximinPolicy(SQRT, p)
        rungs, ladder = [], pol._Ladder(policy, self.head(SQRT, p, 30))
        for i in range(30):
            if i in (3, 11):  # a new ladder one ulp below the next rung, then at 0.9 of it
                level = ladder.level
                level = float(np.nextafter(level, 0.0)) if i == 3 else 0.9 * level
                ladder = pol._Ladder(policy, level)
            rungs.append(self.step(ladder))
        self.assert_alone(policy, rungs)

    @pytest.mark.parametrize("p", [1e-3, 0.01])
    def test_rungs_whose_certificates_fail_are_refined(self, p, monkeypatch):
        # y_k read 1e-9 high: the table is off in segment k, so the rungs
        # there fail their certificates after rungs that pass.  The walk
        # reads the kink list and _evaluate the array: both are bumped
        policy = pol.MaximinPolicy(SQRT, p)
        c = self.head(SQRT, p, 40)
        policy.evaluate(c)
        policy._ys[30] += 1e-9
        policy._y[30] = policy._ys[30]
        refined, refine = [], policy._refine

        def refining(x, u, r):
            refined.extend(x)  # each of them failed its table certificate
            return refine(x, u, r)

        monkeypatch.setattr(policy, "_refine", refining)
        rungs = self.walk(policy, c)
        assert any(level != c for level in refined)
        for level, u in rungs:  # against the same corrupt table
            assert u.hex() == float(policy._evaluate(np.array([level]))[0]).hex(), level

    @pytest.mark.parametrize("name", ["sqrt", "curved"])
    def test_alternating_ladders_keep_their_bits(self, name):
        # the renewal path walks its ladders from c and from 0 in stretches
        # on one policy; here two ladders alternate rung by rung, and each
        # gives the rungs it gives when walked alone
        reward = self.REWARDS[name]
        policy = pol.MaximinPolicy(reward, 1e-3)
        tops = self.head(reward, 1e-3, 35), self.head(reward, 1e-3, 20)
        a, b = (pol._Ladder(policy, top) for top in tops)
        empty, rungs = pol._Ladder(policy, 0.0), {a: [], b: []}
        while a.level > 0.0 or b.level > 0.0:
            for ladder in (a, b):
                if ladder.level > 0.0:
                    rungs[ladder].append(self.step(ladder))
            assert empty.step() == 0.0 and empty.fixed
        assert [len(rungs[a]), len(rungs[b])] == [35, 20]
        for top, ladder in zip(tops, (a, b)):
            assert rungs[ladder] == self.walk(pol.MaximinPolicy(reward, 1e-3), top)
            if name == "sqrt":
                self.assert_alone(policy, rungs[ladder])

    @pytest.mark.parametrize("top", [1e300, 1.7e308, np.finfo(float).max])
    @pytest.mark.parametrize("name", ["sqrt", "awgn"])
    def test_ladders_from_past_the_float_range(self, name, top):
        policy = pol.MaximinPolicy(self.REWARDS[name], 0.5)
        rungs = self.walk(policy, top, most=60)
        self.assert_alone(policy, rungs)

    @pytest.mark.parametrize("name", ["sqrt", "log1p"])
    def test_ladders_past_the_kink_cap(self, name, monkeypatch):
        monkeypatch.setattr(pol, "_LADDER_CAP", 4)
        policy = pol.MaximinPolicy(self.REWARDS[name], 0.1)
        rungs = self.walk(policy, 40.0)
        assert len(policy.kinks.x) == 5 and rungs[1][0] > policy.kinks.x[-1]
        if name == "sqrt":
            self.assert_alone(policy, rungs)
        else:
            self.assert_stepped(policy, rungs)

    def test_a_subclass_with_its_own_evaluate_is_served_by_it(self):
        policy = _Halved(SQRT, 1e-3)
        rungs = self.walk(policy, self.head(SQRT, 1e-3, 40))
        assert policy.calls == len(rungs) > 40
        self.assert_alone(policy, rungs)
        plain = pol.MaximinPolicy(SQRT, 1e-3)
        assert rungs[0][1] == 0.5 * plain._rung(rungs[0][0])


class TestCustomSeries:
    """log1p, the awgn:1 closed forms as a custom reward, walks its series
    with one certified inversion a ladder: a handful of _ladder_sum calls
    a cell, within its tolerance of the awgn:1 oracle and within 1 s."""

    CELLS = [(p, c) for p in (1e-5, 1e-4, 1e-3, 0.01, 0.5) for c in (1.0, 8.0, 50.0)] + [
        (p, 1e3) for p in (1e-4, 1e-3, 0.01, 0.5)
    ]

    @pytest.mark.parametrize("p, c", CELLS)
    def test_against_the_oracle(self, p, c, monkeypatch):
        calls, ladder_sum = [], pol._ladder_sum

        def counted(*args):
            calls.append(args[2].size)
            return ladder_sum(*args)

        monkeypatch.setattr(pol, "_ladder_sum", counted)
        started = time.perf_counter()
        res = ev.bernoulli_reward(pol.MaximinPolicy(LOG1P, p), LOG1P, c, p)
        assert time.perf_counter() - started < 1.0
        assert len(calls) <= 4 and set(calls) <= {1}, calls
        assert abs(mpmath.mpf(res.value) - maximin_series_closed(1.0, p, c)) <= res.tolerance

    def test_ergodic_levels_fall_strictly_to_zero(self):
        levels = pol.ergodic_levels(pol.MaximinPolicy(LOG1P, 1e-4), 50.0)
        assert levels[0] == 50.0 and levels[-1] == 0.0
        assert np.all(np.diff(levels) < 0.0)


class TestLookAheadOracle:
    """A hand-built sqrt MaximinPolicy's certified rungs lie within
    inversion_tol of the 60-digit policy, but where the closed form's noise
    floor is coarser; the sqrt table's rungs lie within it everywhere."""

    @pytest.mark.parametrize(
        "p, c",
        [
            pytest.param(
                1e-6,
                0.05,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="ROADMAP item 3: at p = 1e-6 the sqrt closed form is "
                    "certified against a shifted ladder sum, 2.1e-11 off",
                ),
            ),
            (1e-4, 1.0),
            (1e-3, 8.0),
            (0.01, 8.0),
        ],
    )
    def test_sqrt_rungs_against_the_oracle(self, p, c):
        self.assert_near(pol.MaximinPolicy(SQRT, p), p, c)

    @pytest.mark.parametrize("p, c", [(1e-6, 0.05), (1e-4, 1.0), (1e-3, 8.0), (0.01, 8.0)])
    def test_sqrt_table_rungs_against_the_oracle(self, p, c):
        # the table needs no certificate: its rungs keep within the slack
        # at p = 1e-6 too
        policy = pol.maximin_policy(SQRT, p)
        assert type(policy) is pol.MaximinSqrtPolicy
        self.assert_near(policy, p, c)

    @staticmethod
    def assert_near(policy, p, c):
        """Every rung of the ladder from c within inversion_tol of the exact policy."""
        exact = Maximin(None, p, c)
        ladder = pol._Ladder(policy, c)
        while ladder.level > 0.0:
            level = ladder.level
            u = ladder.step()
            assert abs(mpmath.mpf(u) - exact(level)) <= policy.inversion_tol, level


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
        assert pol.MaximinAwgnPolicy(1.0, 0.5).segment_index(2.0) == 2

    @pytest.mark.parametrize("p", [1e-3, 0.1, 0.5])
    def test_sqrt_segment_index_against_the_oracle(self, p):
        # every kink table has it, the sqrt maximin's too
        policy = pol.MaximinSqrtPolicy(p)
        x = np.concatenate([[0.0], 10.0 ** np.random.default_rng(8).uniform(-3.0, 1.5, 200)])
        exact = Maximin(None, p, float(x.max()))
        got = policy.segment_index(x)
        assert got.tolist() == [exact.segment(mpmath.mpf(xi)) for xi in x]
        assert policy.segment_index(3.0) == exact.segment(3)

    def test_segment_index_just_inside_far_kinks_at_small_p(self):
        # the segment ending at kink E_k has index k; at p = 1e-5 the kinks
        # below x = 600 reach k = 10 758
        kinks = pol.maximin_kinks(AWGN1, 1e-5, 600.0)
        x = np.array([e.x for e in kinks])
        inside = x[1:] - 1e-3 * np.diff(x)
        idx = pol.MaximinAwgnPolicy(1.0, 1e-5).segment_index(inside)
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
        got = pol.MaximinAwgnPolicy(gamma, p).segment_index(x)
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

    # gamma None is the sqrt maximin, a kink table too
    @pytest.mark.parametrize("p", [1e-6, 1e-3, 0.1, 0.5])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, None])
    def test_evaluates_its_kinks_bit_for_bit(self, gamma, p):
        reward = SQRT if gamma is None else rw.RewardFunction.awgn(gamma)
        kinks = pol.maximin_kinks(reward, p, 20.0)[:-1]
        x = np.array([e.x for e in kinks])
        y = np.array([e.y for e in kinks])
        np.testing.assert_array_equal(pol.maximin_policy(reward, p).evaluate(x), y)

    @pytest.mark.parametrize("p", [1e-6, 1e-3, 0.1, 0.5])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, None])
    def test_matches_an_mpmath_oracle(self, gamma, p):
        # within the kink bound of TestMaximinKinks, at the segment's index
        reward = SQRT if gamma is None else rw.RewardFunction.awgn(gamma)
        x = 10.0 ** np.random.default_rng(7).uniform(-6.0, np.log10(20.0), 200)
        got = pol.maximin_policy(reward, p).evaluate(x)
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
        # and for sqrt: both ladder steps are affine, so both tables are the policy
        assert type(pol.maximin_policy(AWGN1, 0.5)) is pol.MaximinAwgnPolicy
        assert type(pol.maximin_policy(SQRT, 0.5)) is pol.MaximinSqrtPolicy
        assert type(pol.maximin_policy(LOG1P, 0.5)) is pol.MaximinPolicy

    @pytest.mark.parametrize("p", [1e-6, 1e-3, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("gamma", [1.0, 2.5, None], ids=["awgn:1", "awgn:2.5", "sqrt"])
    def test_affine_kinks_keep_the_bits_of_step_down_cutoff(self, gamma, p):
        # KinkWalk computes an affine kink inline: y_k = ((s**k)**e - 1) / gamma
        # by step_down_cutoff's arithmetic, and x_k the running sum of the y_k
        reward = SQRT if gamma is None else rw.RewardFunction.awgn(gamma)
        walk = pol.KinkWalk(reward, p)
        walk.cover(50.0)
        s = 1.0 / (1.0 - p)
        k = range(1, len(walk.y))
        assert walk.y[1:] == [rw.step_down_cutoff(reward, s**i) for i in k]
        if gamma is None:
            assert walk.y[1:] == [s**i * s**i - 1.0 for i in k]
        assert walk.x == list(itertools.accumulate(walk.y))

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

    @pytest.mark.parametrize("p", [1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_awgn_endpoints_against_the_oracle(self, gamma, p):
        # y_k by expm1 and x_k as a running sum: neither cancels at small p,
        # where ((1-p)**-k - 1) / p - k once gave x_2 < 0 at p = 1e-9
        ends = pol.awgn_endpoints(gamma, p, 40)
        exact = Maximin(gamma, p, ends[-1].x)
        for e in ends[1:]:
            for got, want in ((e.x, exact.x[e.k]), (e.y, exact.y[e.k])):
                assert abs(mpmath.mpf(got) / want - 1) <= (e.k + 1) * EPS, (e.k, got)

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

    @pytest.mark.parametrize(
        "build",
        [
            lambda p: pol.maximin_policy(AWGN1, p),
            lambda p: pol.maximin_policy(SQRT, p),
            lambda p: pol.maximin_kinks(AWGN1, p, 1.0),
            lambda p: pol.MaximinPolicy(LOG1P, p),
        ],
        ids=["maximin_policy-awgn", "maximin_policy-sqrt", "maximin_kinks", "custom"],
    )
    @pytest.mark.parametrize("p", [1e-17, 1e-300])
    def test_a_p_whose_scale_rounds_to_1_is_refused_by_name(self, build, p):
        # 1/(1 - p) is 1.0 below p ~ 1.1e-16, so no ladder steps down
        message = f"p={p!r} is too small: its ladder scale 1/(1-p) rounds to 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(p)


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

    # consumptions at p = 0.1, frozen from the inversion that starts at the
    # kink table; the custom reward is awgn:1's closed forms
    FROZEN = {
        "sqrt": (
            "0x1.999999999999ap-5 0x1.153729043e3b8p-2 0x1.cd991838d58f1p-1 "
            "0x1.e9a08b1bdeb7ep+0 0x1.e3f4f34c93bf3p+1",
            "0x1.006b8602f722ep+0",
        ),
        "custom": (
            "0x1.999999999999ap-5 0x1.af286bca1af2ap-3 0x1.45af1ea6862adp-1 "
            "0x1.4856af46bfff5p+0 0x1.3507be8ca91fdp+1",
            "0x1.6a2b663485fc9p-1",
        ),
    }

    @pytest.mark.parametrize("reward", [SQRT, LOG1P], ids=["sqrt", "custom"])
    def test_inversion_runs_the_raw_kernel(self, reward, monkeypatch):
        def validating(*args):
            raise AssertionError("the inversion called the validating ladder_sum")

        monkeypatch.setattr(rw, "ladder_sum", validating)
        monkeypatch.setattr(pol, "ladder_sum", validating)
        omega = pol.MaximinPolicy(reward, 0.1)
        many, one = self.FROZEN[reward.kind]
        levels = [0.05, 0.3, 1.7, 5.0, 12.5]
        u = omega.evaluate(np.array(levels))
        assert [float(v).hex() for v in u] == many.split()
        assert omega.evaluate(2.0).hex() == one
        exact = Maximin(None if reward is SQRT else 1.0, 0.1, 12.5)
        for x, got in zip(levels + [2.0], list(u) + [omega.evaluate(2.0)]):
            assert abs(mpmath.mpf(float(got)) - exact(x)) <= omega.inversion_tol, x

    @pytest.mark.parametrize("reward", [SQRT, LOG1P], ids=["sqrt", "custom"])
    def test_levels_past_the_kink_cap_still_evaluate(self, reward, monkeypatch):
        # past the last kink walked, the last segment extended to the largest
        # float brackets the root, since ladder_sum is convex
        monkeypatch.setattr(pol, "_LADDER_CAP", 4)
        omega = pol.MaximinPolicy(reward, 0.1)
        levels = np.linspace(1.0, 40.0, 40)
        u = omega.evaluate(levels)
        assert len(omega.kinks.x) == 5 and omega.kinks.x[-1] < 3.0
        assert [float(v).hex() for v in u] == [omega.evaluate(x).hex() for x in levels]
        exact = Maximin(None if reward is SQRT else 1.0, 0.1, 40.0)
        for x, got in zip(levels, u):
            assert abs(mpmath.mpf(float(got)) - exact(x)) <= omega.inversion_tol, x

    @pytest.mark.parametrize("p", [1e-3, 0.01, 0.1, 0.5])
    def test_the_certificate_mends_a_corrupt_kink(self, p):
        # y_k read 1e-6 high: the interpolated start is off in the whole
        # segment, and the residual moves each level back to its root
        omega = pol.MaximinPolicy(SQRT, p)
        omega.evaluate(20.0)  # walks the kinks past 20
        k = 3
        levels = np.linspace(omega._x[k - 1], omega._x[k], 41)[1:]
        omega._y[k] += 1e-6
        exact = Maximin(None, p, levels[-1])
        for x, got in zip(levels, omega.evaluate(levels)):
            assert abs(mpmath.mpf(float(got)) - exact(x)) <= omega.inversion_tol, x

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
        step = pol._Ladder.step

        def counted(ladder):
            walked.append(ladder.level)
            return step(ladder)

        levels = pol.ergodic_levels(omega, c)
        monkeypatch.setattr(pol._Ladder, "step", counted)
        ev.bernoulli_reward(omega, omega.reward, c, p)
        assert [x.hex() for x in levels] == [x.hex() for x in walked + [0.0]]
        # and the public reserve map walks the same levels
        reserved = [c]
        while reserved[-1] > 0.0:
            reserved.append(omega.reserve(reserved[-1]))
        assert [x.hex() for x in levels] == [x.hex() for x in reserved]

    def test_walk_past_the_rung_cap_raises(self, monkeypatch):
        omega = pol.MaximinAwgnPolicy(1.0, 0.1)
        omega.evaluate(2.0)  # walks its kinks past 2 before the cap drops
        monkeypatch.setattr(pol, "_LADDER_CAP", 3)
        assert len(pol.ergodic_levels(omega, 0.5)) == 4  # three rungs
        with pytest.raises(RuntimeError, match="not at 0 after 3 rungs"):
            pol.ergodic_levels(omega, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, -0.25])
    def test_a_bad_consumption_fails_fast(self, bad):
        started = time.perf_counter()
        with pytest.raises(ValueError, match="^u must be finite and nonnegative$"):
            pol.ergodic_levels(_Spoilt(bad), 4.0)
        assert time.perf_counter() - started < 1.0

    def test_a_fixed_point_above_zero_fails_fast(self):
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="not at 0 after 4 rungs$"):
            pol.ergodic_levels(_Spoilt(0.0), 4.0)
        assert time.perf_counter() - started < 1.0

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


class TestOneLadder:
    """The series, the renewal path's reward table and ergodic_levels walk one
    reserve ladder, _Ladder, so they visit the same levels, bit for bit."""

    POLICIES = {
        "greedy": (pol.GreedyPolicy(), LOG1P),
        "fixed_fraction": (pol.FixedFractionPolicy(0.1), LOG1P),
        "maximin_awgn": (pol.MaximinAwgnPolicy(1.0, 0.1), AWGN1),
        "maximin-sqrt": (pol.MaximinPolicy(SQRT, 0.1), SQRT),
        "maximin-log1p": (pol.MaximinPolicy(LOG1P, 0.1), LOG1P),
        "maximin-curved": (pol.MaximinPolicy(CURVED, 0.1), CURVED),
    }

    @staticmethod
    def walked(monkeypatch, run):
        """The levels each ladder walked during run(), one list a ladder."""
        ladders = {}
        step = pol._Ladder.step

        def counted(ladder):
            ladders.setdefault(ladder, []).append(ladder.level.hex())
            return step(ladder)

        with monkeypatch.context() as patch:
            patch.setattr(pol._Ladder, "step", counted)
            run()
        return list(ladders.values())

    @pytest.mark.parametrize("c", [2.0, 8.0])
    @pytest.mark.parametrize("name", list(POLICIES))
    def test_the_walks_share_their_levels(self, name, c, monkeypatch):
        policy, reward = self.POLICIES[name]
        (series,) = self.walked(monkeypatch, lambda: ev.bernoulli_reward(policy, reward, c, 0.1))
        bernoulli = arr.from_mcr("bernoulli", c, 0.1)
        renewal = self.walked(monkeypatch, lambda: ev.simulate(policy, bernoulli, reward, 2000, 64, 5))
        (full,) = [levels for levels in renewal if levels[0] == c.hex()]
        # the renewal path walks as far as its longest gap, past 0 to the fixed point there
        assert len(full) >= min(len(series), 60)
        n = min(len(series), len(full))
        assert full[:n] == series[:n]
        if isinstance(policy, pol._Maximin):
            levels = [x.hex() for x in pol.ergodic_levels(policy, c)]
            assert levels == series + [(0.0).hex()]
            assert full == levels


class _Twice(pol.StationaryPolicy):
    """Asks for twice each level: the reserve ladder spends the level alone."""

    kind = "twice"

    def _evaluate(self, arr):
        return 2.0 * arr


class TestOverspending:
    """A rung that asks for more than its level spends the level, so a policy
    asking for twice it walks greedy's ladder, bit for bit."""

    @staticmethod
    def bits(result):
        return result.value.hex(), result.stderr, result.residual, result.tolerance

    @pytest.mark.parametrize("c", [0.5, 2.0])
    @pytest.mark.parametrize("reward", [AWGN1, SQRT, LOG1P], ids=["awgn", "sqrt", "log1p"])
    def test_series_gives_greedys_bits(self, reward, c):
        twice = ev.bernoulli_reward(_Twice(), reward, c, 0.1)
        assert self.bits(twice) == self.bits(ev.bernoulli_reward(pol.GreedyPolicy(), reward, c, 0.1))

    @pytest.mark.parametrize("family", ["bernoulli", "uniform"])
    def test_simulate_gives_greedys_bits(self, family):
        law = arr.from_mcr(family, 2.0, 0.3)
        twice = ev.simulate(_Twice(), law, AWGN1, 3000, 16, seed=7)
        greedy = ev.simulate(pol.GreedyPolicy(), law, AWGN1, 3000, 16, seed=7)
        assert self.bits(twice) == self.bits(greedy)


class _Plain(pol.StationaryPolicy):
    """A plain policy whose _evaluate is another policy's."""

    kind = "plain"

    def __init__(self, policy):
        self.policy = policy

    def _evaluate(self, arr):
        return self.policy._evaluate(arr)


def _capped(base):
    """A subclass of base that overrides _evaluate alone: base's
    consumption, but at most 0.5."""

    class Capped(base):
        def _evaluate(self, arr):
            return np.minimum(super()._evaluate(arr), 0.5)

    return Capped


class TestOwnEvaluate:
    """A subclass that overrides _evaluate alone is walked through it: the
    series, the renewal path and ergodic_levels give the bits of a plain
    policy with that _evaluate, not those of the parent's own kernel."""

    PARENTS = {
        "greedy": (pol.GreedyPolicy, ()),
        "fixed_fraction": (pol.FixedFractionPolicy, (0.5,)),
        "maximin_awgn": (pol.MaximinAwgnPolicy, (1.0, 0.5)),
    }

    @staticmethod
    def bits(result):
        return result.value.hex(), result.stderr, result.residual, result.tolerance

    @pytest.mark.parametrize("name", list(PARENTS))
    def test_the_walks_match_a_plain_policy(self, name):
        base, args = self.PARENTS[name]
        policies = _capped(base)(*args), _Plain(_capped(base)(*args)), base(*args)
        c, p = 2.0, 0.5
        series = [self.bits(ev.bernoulli_reward(policy, AWGN1, c, p)) for policy in policies]
        assert series[0] == series[1] != series[2]
        law = arr.from_mcr("bernoulli", c, p)
        runs = [self.bits(ev.simulate(policy, law, AWGN1, 2000, 16, 5)) for policy in policies]
        assert runs[0] == runs[1] != runs[2]
        capped, plain, parent = policies
        if isinstance(capped, pol._Maximin):
            ladder, walked = pol._Ladder(plain, c), [c]
            while ladder.level > 0.0:
                ladder.step()
                walked.append(ladder.level)
            levels = pol.ergodic_levels(capped, c)
            assert [x.hex() for x in levels] == [x.hex() for x in walked]
            assert levels.tolist() == [2.0, 1.5, 1.0, 0.5, 0.0]  # 0.5 a rung
            assert levels.tolist() != pol.ergodic_levels(parent, c).tolist()


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

    @pytest.mark.parametrize("grid_points", [0, 1])
    def test_a_grid_of_fewer_than_two_points_is_rejected(self, grid_points):
        # it would hold no difference to check, and report a pass
        with pytest.raises(ValueError, match="^grid_points must be at least 2$"):
            pol.normality_check(pol.GreedyPolicy(), 1.0, grid_points)
        assert pol.normality_check(pol.GreedyPolicy(), 1.0, 2).passed

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
