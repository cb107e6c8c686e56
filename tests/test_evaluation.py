"""Unit tests for the three long-run reward evaluators."""

import itertools
import math
import subprocess
import sys
import time
import tracemalloc

import mpmath
import mpmath_oracle as oracle
import numpy as np
import pytest
from scipy.signal import fftconvolve

from ehpolicy import arrivals as arr
from ehpolicy import evaluation as ev
from ehpolicy import policies as pol
from ehpolicy import rewards as rw
from ehpolicy.checks import _sample_rewards

AWGN1 = rw.RewardFunction.awgn(1.0)
SQRT = rw.RewardFunction.sqrt_rate()
# convex, so its reward table is not concave and the sweep takes the exact scan
CONVEX = rw.RewardFunction.custom(
    lambda u: u * u, lambda u: 2.0 * u, lambda y: 0.5 * y, validate=False
)
# the awgn:1 closed forms as a custom reward, so its maximin policy bisects
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


class _Rungs:
    """Stands in for a policy's _evaluate: lists the level of each call and
    answers a level asked before from memory, so a second walk down the same
    ladder costs no bisection (the custom one takes seconds at p = 0.01)."""

    def __init__(self, policy):
        self.kernel, self.levels, self.seen = policy._evaluate, [], {}

    def __call__(self, arr):
        self.levels.append(arr[0])
        if arr[0] not in self.seen:
            self.seen[arr[0]] = self.kernel(arr)
        return self.seen[arr[0]].copy()


class _Idle(pol.StationaryPolicy):
    """Consumes nothing, so the battery never empties."""

    def _evaluate(self, arr):
        return np.zeros_like(arr)


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
        P = np.vstack([model.transition_row(i, actions[i]) for i in range(n)])
        value = stationary_gain(P, model.action_rewards[list(actions)])
        best = max(best, value)
    return best


class TestStep:
    def test_overflow_clipped(self):
        out = ev.step(0.8, 0.5, 0.3, 1.0)
        assert out.before == 0.8
        assert out.after == 1.0
        assert out.consumed == pytest.approx(0.3, abs=1e-15)
        assert out.carried == pytest.approx(0.7, abs=1e-15)

    def test_exact_drain(self):
        out = ev.step(0.4, 0.1, 0.5, 1.0)
        assert out.after == 0.5
        assert out.carried == 0.0

    def test_slack_clamped(self):
        out = ev.step(0.5, 0.0, 0.5 + 5e-10, 1.0)
        assert out.consumed == 0.5
        assert out.carried == 0.0

    def test_overdraw_rejected(self):
        with pytest.raises(ev.AdmissibilityError):
            ev.step(0.1, 0.0, 0.5, 1.0)


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
        rungs = _Rungs(omega)
        monkeypatch.setattr(omega, "_evaluate", rungs)
        levels = pol.ergodic_levels(omega, c)
        rungs.levels.clear()
        res = ev.bernoulli_reward(omega, reward, c, p)
        assert res.residual == 0.0
        assert len(rungs.levels) == len(levels) - 1

    @pytest.mark.parametrize("kind", ["maximin", "greedy", "fixed_fraction"])
    @pytest.mark.parametrize("c", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("p", [1e-3, 0.1, 0.5, 0.9])
    def test_tolerance_bounds_the_error_to_an_mpmath_oracle(self, p, c, kind):
        policy, exact = {
            "maximin": (pol.MaximinAwgnPolicy(1.0, p), oracle.maximin_series),
            "greedy": (pol.GreedyPolicy(), oracle.greedy_series),
            "fixed_fraction": (pol.FixedFractionPolicy(p), oracle.fraction_series),
        }[kind]
        res = ev.bernoulli_reward(policy, AWGN1, c, p)
        assert abs(mpmath.mpf(res.value) - exact(1.0, p, c)) <= res.tolerance

    def test_nonconvergence_names_the_series(self, monkeypatch):
        # at p = 1e-7 the tail bound shrinks by 1e-7 a rung, so no cap ends it
        monkeypatch.setattr(ev, "_SERIES_RUNGS", 1000)
        message = r"^Bernoulli series tail bound \S+ after 1000 rungs$"
        with pytest.raises(ev.NonConvergenceError, match=message) as info:
            ev.bernoulli_reward(_Idle(), AWGN1, 1.0, 1e-7)
        assert info.value.iterations == 1000
        assert info.value.span == pytest.approx(AWGN1.value(1.0) * (1.0 - 1e-7) ** 1000)


def per_rung_series(policy, reward, c, p, tol=1e-15):
    """The Bernoulli series walked one rung at a time through the public
    evaluate and value, added with plain Python floats; returns the rung
    count and (value, residual, tolerance)."""
    top = reward.value(c)
    total = climb = drift = 0.0
    level, survivor, rungs = c, 1.0, 0
    while True:
        rungs += 1
        u = min(policy.evaluate(level), level)
        if not 0.0 <= u <= level:
            raise ValueError("u must be finite and nonnegative")
        weight = p * survivor
        total += weight * reward.value(u)
        climb += level
        drift += weight * climb
        level = max(level - u, 0.0)
        survivor *= 1.0 - p
        residual = 0.0 if level == 0.0 else survivor * top
        if level == 0.0 or residual <= tol:
            break
    eps = float(np.finfo(float).eps)
    slope = reward.marginal(0.0)
    rounding = eps * (1.5 * (rungs + 1) * total + 3.5 * slope * (drift + p * survivor * climb))
    return rungs, (total, residual, residual + rounding)


SERIES_REWARDS = {
    "awgn:1": AWGN1,
    "awgn:2.5": rw.RewardFunction.awgn(2.5),
    "sqrt": SQRT,
    "custom": LOG1P,
}


def series_policy(kind, reward, p, monkeypatch):
    """The policy of that kind; a bisection maximin answers repeated levels
    from memory, so the reference walk costs it no second bisection."""
    if kind == "greedy":
        return pol.GreedyPolicy()
    if kind == "fixed_fraction":
        return pol.FixedFractionPolicy(p)
    policy = pol.maximin_policy(reward, p)
    if isinstance(policy, pol.MaximinPolicy):
        monkeypatch.setattr(policy, "_evaluate", _Rungs(policy))
    return policy


# every reward x policy kind x p x c cell but two slow groups, whose long
# walks the block-boundary test below covers: a fixed-fraction walk at
# p = 1e-3 is ~35k rungs of public calls in the reference, and a custom
# maximin ladder there from c >= 2 takes 4-17 s of bisection
SERIES_CELLS = [
    (reward, kind, p, c)
    for reward in sorted(SERIES_REWARDS)
    for kind in ("maximin", "fixed_fraction", "greedy")
    for p in (1e-3, 0.01, 0.1, 0.5, 0.9)
    for c in (0.5, 2.0, 8.0)
    if not (
        p == 1e-3
        and (kind == "fixed_fraction" or (kind == "maximin" and reward == "custom" and c > 0.5))
    )
]


class TestSeriesBlocks:
    """The walk scores its rungs once per block and sums them in rung order,
    so it returns the bits of the rung-at-a-time reference above."""

    @pytest.mark.parametrize("reward, kind, p, c", SERIES_CELLS)
    def test_matches_the_per_rung_walk_bit_for_bit(self, reward, kind, p, c, monkeypatch):
        reward = SERIES_REWARDS[reward]
        policy = series_policy(kind, reward, p, monkeypatch)
        _, want = per_rung_series(policy, reward, c, p)
        res = ev.bernoulli_reward(policy, reward, c, p)
        assert (res.value, res.residual, res.tolerance) == want

    @pytest.mark.parametrize("kind", ["maximin", "fixed_fraction"])
    @pytest.mark.parametrize("reward", sorted(SERIES_REWARDS))
    def test_walks_across_block_boundaries(self, reward, kind, monkeypatch):
        reward = SERIES_REWARDS[reward]
        bisects = kind == "maximin" and reward.kind != "awgn"
        if bisects:  # a bisection rung is slow, so its blocks are shortened
            monkeypatch.setattr(ev, "_SLOT_BLOCK", 8)
        block = ev._SLOT_BLOCK
        p = 0.1 if bisects else 0.01
        policy = series_policy(kind, reward, p, monkeypatch)
        for n in (block - 1, block, block + 1, 3 * block + 7):
            if kind == "maximin":
                # a head between the kinks x_(n-1) and x_n walks n rungs to 0
                policy.kinks.cover(0.0)
                while len(policy.kinks.x) <= n:
                    policy.kinks.cover(policy.kinks.x[-1])
                c, tol = 0.5 * (policy.kinks.x[n - 1] + policy.kinks.x[n]), 0.0
            else:
                # the tail bound after n rungs, as the walk's product rounds it
                c, survivor = 2.0, 1.0
                for _ in range(n):
                    survivor *= 1.0 - p
                tol = survivor * reward.value(c)
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
                ev.bernoulli_reward(pol.FixedFractionPolicy(p), AWGN1, 1.0, p)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1e-2)  # first-call allocations
        short, long = peak(1e-2), peak(1e-3)  # ~3.5k and ~35k rungs
        assert long <= 1.1 * short, (short, long)


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

    def test_transition_rows_are_distributions(self):
        model = ev.build_mdp(AWGN1, arr.LimitedUniformArrivals(1.0, 1.4), 8)
        for i in range(model.states):
            for j in range(i + 1):
                row = model.transition_row(i, j)
                assert row.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(row >= 0.0)
                # nothing below the post-consumption level
                assert np.all(row[: i - j] == 0.0)

    def test_transition_row_bounds_checked(self):
        model = ev.build_mdp(AWGN1, arr.BernoulliArrivals(1.0, 0.5), 2)
        with pytest.raises(ValueError):
            model.transition_row(1, 2)
        with pytest.raises(ValueError):
            model.transition_row(3, 0)


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

    def test_nonconvergence_raises(self):
        model = ev.build_mdp(AWGN1, arr.BernoulliArrivals(1.0, 0.5), 20)
        message = r"^value iteration span \S+ after 25 sweeps$"
        with pytest.raises(ev.NonConvergenceError, match=message) as info:
            ev.optimal_gain(model, eps=1e-30, max_iter=25)
        assert info.value.iterations == 25
        assert info.value.span > 1e-30

    def test_method_label_and_tolerance(self):
        model = ev.build_mdp(AWGN1, arr.BernoulliArrivals(1.0, 0.5), 50)
        res, _ = ev.optimal_gain(model, eps=1e-9)
        assert res.method == "value_iteration"
        assert res.tolerance > 0.0

    @pytest.mark.parametrize(
        "dist, cells",
        [
            (arr.from_nmcr("uniform", 2.0, 0.5), 1000),
            (arr.from_nmcr("exponential", 1.0, 0.5), 1000),
            (arr.BernoulliArrivals(2.0, 0.1), 500),
        ],
    )
    def test_slope_merge_matches_exact_scan_bit_for_bit(self, dist, cells, monkeypatch):
        model = ev.build_mdp(AWGN1, dist, cells)
        concave = []
        is_concave = ev._is_concave

        def recorded(seq):
            concave.append(is_concave(seq))
            return concave[-1]

        monkeypatch.setattr(ev, "_is_concave", recorded)
        merged, merged_actions = ev.optimal_gain(model)
        assert concave and all(concave)  # every sweep took the slope merge
        monkeypatch.setattr(ev, "_is_concave", lambda seq: False)
        exact, exact_actions = ev.optimal_gain(model)
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


class TestPolicyGain:
    def test_matches_stationary_solve(self):
        dist = arr.LimitedUniformArrivals(1.0, 1.2)
        model = ev.build_mdp(AWGN1, dist, 3)
        policy = pol.FixedFractionPolicy(0.5)
        res = ev.policy_gain(model, policy, eps=1e-11)
        # snap the policy to the grid exactly as the evaluator does
        h = model.cell
        actions = [int(np.floor(policy.evaluate(level) / h + 1e-9)) for level in model.grid]
        P = np.vstack([model.transition_row(i, actions[i]) for i in range(model.states)])
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

    def test_nonconvergence_raises(self):
        model = ev.build_mdp(AWGN1, arr.BernoulliArrivals(1.0, 0.5), 20)
        with pytest.raises(ev.NonConvergenceError):
            ev.policy_gain(model, pol.GreedyPolicy(), eps=1e-30, max_iter=25)


def per_slot_simulate(policy, arrivals, reward, n, paths, seed):
    """simulate's result from the plain per-slot loop: all n x paths draws at
    once, then the public evaluate and value on every slot."""
    draws = np.empty((n, paths))
    for idx, seed_seq in enumerate(np.random.SeedSequence(seed).spawn(paths)):
        draws[:, idx] = arrivals.sample(np.random.default_rng(seed_seq), n)
    stored = np.zeros(paths)
    totals = np.zeros(paths)
    for t in range(n):
        lvl = np.minimum(stored + draws[t], arrivals.c)
        u = np.minimum(policy.evaluate(lvl), lvl)
        totals += reward.value(u)
        stored = lvl - u
    means = totals / n
    return float(np.mean(means)), float(np.std(means, ddof=1) / np.sqrt(paths))


SIM_LAWS = {
    "bernoulli": arr.BernoulliArrivals(2.0, 0.3),
    "uniform": arr.from_mcr("uniform", 2.0, 0.5),
    "exponential": arr.from_nmcr("exponential", 1.0, 0.5),
}
SIM_POLICIES = {
    "greedy": (pol.GreedyPolicy(), AWGN1),
    "fixed_fraction": (pol.FixedFractionPolicy(0.3), SQRT),
    "maximin_awgn": (pol.MaximinAwgnPolicy(1.0, 0.4), AWGN1),
    "maximin_sqrt": (pol.MaximinPolicy(SQRT, 0.4), SQRT),
}


class TestSimulate:
    @pytest.mark.parametrize("law", sorted(SIM_LAWS))
    @pytest.mark.parametrize("kind", sorted(SIM_POLICIES))
    @pytest.mark.parametrize("paths", [2, 64])
    def test_matches_the_per_slot_loop_bit_for_bit(self, law, kind, paths, monkeypatch):
        # the bisection policy is slow per slot, so its blocks are shortened;
        # the block boundaries are then crossed as often as at full length
        if kind == "maximin_sqrt":
            monkeypatch.setattr(ev, "_SLOT_BLOCK", 8)
        block = ev._SLOT_BLOCK
        policy, reward = SIM_POLICIES[kind]
        for n in (1, block - 1, block, block + 1, 3 * block + 7):
            res = ev.simulate(policy, SIM_LAWS[law], reward, n, paths, seed=n)
            want = per_slot_simulate(policy, SIM_LAWS[law], reward, n, paths, seed=n)
            assert (res.value, res.stderr) == want, n

    @pytest.mark.parametrize("bad", [-0.25, math.nan])
    @pytest.mark.parametrize("calls", [0, ev._SLOT_BLOCK + 3])
    def test_invalid_consumption_is_rejected(self, bad, calls):
        dist = arr.from_mcr("uniform", 2.0, 0.5)
        with pytest.raises(ValueError, match="u must be finite and nonnegative"):
            ev.simulate(_AfterCalls(calls, bad), dist, AWGN1, 2 * ev._SLOT_BLOCK, 4, seed=0)

    def test_memory_does_not_grow_with_slots(self):
        dist = arr.BernoulliArrivals(2.0, 0.5)

        def peak(n):
            tracemalloc.start()
            try:
                ev.simulate(pol.GreedyPolicy(), dist, AWGN1, n, 16, seed=0)
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

    def test_needs_two_paths(self):
        with pytest.raises(ValueError):
            ev.simulate(pol.GreedyPolicy(), arr.BernoulliArrivals(1.0, 0.5), AWGN1, 100, 1, 0)


class TestEvaluationResult:
    def test_as_dict_drops_missing_fields(self):
        res = ev.EvaluationResult(value=1.0, method="x")
        assert res.as_dict() == {"value": 1.0, "method": "x"}

    def test_as_dict_keeps_present_fields(self):
        res = ev.EvaluationResult(value=1.0, method="x", stderr=0.1, tolerance=0.3)
        assert res.as_dict() == {"value": 1.0, "method": "x", "stderr": 0.1, "tolerance": 0.3}
