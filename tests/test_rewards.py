"""Unit tests for the regular-reward ladder calculus."""

import math
import re
import warnings

import numpy as np
import pytest

from ehpolicy import arrivals as arr
from ehpolicy import evaluation as ev
from ehpolicy import metrics as mx
from ehpolicy import policies as pol
from ehpolicy import rewards as rw

AWGN1 = rw.RewardFunction.awgn(1.0)
AWGN2 = rw.RewardFunction.awgn(2.0)
SQRT = rw.RewardFunction.sqrt_rate()
GRID = np.linspace(0.0, 30.0, 121)


def wrap_awgn_as_custom(gamma: float) -> rw.RewardFunction:
    """Same math as the closed-form family, but through the generic path."""
    return rw.RewardFunction.custom(
        value=lambda u: 0.5 * np.log1p(gamma * np.asarray(u, dtype=float)),
        marginal=lambda u: 0.5 * gamma / (1.0 + gamma * np.asarray(u, dtype=float)),
        marginal_inverse=lambda y: (0.5 * gamma / np.asarray(y, dtype=float) - 1.0) / gamma,
    )


class TestRewardFunction:
    def test_awgn_values(self):
        assert AWGN1.value(0.0) == 0.0
        assert AWGN1.value(1.0) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
        assert AWGN2.value(1.5) == pytest.approx(0.5 * math.log(4.0), abs=1e-15)
        assert AWGN1.marginal(0.0) == 0.5
        assert AWGN1.marginal(1.0) == 0.25

    def test_sqrt_values(self):
        assert SQRT.value(0.0) == 0.0
        assert SQRT.value(3.0) == pytest.approx(1.0, abs=1e-15)
        assert SQRT.marginal(0.0) == 0.5
        assert SQRT.marginal(3.0) == 0.25

    def test_vector_shapes(self):
        out = AWGN1.value(GRID)
        assert isinstance(out, np.ndarray) and out.shape == GRID.shape
        assert isinstance(AWGN1.value(2.0), float)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            AWGN1.value(-0.1)
        with pytest.raises(ValueError):
            AWGN1.marginal(-1e-9)
        with pytest.raises(ValueError):
            AWGN1.marginal_inverse(0.0)
        with pytest.raises(ValueError):
            AWGN1.marginal_inverse(AWGN1.marginal(0.0) * (1.0 + 1e-6))

    def test_marginal_inverse_round_trip(self):
        x = GRID[1:]
        for reward in (AWGN1, AWGN2, SQRT):
            back = reward.marginal_inverse(reward.marginal(x))
            np.testing.assert_allclose(back, x, rtol=1e-10, atol=1e-10)
        # top of the range maps back to zero consumption
        assert AWGN1.marginal_inverse(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_concavity_on_grid(self):
        for reward in (AWGN1, AWGN2, SQRT):
            vals = reward.value(GRID)
            second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
            assert np.all(second <= 1e-12)
            assert np.all(np.diff(vals) > 0.0)

    def test_custom_validation_rejects_bad_inverse(self):
        with pytest.raises(ValueError):
            rw.RewardFunction.custom(
                value=lambda u: 0.5 * np.log1p(u),
                marginal=lambda u: 0.5 / (1.0 + u),
                marginal_inverse=lambda y: 0.5 / y,  # off by one
            )

    def test_custom_validation_can_be_skipped(self):
        broken = rw.RewardFunction.custom(
            value=lambda u: 0.5 * np.log1p(u),
            marginal=lambda u: 0.5 / (1.0 + u),
            marginal_inverse=lambda y: 0.5 / y,
            validate=False,
        )
        failed = [name for name, ok, _ in rw.regularity_audit(broken) if not ok]
        assert failed

    def test_spec_strings(self):
        assert AWGN1.spec_string() == "awgn:1.0"
        assert AWGN2.spec_string() == "awgn:2.0"
        assert SQRT.spec_string() == "sqrt"


# case -> (a call on the checked value, the name its message gives); the CLI
# prints these messages as they are
_FRACTION_CHECKS = {
    "bernoulli_reward": (lambda p: ev.bernoulli_reward(pol.GreedyPolicy(), AWGN1, 1.0, p), "p"),
    "BernoulliArrivals": (lambda p: arr.BernoulliArrivals(1.0, p), "p"),
    "from_mcr": (lambda p: arr.from_mcr("uniform", 1.0, p), "mcr"),
    "f0": (mx.f0, "p"),
    "small_capacity_factor_limit": (mx.small_capacity_factor_limit, "p"),
    "FixedFractionPolicy": (pol.FixedFractionPolicy, "p"),
    "MaximinPolicy": (lambda p: pol.MaximinPolicy(SQRT, p), "p"),
    "MaximinAwgnPolicy": (lambda p: pol.MaximinAwgnPolicy(1.0, p), "p"),
    "awgn_endpoints": (lambda p: pol.awgn_endpoints(1.0, p, 3), "p"),
}
_POSITIVE_CHECKS = {
    "ergodic_levels": (lambda c: pol.ergodic_levels(pol.MaximinAwgnPolicy(1.0, 0.5), c), "c"),
    "greed_index": (lambda c: pol.greed_index(pol.GreedyPolicy(), AWGN1, c), "c"),
    "normality_check": (lambda c: pol.normality_check(pol.GreedyPolicy(), c), "c"),
    "bernoulli_reward": (lambda c: ev.bernoulli_reward(pol.GreedyPolicy(), AWGN1, c, 0.5), "c"),
    "ArrivalDistribution": (lambda c: arr.LimitedUniformArrivals(c, 1.0), "capacity c"),
    "b": (lambda b: arr.LimitedUniformArrivals(1.0, b), "b"),
    "rate": (lambda rate: arr.LimitedExponentialArrivals(1.0, rate), "rate"),
    "nmcr": (lambda nmcr: arr.from_nmcr("uniform", 1.0, nmcr), "nmcr"),
    "gamma": (rw.RewardFunction.awgn, "gamma"),
    "awgn_endpoints": (lambda gamma: pol.awgn_endpoints(gamma, 0.5, 3), "gamma"),
    "eps": (
        lambda eps: ev.optimal_gain(ev.build_mdp(AWGN1, arr.from_mcr("uniform", 1.0, 0.5), 8), eps),
        "eps",
    ),
}


@pytest.mark.parametrize("value", [0.0, 1.0, -0.5, math.nan])
@pytest.mark.parametrize("name", list(_FRACTION_CHECKS))
def test_fraction_checks_raise_the_one_message(name, value):
    run, what = _FRACTION_CHECKS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(what)} must lie in \\(0, 1\\)$"):
        run(value)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", list(_POSITIVE_CHECKS))
def test_positive_checks_raise_the_one_message(name, value):
    # +inf is positive, but no evaluator takes it: the CLI's own wording
    run, what = _POSITIVE_CHECKS[name]
    word = "finite" if value == math.inf else "positive"
    with pytest.raises(ValueError, match=f"^{re.escape(what)} must be {word}$"):
        run(value)


_NOT_COUNT = "i must be a nonnegative integer"
# case -> (a call with one bad argument, the text it raises)
_ARGUMENT_CHECKS = {
    "reserve_iter": (lambda: pol.GreedyPolicy().reserve_iter(1.5, 1.0), _NOT_COUNT),
    "step_down_iter": (lambda: rw.step_down_iter(SQRT, 2.0, 1.5, 1.0), _NOT_COUNT),
    "awgn_endpoints": (lambda: pol.awgn_endpoints(1.0, 0.5, -1), "k_max must be nonnegative"),
    "greed_index": (
        lambda: pol.greed_index(pol.GreedyPolicy(), AWGN1, 1.0, grid_points=1),
        "grid_points must be at least 2",
    ),
    "bernoulli_derivative_check": (
        lambda: ev.bernoulli_derivative_check(AWGN1, 0.5, 1.0, h=2.0),
        "need c > 0, p in (0, 1), 0 < h < c",
    ),
    "universal_upper_bound": (
        lambda: mx.universal_upper_bound(AWGN1, 1.0, 1.5),
        "need c > 0 and mcr in (0, 1]",
    ),
    "sweep": (
        lambda: mx.sweep(AWGN1, ["greedy"], "uniform", [1.0], p_values=[0.5], policy_evaluator="x"),
        "policy_evaluator must be 'vi' or 'mc'",
    ),
    "from_nmcr": (
        lambda: arr.from_nmcr("poisson", 1.0, 0.5),
        "unknown family 'poisson'; expected one of ('bernoulli', 'uniform', 'exponential')",
    ),
}


@pytest.mark.parametrize("name", list(_ARGUMENT_CHECKS))
def test_argument_checks_raise_their_text(name):
    run, text = _ARGUMENT_CHECKS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        run()


_LOG1P = wrap_awgn_as_custom(1.0)

# every public entry that validates a level, and the name its text gives it
_LEVEL_CHECKS = {
    "value": (AWGN1.value, "u"),
    "marginal": (SQRT.marginal, "u"),
    "evaluate": (pol.GreedyPolicy().evaluate, "stored energy"),
    "step_down": (lambda x: rw.step_down(SQRT, 2.0, x), "x"),
    "ladder_sum": (lambda x: rw.ladder_sum(AWGN1, 2.0, x), "x"),
}


class TestScalarRangeCheck:
    """_prepare checks a 0-d input with one comparison of its float and an
    array with two reductions, arr.min and arr.max from an initial 0.0;
    both refuse and accept the same values, with the same text, wherever
    in the array a bad value sits, an empty array passes, and the 0-d path
    keeps the 0-d kernels' bits."""

    BAD = [math.nan, math.inf, -math.inf, -1e-300]

    @staticmethod
    def spellings(value):
        """value as a Python float, a numpy float, a 0-d and a 1-element
        array, and as an int where one holds it."""
        out = [float(value), np.float64(value), np.array(value), np.array([value])]
        return out + ([int(value)] if math.isfinite(value) and value == int(value) else [])

    @pytest.mark.parametrize("name", list(_LEVEL_CHECKS))
    @pytest.mark.parametrize("value", BAD + [-1.0])
    def test_bad_levels_raise_the_one_text_in_every_spelling(self, name, value):
        run, what = _LEVEL_CHECKS[name]
        text = f"^{re.escape(what)} must be finite and nonnegative$"
        for spelled in self.spellings(value):
            with pytest.raises(ValueError, match=text):
                run(spelled)

    @pytest.mark.parametrize("name", list(_LEVEL_CHECKS))
    def test_negative_zero_passes(self, name):
        run, _ = _LEVEL_CHECKS[name]
        for spelled in self.spellings(-0.0):
            run(spelled)

    def test_the_0d_array_is_returned_as_it_came(self):
        arr, scalar = rw._prepare(np.float64(2.5))
        assert scalar and arr.ndim == 0 and arr.dtype == float and float(arr) == 2.5
        arr, scalar = rw._prepare(3)
        assert scalar and arr.dtype == float and float(arr) == 3.0

    LEVELS = [0.0, -0.0, 5e-324, 1e-310, 1e-9, 0.3, 1.0, 2.75, 1e3, 1e300, np.finfo(float).max]

    @pytest.mark.parametrize("reward", [AWGN1, SQRT, _LOG1P], ids=["awgn", "sqrt", "log1p"])
    def test_scalars_keep_the_bits_of_the_0d_kernels(self, reward):
        # 0-d and vector np.power may round differently, so the scalar path
        # is pinned against the kernels on the same 0-d array
        with np.errstate(over="ignore"):  # awgn's marginal doubles 1 + u at the largest float
            for x in self.LEVELS:
                for spelled in (x, np.float64(x), np.array(x)):
                    zero_d = np.asarray(spelled, dtype=float)
                    got = reward.value(spelled), reward.marginal(spelled)
                    want = reward._value(zero_d), reward._marginal(zero_d)
                    assert [v.hex() for v in got] == [float(v).hex() for v in want], x


    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_an_empty_array_passes(self, shape):
        arr, scalar = rw._prepare(np.empty(shape))
        assert not scalar and arr.shape == shape

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("at", [0, 499, 999], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("shape", [(1000,), (10, 100)])
    def test_a_bad_entry_fails_wherever_it_sits(self, bad, at, shape):
        x = np.linspace(0.0, 5.0, 1000)
        x[at] = bad
        with pytest.raises(ValueError, match="^x must be finite and nonnegative$"):
            rw._prepare(x.reshape(shape))
        x[at] = -0.0
        assert rw._prepare(x.reshape(shape))[0].shape == shape


class TestStepDown:
    def test_cutoffs_exact(self):
        assert rw.step_down_cutoff(AWGN1, 2.0) == 1.0
        assert rw.step_down_cutoff(AWGN2, 3.0) == 1.0
        assert rw.step_down_cutoff(SQRT, 2.0) == 3.0
        with pytest.raises(ValueError):
            rw.step_down_cutoff(AWGN1, 1.0)

    def test_awgn_closed_values(self):
        out = rw.step_down(AWGN1, 2.0, np.array([0.0, 0.5, 1.0, 3.0, 7.0]))
        np.testing.assert_array_equal(out[:3], 0.0)
        assert out[3] == pytest.approx(1.0, abs=1e-15)
        assert out[4] == pytest.approx(3.0, abs=1e-15)

    def test_sqrt_closed_values(self):
        out = rw.step_down(SQRT, 2.0, np.array([0.0, 3.0, 7.0, 15.0]))
        np.testing.assert_array_equal(out[:2], 0.0)
        assert out[2] == pytest.approx(1.0, abs=1e-15)
        assert out[3] == pytest.approx(3.0, abs=1e-15)

    @pytest.mark.parametrize("reward", [AWGN1, AWGN2, SQRT])
    @pytest.mark.parametrize("s", [1.3, 2.0, 5.0])
    def test_below_cutoff_is_exactly_zero(self, reward, s):
        cutoff = rw.step_down_cutoff(reward, s)
        x = np.linspace(0.0, cutoff, 23)
        assert np.all(rw.step_down(reward, s, x) == 0.0)

    @pytest.mark.parametrize("reward", [AWGN1, AWGN2, SQRT])
    @pytest.mark.parametrize("s", [1.3, 2.0, 5.0])
    def test_contraction(self, reward, s):
        x = GRID[1:]
        down = rw.step_down(reward, s, x)
        assert np.all(down < x)
        assert np.all(down >= 0.0)

    def test_marginal_relation_above_cutoff(self):
        # by construction, marginal(step) = s * marginal(x) past the cutoff
        for reward, s in ((AWGN1, 2.0), (SQRT, 1.5), (wrap_awgn_as_custom(1.0), 2.0)):
            x = np.linspace(rw.step_down_cutoff(reward, s) + 0.1, 20.0, 31)
            down = rw.step_down(reward, s, x)
            np.testing.assert_allclose(
                reward.marginal(down), s * reward.marginal(x), rtol=1e-10
            )

    @pytest.mark.parametrize("reward", [AWGN1, SQRT, wrap_awgn_as_custom(2.0)])
    @pytest.mark.parametrize("s", [1.3, 2.0])
    def test_iterate_matches_composition(self, reward, s):
        composed = GRID.copy()
        for i in range(1, 6):
            composed = rw.step_down(reward, s, composed)
            direct = rw.step_down_iter(reward, s, i, GRID)
            np.testing.assert_allclose(direct, composed, atol=1e-10, rtol=0.0)

    def test_iterate_identity_at_zero(self):
        np.testing.assert_array_equal(rw.step_down_iter(AWGN1, 2.0, 0, GRID), GRID)

    @pytest.mark.parametrize(
        "reward", [AWGN1, SQRT, wrap_awgn_as_custom(1.0)], ids=["awgn", "sqrt", "custom"]
    )
    def test_iterate_past_the_float_range_is_zero(self, reward):
        # 2.0**2000 overflows, and a float power raises rather than return inf
        assert rw.step_down_iter(reward, 2.0, 2000, 5.0) == 0.0
        out = rw.step_down_iter(reward, 2.0, 2000, np.array([0.0, 5.0, 1e300]))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_custom_cutoff_is_infinite_where_the_slope_underflows(self):
        # marginal(0) / 2**1023 = 5e-21 / 9e307 underflows to 0, so every
        # finite level steps to 0; at 2**1000 it is subnormal but positive
        tiny = rw.RewardFunction.custom(
            value=lambda u: 1e-20 * np.log1p(u) / 2,
            marginal=lambda u: 0.5e-20 / (1.0 + u),
            marginal_inverse=lambda y: 0.5e-20 / y - 1.0,
        )
        levels = np.array([0.0, 5.0, 1e300])
        assert rw.step_down_cutoff(tiny, 2.0**1023) == math.inf
        assert rw.step_down_iter(tiny, 2.0, 1023, 5.0) == 0.0
        np.testing.assert_array_equal(rw.step_down_iter(tiny, 2.0, 1023, levels), np.zeros(3))
        assert rw.step_down_iter(tiny, 2.0, 1000, 5.0).hex() == "0x0.0p+0"
        np.testing.assert_array_equal(rw.ladder_sum(tiny, 2.0**1023, levels), levels)
        with pytest.raises(ValueError, match=r"^maximin kinks at p=0.5 do not pass upto=1e\+308 "):
            pol.maximin_kinks(tiny, 0.5, 1e308)

    def test_custom_matches_closed_family(self):
        custom = wrap_awgn_as_custom(2.0)
        for s in (1.5, 3.0):
            np.testing.assert_allclose(
                rw.step_down(custom, s, GRID),
                rw.step_down(AWGN2, s, GRID),
                atol=1e-9,
            )


def test_a_hand_built_sqrt_reward_ignores_its_gamma():
    # the affine pair is (1.0, 2) for sqrt whatever gamma the instance holds
    built = rw.RewardFunction("sqrt", gamma=2.0)
    assert built.affine == SQRT.affine == (1.0, 2)
    assert AWGN2.affine == (2.0, 1) and wrap_awgn_as_custom(1.0).affine is None
    s = 1.0 / (1.0 - 0.3)
    assert rw.step_down_cutoff(built, s) == rw.step_down_cutoff(SQRT, s)
    for fn in (rw.step_down, rw.ladder_sum, rw.depletion_steps):
        np.testing.assert_array_equal(fn(built, s, GRID), fn(SQRT, s, GRID))
    for p in (0.01, 0.3):
        policy = pol.FixedFractionPolicy(p)
        assert ev.bernoulli_reward(policy, built, 8.0, p) == ev.bernoulli_reward(policy, SQRT, 8.0, p)


class TestDepletionSteps:
    def test_awgn_counts(self):
        steps = rw.depletion_steps(AWGN1, 2.0, np.array([0.0, 0.5, 1.0, 1.0001, 3.0, 7.0]))
        np.testing.assert_array_equal(steps, [0, 1, 1, 2, 2, 3])

    def test_upper_counts_differ_only_on_boundaries(self):
        x = np.array([0.5, 1.0, 1.5, 3.0, 4.2, 7.0])
        lo = rw.depletion_steps(AWGN1, 2.0, x)
        hi = rw.depletion_steps_upper(AWGN1, 2.0, x)
        np.testing.assert_array_equal(lo, [1, 1, 2, 2, 3, 3])
        np.testing.assert_array_equal(hi, [1, 2, 2, 3, 3, 4])

    @pytest.mark.parametrize("reward", [AWGN1, SQRT])
    @pytest.mark.parametrize("s", [1.3, 2.0, 5.0])
    def test_count_is_minimal(self, reward, s):
        x = GRID[1:]
        m = rw.depletion_steps(reward, s, x)
        at = np.array([rw.step_down_iter(reward, s, int(k), float(t)) for k, t in zip(m, x)])
        before = np.array(
            [rw.step_down_iter(reward, s, int(k) - 1, float(t)) for k, t in zip(m, x)]
        )
        assert np.all(at == 0.0)
        assert np.all(before > 0.0)

    @pytest.mark.parametrize("reward", [AWGN1, SQRT, wrap_awgn_as_custom(1.0)])
    def test_both_truncations_give_same_total(self, reward):
        s = 2.0
        x = GRID[1:]
        total = rw.ladder_sum(reward, s, x)
        for counter in (rw.depletion_steps, rw.depletion_steps_upper):
            counts = np.asarray(counter(reward, s, x))
            acc = np.zeros_like(x)
            for i in range(int(counts.max())):
                acc += np.where(i < counts, rw.step_down_iter(reward, s, i, x), 0.0)
            np.testing.assert_allclose(acc, total, atol=1e-12, rtol=1e-12)

    @pytest.mark.parametrize("counter", [rw.depletion_steps, rw.depletion_steps_upper])
    def test_a_zero_marginal_ratio_counts_no_steps_without_a_warning(self, counter):
        # a marginal that is 0 at 0 (a convex reward, outside the contract)
        # makes the ratio marginal(0)/marginal(x) zero, and its log -inf; the
        # public count silences that divide warning around the raw kernel
        convex = rw.RewardFunction.custom(
            lambda u: u * u, lambda u: 2.0 * u, lambda y: 0.5 * y, validate=False
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert counter(convex, 2.0, 1.5) == 0
            np.testing.assert_array_equal(counter(convex, 2.0, np.array([0.5, 7.0])), [0, 0])


class TestLadderSum:
    def test_awgn_known_points(self):
        # scale 2 corresponds to survival fraction one half
        assert rw.ladder_sum(AWGN1, 2.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert rw.ladder_sum(AWGN1, 2.0, 3.0) == pytest.approx(4.0, abs=1e-15)
        assert rw.ladder_sum(AWGN1, 2.0, 7.0) == pytest.approx(11.0, abs=1e-14)
        assert rw.ladder_sum(AWGN1, 2.0, 0.0) == 0.0

    def test_sqrt_known_points(self):
        assert rw.ladder_sum(SQRT, 2.0, 3.0) == pytest.approx(3.0, abs=1e-15)
        assert rw.ladder_sum(SQRT, 2.0, 7.0) == pytest.approx(8.0, abs=1e-14)

    @pytest.mark.parametrize("reward", [AWGN1, AWGN2, SQRT, wrap_awgn_as_custom(1.0)])
    @pytest.mark.parametrize("s", [1.3, 2.0, 5.0])
    def test_dominates_identity_with_unit_slope(self, reward, s):
        total = np.asarray(rw.ladder_sum(reward, s, GRID))
        assert np.all(total >= GRID)
        slopes = np.diff(total) / np.diff(GRID)
        assert np.all(slopes >= 1.0 - 1e-9)

    @pytest.mark.parametrize("reward", [AWGN1, SQRT])
    @pytest.mark.parametrize("s", [1.3, 2.0, 5.0])
    def test_convex(self, reward, s):
        total = np.asarray(rw.ladder_sum(reward, s, GRID))
        second = total[2:] - 2.0 * total[1:-1] + total[:-2]
        assert np.all(second >= -1e-9)

    def test_custom_matches_closed_family(self):
        custom = wrap_awgn_as_custom(2.0)
        for s in (1.5, 3.0):
            np.testing.assert_allclose(
                rw.ladder_sum(custom, s, GRID),
                rw.ladder_sum(AWGN2, s, GRID),
                atol=1e-9,
            )

    def test_custom_ladder_past_the_cap_raises(self, monkeypatch):
        # the ladder from 7 at s = 2 walks the rungs 7, 3, 1
        custom = wrap_awgn_as_custom(1.0)
        assert rw.ladder_sum(custom, 2.0, 7.0) == pytest.approx(11.0, abs=1e-12)
        monkeypatch.setattr(rw, "_LADDER_CAP", 2)
        with pytest.raises(RuntimeError, match="^ladder did not terminate; reward is not regular$"):
            rw.ladder_sum(custom, 2.0, 7.0)


def bits(x) -> list[str]:
    return [float(v).hex() for v in np.ravel(x)]


class TestRawLadderKernels:
    """The raw kernels behind ladder_sum and the depletion counts return the
    public functions' bits; only the public functions validate."""

    HEADS = {
        "one": np.array([2.75]),
        "long": np.concatenate([GRID, np.geomspace(1e-9, 1e3, 97)]),
    }

    @pytest.mark.parametrize("heads", sorted(HEADS))
    @pytest.mark.parametrize("s", [1.0 / 0.99, 1.3, 2.0, 10.0])
    @pytest.mark.parametrize(
        "reward", [AWGN1, AWGN2, SQRT, wrap_awgn_as_custom(1.0)], ids=["awgn1", "awgn2", "sqrt", "custom"]
    )
    def test_kernels_equal_the_public_functions(self, reward, s, heads):
        x = self.HEADS[heads]
        if reward.kind == "custom" and s < 1.1:
            x = x[x < 40.0]  # a custom ladder steps every rung, ~460 at x = 40
        assert bits(rw._ladder_sum(reward, s, x)) == bits(rw.ladder_sum(reward, s, x))
        for upper, public in ((False, rw.depletion_steps), (True, rw.depletion_steps_upper)):
            steps = public(reward, s, x)
            assert steps.dtype == np.int64
            assert bits(rw._ladder_steps(reward, s, x, upper)) == bits(steps)
        head = x[-1]  # a scalar head takes the same kernel on a 0-d array
        assert rw.ladder_sum(reward, s, head) == float(rw._ladder_sum(reward, s, np.asarray(head)))
        assert rw.depletion_steps(reward, s, head) == int(rw._ladder_steps(reward, s, np.asarray(head), False))

    @pytest.mark.parametrize("reward", [AWGN1, SQRT, wrap_awgn_as_custom(1.0)])
    @pytest.mark.parametrize("fn", [rw.ladder_sum, rw.depletion_steps, rw.depletion_steps_upper])
    def test_public_functions_still_validate(self, reward, fn):
        for x in (math.nan, -0.5, np.array([1.0, math.nan]), np.array([1.0, -1e-12])):
            with pytest.raises(ValueError, match="x must be finite and nonnegative"):
                fn(reward, 2.0, x)
        for s in (1.0, 0.5, -2.0):
            with pytest.raises(ValueError, match="scale s must be > 1"):
                fn(reward, s, 1.0)


    def test_custom_step_keeps_the_inverse_domain_check(self):
        # a marginal that reaches 0 at u = 5 is outside the contract; the raw
        # step still rejects it as marginal_inverse does
        flat = rw.RewardFunction.custom(
            lambda u: np.minimum(u, 5.0),
            lambda u: np.where(u < 5.0, 1.0 - u / 5.0, 0.0),
            lambda y: 5.0 * (1.0 - y),
            validate=False,
        )
        for fn in (rw.step_down, rw.ladder_sum):
            with pytest.raises(ValueError, match="marginal_inverse argument outside"):
                fn(flat, 2.0, np.array([1.0, 7.0]))


class TestRegularityAudit:
    @pytest.mark.parametrize("reward", [AWGN1, AWGN2, SQRT])
    def test_shipped_families_pass(self, reward):
        results = rw.regularity_audit(reward)
        assert results and all(ok for _, ok, _ in results)
