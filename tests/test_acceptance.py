"""Acceptance gate: one test per release criterion, pinned tolerances.

Each test records a PASS line that the conftest terminal-summary hook
prints after the run, so the pytest log carries one line per criterion
either way (pytest itself reports the FAILED line if an assert trips).
"""

import io
import math
import sys
import time

import numpy as np
import pytest

from ehpolicy import arrivals as arr
from ehpolicy import evaluation as ev
from ehpolicy import metrics as mx
from ehpolicy import policies as pol
from ehpolicy import rewards as rw
from ehpolicy.cli import main

AWGN1 = rw.RewardFunction.awgn(1.0)
SQRT = rw.RewardFunction.sqrt_rate()

ACCEPTANCE_LINES: list[str] = []


def _report(tag: str, detail: str = "") -> None:
    line = f"PASS {tag}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)


def test_ac01_closed_form_matches_generic_inversion():
    # both policies start from the same kinks, so the generic one is also
    # held to its own certificate: the residual of the public ladder_sum,
    # whose closed form does not use the kinks
    started = time.perf_counter()
    x = np.linspace(0.0, 100.0, 10_000)
    worst = worst_residual = 0.0
    for gamma in (0.5, 1.0, 2.0):
        reward = rw.RewardFunction.awgn(gamma)
        for p in np.arange(0.1, 0.95, 0.1):
            closed = pol.MaximinAwgnPolicy(gamma, float(p)).evaluate(x)
            policy = pol.MaximinPolicy(reward, float(p))
            generic = policy.evaluate(x)
            worst = max(worst, float(np.max(np.abs(closed - generic))))
            residual = np.abs(rw.ladder_sum(reward, policy.scale, generic) - x)
            worst_residual = max(worst_residual, float(np.max(residual)))
            assert worst_residual <= policy.inversion_tol
    elapsed = time.perf_counter() - started
    assert worst <= 1e-8
    assert elapsed < 10.0
    _report(
        "AC1 closed form vs inversion",
        f"max diff {worst:.3e}, max residual {worst_residual:.3e}, {elapsed:.1f}s",
    )


def test_ac02_bernoulli_series_exact_values():
    omega = pol.MaximinAwgnPolicy(1.0, 0.5)
    res = ev.bernoulli_reward(omega, AWGN1, 1.0, 0.5)
    assert abs(res.value - 0.25 * math.log(2.0)) <= 1e-12
    for c in (0.25, 1.0, 3.0):
        for p in (0.1, 0.5, 0.9):
            greedy = ev.bernoulli_reward(pol.GreedyPolicy(), AWGN1, c, p)
            assert greedy.value == p * AWGN1.value(c)
    _report("AC2 exact series values", f"quarter-log-two at {res.value!r}")


def test_ac03_value_iteration_cross_check():
    started = time.perf_counter()
    worst = 0.0
    for c in (0.5, 1.0, 2.0, 4.0):
        for p in (0.1, 0.5, 0.9):
            omega = pol.MaximinAwgnPolicy(1.0, p)
            series = ev.bernoulli_reward(omega, AWGN1, c, p)
            model = ev.build_mdp(AWGN1, arr.BernoulliArrivals(c, p), 2000)
            vi, _ = ev.optimal_gain(model, eps=1e-9)
            rel = abs(vi.value - series.value) / series.value
            worst = max(worst, rel)
            assert rel <= 1e-3, f"c={c} p={p}: relative gap {rel}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report("AC3 value-iteration cross-check", f"max rel {worst:.2e}, {elapsed:.1f}s")


def test_ac04_series_slope_identity():
    tested = 0
    for p in (0.3, 0.5, 0.7):
        for c in np.linspace(0.3, 8.0, 10):
            check = ev.bernoulli_derivative_check(AWGN1, p, float(c))
            if check.skipped:
                continue
            assert abs(check.fd_slope - check.analytic_slope) <= 1e-4, (
                f"p={p} c={c}: fd {check.fd_slope} analytic {check.analytic_slope}"
            )
            tested += 1
    assert tested >= 20
    _report("AC4 series slope identity", f"{tested} smooth points")


def test_ac05_two_point_law_is_least_favorable():
    cells = 0
    for mcr in (0.1, 0.5):
        policies = {
            "maximin": pol.MaximinAwgnPolicy(1.0, mcr),
            "fixed_fraction": pol.FixedFractionPolicy(mcr),
        }
        for c in np.linspace(0.25, 5.0, 20):
            c = float(c)
            floor_values = {
                name: ev.bernoulli_reward(policy, AWGN1, c, mcr)
                for name, policy in policies.items()
            }
            for family in ("uniform", "exponential"):
                dist = arr.from_mcr(family, c, mcr)
                model = ev.build_mdp(AWGN1, dist, 500)
                for name, policy in policies.items():
                    other = ev.policy_gain(model, policy, eps=1e-7)
                    floor = floor_values[name]
                    budget = (floor.tolerance or 0.0) + (other.tolerance or 0.0)
                    assert floor.value <= other.value + budget, (
                        f"{name} {family} c={c} mcr={mcr}: "
                        f"{floor.value} vs {other.value} budget {budget}"
                    )
                    cells += 1
    _report("AC5 two-point law least favorable", f"{cells} ordered cells")


def test_ac06_worst_case_factor_chain():
    # measured factor of the maximin policy against the two-point optimum
    for p in np.arange(0.1, 0.95, 0.1):
        p = float(p)
        floor = mx.f0(p)
        for c in (0.25, 1.0, 4.0):
            omega = pol.MaximinAwgnPolicy(1.0, p)
            value = ev.bernoulli_reward(omega, AWGN1, c, p).value
            reports = mx.sweep(
                AWGN1, ("maximin",), "bernoulli", (c,), p_values=(p,)
            )
            assert reports[0].multiplicative_factor >= floor - 1e-3
            ratio = value / mx.universal_upper_bound(AWGN1, c, p)
            assert floor - 1e-3 <= ratio <= 1.0 + 1e-12
    # the floor approaches 1 - 1/e along small reciprocal ratios
    grid_min = min(mx.f0(1.0 / n) for n in range(2, 402))
    assert abs(grid_min - (1.0 - 1.0 / math.e)) <= 1e-3
    assert grid_min >= 1.0 - 1.0 / math.e
    # fixed-fraction factor collapses to 1/(2-p) as the battery vanishes
    for p in np.arange(0.1, 0.95, 0.1):
        p = float(p)
        tiny = ev.bernoulli_reward(pol.FixedFractionPolicy(p), AWGN1, 1e-3, p).value
        best = ev.bernoulli_reward(pol.MaximinAwgnPolicy(1.0, p), AWGN1, 1e-3, p).value
        target = mx.small_capacity_factor_limit(p)
        assert abs(tiny / best - target) <= 0.02 * target
    _report("AC6 worst-case factor chain", f"grid min {grid_min:.6f}")


def test_ac07_maximin_dominates_fixed_fraction_everywhere():
    cells = 0
    for reward in (AWGN1, SQRT):
        reports = mx.sweep(
            reward, ("maximin", "fixed_fraction"), "bernoulli",
            (0.5, 1.0, 2.0, 4.0), p_values=(0.2, 0.5, 0.8),
        )
        for family in ("uniform", "exponential"):
            reports += mx.sweep(
                reward, ("maximin", "fixed_fraction"), family,
                (0.5, 2.0), nmcr_values=(0.3, 0.7),
                grid_cells=400, vi_eps=1e-7,
            )
        by_cell = {}
        for r in reports:
            by_cell.setdefault((r.family, r.c, r.mcr), {})[r.policy] = r
        for key, cell in by_cell.items():
            a, b = cell["maximin"], cell["fixed_fraction"]
            budget = a.tolerance + b.tolerance
            assert a.policy_gain >= b.policy_gain - budget, (
                f"{reward.spec_string()} {key}: {a.policy_gain} vs {b.policy_gain}"
            )
            cells += 1
    _report("AC7 maximin dominates fixed fraction", f"{cells} cells, 2 rewards")


def test_ac08_figure_caption_ratios():
    uniform = arr.LimitedUniformArrivals(1.0, 2.0 * 0.9)
    assert abs(uniform.mcr() - 0.7222) <= 5e-5
    assert uniform.mcr() == pytest.approx(13.0 / 18.0, abs=1e-14)
    for nmcr, caption in ((0.1, 0.1000), (0.5, 0.4323), (0.9, 0.6037)):
        dist = arr.from_nmcr("exponential", 1.0, nmcr)
        assert abs(dist.mcr() - caption) <= 5e-5
        assert dist.mcr() == pytest.approx(
            nmcr * -math.expm1(-1.0 / nmcr), abs=1e-14
        )
    _report("AC8 caption ratios reproduced")


def test_ac09_monte_carlo_consistency():
    slots, paths = 100_000, 64
    cells = [
        # (label, policy, reward, arrivals, reference)
        ("bernoulli/awgn/maximin", pol.MaximinAwgnPolicy(1.0, 0.5), AWGN1,
         arr.BernoulliArrivals(2.0, 0.5), None),
        ("bernoulli/awgn/fraction", pol.FixedFractionPolicy(0.3), AWGN1,
         arr.BernoulliArrivals(1.0, 0.3), None),
        ("bernoulli/sqrt/greedy", pol.GreedyPolicy(), SQRT,
         arr.BernoulliArrivals(3.0, 0.5), None),
        ("uniform/awgn/maximin", None, AWGN1,
         arr.from_mcr("uniform", 2.0, 0.5), "vi"),
        ("exponential/awgn/fraction", pol.FixedFractionPolicy(0.5), AWGN1,
         arr.from_nmcr("exponential", 1.0, 0.5), "vi"),
        ("uniform/sqrt/fraction", pol.FixedFractionPolicy(0.6), SQRT,
         arr.from_nmcr("uniform", 2.0, 0.9), "vi"),
    ]
    for index, (label, policy, reward, dist, ref_kind) in enumerate(cells):
        if policy is None:
            policy = pol.MaximinAwgnPolicy(reward.gamma, dist.mcr())
        if ref_kind == "vi":
            model = ev.build_mdp(reward, dist, 4000)
            reference = ev.policy_gain(model, policy, eps=1e-8)
        else:
            reference = ev.bernoulli_reward(policy, reward, dist.c, dist.mcr())
        mc = ev.simulate(policy, dist, reward, slots, paths, seed=100 + index)
        budget = 3.0 * mc.stderr + (reference.tolerance or 0.0)
        assert abs(mc.value - reference.value) <= budget, (
            f"{label}: mc {mc.value} ref {reference.value} budget {budget}"
        )
    _report("AC9 Monte Carlo consistency", f"{len(cells)} cells")


def test_ac10_invariant_suites_via_verify():
    started = time.perf_counter()
    buffer = io.StringIO()
    real = sys.stdout
    sys.stdout = buffer
    try:
        rc = main(["verify"])
    finally:
        sys.stdout = real
    elapsed = time.perf_counter() - started
    assert rc == 0
    assert elapsed < 60.0
    lines = buffer.getvalue().splitlines()
    assert all(line.startswith("ok") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")
    # a rewritten suite must not drop checks, nor run one twice by name
    names = [line[len("ok   "):] for line in lines[:-1]]
    assert len(names) >= 64 and len(set(names)) == len(names)
    # spot-check the named properties directly
    for p in (0.2, 0.5, 0.8):
        for c in (1.0, 4.0):
            assert pol.greed_index(pol.MaximinAwgnPolicy(1.0, p), AWGN1, c) <= p + 1e-6
    assert pol.normality_check(pol.MaximinAwgnPolicy(1.0, 0.5), 10.0).passed
    assert pol.normality_check(pol.FixedFractionPolicy(0.5), 10.0).passed
    omega = pol.MaximinAwgnPolicy(1.0, 0.5)
    x = np.linspace(0.0, 30.0, 201)
    head = omega.evaluate(x)
    for i in (1, 2, 3):
        lhs = omega.evaluate(omega.reserve_iter(i, x))
        rhs = np.asarray(rw.step_down_iter(AWGN1, omega.scale, i, head))
        assert np.max(np.abs(lhs - rhs)) <= 1e-8
    total = np.asarray(rw.ladder_sum(AWGN1, 2.0, x))
    assert np.all(np.diff(total) > 0.0)
    assert np.all(total[2:] - 2.0 * total[1:-1] + total[:-2] >= -1e-9)
    _report("AC10 invariant suites", f"verify in {elapsed:.1f}s")
