"""Self-contained invariant suites behind the `verify` CLI subcommand.

Each suite exercises one module's contracts on small grids and returns
CheckResult rows; run_all chains them.  The suites are sized to finish in
well under a minute while still touching every evaluator and every family.
They check the kernels the evaluators run, not restatements of them:
simulate's slot loop and chunked splice, the reserve ladder and the grid
model's expectation operator.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import arrivals as arr
from . import evaluation as ev
from . import metrics as mx
from . import policies as pol
from . import rewards as rw

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _mk(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _sample_rewards() -> list[rw.RewardFunction]:
    # custom wraps the gamma=1 awgn closed forms to exercise the generic path
    custom = rw.RewardFunction.custom(
        value=lambda u: 0.5 * np.log1p(u),
        marginal=lambda u: 0.5 / (1.0 + u),
        marginal_inverse=lambda y: 0.5 / y - 1.0,
    )
    return [
        rw.RewardFunction.awgn(0.5),
        rw.RewardFunction.awgn(1.0),
        rw.RewardFunction.awgn(2.0),
        rw.RewardFunction.sqrt_rate(),
        custom,
    ]


def reward_checks() -> list[CheckResult]:
    out: list[CheckResult] = []
    x = np.linspace(0.0, 40.0, 181)
    scales = (1.25, 2.0, 10.0)
    for reward in _sample_rewards():
        label = f"reward[{reward.kind}:{reward.gamma}]"
        worst_pair = 0.0
        worst_iter = 0.0
        worst_trunc = 0.0
        bounds_ok = True
        inverse_err = float(
            np.max(
                np.abs(
                    np.asarray(reward.marginal_inverse(reward.marginal(x[1:])))
                    - x[1:]
                )
                / np.maximum(1.0, x[1:])
            )
        )
        for s in scales:
            down = np.asarray(rw.step_down(reward, s, x))
            bounds_ok &= bool(
                np.all(down >= 0.0)
                and np.all(down[x > 0] < x[x > 0])
                and np.all(down[x <= rw.step_down_cutoff(reward, s)] == 0.0)
            )
            # i-fold composition vs the closed single-step form
            composed = x.copy()
            for i in range(1, 6):
                composed = np.asarray(rw.step_down(reward, s, composed))
                direct = np.asarray(rw.step_down_iter(reward, s, i, x))
                worst_iter = max(worst_iter, float(np.max(np.abs(composed - direct))))
            total = np.asarray(rw.ladder_sum(reward, s, x))
            d1 = np.diff(total)
            d2 = total[2:] - 2.0 * total[1:-1] + total[:-2]
            bounds_ok &= bool(np.all(d1 > 0.0) and np.all(d2 >= -1e-9) and np.all(total >= x))
            # explicit rung sums truncated at both ladder lengths
            steps = np.asarray(rw.depletion_steps(reward, s, x))
            steps_up = np.asarray(rw.depletion_steps_upper(reward, s, x))
            for count in (steps, steps_up):
                kmax = int(count.max())
                acc = np.zeros_like(x)
                for i in range(kmax):
                    term = np.asarray(rw.step_down_iter(reward, s, i, x))
                    acc += np.where(i < count, term, 0.0)
                worst_trunc = max(
                    worst_trunc,
                    float(np.max(np.abs(acc - total) / np.maximum(1.0, np.abs(total)))),
                )
            # minimality of the ladder length
            at_m = np.asarray(
                [rw.step_down_iter(reward, s, int(m), float(t)) for m, t in zip(steps, x)]
            )
            before = np.asarray(
                [
                    rw.step_down_iter(reward, s, int(m - 1), float(t)) if m > 0 else np.nan
                    for m, t in zip(steps, x)
                ]
            )
            ok_min = bool(
                np.all(at_m == 0.0)
                and np.all((np.isnan(before)) | (before > 0.0))
            )
            worst_pair = max(worst_pair, 0.0 if ok_min else 1.0)
        out.append(_mk(f"{label} step_down bounds and ladder shape", bounds_ok))
        out.append(
            _mk(
                f"{label} composition matches closed iterate",
                worst_iter <= 1e-10,
                f"max |difference| {worst_iter!r}",
            )
        )
        out.append(
            _mk(
                f"{label} both ladder lengths truncate identically",
                worst_trunc <= 1e-12,
                f"max relative {worst_trunc!r}",
            )
        )
        out.append(_mk(f"{label} ladder length minimal", worst_pair == 0.0))
        out.append(
            _mk(
                f"{label} marginal_inverse inverts marginal",
                inverse_err <= 1e-9,
                f"max relative {inverse_err!r}",
            )
        )
        audit_fails = [item for item in rw.regularity_audit(reward) if not item[1]]
        out.append(
            _mk(
                f"{label} regularity audit",
                not audit_fails,
                audit_fails[0][0] if audit_fails else "",
            )
        )
    return out


def policy_checks() -> list[CheckResult]:
    out: list[CheckResult] = []
    x = np.linspace(0.0, 50.0, 201)
    worst_closed = 0.0
    worst_identity = 0.0
    worst_consistency = 0.0
    worst_residual = 0.0
    for gamma in (0.5, 1.0, 2.0):
        reward = rw.RewardFunction.awgn(gamma)
        for p in (0.1, 0.5, 0.9):
            closed = pol.MaximinAwgnPolicy(gamma, p)
            generic = pol.MaximinPolicy(reward, p)
            a = closed.evaluate(x)
            b = generic.evaluate(x)
            worst_closed = max(worst_closed, float(np.max(np.abs(a - b))))
            region = x[gamma * x <= p / (1.0 - p)]
            if region.size:
                worst_identity = max(
                    worst_identity, float(np.max(np.abs(closed.evaluate(region) - region)))
                )
            # consuming then re-planning equals stepping down the ladder
            head = closed.evaluate(x)
            for i in (1, 2, 3):
                lhs = closed.evaluate(closed.reserve_iter(i, x))
                rhs = np.asarray(rw.step_down_iter(reward, closed.scale, i, head))
                worst_consistency = max(worst_consistency, float(np.max(np.abs(lhs - rhs))))
            resid = np.abs(np.asarray(rw.ladder_sum(reward, generic.scale, b)) - x)
            worst_residual = max(worst_residual, float(np.max(resid)))
    out.append(
        _mk(
            "maximin closed form matches generic inversion",
            worst_closed <= 1e-8,
            f"max |difference| {worst_closed!r}",
        )
    )
    out.append(
        _mk(
            "maximin coincides with greedy on the first segment",
            worst_identity <= 1e-12,
            f"max |difference| {worst_identity!r}",
        )
    )
    out.append(
        _mk(
            "consume-then-replan matches the ladder",
            worst_consistency <= 1e-8,
            f"max |difference| {worst_consistency!r}",
        )
    )
    out.append(
        _mk(
            "generic inversion residual within tolerance",
            worst_residual <= 1e-10,
            f"max residual {worst_residual!r}",
        )
    )

    gamma, p = 1.0, 0.5
    closed = pol.MaximinAwgnPolicy(gamma, p)
    pts = pol.awgn_endpoints(gamma, p, 6)
    on_curve = max(abs(closed.evaluate(e.x) - e.y) for e in pts)
    out.append(
        _mk(
            "segment endpoints lie on the policy curve",
            on_curve <= 1e-10,
            f"max |difference| {on_curve!r}",
        )
    )
    linear_ok = True
    for left, right in zip(pts[:-1], pts[1:]):
        inner = np.linspace(left.x, right.x, 41)
        vals = closed.evaluate(inner)
        d2 = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        linear_ok &= bool(np.max(np.abs(d2)) <= 1e-9)
    out.append(_mk("policy linear between endpoints", linear_ok))

    levels = pol.ergodic_levels(closed, 4.0)
    out.append(
        _mk(
            "recurrent levels walk from c to exactly 0",
            bool(
                levels[0] == 4.0
                and levels[-1] == 0.0
                and np.all(np.diff(levels) < 0.0)
            ),
            f"levels {levels.tolist()!r}",
        )
    )

    reward1 = rw.RewardFunction.awgn(1.0)
    g_greedy = pol.greed_index(pol.GreedyPolicy(), reward1, 1.0)
    expect_greedy = 1.0 - reward1.marginal(1.0) / reward1.marginal(0.0)
    out.append(
        _mk(
            "greed index of greedy",
            abs(g_greedy - expect_greedy) <= 1e-9,
            f"{g_greedy!r} vs {expect_greedy!r}",
        )
    )
    p, c = 0.5, 1.0
    g_fixed = pol.greed_index(pol.FixedFractionPolicy(p), reward1, c)
    expect_fixed = p * p * c / (1.0 + p * c)
    out.append(
        _mk(
            "greed index of fixed fraction",
            abs(g_fixed - expect_fixed) <= 1e-6,
            f"{g_fixed!r} vs {expect_fixed!r}",
        )
    )
    ok_maximin = True
    for p in (0.2, 0.5, 0.8):
        for c in (0.5, 2.0, 8.0):
            idx = pol.greed_index(pol.MaximinAwgnPolicy(1.0, p), reward1, c)
            ok_maximin &= idx <= p + 1e-6
    out.append(_mk("greed index of maximin at most p", ok_maximin))

    shapes_ok = True
    for policy in (pol.GreedyPolicy(), pol.FixedFractionPolicy(0.3), closed):
        shapes_ok &= pol.normality_check(policy, 6.0).passed
    out.append(_mk("policies nondecreasing and concave", shapes_ok))
    return out


def _survival_integral(dist: arr.ArrivalDistribution) -> float:
    """E[min(X, c)] as the integral of the survival function over [0, c], by
    20-point Gauss-Legendre on each piece where it is smooth: a uniform law
    with b < c has a kink at b."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    cuts = [0.0, dist.c]
    if isinstance(dist, arr.LimitedUniformArrivals) and dist.b < dist.c:
        cuts.insert(1, dist.b)
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        half = 0.5 * (hi - lo)
        total += half * float(weights @ (1.0 - dist._continuous_cdf(lo + half * (nodes + 1.0))))
    return total


def arrival_checks(seed: int) -> list[CheckResult]:
    out: list[CheckResult] = []
    cases = [
        arr.BernoulliArrivals(2.0, 0.3),
        arr.LimitedUniformArrivals(2.0, 1.2),
        arr.LimitedUniformArrivals(2.0, 5.0),
        arr.LimitedExponentialArrivals(2.0, 0.8),
        arr.LimitedExponentialArrivals(0.5, 4.0),
    ]
    worst_mean = 0.0
    for dist in cases:
        # independent oracle: E[min(X, c)] as the integral of the survival function
        if isinstance(dist, arr.BernoulliArrivals):
            oracle = dist.p * dist.c
        else:
            oracle = _survival_integral(dist)
        worst_mean = max(worst_mean, abs(dist.effective_mean() - oracle))
    out.append(
        _mk(
            "capped means match survival-integral oracle",
            worst_mean <= 1e-10,
            f"max |difference| {worst_mean!r}",
        )
    )

    round_ok = True
    for family in ("uniform", "exponential"):
        for target in (0.1, 0.4323, 0.6, 0.72):
            dist = arr.from_mcr(family, 3.0, target)
            round_ok &= abs(dist.mcr() - target) <= 1e-10
        for target in (0.1, 0.5, 0.9, 2.0):
            dist = arr.from_nmcr(family, 3.0, target)
            round_ok &= abs(dist.nmcr() - target) <= 1e-12
    out.append(_mk("ratio constructors round-trip", round_ok))

    rng = np.random.default_rng(seed)
    sample_ok = True
    detail = ""
    for dist in cases:
        draws = dist.sample(rng, 1_000_000)
        err = abs(float(draws.mean()) - dist.effective_mean())
        band = 3.0 * float(draws.std(ddof=1)) / 1000.0
        inside = bool(np.all(draws >= 0.0) and np.all(draws <= dist.c))
        if err > band or not inside:
            sample_ok = False
            detail = f"{dist.family}: mean error {err!r} vs band {band!r}"
    out.append(_mk("sample moments within 3 standard errors", sample_ok, detail))

    disc_ok = True
    detail = ""
    for dist in cases:
        for cells in (1, 2, 10, 100, 1000):
            pmf = dist.discretize(cells)
            total = float(pmf.mass.sum())
            if abs(total - 1.0) > 1e-12 or np.any(pmf.mass < -1e-15):
                disc_ok = False
                detail = f"{dist.family} cells={cells}: total {total!r}"
            if abs(pmf.mean() - dist.effective_mean()) > dist.c / cells:
                disc_ok = False
                detail = f"{dist.family} cells={cells}: mean off by {abs(pmf.mean() - dist.effective_mean())!r}"
    out.append(_mk("discretize conserves mass and mean", disc_ok, detail))

    pmf = arr.BernoulliArrivals(1.0, 0.3).discretize(1)
    out.append(
        _mk(
            "two-point law discretizes to exact atoms",
            pmf.mass[0] == 0.7 and pmf.mass[1] == 0.3 and len(pmf.grid) == 2,
            f"mass {pmf.mass.tolist()!r}",
        )
    )
    return out


class _Scaled(pol.FixedFractionPolicy):
    """A fixed fraction that may pass 1 or be NaN."""

    def __init__(self, fraction: float):
        self.p = fraction


def evaluation_checks(seed: int) -> list[CheckResult]:
    out: list[CheckResult] = []
    reward = rw.RewardFunction.awgn(1.0)

    # one path, three slots of 0.75 at c = 1: the second is capped at c
    spent = np.empty((2, 3, 1))
    for rows, policy in zip(spent, (pol.FixedFractionPolicy(0.5), _Scaled(2.0))):
        ev._slot_steps(policy, np.full((1, 3), 0.75), rows, np.zeros(1), 1.0)
    slots = spent.reshape(2, 3).tolist()
    ok = slots == [[0.375, 0.5, 0.5], [0.75] * 3]
    out.append(_mk("slot loop caps at c and clamps to the level", ok, f"{slots!r}"))
    # one block of 300 slots on 4 paths, run by the chunks and by the slot loop
    uniform, policy, cols = arr.from_mcr("uniform", 2.0, 0.5), pol.MaximinAwgnPolicy(1.0, 0.5), 300
    draws = np.zeros((4, -(-cols // ev._CHUNK) * ev._CHUNK))
    draws[:, :cols] = [uniform.sample(rng, cols) for rng in ev._streams(seed, 4)]
    spliced, looped, full = (np.empty(draws.shape[::-1]) for _ in range(3))
    end, met = ev._spliced_block(policy, draws, spliced, full, np.zeros(4), 2.0, cols)
    carried = ev._slot_steps(policy, draws[:, :cols], looped[:cols], np.zeros(4), 2.0)
    ok = met and np.array_equal(end, carried) and np.array_equal(spliced[:cols], looped[:cols])
    out.append(_mk("chunked splice matches the slot loop bit for bit", ok, f"met {met!r}"))
    rejected = []
    for law in (arr.BernoulliArrivals(2.0, 0.5), uniform):
        try:
            ev.simulate(_Scaled(math.nan), law, reward, cols, 4, seed)
        except ValueError:
            rejected.append(law.family)
    out.append(_mk("simulate rejects a NaN consumption on both arrival paths", len(rejected) == 2))

    p, c = 0.5, 1.0
    series_greedy = ev.bernoulli_reward(pol.GreedyPolicy(), reward, c, p)
    series_maximin = ev.bernoulli_reward(pol.MaximinAwgnPolicy(1.0, p), reward, c, p)
    out.append(
        _mk(
            "series: greedy earns p r(c), maximin matches it at c = 1",
            abs(series_greedy.value - p * reward.value(c)) <= 1e-15
            and abs(series_maximin.value - 0.25 * math.log(2.0)) <= 1e-15
            and series_maximin.residual == 0.0,
            f"greedy {series_greedy.value!r} maximin {series_maximin.value!r}",
        )
    )

    check = ev.bernoulli_derivative_check(reward, 0.5, 2.0, h=1e-5)
    out.append(
        _mk(
            "series slope matches p marginal(policy(c))",
            (not check.skipped) and abs(check.fd_slope - check.analytic_slope) <= 1e-4,
            f"fd {check.fd_slope!r} analytic {check.analytic_slope!r}",
        )
    )

    dist = arr.BernoulliArrivals(1.0, 0.5)
    tiny = ev.build_mdp(reward, dist, 1)
    best_tiny, _ = ev.optimal_gain(tiny, eps=1e-12)
    out.append(
        _mk(
            "two-state chain optimum is p r(c)",
            abs(best_tiny.value - 0.5 * reward.value(1.0)) <= 1e-9,
            f"{best_tiny.value!r}",
        )
    )
    model500 = ev.build_mdp(reward, arr.BernoulliArrivals(2.0, 0.5), 500)
    # the direct correlation on 2 levels and the FFT on 501
    drift = max(abs(m._expected_next(np.full(m.states, 3.0)) - 3.0).max() for m in (tiny, model500))
    out.append(_mk("expectation operator maps a constant to itself", drift <= 1e-12, f"{drift:g}"))

    policy = pol.MaximinAwgnPolicy(1.0, 0.5)
    series = ev.bernoulli_reward(policy, reward, 2.0, 0.5)
    best, _ = ev.optimal_gain(model500, eps=1e-9)
    mine = ev.policy_gain(model500, policy, eps=1e-9)
    budget = (best.tolerance or 0.0) + (series.tolerance or 0.0)
    out.append(
        _mk(
            "grid optimum agrees with the exact series",
            abs(best.value - series.value) <= budget,
            f"vi {best.value!r} series {series.value!r} budget {budget!r}",
        )
    )
    out.append(
        _mk(
            "maximin policy gain within budget of the grid optimum",
            mine.value <= best.value + 1e-9
            and best.value - mine.value <= (mine.tolerance or 0.0) + (best.tolerance or 0.0),
            f"policy {mine.value!r} optimal {best.value!r}",
        )
    )

    mc = ev.simulate(policy, arr.BernoulliArrivals(2.0, 0.5), reward, 20_000, 32, seed)
    out.append(
        _mk(
            "Monte Carlo within 4 standard errors of the series",
            abs(mc.value - series.value) <= 4.0 * mc.stderr,
            f"mc {mc.value!r} series {series.value!r} stderr {mc.stderr!r}",
        )
    )

    mono_ok = True
    prev = -np.inf
    for c_val in (0.5, 1.0, 2.0):
        m = ev.build_mdp(reward, arr.BernoulliArrivals(c_val, 0.3), 300)
        val, _ = ev.optimal_gain(m, eps=1e-8)
        if val.value < prev - 2.0 * (val.tolerance or 0.0):
            mono_ok = False
        prev = val.value
        if val.value > mx.universal_upper_bound(reward, c_val, 0.3) + (val.tolerance or 0.0):
            mono_ok = False
    out.append(_mk("grid optimum monotone in c and below r(pc)", mono_ok))
    return out


def metrics_checks() -> list[CheckResult]:
    out: list[CheckResult] = []
    reward = rw.RewardFunction.awgn(1.0)

    grid = [1.0 / n for n in range(2, 401)]
    vals = [mx.f0(q) for q in grid]
    floor_ok = all(v >= 1.0 - 1.0 / math.e for v in vals)
    out.append(
        _mk(
            "f0 stays above 1 - 1/e and approaches it",
            floor_ok and min(vals) - (1.0 - 1.0 / math.e) <= 1e-3,
            f"min f0 {min(vals)!r}",
        )
    )

    chain_ok = True
    detail = ""
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        for c in (0.25, 1.0, 4.0):
            policy = pol.MaximinAwgnPolicy(1.0, p)
            value = ev.bernoulli_reward(policy, reward, c, p).value
            ratio = value / mx.universal_upper_bound(reward, c, p)
            if ratio < mx.f0(p) - 1e-3 or ratio > 1.0 + 1e-12:
                chain_ok = False
                detail = f"p={p} c={c}: ratio {ratio!r} f0 {mx.f0(p)!r}"
    out.append(_mk("maximin gain over r(pc) stays above f0", chain_ok, detail))

    frac_ok = True
    detail = ""
    for p in (0.2, 0.5, 0.8):
        tiny = ev.bernoulli_reward(pol.FixedFractionPolicy(p), reward, 1e-3, p).value
        best = ev.bernoulli_reward(pol.MaximinAwgnPolicy(1.0, p), reward, 1e-3, p).value
        factor = tiny / best
        target = mx.small_capacity_factor_limit(p)
        if abs(factor - target) > 0.02 * target or factor < 0.5 - 1e-9:
            frac_ok = False
            detail = f"p={p}: factor {factor!r} target {target!r}"
    out.append(_mk("fixed-fraction factor near 1/(2-p) for small c", frac_ok, detail))

    reports = mx.sweep(
        reward,
        ("maximin", "fixed_fraction"),
        "bernoulli",
        (0.5, 1.0, 4.0),
        p_values=(0.2, 0.5, 0.8),
    )
    dom_ok = True
    shape_ok = True
    for c in (0.5, 1.0, 4.0):
        for p in (0.2, 0.5, 0.8):
            cell = {
                r.policy: r for r in reports if r.c == c and r.p == p
            }
            if cell["maximin"].policy_gain < cell["fixed_fraction"].policy_gain - 1e-12:
                dom_ok = False
            for r in cell.values():
                if not (0.0 - 1e-12 <= r.multiplicative_factor <= 1.0 + 1e-12):
                    shape_ok = False
                if abs(r.additive_gap - (r.optimal_gain - r.policy_gain)) > 1e-15:
                    shape_ok = False
    out.append(_mk("maximin dominates fixed fraction (series cells)", dom_ok))
    out.append(_mk("report rows internally consistent", shape_ok))

    uni = mx.sweep(
        reward,
        ("maximin", "fixed_fraction"),
        "uniform",
        (2.0,),
        nmcr_values=(0.5,),
        grid_cells=300,
        vi_eps=1e-8,
    )
    cell = {r.policy: r for r in uni}
    budget = cell["maximin"].tolerance + cell["fixed_fraction"].tolerance
    out.append(
        _mk(
            "maximin dominates fixed fraction (uniform cell)",
            cell["maximin"].policy_gain >= cell["fixed_fraction"].policy_gain - budget,
            f"{cell['maximin'].policy_gain!r} vs {cell['fixed_fraction'].policy_gain!r}",
        )
    )

    order_ok = True
    detail = ""
    for kind in ("maximin", "fixed_fraction"):
        base = next(
            r
            for r in mx.sweep(reward, (kind,), "bernoulli", (1.0,), p_values=(0.5,))
        )
        for family in ("uniform", "exponential"):
            other = next(
                r
                for r in mx.sweep(
                    reward, (kind,), family, (1.0,),
                    p_values=(0.5,), grid_cells=300, vi_eps=1e-8,
                )
            )
            if base.policy_gain > other.policy_gain + other.tolerance:
                order_ok = False
                detail = f"{kind}/{family}: {base.policy_gain!r} vs {other.policy_gain!r}"
    out.append(_mk("two-point arrivals are least favorable at matched ratio", order_ok, detail))

    close_ok = True
    detail = ""
    for family in ("uniform", "exponential"):
        reps = mx.sweep(
            reward, ("maximin",), family, (2.0,),
            nmcr_values=(0.1,), grid_cells=500, vi_eps=1e-8,
        )
        r0 = reps[0]
        if r0.multiplicative_factor < 0.98 - r0.tolerance / r0.optimal_gain:
            close_ok = False
            detail = f"{family}: factor {r0.multiplicative_factor!r}"
    out.append(_mk("maximin within 2% of optimal at low ratio", close_ok, detail))

    buf1, buf2 = io.StringIO(), io.StringIO()
    mx.write_csv(reports, buf1)
    mx.write_csv(reports, buf2)
    header_ok = buf1.getvalue().splitlines()[0] == mx.CSV_HEADER
    out.append(
        _mk(
            "CSV header canonical and output deterministic",
            header_ok and buf1.getvalue() == buf2.getvalue(),
        )
    )
    return out


def run_all(seed: int = 0) -> list[CheckResult]:
    """Every suite, in module order."""
    results: list[CheckResult] = []
    results += reward_checks()
    results += policy_checks()
    results += arrival_checks(seed)
    results += evaluation_checks(seed)
    results += metrics_checks()
    return results
