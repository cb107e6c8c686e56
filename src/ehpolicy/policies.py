"""Stationary consumption policies for a battery-limited harvesting node.

A stationary policy maps the post-arrival stored energy x to the energy
consumed this slot, with 0 <= policy(x) <= x.  Implemented kinds:

    greedy          consume everything: x
    fixed_fraction  consume p * x
    maximin_generic x up to the first kink, else invert ladder_sum from the
                    kink table, each level certified by its own residual
    maximin_awgn    the same policy for the awgn reward, linear between its
                    kinks, so evaluated by interpolating the kink table

The maximin policy maximizes the worst-case long-run average reward over all
arrival processes whose capped mean is p times the battery capacity; the worst
case is the two-point (0 or full-battery) arrival law, and against that law
the policy spreads each full charge over a ladder of decreasing consumptions.
Its defining property is ladder_sum(reward, 1/(1-p), policy(x)) == x.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .rewards import (
    _LADDER_CAP,
    RewardFunction,
    _check_fraction,
    _check_positive,
    _ladder_sum,
    _prepare,
    ladder_sum,  # noqa: F401  (the public name perfbench's span recorder wraps here)
    step_down_cutoff,
)

__all__ = [
    "StationaryPolicy",
    "GreedyPolicy",
    "FixedFractionPolicy",
    "MaximinPolicy",
    "MaximinAwgnPolicy",
    "maximin_policy",
    "Endpoint",
    "maximin_kinks",
    "awgn_segment_index",
    "awgn_endpoints",
    "ergodic_levels",
    "greed_index",
    "normality_check",
    "NormalityReport",
]


class StationaryPolicy(ABC):
    """Base class: vectorized evaluation plus the reserve map."""

    kind: str = ""
    p: float | None = None

    @abstractmethod
    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        """Consumption for a 1-d array of stored-energy levels.

        Each level's consumption must depend on that level alone: not on the
        other levels in the array, nor on earlier calls.  The reserve ladder
        (_Ladder, which the series walk, ergodic_levels and simulate's
        renewal path on 0-or-c arrivals walk) asks _rungs for its rungs, and
        MaximinPolicy's certifies a block of them in one array, where the
        slot loop and value iteration evaluate whole arrays of unrelated
        levels; they give the same bits only under this contract.  Every
        policy here meets it."""

    def _consume(self, level: float) -> float:
        """Consumption at one finite, nonnegative level as a Python float.
        _evaluate on a one-element array by default; a policy may override it
        with float arithmetic that keeps _evaluate's bits."""
        return float(self._evaluate(np.array([level]))[0])

    def _rungs(self, level: float) -> list[float]:
        """Consumptions of the reserve ladder's rungs from one finite,
        nonnegative level down: [_consume(level)] by default, or a block of
        rungs, each at the level L - min(u, L) the one before leaves."""
        return [self._consume(level)]

    def evaluate(self, x):
        """Energy consumed at stored level x; satisfies 0 <= result <= x."""
        arr, scalar = _prepare(x, "stored energy")
        out = self._evaluate(arr.ravel()).reshape(arr.shape)
        return float(out) if scalar else out

    __call__ = evaluate

    def reserve(self, x):
        """Energy carried to the next slot: x - evaluate(x), clipped at 0."""
        return self.reserve_iter(1, x)

    def reserve_iter(self, i: int, x):
        """i-fold composition of the reserve map."""
        if i < 0 or int(i) != i:
            raise ValueError("i must be a nonnegative integer")
        arr, scalar = _prepare(x, "stored energy")
        out = arr.copy()
        for _ in range(int(i)):
            out = np.maximum(out - self._evaluate(out.ravel()).reshape(out.shape), 0.0)
        return float(out) if scalar else out


class _Ladder:
    """The reserve ladder from one level, walked a rung at a time: a rung at
    level L takes the next consumption kernel of policy._rungs, spends
    u = min(kernel, L) and leaves L - u.  A NaN or negative u raises
    ValueError.  fixed is set by a rung that leaves the level as it was, at
    0 too: under _evaluate's per-level contract every later rung repeats it.
    """

    __slots__ = ("_rungs", "_ahead", "level", "fixed")

    def __init__(self, policy: StationaryPolicy, level: float):
        self._rungs, self._ahead = policy._rungs, iter(())
        self.level, self.fixed = level, False

    def step(self) -> float:
        """Walk one rung and return its consumption; level is the level after it."""
        u = next(self._ahead, None)
        if u is None:  # the block is spent: ask for the rungs from here
            self._ahead = iter(self._rungs(self.level))
            u = next(self._ahead)
        level = self.level
        if level < u:  # min(u, level), without the builtin's call
            u = level
        if not 0.0 <= u:  # NaN too
            raise ValueError("u must be finite and nonnegative")
        self.level = level - u
        self.fixed = self.level == level
        return u


class GreedyPolicy(StationaryPolicy):
    """Consume the whole battery every slot."""

    kind = "greedy"

    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        return arr.copy()

    def _consume(self, level: float) -> float:
        return level


class FixedFractionPolicy(StationaryPolicy):
    """Consume a fixed fraction p of the stored energy."""

    kind = "fixed_fraction"

    def __init__(self, p: float):
        self.p = _check_fraction(p)

    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        return self.p * arr

    def _consume(self, level: float) -> float:
        return self.p * level  # one correctly rounded product, as numpy's


class _Maximin(StationaryPolicy):
    """The maximin policy's state: the reward, the ratio p, the ladder scale
    s = 1/(1-p), the kinks walked so far (through E_1 from the start) and
    their arrays _x, _y.  inversion_tol bounds how far a computed
    consumption may sit from the exact policy."""

    inversion_tol = 0.0

    def __init__(self, reward: RewardFunction, p: float):
        self.reward = reward
        self.p = _check_fraction(p)
        self.scale = 1.0 / (1.0 - self.p)
        self.kinks = KinkWalk(reward, self.p)
        self._x = self._y = np.zeros(1)
        _Maximin._cover(self, 0.0)  # through E_1, the end of the greedy segment, or raise

    def _cover(self, top: float) -> None:
        """Walk the kinks past top, or keep those walked and raise KinkWalk's ValueError."""
        if top >= self._x[-1]:
            try:
                self.kinks.cover(top)
            finally:
                if len(self.kinks.x) > self._x.size:
                    self._x, self._y = np.array(self.kinks.x), np.array(self.kinks.y)


class MaximinPolicy(_Maximin):
    """Maximin policy for any regular reward, via ladder-sum inversion.

    evaluate(x) is the unique u in [0, x] with ladder_sum(reward, s, u) == x,
    s = 1/(1-p): x itself at or below the first kink x_1 = y_1, so every
    ladder ends at exactly 0.  Above it, a level in the kink segment
    (x_(k-1), x_k] has its root in (y_(k-1), y_k]; past the kink cap or the
    float range, the last segment is extended to the largest float, which
    brackets the root because ladder_sum is convex.  u is the kink table
    at x, certified by its residual r = ladder_sum(u) - x on the raw kernel
    rewards._ladder_sum.  A level whose certificate fails takes the table
    at x - r, one step along its segment's chord slope, and then regula
    falsi with the Illinois modification (Dowell & Jarratt, BIT 11, 1971)
    inside its bracket, bisecting where a step leaves it.  It stops on
    |r| <= inversion_tol or on a bracket no wider than that: ladder_sum's
    slope is at least 1, so either puts u within inversion_tol of the
    root, the bound behind metrics.sweep's slack r'(0) inversion_tol / p.
    Each level runs on its own, so an array gets the bits of its levels
    one at a time, and the ladder walks, Monte Carlo, value iteration and
    curve share this one path.  After 200 steps a NaN residual, or a
    finite one above 1e-9 (1 + x), raises RuntimeError, and a +inf one,
    whose ladder sum leaves the float range, ValueError.

    The reserve ladder asks _rungs for a block of rungs at a time.  From a
    level above x_1 the table walks down the ladder, a rung
    L -> L - min(table(L), L), for up to _span rungs or until the level
    falls to x_1, and one _ladder_sum call certifies every rung of the
    block.  The rungs before the first failed certificate keep the table's
    value, the failed one is settled by the chord step and regula falsi,
    and the block ends there; so each rung is the one _evaluate gives its
    level alone.  A block that passes whole doubles _span, up to _AHEAD
    rungs; one that fails at its k-th rung sets it to k + 1.  So every
    certificate call runs the table check of a rung the walk asks for, and
    a ladder whose every rung fails makes the calls of one _evaluate a
    rung.  A level at or below x_1 is one rung that spends it all.  A
    subclass that overrides _evaluate is served by it on every rung.
    """

    kind = "maximin_generic"
    inversion_tol = 1e-12
    _AHEAD = 1024  # most rungs a block
    _span = 16  # rungs of the next block

    def _cover(self, top: float) -> None:
        """Walk the kinks past top; past the kink cap or the float range,
        extend the last segment to the largest float instead."""
        try:
            super()._cover(top)
        except ValueError:
            xs, ys, big = self._x, self._y, np.finfo(float).max
            if xs[-1] < big:
                y = ys[-1] + (big - xs[-1]) / ((xs[-1] - xs[-2]) / (ys[-1] - ys[-2]))
                self._x, self._y = np.append(xs, big), np.append(ys, y)

    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        above = arr > self._x[1]  # x itself on the greedy segment
        if not above.any():
            return arr.copy()
        x = arr[above]
        self._cover(float(x.max()))
        u = np.interp(x, self._x, self._y)
        # _ladder_steps' log of a zero ratio; a ladder past the float range
        # gives a +inf residual, which brackets, or a NaN one, which stalls
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r = _ladder_sum(self.reward, self.scale, u) - x
            fails = ~(np.abs(r) <= self.inversion_tol)
            if fails.any():
                u[fails] = self._settle(x[fails], r[fails])
        out = arr.copy()
        out[above] = np.minimum(u, x)
        return out

    def _rungs(self, level: float) -> list[float]:
        """Consumptions of a block of rungs from level down, certified
        together; _evaluate's alone for a subclass that overrides it."""
        if type(self)._evaluate is not MaximinPolicy._evaluate:
            return [self._consume(level)]
        x1 = float(self._x[1])
        if not level > x1:  # the greedy segment: one rung spends it all
            return [level]
        self._cover(level)
        xs, ys = self._x, self._y
        levels, table, spent = [], [], []
        for _ in range(self._span):
            u = float(np.interp(level, xs, ys))
            levels.append(level)
            table.append(u)
            if level < u:  # np.minimum(u, level), as _evaluate takes it
                u = level
            spent.append(u)
            level -= u
            if not level > x1:
                break
        x, u = np.array(levels), np.array(table)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r = _ladder_sum(self.reward, self.scale, u) - x
            passed = np.abs(r) <= self.inversion_tol
            k = int(passed.argmin())
            failed = not passed[k]
            if failed:  # keep the block through its first failed certificate
                del spent[k + 1 :]
                u = float(self._settle(x[k : k + 1], r[k : k + 1])[0])
                spent[k] = levels[k] if levels[k] < u else u
        self._span = k + 1 if failed else min(2 * self._span, self._AHEAD)
        return spent

    def _settle(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Consumptions at levels x whose table values failed their
        certificates with residuals r: the table at x - r, then _refine."""
        u = np.interp(x - r, self._x, self._y)
        r = _ladder_sum(self.reward, self.scale, u) - x
        fails = ~(np.abs(r) <= self.inversion_tol)
        if fails.any():
            u[fails] = self._refine(x[fails], u[fails], r[fails])
        return u

    def _refine(self, x: np.ndarray, u: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Regula falsi in each level's kink bracket from u (residual r) and the
        bracket's far end a, whose residual the chord through (u, r) estimates."""
        xs, ys, tol = self._x, self._y, self.inversion_tol
        k = np.searchsorted(xs, x)
        slope = (xs[k] - xs[k - 1]) / (ys[k] - ys[k - 1])
        a = np.where(r >= 0.0, ys[k - 1], ys[k])
        b, fa, fb = u, r - slope * (u - a), r
        out, todo = u.copy(), np.arange(x.size)
        for _ in range(200):
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            c = b - (b - a) * (fb / (fb - fa))  # the ratio is in [0, 1]: no overflow
            c = np.where((lo < c) & (c < hi), c, 0.5 * lo + 0.5 * hi)
            fc = _ladder_sum(self.reward, self.scale, c) - x
            done = (np.abs(fc) <= tol) | ((hi - lo <= tol) & (fc == fc))  # NaN: no sign
            out[todo[done]] = c[done]
            if done.all():
                return out
            # Illinois: an end kept a second time in a row has its residual halved
            same = (fc >= 0.0) == (fb >= 0.0)
            a, fa = np.where(same, a, b), np.where(same, 0.5 * fa, fb)
            todo, x, a, fa, b, fb = (v[~done] for v in (todo, x, a, fa, c, fc))
        worst = float(np.max(np.abs(fb)))  # NaN if any is
        if worst == math.inf:
            level = float(x[np.argmax(np.abs(fb))])
            raise ValueError(f"maximin ladder sum at level {level!r} leaves the float range")
        if not worst <= np.max(1e-9 * (1.0 + x)):  # NaN too
            raise RuntimeError(f"ladder-sum inversion stalled, residual {worst!r}")
        out[todo] = b
        return out


class MaximinAwgnPolicy(_Maximin):
    """Maximin policy for the awgn reward, by interpolating its own kinks.

    ladder_sum is affine in the head between kinks, so the policy is linear
    between the kinks (x_k, y_k), which self.kinks walks as far as the largest
    level asked for: exactly y_k at every kink and x before E_1 (x_1 == y_1).
    Past _LADDER_CAP kinks it raises maximin_kinks' ValueError.
    """

    kind = "maximin_awgn"

    def __init__(self, gamma: float, p: float):
        super().__init__(RewardFunction.awgn(gamma), p)
        self.gamma = self.reward.gamma

    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        self._cover(float(arr.max(initial=0.0)))
        return np.interp(arr, self._x, self._y)

    def _consume(self, level: float) -> float:
        self._cover(level)
        return float(np.interp(level, self._x, self._y))  # _evaluate's bits

    def segment_index(self, x):
        """Index k of the segment [x_(k-1), x_k) holding x; 1 on the greedy one."""
        arr, scalar = _prepare(x, "stored energy")
        self._cover(float(arr.max(initial=0.0)))
        m = np.searchsorted(self._x, arr, side="right")
        return int(m) if scalar else m


def awgn_segment_index(gamma: float, p: float, x):
    """Index of the linear segment of the awgn maximin policy holding x."""
    return MaximinAwgnPolicy(gamma, p).segment_index(x)


def maximin_policy(reward: RewardFunction, p: float) -> _Maximin:
    """The maximin policy at ratio p: kink interpolation for awgn, inversion otherwise."""
    if reward.kind == "awgn":
        return MaximinAwgnPolicy(reward.gamma, p)
    return MaximinPolicy(reward, p)


@dataclass(frozen=True)
class Endpoint:
    """Kink of the maximin policy: consumption y at stored level x."""

    k: int
    x: float
    y: float


class KinkWalk:
    """The kinks E_0, E_1, ... of the maximin policy, walked on demand.

    E_k is where the ladder gains its k-th rung: y_k = step_down_cutoff(reward,
    s**k) is the largest head that reaches 0 in k steps, with s = 1/(1-p), and
    E_0 is the origin.  One step down from y_k lands exactly on y_(k-1), so the
    ladder from y_k is y_k plus the ladder from y_(k-1), and the stored level
    x_k = ladder_sum(reward, s, y_k) is the running sum y_1 + ... + y_k, which
    costs one cutoff per kink for every reward kind.  x and y list the kinks
    walked so far; cover() continues the walk from the last of them.
    """

    def __init__(self, reward: RewardFunction, p: float):
        self.reward = reward
        self.p = _check_fraction(p)
        self.x = [0.0]
        self.y = [0.0]

    def cover(self, upto: float) -> None:
        """Walk on until the last kink lies past upto.  Raises ValueError when
        more than _LADDER_CAP kinks, or a float overflow, lie below upto."""
        s = 1.0 / (1.0 - self.p)
        x = self.x[-1]
        with np.errstate(over="ignore"):  # overflow is caught below and reported
            while x <= upto and len(self.x) <= _LADDER_CAP:
                try:
                    y = float(step_down_cutoff(self.reward, s ** len(self.x)))
                except OverflowError:
                    break
                if not math.isfinite(x + y):
                    break
                x += y
                self.x.append(x)
                self.y.append(y)
        if not x > upto:
            raise ValueError(
                f"maximin kinks at p={self.p!r} do not pass upto={upto!r} "
                f"within {_LADDER_CAP} kinks and float range"
            )


def maximin_kinks(reward: RewardFunction, p: float, upto: float) -> list[Endpoint]:
    """Kinks E_0, E_1, ... of the maximin policy, through the first with x > upto,
    from KinkWalk."""
    walk = KinkWalk(reward, p)
    walk.cover(upto)
    return [Endpoint(k=k, x=x, y=y) for k, (x, y) in enumerate(zip(walk.x, walk.y))]


def awgn_endpoints(gamma: float, p: float, k_max: int) -> list[Endpoint]:
    """Segment endpoints E_0..E_k_max of the awgn maximin policy.

    E_k has stored level ((1-p)**-k - 1) / p - k and consumption
    (1-p)**-k - 1, both divided by gamma; E_0 is the origin.  This closed
    form is the independent reference for maximin_kinks and the policy.
    """
    gamma = _check_positive(gamma, "gamma")
    p = _check_fraction(p)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    out = []
    for k in range(int(k_max) + 1):
        g = (1.0 - p) ** (-k)
        out.append(Endpoint(k=k, x=((g - 1.0) / p - k) / gamma, y=(g - 1.0) / gamma))
    return out


def ergodic_levels(policy: StationaryPolicy, c: float) -> np.ndarray:
    """Battery levels a maximin policy cycles through under 0-or-full arrivals.

    Starting full at c, the policy's reserve ladder (_Ladder, which
    bernoulli_reward walks too, so these are its levels, bit for bit) falls
    strictly to exactly 0, then a full charge resets to c.  A NaN or
    negative consumption raises the ladder's ValueError; a rung that leaves
    a level above 0 as it was, or _LADDER_CAP rungs that do not reach 0,
    raise RuntimeError.
    """
    if not isinstance(policy, _Maximin):
        raise ValueError("ergodic levels are defined for the maximin policies")
    c = _check_positive(c)
    levels = [c]
    ladder = _Ladder(policy, c)
    while ladder.level > 0.0:
        if ladder.fixed or len(levels) > _LADDER_CAP:
            rungs = len(levels) - 1
            raise RuntimeError(f"maximin ladder from {c!r} not at 0 after {rungs} rungs")
        ladder.step()
        levels.append(ladder.level)
    return np.asarray(levels)


def greed_index(
    policy: StationaryPolicy,
    reward: RewardFunction,
    c: float,
    grid_points: int = 10001,
) -> float:
    """How steeply the policy front-loads consumption, in [0, 1).

    One minus the smallest ratio marginal(policy(x)) / marginal(policy(reserve(x)))
    over x in [0, c], approximated on a uniform grid.  0 means perfectly
    smoothed consecutive consumptions; greedy scores 1 - marginal(c)/marginal(0).
    The maximin policy at mean-to-capacity ratio p scores at most p.
    """
    c = _check_positive(c)
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    x = np.linspace(0.0, c, int(grid_points))
    first = policy.evaluate(x)
    second = policy.evaluate(np.maximum(x - first, 0.0))
    ratio = np.asarray(reward.marginal(first), dtype=float) / np.asarray(
        reward.marginal(second), dtype=float
    )
    return float(1.0 - ratio.min())


@dataclass(frozen=True)
class NormalityReport:
    """Grid audit of a policy's shape on [0, c]."""

    nondecreasing: bool
    concave: bool
    max_decrease: float
    max_convexity: float

    @property
    def passed(self) -> bool:
        return self.nondecreasing and self.concave


def normality_check(
    policy: StationaryPolicy,
    c: float,
    grid_points: int = 10001,
    slack: float = 1e-9,
) -> NormalityReport:
    """Check that consumption is nondecreasing and concave on [0, c].

    Uses first and second differences on a uniform grid with an absolute
    slack for float noise.
    """
    c = _check_positive(c)
    x = np.linspace(0.0, c, int(grid_points))
    u = policy.evaluate(x)
    d1 = np.diff(u)
    d2 = u[2:] - 2.0 * u[1:-1] + u[:-2]
    max_decrease = float(max(-d1.min(), 0.0)) if d1.size else 0.0
    max_convexity = float(max(d2.max(), 0.0)) if d2.size else 0.0
    return NormalityReport(
        nondecreasing=bool(max_decrease <= slack),
        concave=bool(max_convexity <= slack),
        max_decrease=max_decrease,
        max_convexity=max_convexity,
    )
