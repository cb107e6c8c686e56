"""Stationary consumption policies for a battery-limited harvesting node.

A stationary policy maps the post-arrival stored energy x to the energy
consumed this slot, with 0 <= policy(x) <= x.  Implemented kinds:

    greedy          consume everything: x
    fixed_fraction  consume p * x
    maximin_generic x up to the first kink, else invert ladder_sum by bisection
                    on its raw kernel
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


def _check_fraction(p: float) -> float:
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    return p


class StationaryPolicy(ABC):
    """Base class: vectorized evaluation plus the reserve map."""

    kind: str = ""
    p: float | None = None

    @abstractmethod
    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        """Consumption for a 1-d array of stored-energy levels."""

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


class GreedyPolicy(StationaryPolicy):
    """Consume the whole battery every slot."""

    kind = "greedy"

    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        return arr.copy()


class FixedFractionPolicy(StationaryPolicy):
    """Consume a fixed fraction p of the stored energy."""

    kind = "fixed_fraction"

    def __init__(self, p: float):
        self.p = _check_fraction(p)

    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        return self.p * arr


class MaximinPolicy(StationaryPolicy):
    """Maximin policy for any regular reward, via ladder-sum inversion.

    evaluate(x) is the unique u in [0, x] with ladder_sum(reward, s, u) == x,
    s = 1/(1-p): x itself at or below the first kink x_1 = y_1 of self.kinks,
    so every ladder ends at exactly 0, and otherwise found by bisection on the
    residual (ladder_sum(u) - x), run on the whole array.  ladder_sum(0) = 0
    and ladder_sum(x) >= x bracket the root, and the slope is at least 1, so
    the residual, at most inversion_tol, bounds the error in u.  Each step
    runs the raw kernel rewards._ladder_sum: the midpoints are finite and
    nonnegative by construction, and the scale was checked when self.kinks
    took its first step.
    """

    kind = "maximin_generic"
    inversion_tol = 1e-12

    def __init__(self, reward: RewardFunction, p: float):
        self.reward = reward
        self.p = _check_fraction(p)
        self.scale = 1.0 / (1.0 - self.p)
        self.kinks = KinkWalk(reward, self.p)
        self.kinks.cover(0.0)  # through E_1, the end of the greedy segment

    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        lo = np.zeros_like(arr)
        hi = arr.copy()
        mid = 0.5 * (lo + hi)
        for _ in range(200):
            resid = _ladder_sum(self.reward, self.scale, mid) - arr
            if np.abs(resid).max(initial=0.0) <= self.inversion_tol:
                break
            above = resid >= 0.0
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
            mid = 0.5 * (lo + hi)
        else:
            worst = float(np.max(np.abs(resid)))
            if worst > np.max(1e-9 * (1.0 + arr), initial=0.0):
                raise RuntimeError(f"ladder-sum inversion stalled, residual {worst!r}")
        return np.where(arr <= self.kinks.x[1], arr, np.clip(mid, 0.0, arr))


class MaximinAwgnPolicy(StationaryPolicy):
    """Maximin policy for the awgn reward, by interpolating its own kinks.

    ladder_sum is affine in the head between kinks, so the policy is linear
    between the kinks (x_k, y_k), which self.kinks walks as far as the largest
    level asked for: exactly y_k at every kink and x before E_1 (x_1 == y_1).
    Past _LADDER_CAP kinks it raises maximin_kinks' ValueError.
    """

    kind = "maximin_awgn"

    def __init__(self, gamma: float, p: float):
        self.reward = RewardFunction.awgn(gamma)
        self.gamma = self.reward.gamma
        self.p = _check_fraction(p)
        self.scale = 1.0 / (1.0 - self.p)
        self.kinks = KinkWalk(self.reward, self.p)
        self._x = self._y = np.zeros(1)

    def _cover(self, arr: np.ndarray) -> None:
        top = float(arr.max(initial=0.0))
        if top >= self._x[-1]:
            self.kinks.cover(top)
            self._x, self._y = np.array(self.kinks.x), np.array(self.kinks.y)

    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        self._cover(arr)
        return np.interp(arr, self._x, self._y)

    def segment_index(self, x):
        """Index k of the segment [x_(k-1), x_k) holding x; 1 on the greedy one."""
        arr, scalar = _prepare(x, "stored energy")
        self._cover(arr)
        m = np.searchsorted(self._x, arr, side="right")
        return int(m) if scalar else m


def awgn_segment_index(gamma: float, p: float, x):
    """Index of the linear segment of the awgn maximin policy holding x."""
    return MaximinAwgnPolicy(gamma, p).segment_index(x)


def maximin_policy(reward: RewardFunction, p: float) -> MaximinPolicy | MaximinAwgnPolicy:
    """The maximin policy at ratio p: kink interpolation for awgn, bisection otherwise."""
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
    gamma = RewardFunction.awgn(gamma).gamma
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

    Starting full at c, the policy's own reserve map walks a strictly
    decreasing ladder down to exactly 0 (then a full charge resets to c), as
    bernoulli_reward does, bit for bit.  Raises RuntimeError when the walk
    does not reach 0 within _LADDER_CAP rungs.
    """
    if not isinstance(policy, (MaximinPolicy, MaximinAwgnPolicy)):
        raise ValueError("ergodic levels are defined for the maximin policies")
    c = float(c)
    if not c > 0:
        raise ValueError("c must be positive")
    levels = [c]
    while levels[-1] > 0.0:
        if len(levels) > _LADDER_CAP:
            raise RuntimeError(f"maximin ladder from {c!r} not at 0 after {_LADDER_CAP} rungs")
        levels.append(policy.reserve(levels[-1]))
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
    c = float(c)
    if not c > 0:
        raise ValueError("c must be positive")
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
    c = float(c)
    if not c > 0:
        raise ValueError("c must be positive")
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
