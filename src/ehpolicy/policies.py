"""Stationary consumption policies for a battery-limited harvesting node.

A stationary policy maps the post-arrival stored energy x to the energy
consumed this slot, with 0 <= policy(x) <= x.  Implemented kinds:

    greedy          consume everything: x
    fixed_fraction  consume p * x
    maximin_awgn    the maximin policy for the awgn reward, linear between
                    its kinks, so the kink table itself
    maximin_sqrt    the same for the sqrt reward, whose ladder step is
                    affine too
    maximin_generic the maximin policy for a custom reward: x up to the first
                    kink, else invert ladder_sum from the kink table, each
                    level certified by its own residual

A policy has two kernels: _evaluate on an array of levels, and _rung, the
one scalar kernel, which the reserve ladder asks for one consumption a rung.
Every maximin kind is _Maximin, the kink-table policy, whose kernels
interpolate the table; MaximinPolicy adds the certificate, and serves the
ladder from a block of rungs certified together.

The maximin policy maximizes the worst-case long-run average reward over all
arrival processes whose capped mean is p times the battery capacity; the worst
case is the two-point (0 or full-battery) arrival law, and against that law
the policy spreads each full charge over a ladder of decreasing consumptions.
Its defining property is ladder_sum(reward, 1/(1-p), policy(x)) == x.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
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

_BIG = float(np.finfo(float).max)

__all__ = [
    "StationaryPolicy",
    "GreedyPolicy",
    "FixedFractionPolicy",
    "MaximinPolicy",
    "MaximinAwgnPolicy",
    "MaximinSqrtPolicy",
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

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_evaluate" in vars(cls) and "_rung" not in vars(cls):
            cls._rung = StationaryPolicy._rung  # walked through its own _evaluate

    @abstractmethod
    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        """Consumption for a 1-d array of stored-energy levels.

        Each level's consumption must depend on that level alone: not on the
        other levels in the array, nor on earlier calls.  Every policy must
        meet this contract, for every evaluator relies on it: the reserve
        ladder (_Ladder, which the series walk, ergodic_levels and
        simulate's renewal path on 0-or-c arrivals walk) asks _rung, the
        one scalar kernel, for each rung, and MaximinPolicy certifies a
        block of them ahead; simulate's chunks on other laws run many slots
        of a path side by side, and its slot loop and value iteration
        evaluate whole arrays of unrelated levels.  They give the same bits
        only under this contract."""

    def _rung(self, level: float) -> float:
        """The one scalar kernel: the consumption at one finite, nonnegative
        level, as a Python float with the bits _evaluate gives it.  By
        default _evaluate on a one-element array; a class that defines
        _evaluate and not _rung gets this default back, so it is walked
        through its own _evaluate."""
        return float(self._evaluate(np.array([level]))[0])

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
    level L asks policy._rung(L) for its consumption, spends
    u = min(_rung(L), L) and leaves L - u.  A NaN or negative u raises
    ValueError.  fixed is set by a rung that leaves the level as it was, at
    0 too: under _evaluate's per-level contract every later rung repeats it.
    """

    __slots__ = ("_rung", "level", "fixed")

    def __init__(self, policy: StationaryPolicy, level: float):
        self._rung, self.level, self.fixed = policy._rung, level, False

    def step(self) -> float:
        """Walk one rung and return its consumption; level is the level after it."""
        level = self.level
        u = self._rung(level)
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

    def _rung(self, level: float) -> float:
        return level


class FixedFractionPolicy(StationaryPolicy):
    """Consume a fixed fraction p of the stored energy."""

    kind = "fixed_fraction"

    def __init__(self, p: float):
        self.p = _check_fraction(p)

    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        return self.p * arr

    def _rung(self, level: float) -> float:
        return self.p * level  # one correctly rounded product, as numpy's


class _Maximin(StationaryPolicy):
    """The maximin policy's kink table, linear between its kinks: the
    reward, the ratio p, the ladder scale s = 1/(1-p) and the kinks walked
    so far (through E_1 from the start).  The lists _xs, _ys, which _table
    reads one level at a time, are KinkWalk's own, or past the kink cap or
    the float range a copy with one more point (_cover); _arrays gives the
    same values as arrays, for np.interp and searchsorted, built only when
    asked for.  inversion_tol bounds how far a computed consumption may sit
    from the exact policy.

    An array is one np.interp (_evaluate).  A rung of the reserve ladder
    (_rung) is the whole level at or below x_1, on the greedy segment, and
    otherwise _table's read, np.interp's bits in a Python float.
    """

    inversion_tol = 0.0

    def __init__(self, reward: RewardFunction, p: float):
        self.reward = reward
        self.kinks = KinkWalk(reward, p)
        self.p, self.scale = self.kinks.p, self.kinks.scale
        self.kinks.cover(0.0)  # through E_1, the end of the greedy segment, or raise
        self._xs, self._ys = self.kinks.x, self.kinks.y
        self._x = self._y = np.zeros(0)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The kink lists _xs, _ys as arrays, rebuilt once they have grown."""
        if self._x.size != len(self._xs):
            self._x, self._y = np.array(self._xs), np.array(self._ys)
        return self._x, self._y

    def _extends(self) -> bool:
        """Whether the last segment, extended, stands for the table past
        the kink cap or the float range.  Segment k's slope is
        1 - y_(k-1)/y_k, which tends to 1 - s**-e with an error of order
        s**-(e k) (e from RewardFunction.affine), so after K kinks the
        extension is the policy within rounding once e K log s >= 37,
        s**-(e K) <= 8.5e-17."""
        return self.reward.affine[1] * (len(self.kinks.x) - 1) * -math.log1p(-self.p) >= 37.0

    def _cover(self, top: float) -> None:
        """Walk the kinks past top.  Past the kink cap or the float range,
        extend the last segment to the largest float where _extends allows,
        or raise KinkWalk's ValueError."""
        if top < self._xs[-1]:
            return
        try:
            self.kinks.cover(top)
        except ValueError:
            if not self._extends():
                raise
            xs, ys = self._xs, self._ys
            if xs[-1] < _BIG:  # KinkWalk walks no further, so this copy stays the table
                y = ys[-1] + (_BIG - xs[-1]) / ((xs[-1] - xs[-2]) / (ys[-1] - ys[-2]))
                self._xs, self._ys = [*xs, _BIG], [*ys, y]

    def segment_index(self, x):
        """Index k of the segment [x_(k-1), x_k) holding x; 1 on the greedy
        one.  Past the kinks KinkWalk can walk it raises their ValueError."""
        arr, scalar = _prepare(x, "stored energy")
        self.kinks.cover(float(arr.max(initial=0.0)))
        m = np.searchsorted(self._arrays()[0], arr, side="right")
        return int(m) if scalar else m

    def _table(self, level: float) -> float:
        """np.interp(level, *_arrays()) as a Python float, by numpy's own
        arithmetic, so with its bits but without its per-call cost: the
        last kink's value at or past it, a kink's own value at that kink,
        and otherwise the segment's slope times the distance from its left
        kink, plus that kink's value."""
        level = float(level)  # an np.float64 level would give np.float64 rungs
        xs, ys = self._xs, self._ys
        j = bisect_right(xs, level) - 1
        if j == len(xs) - 1 or xs[j] == level:
            return ys[j]
        slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        return slope * (level - xs[j]) + ys[j]

    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        self._cover(float(arr.max(initial=0.0)))
        return np.interp(arr, *self._arrays())

    def _rung(self, level: float) -> float:
        if not level > self._xs[1]:  # the greedy segment: one rung spends it all
            return level
        if not level < self._xs[-1]:
            self._cover(level)
        return self._table(level)


class MaximinPolicy(_Maximin):
    """Maximin policy for any regular reward, via ladder-sum inversion.

    evaluate(x) is the unique u in [0, x] with ladder_sum(reward, s, u) == x,
    s = 1/(1-p): x itself at or below the first kink x_1 = y_1, so every
    ladder ends at exactly 0.  Above it, a level in the kink segment
    (x_(k-1), x_k] has its root in (y_(k-1), y_k]; past the kink cap or the
    float range, the last segment is extended to the largest float, which
    brackets the root because ladder_sum is convex.  u is the kink table
    at x, certified by its residual r = ladder_sum(u) - x on the raw kernel
    rewards._ladder_sum.  A level whose certificate fails runs regula falsi
    with the Illinois modification (Dowell & Jarratt, BIT 11, 1971) inside
    its kink bracket, bisecting where a step leaves it; the first step is
    along its segment's chord slope, to the table at x - r.  It stops on
    |r| <= inversion_tol or on a bracket no wider than that: ladder_sum's
    slope is at least 1, so either puts u within inversion_tol of the
    root, the bound behind metrics.sweep's slack r'(0) inversion_tol / p.
    Each level runs on its own, so an array gets the bits of its levels
    one at a time, and the ladder walks, Monte Carlo, value iteration and
    curve share this one path.  After 200 steps a NaN residual, or a
    finite one above 1e-9 (1 + x), raises RuntimeError, and a +inf one,
    whose ladder sum leaves the float range, ValueError.

    _certify checks an array with one _ladder_sum call.  The reserve ladder
    is served from a block of rungs keyed by level (_rung): a level the
    block holds is taken from it, and any other starts a new block of up
    to _span table rungs down the ladder, certified with one _ladder_sum
    call and kept through its first failed certificate, which is refined.
    A block kept whole doubles _span, up to _AHEAD rungs; one cut at its
    k-th rung sets it to k + 1.  So every certificate call checks a rung
    the walk asks for, a ladder whose every rung fails makes the calls of
    one _evaluate a rung, and ladders that interleave start new blocks.

    maximin_policy builds it for custom rewards only: awgn and sqrt, whose
    ladder steps are affine, get their kink tables, which need no
    certificate.
    """

    kind = "maximin_generic"
    inversion_tol = 1e-12
    _AHEAD = 1024  # most rungs a block
    _span = 16  # rungs of the next block

    def __init__(self, reward: RewardFunction, p: float):
        super().__init__(reward, p)
        self._block: dict[float, float] = {}  # level -> certified consumption

    def _extends(self) -> bool:
        """Always: the certificate mends what the extended segment misses."""
        return True

    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        u = super()._evaluate(arr)
        self._certify(arr, u)
        return u

    def _rung(self, level: float) -> float:
        u = self._block.pop(level, None)
        if u is not None:
            return u
        x1 = self._xs[1]
        if not level > x1:  # the greedy segment: one rung spends it all
            return level
        self._cover(level)
        levels, table = [], []
        while len(levels) < self._span and level > x1:
            u = self._table(level)
            levels.append(level)
            table.append(u)
            level -= min(u, level)  # as the ladder spends it
        u = np.array(table)
        k = self._certify(np.array(levels), u, first=True)
        self._span = k + 1 if k < u.size else min(2 * self._span, self._AHEAD)
        kept = u[: k + 1].tolist()
        self._block = dict(zip(levels[1 : k + 1], kept[1:]))
        return kept[0]

    def _certify(self, x: np.ndarray, u: np.ndarray, first: bool = False) -> int:
        """Refine the table's consumptions whose certificates fail, at levels
        above x_1 (x itself on the greedy segment), and spend at most x:
        every failed one, or with first only the first, whose index it
        returns, or x.size if none failed."""
        i = np.flatnonzero(x > self._xs[1])
        if i.size:
            # _ladder_steps' log of a zero ratio; a ladder past the float range
            # gives a +inf residual, which brackets, or a NaN one, which stalls
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                r = _ladder_sum(self.reward, self.scale, u[i]) - x[i]
                fails = np.flatnonzero(~(np.abs(r) <= self.inversion_tol))[: 1 if first else None]
                i, r = i[fails], r[fails]
                if i.size:
                    u[i] = self._refine(x[i], u[i], r)
        np.minimum(u, x, out=u)  # x itself where they tie, -0.0 too
        return int(i[0]) if i.size else x.size

    def _refine(self, x: np.ndarray, u: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Regula falsi in each level's kink bracket from u (residual r) and the
        bracket's far end a, whose residual the chord through (u, r) estimates,
        so the first step is the chord step u - r / slope along the segment."""
        (xs, ys), tol = self._arrays(), self.inversion_tol
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
    """Maximin policy for the awgn reward: its own kink table.

    ladder_sum is affine in the head between kinks, so the policy is linear
    between the kinks (x_k, y_k), which self.kinks walks as far as the largest
    level asked for, and _Maximin's table is the policy itself.  Past
    _LADDER_CAP kinks or the float range it extends its last segment where
    _extends allows, and raises maximin_kinks' ValueError otherwise.
    """

    kind = "maximin_awgn"

    def __init__(self, gamma: float, p: float):
        super().__init__(RewardFunction.awgn(gamma), p)
        self.gamma = self.reward.gamma


class MaximinSqrtPolicy(_Maximin):
    """Maximin policy for the sqrt reward: its own kink table.

    sqrt's ladder step (1 + x)/s**2 - 1 is affine, as awgn's is, so the
    policy is linear between its kinks and _Maximin's table is the policy,
    with MaximinAwgnPolicy's rules past the kink cap and the float range.
    """

    kind = "maximin_sqrt"
    # the slack of the certified inversion this table replaced for sqrt: the
    # table needs none, but metrics.sweep's tolerances and the benchmark's sqrt
    # reference rows still rely on it (ROADMAP item 1)
    inversion_tol = 1e-12

    def __init__(self, p: float):
        super().__init__(RewardFunction.sqrt_rate(), p)


def awgn_segment_index(gamma: float, p: float, x):
    """Index of the linear segment of the awgn maximin policy holding x."""
    return MaximinAwgnPolicy(gamma, p).segment_index(x)


def maximin_policy(reward: RewardFunction, p: float) -> _Maximin:
    """The maximin policy at ratio p: the kink table for awgn and sqrt, whose
    ladder steps are affine, and the certified inversion for a custom reward."""
    if reward.kind == "awgn":
        return MaximinAwgnPolicy(reward.gamma, p)
    if reward.kind == "sqrt":
        return MaximinSqrtPolicy(p)
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
    walked so far; cover() continues the walk from the last of them.  A p
    so small that s rounds to 1 is refused, since no ladder steps down.
    """

    def __init__(self, reward: RewardFunction, p: float):
        self.reward = reward
        self.p = _check_fraction(p)
        self.scale = 1.0 / (1.0 - self.p)
        if not self.scale > 1.0:
            raise ValueError(f"p={self.p!r} is too small: its ladder scale 1/(1-p) rounds to 1")
        self.x = [0.0]
        self.y = [0.0]

    def cover(self, upto: float) -> None:
        """Walk on until the last kink lies past upto.  Raises ValueError when
        more than _LADDER_CAP kinks, or a float overflow, lie below upto."""
        s = self.scale
        affine = self.reward.affine
        x, k = self.x[-1], len(self.x)
        with np.errstate(over="ignore"):  # overflow is caught below and reported
            while x <= upto and k <= _LADDER_CAP:
                try:
                    sk = s**k
                except OverflowError:
                    break
                if affine is None:
                    y = float(step_down_cutoff(self.reward, sk))
                else:  # step_down_cutoff's arithmetic, without its calls
                    gamma, e = affine
                    y = ((sk if e == 1 else sk * sk) - 1.0) / gamma
                if not math.isfinite(x + y):
                    break
                x += y
                self.x.append(x)
                self.y.append(y)
                k += 1
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

    E_k has consumption y_k = expm1(-k log1p(-p)) / gamma, which is
    ((1-p)**-k - 1) / gamma, and stored level x_k = y_1 + ... + y_k, summed
    so that it does not cancel at small p; E_0 is the origin.  This closed
    form is the independent reference for maximin_kinks and the policy.
    """
    gamma = _check_positive(gamma, "gamma")
    p = _check_fraction(p)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    out = [Endpoint(k=0, x=0.0, y=0.0)]
    for k in range(1, int(k_max) + 1):
        y = math.expm1(-k * math.log1p(-p)) / gamma
        out.append(Endpoint(k=k, x=out[-1].x + y, y=y))
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
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    x = np.linspace(0.0, c, int(grid_points))
    u = policy.evaluate(x)
    d1 = np.diff(u)
    d2 = u[2:] - 2.0 * u[1:-1] + u[:-2]
    max_decrease = float(max(-d1.min(), 0.0))
    max_convexity = float(max(d2.max(), 0.0)) if d2.size else 0.0
    return NormalityReport(
        nondecreasing=bool(max_decrease <= slack),
        concave=bool(max_convexity <= slack),
        max_decrease=max_decrease,
        max_convexity=max_convexity,
    )
