"""Reward functions and the consumption-ladder calculus built on them.

A reward function r maps energy consumed in one slot to reward earned in that
slot.  Every reward handled here satisfies r(0) = 0, is nondecreasing, concave,
and has a finite slope at 0.  The built-in kinds are additionally strictly
concave and differentiable with a closed-form inverse marginal, which is what
the policy construction needs:

    awgn   r(u) = (1/2) log(1 + gamma u)
    sqrt   r(u) = sqrt(1 + u) - 1

Custom rewards supply the value, marginal, and inverse-marginal callables
directly (vectorized over numpy arrays) and are screened by a sampled
regularity audit at construction time.

The ladder calculus: fix a scale s > 1.  Starting from a consumption level x,
``step_down(rw, s, x)`` is the lower level whose marginal reward is s times
the marginal reward at x, clamped to 0 once no such positive level exists.
Iterating step_down produces a decreasing "ladder" of levels that reaches 0 in
finitely many steps; ``depletion_steps`` counts them and ``ladder_sum`` adds
them up.  ladder_sum is continuous, strictly increasing, and convex in x, and
its inverse is exactly the maximin consumption policy built in
:mod:`ehpolicy.policies`.

Each public ladder function validates s and x once and then runs a raw kernel
(``_ladder_steps``, ``_ladder_sum``) on the float array; the maximin policy's
inversion certifies each of its points with ``_ladder_sum`` directly, and a
custom ladder steps its rungs with ``_custom_step``, finding the cutoff and
marginal(0) once.  A custom reward's maximin walks its reserve ladder with
the same ``_custom_step`` below its one certified top rung, so that
certificate sums exactly the rungs the walk takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "RewardFunction",
    "step_down",
    "step_down_cutoff",
    "step_down_iter",
    "depletion_steps",
    "depletion_steps_upper",
    "ladder_sum",
    "regularity_audit",
]

_LADDER_CAP = 100_000


def _prepare(x, name: str = "x") -> tuple[np.ndarray, bool]:
    """x as a float array, and whether it is 0-d; raises ValueError unless
    every entry is finite and nonnegative.  A 0-d array is checked with one
    comparison of its float (NaN fails it, -0.0 passes), an array with two
    reductions."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        if not 0.0 <= float(arr) < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative")
        return arr, True
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError(f"{name} must be finite and nonnegative")
    return arr, False


def _finish(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def _check_scale(s: float) -> float:
    s = float(s)
    if not s > 1.0:
        raise ValueError("scale s must be > 1")
    return s


def _check_fraction(value: float, name: str = "p") -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1)")
    return value


def _check_positive(value: float, name: str = "c") -> float:
    value = float(value)
    if not value > 0:
        raise ValueError(f"{name} must be positive")
    if value == math.inf:
        raise ValueError(f"{name} must be finite")
    return value


@dataclass(frozen=True)
class RewardFunction:
    """One-slot reward as a function of consumed energy.

    Use the factories :meth:`awgn`, :meth:`sqrt_rate`, or :meth:`custom`
    rather than the constructor.
    """

    kind: str
    gamma: float = 1.0
    value_fn: Callable | None = field(default=None, repr=False)
    marginal_fn: Callable | None = field(default=None, repr=False)
    marginal_inverse_fn: Callable | None = field(default=None, repr=False)

    @classmethod
    def awgn(cls, gamma: float = 1.0) -> "RewardFunction":
        """Gaussian-channel rate reward r(u) = (1/2) log(1 + gamma u)."""
        return cls(kind="awgn", gamma=_check_positive(gamma, "gamma"))

    @classmethod
    def sqrt_rate(cls) -> "RewardFunction":
        """Square-root reward r(u) = sqrt(1 + u) - 1."""
        return cls(kind="sqrt")

    @classmethod
    def custom(
        cls,
        value: Callable,
        marginal: Callable,
        marginal_inverse: Callable,
        validate: bool = True,
    ) -> "RewardFunction":
        """Wrap user-supplied r, r', and the inverse of r'.

        All three callables must accept and return numpy arrays.  When
        ``validate`` is true a sampled regularity audit runs immediately and
        raises ValueError on the first failure.
        """
        rw = cls(
            kind="custom",
            value_fn=value,
            marginal_fn=marginal,
            marginal_inverse_fn=marginal_inverse,
        )
        if validate:
            failures = [item for item in regularity_audit(rw) if not item[1]]
            if failures:
                name, _, detail = failures[0]
                raise ValueError(f"custom reward failed regularity audit: {name} ({detail})")
        return rw

    # -- evaluation ---------------------------------------------------------

    def value(self, u):
        """Reward earned by consuming u >= 0 in one slot."""
        arr, scalar = _prepare(u, "u")
        return _finish(self._value(arr), scalar)

    def _value(self, arr: np.ndarray) -> np.ndarray:
        """value() on a float array already known finite and nonnegative."""
        if self.kind == "awgn":
            return 0.5 * np.log1p(self.gamma * arr)
        if self.kind == "sqrt":
            # algebraically sqrt(1+u) - 1, stable for small u
            return arr / (np.sqrt(1.0 + arr) + 1.0)
        return np.asarray(self.value_fn(arr), dtype=float)

    def marginal(self, u):
        """Slope r'(u); positive and strictly decreasing."""
        arr, scalar = _prepare(u, "u")
        return _finish(self._marginal(arr), scalar)

    def _marginal(self, arr: np.ndarray) -> np.ndarray:
        """marginal() on a float array already known finite and nonnegative."""
        if self.kind == "awgn":
            return self.gamma / (2.0 * (1.0 + self.gamma * arr))
        if self.kind == "sqrt":
            return 0.5 / np.sqrt(1.0 + arr)
        return np.asarray(self.marginal_fn(arr), dtype=float)

    def marginal_inverse(self, y):
        """Consumption level with slope y; domain (0, marginal(0)]."""
        arr = np.asarray(y, dtype=float)
        scalar = arr.ndim == 0
        m0 = self.marginal(0.0)
        if np.any(~np.isfinite(arr)) or np.any(arr <= 0) or np.any(arr > m0 * (1 + 1e-12)):
            raise ValueError("marginal_inverse argument outside (0, marginal(0)]")
        arr = np.minimum(arr, m0)
        if self.kind == "awgn":
            out = (self.gamma / (2.0 * arr) - 1.0) / self.gamma
        elif self.kind == "sqrt":
            half = 0.5 / arr
            out = half * half - 1.0
        else:
            out = np.asarray(self.marginal_inverse_fn(arr), dtype=float)
        out = np.maximum(out, 0.0)
        return _finish(out, scalar)

    @property
    def affine(self) -> tuple[float, int] | None:
        """(gamma, e) of a built-in kind, whose ladder step at scale s
        divides 1 + gamma x by s**e: (gamma, 1) for awgn and (1.0, 2) for
        sqrt, whatever gamma a hand-built sqrt reward holds; None for a
        custom reward."""
        if self.kind == "awgn":
            return self.gamma, 1
        if self.kind == "sqrt":
            return 1.0, 2
        return None

    def spec_string(self) -> str:
        """Round-trippable CLI spelling of this reward."""
        if self.kind == "awgn":
            return f"awgn:{self.gamma!r}"
        return self.kind


def step_down_cutoff(rw: RewardFunction, s: float):
    """Largest level from which one ladder step reaches 0.

    Below this cutoff the marginal reward cannot grow by a factor s before the
    slope at 0 caps it, so step_down returns 0 there.  For a custom reward it
    is inf where marginal(0) / s underflows to 0: every level steps to 0.
    """
    s = _check_scale(s)
    if rw.affine:
        gamma, e = rw.affine
        return (_power(s, e) - 1.0) / gamma
    target = rw.marginal(0.0) / s
    return float(rw.marginal_inverse(target)) if target else math.inf


def _power(s: float, e: int) -> float:
    """s**e for e in (1, 2) by multiplication, which is correctly rounded
    (pow need not be) and gives inf rather than raise past the float range."""
    return s if e == 1 else s * s


def step_down(rw: RewardFunction, s: float, x):
    """One ladder step: the level whose marginal reward is s times the one at x.

    Returns exactly 0.0 for x at or below the cutoff.  Always satisfies
    0 <= step_down(rw, s, x) < x for x > 0.
    """
    s = _check_scale(s)
    arr, scalar = _prepare(x)
    if rw.affine:
        gamma, e = rw.affine
        raw = ((1.0 + gamma * arr) / _power(s, e) - 1.0) / gamma
        out = np.where(raw > 0.0, raw, 0.0)
    else:
        out = _custom_step(rw, s, arr, step_down_cutoff(rw, s), rw.marginal(0.0))
    return _finish(out, scalar)


def _custom_step(rw: RewardFunction, s: float, arr: np.ndarray, cutoff: float, m0: float):
    """step_down for a custom reward on a float array already known finite and
    nonnegative, given its cutoff at s and m0 = marginal(0)."""
    out = np.zeros_like(arr)
    mask = arr > cutoff
    if np.any(mask):
        # float guard: x just above the cutoff may push the target a few ulps
        # past marginal(0), which is outside the inverse's domain
        target = np.minimum(s * rw._marginal(arr[mask]), m0)
        if not target.min() > 0.0:  # marginal_inverse's domain check, NaN included
            raise ValueError("marginal_inverse argument outside (0, marginal(0)]")
        out[mask] = np.maximum(np.asarray(rw.marginal_inverse_fn(target), dtype=float), 0.0)
    return out


def step_down_iter(rw: RewardFunction, s: float, i: int, x):
    """i-fold composition of step_down, computed in closed form.

    Composing i single steps at scale s equals one step at scale s**i taken
    from max(x, cutoff(s**i)), which is what this evaluates.
    """
    s = _check_scale(s)
    if i < 0 or int(i) != i:
        raise ValueError("i must be a nonnegative integer")
    arr, scalar = _prepare(x)
    if i == 0:
        return _finish(arr.copy(), scalar)
    try:
        s_i = s ** int(i)
    except OverflowError:  # a float power raises rather than return inf
        return _finish(np.zeros_like(arr), scalar)
    return _finish(np.asarray(step_down(rw, s_i, arr), dtype=float), scalar)


def _marginal_ratio(rw: RewardFunction, arr: np.ndarray) -> np.ndarray:
    """marginal(0) / marginal(x), in a form exact for the built-in kinds."""
    if rw.affine:
        gamma, e = rw.affine
        base = 1.0 + gamma * arr  # marginal(0) / marginal(x) is its e-th root
        return base if e == 1 else np.sqrt(base)
    return np.asarray(rw.marginal(0.0) / rw._marginal(arr), dtype=float)


def _ladder_steps(rw: RewardFunction, s: float, arr: np.ndarray, upper: bool):
    """Least m >= 0 with s**m * marginal(x) at or above (upper: strictly
    above) marginal(0), on a float array already known finite and nonnegative
    and a checked scale s.

    The log-based guess (a ceiling, or a floor plus one for upper) is
    corrected against that inequality so exact integer boundaries resolve
    the way the defining count does.  A zero ratio (a custom marginal that
    is 0 at 0 or infinite at x) logs to -inf and counts 0 steps; the callers
    silence that divide warning once a call, not once a kernel run.
    """
    ratio = _marginal_ratio(rw, arr)
    q = np.log(ratio) / np.log(s)
    reaches = np.greater if upper else np.greater_equal
    # m stays float: np.power would cast an integer m to float anyway
    m = np.maximum(np.floor(q) + 1.0 if upper else np.ceil(q), 0.0)
    m = m - ((m > 0) & reaches(np.power(s, m - 1.0), ratio))
    return m + ~reaches(np.power(s, m), ratio)


def _ladder_length(rw: RewardFunction, s: float, x, upper: bool):
    """_ladder_steps behind the validation of s and x, as integers."""
    s = _check_scale(s)
    arr, scalar = _prepare(x)
    with np.errstate(divide="ignore"):
        m = _ladder_steps(rw, s, arr, upper)
    return int(m) if scalar else m.astype(np.int64)


def depletion_steps(rw: RewardFunction, s: float, x):
    """Number of ladder steps from x down to exactly 0.

    This is the least m >= 0 with s**m * marginal(x) >= marginal(0).
    """
    return _ladder_length(rw, s, x, upper=False)


def depletion_steps_upper(rw: RewardFunction, s: float, x):
    """Ladder length including a possible trailing zero step.

    The least m with s**m * marginal(x) strictly above marginal(0).  Equals
    depletion_steps everywhere except at exact boundaries, where it is one
    larger; the extra ladder term is exactly 0 there, so both counts truncate
    ladder_sum identically.
    """
    return _ladder_length(rw, s, x, upper=True)


def ladder_sum(rw: RewardFunction, s: float, x):
    """Total energy consumed along the ladder started at head level x.

    Sums x, step_down(x at scale s), step_down at scale s**2, ... until the
    rungs hit 0.  Closed geometric forms are used for the built-in kinds;
    custom rewards iterate the composition, which terminates exactly because
    step_down clamps to 0.  Validates s and x once, then runs _ladder_sum.
    """
    s = _check_scale(s)
    arr, scalar = _prepare(x)
    with np.errstate(divide="ignore"):
        return _finish(_ladder_sum(rw, s, arr), scalar)


def _ladder_sum(rw: RewardFunction, s: float, arr: np.ndarray) -> np.ndarray:
    """ladder_sum on a float array already known finite and nonnegative and a
    checked scale s; the custom ladder finds its cutoff and marginal(0) once
    and steps its rungs with _custom_step."""
    if rw.affine:
        # m rungs whose 1 + gamma x shrink by s**e a rung: a geometric sum
        gamma, e = rw.affine
        m = _ladder_steps(rw, s, arr, False)
        out = ((1.0 + gamma * arr) * (1.0 - np.power(s, -e * m)) / (1.0 - s ** -e) - m) / gamma
    else:
        cutoff, m0 = step_down_cutoff(rw, s), rw.marginal(0.0)
        acc = np.zeros_like(arr)
        cur = arr.copy()
        for _ in range(_LADDER_CAP):
            if not np.any(cur > 0.0):
                break
            acc += cur
            cur = _custom_step(rw, s, cur, cutoff, m0)
        else:
            raise RuntimeError("ladder did not terminate; reward is not regular")
        out = acc
    return np.maximum(out, arr)  # float guard: the head rung alone is a lower bound


def regularity_audit(
    rw: RewardFunction,
    s_values: tuple[float, ...] = (1.1, 2.0, 5.0),
    x_max: float = 10.0,
    n: int = 201,
    slack: float = 1e-9,
) -> list[tuple[str, bool, str]]:
    """Sampled checks that a reward is usable by the ladder calculus.

    Returns (name, passed, detail) triples.  This is a screen, not a proof:
    it samples value/marginal behavior on a grid and the convexity of each
    ladder step above its cutoff.
    """
    items: list[tuple[str, bool, str]] = []
    x = np.linspace(0.0, x_max, n)

    v0 = float(rw.value(0.0))
    items.append(("value(0) == 0", abs(v0) <= 1e-12, f"value(0) = {v0!r}"))

    v = np.asarray(rw.value(x), dtype=float)
    dv = np.diff(v)
    items.append(
        ("value nondecreasing", bool(np.all(dv >= -slack)), f"min increment {dv.min()!r}")
    )
    d2v = v[2:] - 2.0 * v[1:-1] + v[:-2]
    items.append(
        ("value concave", bool(np.all(d2v <= slack)), f"max second difference {d2v.max()!r}")
    )

    g = np.asarray(rw.marginal(x), dtype=float)
    items.append(("marginal positive", bool(np.all(g > 0.0)), f"min marginal {g.min()!r}"))
    items.append(
        (
            "marginal strictly decreasing",
            bool(np.all(np.diff(g) < 0.0)),
            f"max increment {np.diff(g).max()!r}",
        )
    )
    items.append(
        ("marginal finite at 0", bool(np.isfinite(rw.marginal(0.0))), f"marginal(0) = {rw.marginal(0.0)!r}")
    )

    inv = np.asarray(rw.marginal_inverse(g[1:]), dtype=float)
    err = np.max(np.abs(inv - x[1:]) / np.maximum(1.0, x[1:]))
    items.append(("marginal_inverse inverts marginal", bool(err <= 1e-8), f"max error {err!r}"))

    for s in s_values:
        cutoff = step_down_cutoff(rw, s)
        grid = np.linspace(cutoff, cutoff + x_max, n)
        k = np.asarray(step_down(rw, s, grid), dtype=float)
        d2k = k[2:] - 2.0 * k[1:-1] + k[:-2]
        items.append(
            (
                f"step_down convex above cutoff (s={s})",
                bool(np.all(d2k >= -slack)),
                f"min second difference {d2k.min()!r}",
            )
        )
        inside = np.asarray(step_down(rw, s, x), dtype=float)
        ok = bool(np.all(inside[x > 0] < x[x > 0]) and np.all(inside >= 0.0))
        items.append((f"step_down within [0, x) (s={s})", ok, "bounds on sample grid"))
    return items
