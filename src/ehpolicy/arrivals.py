"""Arrival-energy distributions as seen by a battery of capacity c.

Energy arriving in one slot is an i.i.d. draw X >= 0; the battery can absorb
at most c, so all evaluators only ever see the capped arrival min(X, c).  Each
family here stores the capped law directly: a continuous part on [0, c) plus
an atom at c holding the probability that the raw draw meets or exceeds the
capacity.

    bernoulli     mass 1-p at 0 and p at c (the worst case at a given mean)
    uniform       Uniform[0, b] capped at c
    exponential   Exponential(rate) capped at c

Two summary ratios recur everywhere: the mean-to-capacity ratio
mcr = E[min(X, c)] / c of the capped law, and the nominal ratio
nmcr = E[X] / c of the uncapped law (undefined for bernoulli, whose support
already lies on {0, c}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rewards import _check_fraction, _check_positive

__all__ = [
    "ArrivalDistribution",
    "BernoulliArrivals",
    "LimitedUniformArrivals",
    "LimitedExponentialArrivals",
    "DiscretizedPMF",
    "from_mcr",
    "from_nmcr",
]

_FAMILIES = ("bernoulli", "uniform", "exponential")


@dataclass(frozen=True)
class DiscretizedPMF:
    """Arrival law collapsed onto a uniform grid over [0, c]."""

    grid: np.ndarray
    mass: np.ndarray

    def mean(self) -> float:
        return float(self.grid @ self.mass)


class ArrivalDistribution:
    """Base class; subclasses fill in the continuous CDF and the atoms."""

    family: str = ""

    def __init__(self, c: float):
        self.c = _check_positive(c, "capacity c")

    # -- law ----------------------------------------------------------------

    def atom_at_zero(self) -> float:
        return 0.0

    def capacity_atom(self) -> float:
        """Probability that a raw draw meets or exceeds the capacity."""
        raise NotImplementedError

    def _continuous_cdf(self, x: np.ndarray) -> np.ndarray:
        """CDF of the part of the law strictly inside (0, c)."""
        raise NotImplementedError

    # -- summaries ------------------------------------------------------------

    def effective_mean(self) -> float:
        """E[min(X, c)]."""
        raise NotImplementedError

    def mcr(self) -> float:
        """Mean-to-capacity ratio of the capped law."""
        return self.effective_mean() / self.c

    def nmcr(self) -> float:
        """Nominal (uncapped) mean-to-capacity ratio."""
        raise ValueError(f"nmcr is undefined for the {self.family} family")

    # -- sampling and discretization -----------------------------------------

    def sample(self, rng: np.random.Generator, size=None, out=None):
        """Draw capped arrivals using the supplied generator.

        With out, a C-contiguous float64 array of shape size, the draws are
        written into it and it is returned, with the bits of a fresh draw.
        """
        raise NotImplementedError

    def discretize(self, cells: int) -> DiscretizedPMF:
        """Collapse onto the grid i * c / cells, i = 0..cells.

        Continuous mass goes to the nearest grid point (half-open cells,
        upper edge exclusive); the atoms at 0 and c land on the end points
        exactly.
        """
        n = int(cells)
        if n < 1:
            raise ValueError("cells must be at least 1")
        grid = np.linspace(0.0, self.c, n + 1)
        h = self.c / n
        edges = np.concatenate(([0.0], (np.arange(n) + 0.5) * h, [self.c]))
        cdf = self._continuous_cdf(edges)
        mass = np.diff(cdf)
        mass[0] += self.atom_at_zero()
        mass[-1] += self.capacity_atom()
        return DiscretizedPMF(grid=grid, mass=mass)


class BernoulliArrivals(ArrivalDistribution):
    """All-or-nothing arrivals: a full charge c with probability p, else 0."""

    family = "bernoulli"

    def __init__(self, c: float, p: float):
        super().__init__(c)
        self.p = _check_fraction(p)

    def atom_at_zero(self) -> float:
        return 1.0 - self.p

    def capacity_atom(self) -> float:
        return self.p

    def _continuous_cdf(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def effective_mean(self) -> float:
        return self.p * self.c

    def mcr(self) -> float:
        return self.p

    def sample(self, rng: np.random.Generator, size=None, out=None):
        """c * (u < p) for uniforms u from rng.random: a draw is exactly c
        when its uniform is below p, else 0.0.  simulate's renewal path
        draws the same uniforms and compares them to p without this call,
        so its charges are these draws, bit for bit."""
        return np.multiply(rng.random(size, out=out) < self.p, self.c, out=out)


class LimitedUniformArrivals(ArrivalDistribution):
    """Uniform[0, b] arrivals capped at the capacity."""

    family = "uniform"

    def __init__(self, c: float, b: float):
        super().__init__(c)
        self.b = _check_positive(b, "b")

    def capacity_atom(self) -> float:
        return max(0.0, 1.0 - self.c / self.b)

    def _continuous_cdf(self, x: np.ndarray) -> np.ndarray:
        return np.minimum(np.asarray(x, dtype=float) / self.b, 1.0)

    def effective_mean(self) -> float:
        if self.b <= self.c:
            return self.b / 2.0
        return self.c - self.c * self.c / (2.0 * self.b)

    def nmcr(self) -> float:
        return self.b / (2.0 * self.c)

    def sample(self, rng: np.random.Generator, size=None, out=None):
        drawn = np.multiply(rng.random(size, out=out), self.b, out=out)
        return np.minimum(drawn, self.c, out=out)


class LimitedExponentialArrivals(ArrivalDistribution):
    """Exponential(rate) arrivals capped at the capacity."""

    family = "exponential"

    def __init__(self, c: float, rate: float):
        super().__init__(c)
        self.rate = _check_positive(rate, "rate")

    def capacity_atom(self) -> float:
        return float(np.exp(-self.rate * self.c))

    def _continuous_cdf(self, x: np.ndarray) -> np.ndarray:
        return -np.expm1(-self.rate * np.asarray(x, dtype=float))

    def effective_mean(self) -> float:
        return float(-np.expm1(-self.rate * self.c) / self.rate)

    def nmcr(self) -> float:
        return 1.0 / (self.rate * self.c)

    def sample(self, rng: np.random.Generator, size=None, out=None):
        # rng.exponential(scale) is scale times the standard draw, bit for bit
        drawn = np.multiply(rng.standard_exponential(size, out=out), 1.0 / self.rate, out=out)
        return np.minimum(drawn, self.c, out=out)


def _exponential_nmcr_for_mcr(p: float) -> float:
    """The t with t (1 - exp(-1/t)) = p, by bisection on t down to adjacent
    floats, returning the one whose gap is the smaller.

    t (1 - exp(-1/t)) = f(1/t), f(u) = (1 - e**-u) / u, rises from 0 toward
    1, and t lies in [p, 1/(1-p)].  Above p = 1/2, where 1 - p is exact, the
    gap compares 1 - p with 1 - f(u) = u/2! - u**2/3! + ..., summed nested
    in powers of 1/t, where nothing cancels as p -> 1 (f(u) itself would):
    t > 1/2 there, so u < 2, and the terms past u**23/24! sum to under
    eps/100 of the first.
    """

    def gap(t: float) -> float:
        if p <= 0.5:
            return t * -math.expm1(-1.0 / t) - p
        rest = 1.0
        for k in range(24, 2, -1):
            rest = 1.0 - rest / (k * t)
        return (1.0 - p) - rest / (2.0 * t)

    lo, hi = p, 1.0 / (1.0 - p)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo if abs(gap(lo)) < abs(gap(hi)) else hi


def from_nmcr(family: str, c: float, nmcr: float) -> ArrivalDistribution:
    """Build a distribution from its nominal mean-to-capacity ratio."""
    nmcr = _check_positive(nmcr, "nmcr")
    if family == "uniform":
        return LimitedUniformArrivals(c, b=2.0 * c * nmcr)
    if family == "exponential":
        return LimitedExponentialArrivals(c, rate=1.0 / (c * nmcr))
    if family == "bernoulli":
        raise ValueError("bernoulli arrivals have no nominal ratio; use from_mcr")
    raise ValueError(f"unknown family {family!r}; expected one of {_FAMILIES}")


def from_mcr(family: str, c: float, mcr: float) -> ArrivalDistribution:
    """Build a distribution whose capped mean is mcr * c."""
    p = _check_fraction(mcr, "mcr")
    if family == "bernoulli":
        return BernoulliArrivals(c, p)
    if family == "uniform":
        # capped mean p~ for b <= c, 1 - 1/(4 p~) beyond, p~ = b/(2c)
        nominal = p if p <= 0.5 else 1.0 / (4.0 * (1.0 - p))
        return LimitedUniformArrivals(c, b=2.0 * c * nominal)
    if family == "exponential":
        return LimitedExponentialArrivals(c, rate=1.0 / (c * _exponential_nmcr_for_mcr(p)))
    raise ValueError(f"unknown family {family!r}; expected one of {_FAMILIES}")
