"""Benchmarks of policy performance against the best achievable gain.

For a policy and an arrival law the two headline numbers are the additive
gap (optimal gain minus policy gain) and the multiplicative factor (policy
gain over optimal gain).  Two closed-form anchors frame them:

  * universal_upper_bound: no policy can beat r(mean arrival), by concavity.
  * f0: a capacity-free lower bound on the maximin policy's gain relative to
    that upper bound under all-or-nothing arrivals; f0(p) is minimized near
    p = 1/(n+1) and never drops below 1 - 1/e.

The fixed-fraction policy's factor under all-or-nothing arrivals tends to
1/(2-p) as the capacity shrinks (small_capacity_factor_limit) and never
falls below 1/2.

sweep() grids these quantities over capacities and arrival ratios, choosing
the exact series evaluator where arrivals are all-or-nothing and the grid
MDP evaluators elsewhere; each report carries the summed accuracy budget of
the evaluators that produced it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Sequence

from .arrivals import BernoulliArrivals, from_mcr, from_nmcr
from .evaluation import bernoulli_reward, build_mdp, optimal_gain, policy_gain, simulate
from .policies import FixedFractionPolicy, GreedyPolicy, StationaryPolicy, maximin_policy
from .rewards import RewardFunction, _check_fraction

__all__ = [
    "GapReport",
    "CSV_HEADER",
    "POLICY_KINDS",
    "gap_and_factor",
    "universal_upper_bound",
    "f0",
    "small_capacity_factor_limit",
    "make_policy",
    "sweep",
    "write_csv",
]

POLICY_KINDS = ("maximin", "fixed_fraction", "greedy")


@dataclass(frozen=True)
class GapReport:
    """One sweep cell: a policy against the optimal gain for one arrival law."""

    family: str
    c: float
    p: float | None
    nmcr: float | None
    mcr: float
    policy: str
    policy_gain: float
    optimal_gain: float
    additive_gap: float
    multiplicative_factor: float
    tolerance: float

    def csv_row(self) -> list[str]:
        def fmt(v):
            if isinstance(v, str):
                return v
            return "" if v is None else repr(float(v))

        return [fmt(getattr(self, f.name)) for f in fields(self)]


CSV_HEADER = ",".join(f.name for f in fields(GapReport))


def gap_and_factor(policy_value: float, optimal_value: float) -> tuple[float, float]:
    """Additive gap and multiplicative factor of a policy vs the optimum."""
    policy_value, optimal_value = float(policy_value), float(optimal_value)
    if not optimal_value > 0:
        raise ValueError("optimal gain must be positive")
    return optimal_value - policy_value, policy_value / optimal_value


def universal_upper_bound(reward: RewardFunction, c: float, mcr: float) -> float:
    """r(mcr * c): the best any policy can average when arrivals average mcr * c."""
    c, mcr = float(c), float(mcr)
    if not (c > 0 and 0 < mcr <= 1):
        raise ValueError("need c > 0 and mcr in (0, 1]")
    return float(reward.value(mcr * c))


def f0(p: float) -> float:
    """Capacity-free lower bound on maximin gain / r(pc) under 0-or-c arrivals.

    f0(p) = 1 - p * floor(1/p) * (1-p)**floor(1/p); always >= 1 - 1/e, with the
    near-minima just below each 1/n.
    """
    p = _check_fraction(p)
    m = math.floor(1.0 / p)
    return 1.0 - p * m * (1.0 - p) ** m


def small_capacity_factor_limit(p: float) -> float:
    """Limit of the fixed-fraction factor under 0-or-c arrivals as c -> 0."""
    return 1.0 / (2.0 - _check_fraction(p))


def make_policy(kind: str, reward: RewardFunction, mcr: float) -> StationaryPolicy:
    """Instantiate a policy kind matched to an arrival mean-to-capacity ratio."""
    if kind == "maximin":
        return maximin_policy(reward, mcr)
    if kind == "fixed_fraction":
        return FixedFractionPolicy(mcr)
    if kind == "greedy":
        return GreedyPolicy()
    raise ValueError(f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}")


def _cell_distribution(family: str, c: float, p: float | None, nmcr: float | None):
    if (p is None) == (nmcr is None):
        raise ValueError("give exactly one of p (capped ratio) or nmcr")
    if nmcr is not None:
        return from_nmcr(family, c, nmcr)
    return from_mcr(family, c, p)


def sweep(
    reward: RewardFunction,
    policy_kinds: Sequence[str],
    family: str,
    c_values: Iterable[float],
    *,
    p_values: Iterable[float] | None = None,
    nmcr_values: Iterable[float] | None = None,
    grid_cells: int = 2000,
    vi_eps: float = 1e-9,
    series_tol: float = 1e-15,
    policy_evaluator: str = "vi",
    mc_slots: int = 100_000,
    mc_paths: int = 64,
    seed: int = 0,
    max_iter: int = 10**6,
) -> list[GapReport]:
    """Gap/factor reports over a (c, ratio) grid for each policy kind.

    Every policy is instantiated once per cell, matched to the cell's capped
    mean-to-capacity ratio.  For all-or-nothing arrivals both the policy gain
    and the optimal gain come from the exact series; the maximin policy is
    optimal there, so its row reuses the series that gives the optimum.
    Other families use the grid MDP: value iteration for the optimum and,
    per `policy_evaluator`, value iteration ("vi") or Monte Carlo ("mc") for
    the policy gain.

    The maximin reference consumes within its inversion_tol = d of the
    exact policy (d = 0 for the awgn kink table, which inverts nothing).
    Its reserve map has slope in [0, 1], so rung i consumes at most i d off,
    and under the series weights p (1-p)**(i-1) that costs at most
    marginal(0) d / p of reward; this slack is added to the optimal gain's
    tolerance.  The sqrt kink table inverts nothing either, but keeps the
    d = 1e-12 of the certified inversion it replaced until the benchmark's
    sqrt reference rows are re-derived (ROADMAP item 1).
    """
    if policy_evaluator not in ("vi", "mc"):
        raise ValueError("policy_evaluator must be 'vi' or 'mc'")
    kinds = list(policy_kinds)
    for kind in kinds:
        if kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}")
    if (p_values is None) == (nmcr_values is None):
        raise ValueError("give exactly one of p_values or nmcr_values")
    ratios = [(float(v), None) for v in (p_values or [])]
    ratios += [(None, float(v)) for v in (nmcr_values or [])]

    reports: list[GapReport] = []
    cell_index = 0
    for c in (float(v) for v in c_values):
        for p_val, nmcr_val in ratios:
            dist = _cell_distribution(family, c, p_val, nmcr_val)
            mcr = dist.mcr()
            policies = [make_policy(kind, reward, mcr) for kind in kinds]
            if isinstance(dist, BernoulliArrivals):
                if "maximin" in kinds:
                    reference = policies[kinds.index("maximin")]
                else:
                    reference = make_policy("maximin", reward, mcr)
                exact = bernoulli_reward(reference, reward, c, mcr, tol=series_tol)
                slack = float(reward.marginal(0.0)) * reference.inversion_tol / mcr
                best = replace(exact, tolerance=exact.tolerance + slack)
                model = None
            else:
                model = build_mdp(reward, dist, grid_cells)
                best, _ = optimal_gain(model, eps=vi_eps, max_iter=max_iter)
            for kind, policy in zip(kinds, policies):
                if model is None:
                    if kind == "maximin":
                        mine = exact
                    else:
                        mine = bernoulli_reward(policy, reward, c, mcr, tol=series_tol)
                elif policy_evaluator == "vi":
                    mine = policy_gain(model, policy, eps=vi_eps, max_iter=max_iter)
                else:
                    mine = simulate(
                        policy, dist, reward, mc_slots, mc_paths, seed=seed + cell_index
                    )
                gap, factor = gap_and_factor(mine.value, best.value)
                reports.append(
                    GapReport(
                        family=dist.family,
                        c=c,
                        p=mcr if dist.family == "bernoulli" else None,
                        nmcr=None if dist.family == "bernoulli" else dist.nmcr(),
                        mcr=mcr,
                        policy=kind,
                        policy_gain=mine.value,
                        optimal_gain=best.value,
                        additive_gap=gap,
                        multiplicative_factor=factor,
                        tolerance=(mine.tolerance or 0.0) + (best.tolerance or 0.0),
                    )
                )
                cell_index += 1
    return reports


def write_csv(reports: Iterable[GapReport], stream) -> None:
    """Write reports with the canonical header; floats use repr round-trips."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for report in reports:
        writer.writerow(report.csv_row())
