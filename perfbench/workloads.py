"""Benchmark workloads: their inputs, the ops that run them, and the checks.

An op is one call into the package: a ``metrics.sweep`` over one arrival law
(three cells, one per policy kind) or one ``evaluation.simulate`` (one cell).
Ops look the package's callables up at call time, so the span recorder sees
them.  The workload seed fixes the op order and the Monte Carlo seeds; the
cell values are fixed, so they can be checked against ``reference.json``,
which holds the values the package gave when the benchmark was written.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ehpolicy import arrivals, evaluation, metrics
from ehpolicy.rewards import RewardFunction

KINDS = ("maximin", "fixed_fraction", "greedy")
REFERENCE_FILE = Path(__file__).with_name("reference.json")

REWARDS = {"awgn:1": lambda: RewardFunction.awgn(1.0), "sqrt": RewardFunction.sqrt_rate}

# (reward, family, c, ratio keyword, ratio) per sweep op; "tiny" sizes serve
# the benchmark's own tests.  The full VI grid has 1000 cells so that a run
# holds about six rounds (at 2000 it held three, and one slow spell moved the
# result by a fifth); the tiny one keeps 2000, where VI's error budget
# slope * c / cells stays under the 1% error the tests plant.
_P_VALUES = (0.01, 0.1, 0.3, 0.5, 0.9)
SWEEPS = {
    "series_bernoulli": {
        "full": dict(
            grid=None,
            laws=[
                (rw, "bernoulli", c, "p_values", p)
                for rw in ("awgn:1", "sqrt")
                for c in (0.5, 2.0, 8.0)
                for p in _P_VALUES
            ],
        ),
        "tiny": dict(
            grid=None,
            laws=[(rw, "bernoulli", 2.0, "p_values", 0.5) for rw in ("awgn:1", "sqrt")],
        ),
    },
    "vi_uniform": {
        "full": dict(
            grid=1000,
            laws=[
                ("awgn:1", "uniform", c, "nmcr_values", r)
                for c in (2.0, 8.0)
                for r in (0.1, 0.5)
            ]
            + [("awgn:1", "exponential", 1.0, "nmcr_values", 0.5)],
        ),
        "tiny": dict(
            grid=2000,
            laws=[
                ("awgn:1", "uniform", 2.0, "nmcr_values", 0.5),
                ("awgn:1", "exponential", 1.0, "nmcr_values", 0.5),
            ],
        ),
    },
}

# One simulate op per policy kind; mc_long checks against value iteration on
# a grid of MC_REFERENCE_GRID cells, mc_wide against the exact series.
MC_REFERENCE_GRID = 2000
SIMULATIONS = {
    "mc_long": {
        "full": dict(family="uniform", c=2.0, mcr=0.5, paths=64, slots=25_000),
        "tiny": dict(family="uniform", c=2.0, mcr=0.5, paths=64, slots=8000),
    },
    "mc_wide": {
        "full": dict(family="bernoulli", c=2.0, mcr=0.5, paths=1024, slots=5_000),
        "tiny": dict(family="bernoulli", c=2.0, mcr=0.5, paths=256, slots=4000),
    },
}
WORKLOADS = tuple(SWEEPS) + tuple(SIMULATIONS)


@dataclass
class Op:
    label: str
    run: Callable[[], list]
    cells: int
    slot_paths: int = 0
    # what the checks need: cell keys, reward, and (for MC) the policy kind
    keys: list[str] = field(default_factory=list)
    reward: RewardFunction | None = None
    kind: str | None = None


def _law(family: str, c: float, ratio_kw: str, ratio: float):
    if ratio_kw == "nmcr_values":
        return arrivals.from_nmcr(family, c, ratio)
    return arrivals.from_mcr(family, c, ratio)


def _cell_key(rw: str, family: str, c: float, ratio_kw: str, ratio: float, grid, kind: str) -> str:
    return f"{family}|{rw}|c={c!r}|{ratio_kw.removesuffix('_values')}={ratio!r}|grid={grid}|{kind}"


def setup(workload: str, size: str = "full") -> dict:
    """Build the workload's rewards, arrival laws and policies.

    This is the set-up the benchmark times, after importing the package.
    """
    if workload in SWEEPS:
        spec = SWEEPS[workload][size]
        rewards = {name: REWARDS[name]() for name in {law[0] for law in spec["laws"]}}
        laws, policies = [], []
        for rw, family, c, ratio_kw, ratio in spec["laws"]:
            law = _law(family, c, ratio_kw, ratio)
            laws.append(law)
            policies.append([metrics.make_policy(k, rewards[rw], law.mcr()) for k in KINDS])
        return {"rewards": rewards, "laws": laws, "policies": policies}
    spec = SIMULATIONS[workload][size]
    reward = REWARDS["awgn:1"]()
    law = arrivals.from_mcr(spec["family"], spec["c"], spec["mcr"])
    policies = {k: metrics.make_policy(k, reward, law.mcr()) for k in KINDS}
    return {"rewards": {"awgn:1": reward}, "laws": [law], "policies": policies}


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def _within(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


# Monte Carlo checks allow this many standard errors: at 5, a correct
# estimator fails about one check in 10^5 (t distribution, 63 degrees of
# freedom), where 3 would fail one in 300.
MC_Z = 5.0


def inversion_slack(reward: RewardFunction, p: float) -> float:
    """Bound on how far the series value of the numerical maximin policy can
    lie below the exact maximin value under 0-or-c arrivals with rate p.

    ``MaximinPolicy`` inverts the ladder sum to within ``inversion_tol`` = d
    in u.  Its reserve map has slope in [0, 1], so the level at rung i is off
    by at most (i-1) d and the consumption by at most i d, which costs at most
    r'(0) i d of reward.  Weighted by p (1-p)**(i-1) the series loses at most
    r'(0) d / p.  The closed-form awgn policy inverts nothing: slack 0.
    """
    policy = metrics.make_policy("maximin", reward, p)
    tol = getattr(policy, "inversion_tol", 0.0)
    return float(reward.marginal(0.0)) * tol / p


def start_empty_bias(reward: RewardFunction, c: float, slots: int) -> float:
    """Bound on how far an n-slot average from an empty battery lies below one
    started in the stationary law.

    Driven by the same arrivals, the fuller path stays fuller (each policy's
    consumption and reserve rise with the level) and consumes in all at most
    c more, which is worth at most r'(0) c by concavity.
    """
    return float(reward.marginal(0.0)) * c / slots


class SweepWorkload:
    """``metrics.sweep`` over Bernoulli laws (exact series) or grid laws (VI)."""

    def __init__(self, name: str, seed: int, size: str = "full", reference: dict | None = None):
        spec = SWEEPS[name][size]
        objects = setup(name, size)
        self.name, self.grid = name, spec["grid"]
        self.reference = load_reference() if reference is None else reference
        self.notes: set[str] = set()
        self.ops = []
        for rw, family, c, ratio_kw, ratio in spec["laws"]:
            reward = objects["rewards"][rw]
            kwargs = {ratio_kw: [ratio]}
            if self.grid is not None:
                kwargs["grid_cells"] = self.grid

            def run(reward=reward, family=family, c=c, kwargs=kwargs):
                return metrics.sweep(reward, KINDS, family, [c], **kwargs)

            self.ops.append(
                Op(
                    label=f"{family} {rw} c={c!r} {ratio_kw.removesuffix('_values')}={ratio!r}",
                    run=run,
                    cells=len(KINDS),
                    keys=[_cell_key(rw, family, c, ratio_kw, ratio, self.grid, k) for k in KINDS],
                    reward=reward,
                )
            )
        random.Random(seed).shuffle(self.ops)

    def prepare_checks(self) -> None:
        """Nothing to compute: sweep cells are checked against reference.json."""

    def check(self, op: Op, reports: list) -> list[list[str]]:
        """Causes of failure per cell of one sweep op (empty when it passed)."""
        causes: list[list[str]] = [[] for _ in op.keys]
        if len(reports) != len(op.keys):
            return [[f"sweep returned {len(reports)} cells, expected {len(op.keys)}"]] * len(op.keys)
        by_kind = {r.policy: r for r in reports}
        for cell, (key, r) in enumerate(zip(op.keys, reports)):
            why = causes[cell]
            if r.policy != KINDS[cell]:
                why.append(f"cell {cell} is {r.policy!r}, expected {KINDS[cell]!r}")
                continue
            tol = r.tolerance
            # On Bernoulli the optimal gain is the numerical maximin policy's
            # series value; its tolerance leaves out the inversion error.
            slack = inversion_slack(op.reward, r.mcr) if r.family == "bernoulli" else 0.0
            if not r.policy_gain <= r.optimal_gain + tol + slack:
                why.append(
                    f"policy gain {r.policy_gain!r} above optimal {r.optimal_gain!r} "
                    f"+ {tol!r} + inversion slack {slack!r}"
                )
            elif r.policy_gain > r.optimal_gain + tol:
                self.notes.add(
                    f"{op.label} {r.policy}: policy gain exceeds the reported optimal gain by "
                    f"{r.policy_gain - r.optimal_gain!r}, more than the report's tolerance "
                    f"{tol!r} (within the inversion slack {slack!r})"
                )
            bound = metrics.universal_upper_bound(op.reward, r.c, r.mcr)
            for label, gain in (("policy", r.policy_gain), ("optimal", r.optimal_gain)):
                if not gain <= bound + tol:
                    why.append(f"{label} gain {gain!r} above r(mcr c) = {bound!r} + {tol!r}")
            if r.family == "bernoulli" and r.policy == "maximin":
                if not _within(r.multiplicative_factor, 1.0, tol / r.optimal_gain):
                    why.append(f"maximin factor {r.multiplicative_factor!r} is not 1 within tolerance")
            if r.family != "bernoulli" and r.policy == "maximin":
                fixed = by_kind["fixed_fraction"]
                if not r.policy_gain >= fixed.policy_gain - (tol + fixed.tolerance):
                    why.append(
                        f"maximin gain {r.policy_gain!r} below fixed fraction {fixed.policy_gain!r}"
                    )
            ref = self.reference.get(key)
            if ref is None:
                why.append(f"no reference value for {key}")
                continue
            for field_name in ("policy_gain", "optimal_gain"):
                got = getattr(r, field_name)
                if not _within(got, ref[field_name], tol + ref["tolerance"]):
                    why.append(
                        f"{field_name} {got!r} differs from reference {ref[field_name]!r} "
                        f"by more than {tol + ref['tolerance']!r}"
                    )
        return causes


class SimulationWorkload:
    """``evaluation.simulate`` for each policy kind on one arrival law."""

    def __init__(self, name: str, seed: int, size: str = "full", reference: dict | None = None):
        spec = SIMULATIONS[name][size]
        objects = setup(name, size)
        self.name, self.spec = name, spec
        self.reward = objects["rewards"]["awgn:1"]
        self.law = objects["laws"][0]
        self.policies = objects["policies"]
        self.reference = load_reference() if reference is None else reference
        self.notes: set[str] = set()
        self.live: dict[str, object] = {}
        rng = random.Random(seed)
        self.ops = []
        for kind in KINDS:
            mc_seed = rng.randrange(2**32)

            def run(policy=self.policies[kind], mc_seed=mc_seed):
                return [
                    evaluation.simulate(
                        policy, self.law, self.reward, spec["slots"], spec["paths"], seed=mc_seed
                    )
                ]

            self.ops.append(
                Op(
                    label=f"{spec['family']} awgn:1 c={spec['c']!r} {kind} seed={mc_seed}",
                    run=run,
                    cells=1,
                    slot_paths=spec["slots"] * spec["paths"],
                    keys=[self.reference_key(kind)],
                    reward=self.reward,
                    kind=kind,
                )
            )
        rng.shuffle(self.ops)

    def reference_key(self, kind: str) -> str:
        s = self.spec
        method = "series" if s["family"] == "bernoulli" else f"vi{MC_REFERENCE_GRID}"
        return f"mc-reference|{s['family']}|awgn:1|c={s['c']!r}|mcr={s['mcr']!r}|{method}|{kind}"

    def reference_value(self, kind: str):
        """The exact series (Bernoulli) or value iteration's policy gain."""
        policy = self.policies[kind]
        if self.spec["family"] == "bernoulli":
            return evaluation.bernoulli_reward(policy, self.reward, self.law.c, self.law.mcr())
        model = evaluation.build_mdp(self.reward, self.law, MC_REFERENCE_GRID)
        return evaluation.policy_gain(model, policy)

    def prepare_checks(self) -> None:
        """Compute the references; runs after the timed pass."""
        for kind in KINDS:
            try:
                self.live[kind] = self.reference_value(kind)
            except Exception as exc:  # reported as the cause of every op it checks
                self.live[kind] = exc

    def check(self, op: Op, results: list) -> list[list[str]]:
        why: list[str] = []
        ref = self.live[op.kind]
        stored = self.reference.get(op.keys[0])
        if isinstance(ref, Exception):
            return [[f"reference raised {ref!r}"]]
        if stored is None:
            why.append(f"no reference value for {op.keys[0]}")
        elif not _within(ref.value, stored["value"], (ref.tolerance or 0.0) + stored["tolerance"]):
            why.append(f"reference {ref.value!r} differs from stored {stored['value']!r}")
        if len(results) != 1:
            return [[f"simulate returned {len(results)} results"]]
        mc = results[0]
        bias = start_empty_bias(self.reward, self.law.c, self.spec["slots"])
        tol = MC_Z * mc.stderr + bias + (ref.tolerance or 0.0)
        z = (mc.value - ref.value) / mc.stderr if mc.stderr else math.inf
        if not _within(mc.value, ref.value, tol):
            why.append(
                f"MC {mc.value!r} differs from reference {ref.value!r} by more than "
                f"{tol!r} ({z:+.2f} standard errors)"
            )
        elif not _within(mc.value, ref.value, (mc.tolerance or 0.0) + (ref.tolerance or 0.0)):
            self.notes.add(
                f"{op.label}: MC {mc.value!r} is {z:+.2f} standard errors from reference "
                f"{ref.value!r}, outside simulate's own tolerance but within the check's"
            )
        return [why]


def build(workload: str, seed: int, size: str = "full", reference: dict | None = None):
    if workload in SWEEPS:
        return SweepWorkload(workload, seed, size, reference)
    if workload in SIMULATIONS:
        return SimulationWorkload(workload, seed, size, reference)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def cell_values(result) -> tuple:
    """The numbers an op returned, for comparing rounds bit for bit."""
    if isinstance(result, list):
        return tuple(cell_values(item) for item in result)
    if isinstance(result, metrics.GapReport):
        return (result.policy_gain, result.optimal_gain, result.tolerance)
    return (result.value, result.stderr, result.tolerance)
