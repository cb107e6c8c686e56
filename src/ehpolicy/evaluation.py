"""Long-run average-reward evaluators for battery-limited policies.

Battery dynamics per slot: the arrival x lands first and anything above the
capacity c spills, then the policy consumes from what is stored,

    stored_after = min(stored_before + x, c)
    carried      = stored_after - consumed,    0 <= consumed <= stored_after.

Three evaluators of the long-run average reward per slot:

  * bernoulli_reward: exact geometric series for all-or-nothing arrivals.
    Starting full, the battery walks down the policy's reserve ladder until
    the next full charge, so the average reward is a weighted sum of the
    rewards along that ladder.
  * simulate: Monte Carlo over independent finite paths started empty, with
    one RNG stream per path spawned from the master seed, so a seed fixes
    the result bit for bit.  Draws come in time blocks, so memory stays flat
    in the number of slots, and rewards are evaluated once per block.
  * optimal_gain / policy_gain: one relative value iteration loop on the
    capacity grid; they differ only in how a sweep picks its actions.
    Arrivals are discretized onto the same grid, so post-decision
    transitions are exact index shifts and the transition matrix is never
    materialized; the expectation step is a correlation, by FFT against the
    arrival spectrum held for the whole call.  optimal_gain's maximization
    is a max-plus convolution of the reward table with the expected next
    value; when both are concave it merges their slopes in O(n) per sweep,
    otherwise it scans every action exactly in O(n**2).  The merge always
    returns one of the candidate sums, and on every concave model tested it
    matches the scan bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn

from .arrivals import ArrivalDistribution, BernoulliArrivals
from .policies import StationaryPolicy, maximin_policy
from .rewards import RewardFunction

__all__ = [
    "SlotOutcome",
    "EvaluationResult",
    "DerivativeCheck",
    "AdmissibilityError",
    "NonConvergenceError",
    "step",
    "bernoulli_reward",
    "bernoulli_derivative_check",
    "simulate",
    "MdpModel",
    "build_mdp",
    "optimal_gain",
    "policy_gain",
]

_ADMISSIBILITY_SLACK = 1e-9
_SERIES_RUNGS = 1_000_000  # bernoulli_reward's rung cap


class AdmissibilityError(ValueError):
    """Requested consumption exceeds the stored energy beyond the slack."""


class NonConvergenceError(RuntimeError):
    """Value iteration hit its sweep cap before the span criterion, or the
    Bernoulli series its rung cap before the tail bound, which span holds."""

    def __init__(
        self, span: float, iterations: int, measure="value iteration span", steps="sweeps"
    ):
        super().__init__(f"{measure} {span!r} after {iterations} {steps}")
        self.span = span
        self.iterations = iterations


@dataclass(frozen=True)
class SlotOutcome:
    """One slot of battery dynamics."""

    before: float  # stored energy entering the slot
    after: float   # stored energy once the arrival landed (capacity clipped)
    consumed: float
    carried: float  # stored energy handed to the next slot


def step(before: float, x: float, u: float, c: float) -> SlotOutcome:
    """Advance the battery one slot; clamps u to the stored energy.

    Raises AdmissibilityError when u exceeds the post-arrival level by more
    than the 1e-9 slack; smaller overshoot is clamped silently.
    """
    before, x, u, c = float(before), float(x), float(u), float(c)
    if not c > 0:
        raise ValueError("capacity c must be positive")
    if x < 0 or u < 0 or before < 0 or before > c * (1 + 1e-12):
        raise ValueError("negative energies or stored level above capacity")
    after = min(before + x, c)
    if u > after + _ADMISSIBILITY_SLACK:
        raise AdmissibilityError(
            f"consumption {u!r} exceeds stored energy {after!r}"
        )
    consumed = min(u, after)
    return SlotOutcome(before=before, after=after, consumed=consumed, carried=after - consumed)


@dataclass(frozen=True)
class EvaluationResult:
    """A long-run average-reward estimate and its accuracy tags.

    tolerance is the evaluator's own accuracy budget: the series tail bound
    (residual) plus a bound on the walk's rounding, or the span half-width
    plus a grid term for value iteration.  For Monte Carlo it is 3 standard
    errors, which is not a bound: it leaves out the bias of starting every
    path empty, at most marginal(0) * c / n.
    """

    value: float
    method: str
    stderr: float | None = None
    residual: float | None = None
    tolerance: float | None = None

    def as_dict(self) -> dict:
        out = {"method": self.method, "value": self.value}
        for key in ("stderr", "residual", "tolerance"):
            item = getattr(self, key)
            if item is not None:
                out[key] = item
        return out


def bernoulli_reward(
    policy: StationaryPolicy,
    reward: RewardFunction,
    c: float,
    p: float,
    tol: float = 1e-15,
) -> EvaluationResult:
    """Exact average reward under all-or-nothing arrivals (c w.p. p, else 0).

    Sums p (1-p)**(i-1) * r(consumption at the i-th ladder level), walking
    the policy's reserve map down from a full battery.  Stops exactly once
    the reserve hits 0 (maximin policies get there in finitely many steps)
    or once the geometric tail bound r(c) (1-p)**i drops below tol, and
    raises NonConvergenceError when neither happens within 10**6 rungs.  Each
    rung runs the policy's and the reward's raw kernels on a one-element
    array: levels are finite and nonnegative by construction, and a
    consumption that is not is rejected as reward.value would reject it.

    residual is the tail bound left when the walk stopped, 0.0 when the
    reserve hit 0.  tolerance adds a bound on the walk's rounding (u = eps/2)
    for policies whose consumption and reserve are nondecreasing, 1-Lipschitz
    and evaluated within 6u (greedy, fixed fraction, the awgn maximin's
    interpolation) and rewards evaluated within 4u.  With n rungs, levels L_i,
    weights w_i = p (1-p)**(i-1) and climb_i = L_1 + ... + L_i: the rounded
    (1-p)**(i-1) is off by 2(i-1)u, each summand by (2n + 4)u, and adding n
    nonnegative summands costs (n - 1)u of their sum S, the value, so 1.5
    (n + 1) eps S in all.  Each `level -= u` rounds by u L_(i+1) after a
    consumption off by 6u L_i, and later consumptions and levels move by no
    more than a level error, so consumption i is off by 3.5 eps climb_i and
    its reward by r'(0) times that; and once the float walk stops at 0 the
    exact one holds at most 3.5 eps climb_n, spent at weights below w_(n+1).
    """
    c, p = float(c), float(p)
    if not c > 0:
        raise ValueError("c must be positive")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    top = float(reward.value(c))
    total = 0.0
    level = c
    survivor = 1.0  # (1-p)**(i-1)
    climb = 0.0  # L_1 + ... + L_i
    drift = 0.0  # sum over rungs of w_i climb_i
    residual = 0.0
    cell = np.empty(1)  # the rung's level, then its consumption
    for rungs in range(1, _SERIES_RUNGS + 1):
        cell[0] = level
        u = min(float(policy._evaluate(cell)[0]), level)
        if not 0.0 <= u <= level:
            raise ValueError("u must be finite and nonnegative")
        cell[0] = u
        weight = p * survivor
        total += weight * float(reward._value(cell)[0])
        climb += level
        drift += weight * climb
        level = max(level - u, 0.0)
        survivor *= 1.0 - p
        if level == 0.0:
            residual = 0.0
            break
        residual = survivor * top
        if residual <= tol:
            break
    else:
        raise NonConvergenceError(residual, _SERIES_RUNGS, "Bernoulli series tail bound", "rungs")
    eps = float(np.finfo(float).eps)
    slope = float(reward.marginal(0.0))
    rounding = eps * (1.5 * (rungs + 1) * total + 3.5 * slope * (drift + p * survivor * climb))
    return EvaluationResult(
        value=total, method="bernoulli_series", residual=residual, tolerance=residual + rounding
    )


@dataclass(frozen=True)
class DerivativeCheck:
    """Finite-difference slope of the series value vs the analytic slope."""

    fd_slope: float | None
    analytic_slope: float
    skipped: bool
    nearest_kink: float
    h: float


def bernoulli_derivative_check(
    reward: RewardFunction,
    p: float,
    c: float,
    h: float = 1e-5,
) -> DerivativeCheck:
    """Compare the capacity-derivative of the maximin series value two ways.

    The series value of the maximin policy is differentiable in c away from
    the policy's kinks, with slope p * marginal(policy(c)).  A central
    difference with step h is returned alongside that slope.  When c is
    within h of a kink the comparison is skipped with a warning.
    """
    c, p, h = float(c), float(p), float(h)
    if not (c > 0 and 0 < p < 1 and 0 < h < c):
        raise ValueError("need c > 0, p in (0, 1), 0 < h < c")
    policy = maximin_policy(reward, p)
    analytic = p * float(reward.marginal(policy.evaluate(c)))
    policy.kinks.cover(c)  # through the first kink past c
    nearest = min(policy.kinks.x[1:], key=lambda x: abs(x - c))
    skipped = abs(nearest - c) <= h
    fd = None
    if skipped:
        warnings.warn(
            f"c={c!r} is within h of a policy kink at {nearest!r}; "
            "finite-difference comparison skipped",
            stacklevel=2,
        )
    else:
        hi = bernoulli_reward(policy, reward, c + h, p)
        lo = bernoulli_reward(policy, reward, c - h, p)
        fd = (hi.value - lo.value) / (2.0 * h)
    return DerivativeCheck(
        fd_slope=fd, analytic_slope=analytic, skipped=skipped, nearest_kink=nearest, h=h
    )


# slots per simulate block: a block holds two block-by-paths arrays and costs
# one `sample` call per path, so blocks are long but memory stays flat in n
_SLOT_BLOCK = 1024


def simulate(
    policy: StationaryPolicy,
    arrivals: ArrivalDistribution,
    reward: RewardFunction,
    n: int,
    paths: int,
    seed: int,
) -> EvaluationResult:
    """Monte Carlo estimate of the long-run average reward per slot.

    Runs `paths` independent n-slot trajectories started with an empty
    battery and averages their per-slot rewards.  Each path draws from its
    own generator spawned from the master seed, so a seed fixes the result
    bit for bit.  stderr is the sample standard error over paths.

    Draws come in time blocks of _SLOT_BLOCK slots, each path's generator
    continuing where the last block stopped, so memory does not grow with n
    and the draws equal one n-slot draw per path.  A slot runs only the
    battery arithmetic and the policy's raw kernel, whose levels are finite
    and nonnegative by construction.  Rewards are evaluated once per block
    through reward.value, which rejects NaN or negative consumption, and
    added to each path's total in slot order.
    """
    n, paths = int(n), int(paths)
    if n < 1 or paths < 2:
        raise ValueError("need n >= 1, paths >= 2")
    c = arrivals.c
    seeds = np.random.SeedSequence(int(seed)).spawn(paths)
    streams = [np.random.default_rng(seed_seq) for seed_seq in seeds]
    block = np.empty((min(n, _SLOT_BLOCK), paths))
    stored = np.zeros(paths)
    totals = np.zeros(paths)
    for start in range(0, n, len(block)):
        rows = block[: n - start]
        for idx, rng in enumerate(streams):
            rows[:, idx] = arrivals.sample(rng, len(rows))
        for row in rows:  # the slot's draws, overwritten by its consumption
            lvl = np.minimum(stored + row, c)
            np.minimum(policy._evaluate(lvl), lvl, out=row)
            stored = lvl - row
        for gain in reward.value(rows):
            totals += gain
    means = totals / n
    value = float(np.mean(means))
    stderr = float(np.std(means, ddof=1) / np.sqrt(paths))
    return EvaluationResult(
        value=value, method="monte_carlo", stderr=stderr, tolerance=3.0 * stderr
    )


@dataclass(frozen=True)
class MdpModel:
    """Battery chain restricted to the uniform capacity grid.

    States and actions are the grid levels i * c / cells; an action j <= i
    consumes grid[j] from state i, after which the discretized arrival k
    moves the chain to min(i - j + k, cells).  Everything stays on the grid,
    so transitions are exact index arithmetic.
    """

    grid: np.ndarray
    mass: np.ndarray
    action_rewards: np.ndarray
    c: float
    slope_bound: float = field(repr=False)  # marginal reward at 0, for error budgets

    @property
    def states(self) -> int:
        return len(self.grid)

    @property
    def cell(self) -> float:
        return self.grid[1] - self.grid[0]

    def transition_row(self, i: int, j: int) -> np.ndarray:
        """Explicit next-state distribution for state i, action j."""
        n = self.states
        if not 0 <= j <= i < n:
            raise ValueError("need 0 <= action <= state < states")
        row = np.zeros(n)
        dest = np.minimum((i - j) + np.arange(n), n - 1)
        np.add.at(row, dest, self.mass)
        return row


def build_mdp(reward: RewardFunction, arrivals: ArrivalDistribution, cells: int) -> MdpModel:
    """Discretize arrivals onto the capacity grid and tabulate rewards."""
    pmf = arrivals.discretize(cells)
    return MdpModel(
        grid=pmf.grid,
        mass=pmf.mass,
        action_rewards=np.asarray(reward.value(pmf.grid), dtype=float),
        c=arrivals.c,
        slope_bound=float(reward.marginal(0.0)),
    )


def _expectation(mass: np.ndarray):
    """The map v -> w, w[m] = E[v(min(m + arrival, top))] for every
    post-decision level m, for value vectors as long as mass.

    Correlates v, extended by copies of v[-1], with mass: directly below 128
    levels, otherwise by FFT with mass's spectrum computed here once, in the
    exact arithmetic of scipy.signal.fftconvolve(vext, mass[::-1], "valid").
    """
    n = len(mass)

    def extend(v: np.ndarray) -> np.ndarray:
        return np.concatenate([v, np.full(n - 1, v[-1])])

    if n < 128:
        return lambda v: np.correlate(extend(v), mass, mode="valid")
    size = next_fast_len(3 * n - 2, True)
    spectrum = rfftn(mass[::-1], [size])
    return lambda v: irfftn(rfftn(extend(v), [size]) * spectrum, [size])[n - 1 : 2 * n - 1]


# candidate sums held at once by the exact scan in _best_actions (2 MiB)
_SCAN_BLOCK = 2**18


def _is_concave(seq: np.ndarray) -> bool:
    """Whether the slopes of seq are nonincreasing, exactly as computed."""
    return bool(np.all(np.diff(seq, 2) <= 0))


def _best_actions(
    action_rewards: np.ndarray, w: np.ndarray, rewards_concave: bool
) -> np.ndarray:
    """A maximizing j <= i of action_rewards[j] + w[i - j], for every state i.

    When both sequences are concave this is a max-plus convolution: the best
    sum for state i takes the i largest of the two sequences' slopes, and
    those are a prefix of each, so j[i] counts the reward slopes among them.
    w's slopes come first in the stable sort, so exact ties keep j smallest.
    Otherwise an exact O(n**2) scan takes the first argmax over j of every
    candidate sum, a block of states at a time so that each block holds at
    most _SCAN_BLOCK sums.
    """
    n = len(w)
    if rewards_concave and _is_concave(w):
        slopes = np.concatenate([np.diff(w), np.diff(action_rewards)])
        kept = np.argsort(-slopes, kind="stable")[: n - 1]
        return np.concatenate([[0], np.cumsum(kept >= n - 1)])
    # shifted[i, j] = w[i - j] for j <= i and -inf above the diagonal (a view)
    padded = np.concatenate([np.full(n - 1, -np.inf), w])
    shifted = np.lib.stride_tricks.sliding_window_view(padded, n)[:, ::-1]
    rows = max(1, _SCAN_BLOCK // n)
    best = np.empty(n, dtype=np.int64)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        best[lo:hi] = np.argmax(action_rewards[:hi] + shifted[lo:hi, :hi], axis=1)
    return best


def _relative_vi(model: MdpModel, actions_for, grid_term: float, eps: float, max_iter: int):
    """The span-criterion sweep of optimal_gain and policy_gain: each sweep
    takes its actions from actions_for(expected next value), and grid_term
    is the tolerance's grid part.  Returns the last sweep's actions too."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    expected_next = _expectation(model.mass)
    rewards = model.action_rewards
    states = np.arange(model.states)
    v = np.zeros(model.states)
    span = np.inf
    for _ in range(int(max_iter)):
        w = expected_next(v)
        actions = actions_for(w)
        new_v = rewards[actions] + w[states - actions]
        delta = new_v - v
        hi, lo = float(delta.max()), float(delta.min())
        span = hi - lo
        if span <= eps:
            result = EvaluationResult(
                value=0.5 * (hi + lo),
                method="value_iteration",
                residual=span,
                tolerance=0.5 * span + grid_term,
            )
            return result, actions
        v = new_v - new_v[0]  # reference state: empty battery
    raise NonConvergenceError(span, int(max_iter))


def optimal_gain(
    model: MdpModel, eps: float = 1e-9, max_iter: int = 10**6
) -> tuple[EvaluationResult, np.ndarray]:
    """Optimal average reward of the grid MDP by relative value iteration.

    Sweeps stop once the span of successive value differences drops below
    eps; the true grid gain then lies within span/2 of the reported value.
    Also returns the maximizing action index per state of the last sweep
    (smallest on ties).  Raises NonConvergenceError at the sweep cap.

    Each sweep maximizes rewards[j] + w[i - j] over j <= i.  The reward
    table is checked for concavity once, the expected next value w on every
    sweep; when both are concave the maximum comes from an O(n) merge of
    their slopes, otherwise from an exact O(n**2) scan.  The merge returns
    an actual candidate sum, and on every concave model tested it matches
    the scan bit for bit.
    """
    rewards = model.action_rewards
    rewards_concave = _is_concave(rewards)
    grid_term = 0.5 * model.slope_bound * model.cell
    return _relative_vi(
        model, lambda w: _best_actions(rewards, w, rewards_concave), grid_term, eps, max_iter
    )


def policy_gain(
    model: MdpModel,
    policy: StationaryPolicy,
    eps: float = 1e-9,
    max_iter: int = 10**6,
) -> EvaluationResult:
    """Average reward of a fixed policy on the grid MDP.

    The policy's consumption at each grid state is snapped down to the
    nearest feasible grid action, then evaluated by the same span-criterion
    sweep as optimal_gain.
    """
    u = np.asarray(policy.evaluate(model.grid), dtype=float)
    actions = np.floor(u / model.cell + 1e-9).astype(np.int64)
    actions = np.minimum(np.maximum(actions, 0), np.arange(model.states))
    grid_term = model.slope_bound * model.cell
    return _relative_vi(model, lambda w: actions, grid_term, eps, max_iter)[0]
