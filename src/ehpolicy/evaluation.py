"""Long-run average-reward evaluators for battery-limited policies.

Battery dynamics per slot: the arrival x lands first and anything above the
capacity c spills, then the policy consumes from what is stored,

    stored_after = min(stored_before + x, c)
    carried      = stored_after - consumed,    0 <= consumed <= stored_after.

Three evaluators of the long-run average reward per slot:

  * bernoulli_reward: exact geometric series for all-or-nothing arrivals.
    Starting full, the battery walks down the policy's reserve ladder until
    the next full charge, so the average reward is a weighted sum of the
    rewards along that ladder.  The walk scores its rungs once per block and
    adds them in rung order, so memory stays flat in the number of rungs.
  * simulate: Monte Carlo over independent finite paths started empty, with
    one RNG stream per path, the master seed's SeedSequence children hashed
    for all paths at once, so a seed fixes the result bit for bit.  Draws
    come in time blocks, so memory stays flat in the number of slots.  On
    all-or-nothing arrivals every charge refills the battery, so a path's
    level is a rung of the ladder the series walks, indexed by the slots
    since its last charge: each rung is scored once and each slot gathers
    its reward.  On any other law chunks of slots run side by side, each
    from a full battery, and each is spliced onto the true path where the
    two levels meet; a block whose chunks do not all meet is finished slot
    by slot over all paths.  Rewards are evaluated once per block.
  * optimal_gain / policy_gain: relative value iteration on the capacity
    grid; they differ only in how they pick actions.  policy_gain starts
    its sweeps from one solve of the policy's bias, so its first sweep
    certifies the solve.  optimal_gain starts from 0 and switches to Howard
    policy iteration only when the contraction of its first spans predicts
    more sweeps than a Howard run costs; the sweeps then go on from the
    last policy's solved bias.  Arrivals are discretized onto the same grid,
    so post-decision transitions are exact index shifts and the transition
    matrix is never materialized; the expectation step is a correlation
    with the arrival's support, by FFT against its spectrum, which each
    model builds once and shares across calls, and it is also the matvec of
    the restarted GMRES, in numpy, that solves for a policy's gain and bias.
    Every reported value, span and tolerance comes from a genuine Bellman
    sweep, so the span bound holds whatever the solver did.  optimal_gain's
    maximization is a max-plus convolution of the reward table with the
    expected next value.  When both are concave it merges their slopes; the
    merge returns one of the candidate sums, and on every concave model
    tested it matches the exact scan bit for bit.  When only the reward
    table is, a concave majorant of the expected next value brackets each
    state's maximizers in a few actions, with the exact scan's result bit
    for bit; otherwise it scans every action exactly in O(n**2).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections import deque
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .arrivals import ArrivalDistribution, BernoulliArrivals
from .policies import (
    FixedFractionPolicy,
    StationaryPolicy,
    _Ladder,
    maximin_policy,
)
from .rewards import RewardFunction, _check_fraction, _check_positive

__all__ = [
    "EvaluationResult",
    "DerivativeCheck",
    "NonConvergenceError",
    "bernoulli_reward",
    "bernoulli_derivative_check",
    "simulate",
    "MdpModel",
    "build_mdp",
    "optimal_gain",
    "policy_gain",
]

_SERIES_RUNGS = 1_000_000  # bernoulli_reward's rung cap
_SERIES_CAP = ("Bernoulli series tail bound", "rungs")  # what NonConvergenceError names there
_EPS = float(np.finfo(float).eps)
# slots per simulate block and rungs per series block: a simulate block holds
# three block-by-paths arrays (one of bools by renewal) and costs one draw call
# per path, a series block one reward._value call, so memory stays flat
_SLOT_BLOCK = 1024
# slots per chunk of simulate's time-parallel pass over a block
_CHUNK = 64
# elements per scratch buffer of the renewal path, which holds a group of
# paths' uniforms or a slice of slot rows: 32 of them at 1024 slots or paths
_GATHER = 1 << 15
# fewest paths at which _down_slots, simulate's running maxima and sums,
# runs one slot row at a time; below it one accumulate down the slot axis is
# cheaper than a ufunc call a row, and above it that strided accumulate is
# the slower
_ROW_PATHS = 256
# numpy's SeedSequence hash constants (O'Neill's seed_seq_fe), which _streams
# runs over every path's words at once
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


class NonConvergenceError(RuntimeError):
    """Value iteration hit its sweep cap (Howard steps count as sweeps)
    before the span criterion, or the Bernoulli series its rung cap before
    its tail bound (1-p)**n min(r(c), p r'(0) L_(n+1)) after n rungs,
    L_(n+1) the level left (see bernoulli_reward), dropped to tol; span
    holds that criterion or bound.  needed is set when a series was
    predicted past its cap instead of walked: a FixedFractionPolicy ladder
    whose walk, or for awgn and sqrt whose head before the summed tail,
    passes it, or one whose level stopped moving; needed is then the rungs
    tol would take.  spans holds the spans of value iteration's last few
    plain sweeps since any Howard run, oldest first (empty for the
    series), and the message gives their contraction a sweep, the
    geometric mean of their ratios."""

    def __init__(
        self,
        span: float,
        iterations: int,
        measure="value iteration span",
        steps="sweeps",
        needed: float | None = None,
        spans: Sequence[float] = (),
    ):
        message = f"{measure} {span!r} after {iterations} {steps}"
        if needed is not None:  # predicted, not walked
            message = f"{measure} would be {span!r} after {iterations} {steps}"
            message += f"; tol needs {needed} {steps}"
        if len(spans) >= 2:
            rho = (spans[-1] / spans[0]) ** (1.0 / (len(spans) - 1))
            message += f"; the last {len(spans)} spans contract by {rho:.6g} a sweep"
        super().__init__(message)
        self.span = span
        self.iterations = iterations
        self.needed = needed
        self.spans = tuple(spans)


@dataclass(frozen=True)
class EvaluationResult:
    """A long-run average-reward estimate and its accuracy tags.

    tolerance is the evaluator's own accuracy budget: the series tail bound
    (residual; for a fixed fraction's summed tail the truncation bound of
    its power series) plus a bound on the rounding of the walk and of any
    summed tail, or the span half-width
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
        return {k: v for k, v in asdict(self).items() if v is not None}


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
    the reserve hits 0 (every maximin policy does, in finitely many steps,
    on the levels ergodic_levels lists) or once the tail bound after rung i,

        (1-p)**i * min(r(c), p r'(0) L_(i+1)),    L_(i+1) the level after it,

    drops below tol.  The later weights p (1-p)**(j-1), j > i, sum to
    (1-p)**i and each is at most p (1-p)**i.  No later rung consumes more
    than c, which gives r(c); and a concave r with r(0) = 0 has
    r(u) <= r'(0) u while the later rungs together consume at most L_(i+1),
    which gives the second term (left out when r'(0) is not finite).  For a
    fixed fraction f, L_(i+1) = c (1-f)**i, so the second term shrinks at
    the square of the first's rate when f = p.

    A policy of exactly the type FixedFractionPolicy (a subclass may consume
    otherwise) with an awgn or sqrt reward and tol > 0 walks only a head:
    the walk also stops at the first level L_(J+1) with
    gamma f L_(J+1) <= 1/2 (gamma from RewardFunction.affine), and
    _fraction_tail adds the rest of the series, a power series in that
    level with the sums over rungs and over powers exchanged.  At p = f = 0.01 and c <= 50 the head is
    empty.  Custom rewards, every other policy and a tol of 0 or less,
    which no truncation meets, walk to the end.

    Raises NonConvergenceError when no stop comes within 10**6 rungs: at
    once, naming the rungs needed, for a fixed-fraction ladder whose walk
    (or head) _fraction_rungs predicts past the cap by more than its
    rounding, and at the end of its block for a
    ladder that reaches a fixed point (_Ladder.fixed: a rung that leaves
    the level as it was, so every later rung repeats it) whose geometric
    count, _fixed_point_fails_fast, passes the cap the same way.  Each rung
    is one step of the policy's reserve ladder (_Ladder, on levels finite
    and nonnegative by construction: the policy's _rung, given the rung
    before's consumption, which MaximinPolicy, a custom reward's maximin,
    steps down by the ladder step after one certified inversion at c, and
    the rejection of a NaN or negative consumption), the survivor's step
    and the tail bound.  A rung adds its
    level to the climb and its weight times the climb to the drift as it
    is walked; its weight and consumption are buffered in blocks of
    _SLOT_BLOCK rungs, counted by the rung number, and _fold_rungs scores
    a block with one reward._value call and adds it to the value.  Every
    sum is taken in Python floats strictly in rung order, so every partial
    sum, and the rounding derived below, is that of a walk that scores and
    adds one rung at a time.

    residual is the tail bound left when the walk stopped, 0.0 when the
    reserve hit 0, and for a summed tail the truncation bound of its power
    series, at most tol.  tolerance adds a bound on the walk's rounding (u = eps/2)
    for policies whose consumption and reserve are nondecreasing, 1-Lipschitz
    and evaluated within 6u (greedy, fixed fraction, and the awgn and sqrt
    maximins' interpolation in their kink tables) and rewards and r'(0)
    evaluated within 4u.  With n rungs,
    levels L_i, weights w_i = p (1-p)**(i-1) and climb_i = L_1 + ... + L_i:
    the rounded (1-p)**(i-1) is off by 2(i-1)u, each summand by (2n + 4)u,
    and adding n nonnegative summands costs (n - 1)u of their sum S, the
    value, so 1.5 (n + 1) eps S in all.  Each `level -= u` rounds by
    u L_(i+1) after a consumption off by 6u L_i, and later consumptions and
    levels move by no more than a level error, so consumption i is off by
    3.5 eps climb_i and its reward by r'(0) times that; and where the float
    walk stops, the exact level exceeds it by at most 3.5 eps climb_n, spent
    at weights below w_(n+1).  The rounded tail bound is off by at most
    (2n + 8)u of itself: 2n u in (1-p)**n, 4u in r(c) or r'(0), and one u
    in each of its three products, so (n + 4) eps residual.

    A summed tail after a head of J rungs keeps the terms above with n = J
    and S the head's sum, and the drift term covers the tail as well: the
    tail from level L, T(L) = p q**J sum_j q**j r(f g**j L) with q = 1 - p
    and g = 1 - f, has slope at most p q**J r'(0) f / (1 - q g) <= w_(J+1)
    r'(0), so the head's level error moves it by at most 3.5 eps w_(J+1)
    r'(0) climb_J.  The tail is computed within its own rounding bound
    (_fraction_tail) plus (2J + 6)u of itself: 2J u in the survivor
    (1-p)**J, 2u in y = gamma f L, which moves T by at most 2u T because a
    concave r with r(0) = 0 has u r'(u) <= r(u), and 2u in the products
    weight = p (1-p)**J and weight times the sum.  (J + 3) eps T covers the
    second order, and adding the tail to the head costs u of the value.
    Its truncation bound is off by (2J + 3M + 9)u of itself, where M terms
    were summed: (2J + 1)u in weight, (3M + 7)u in t_(M+1) and one u in the
    product, so (1.5 M + J + 7) eps residual.
    """
    c, p = _check_positive(c), _check_fraction(p)
    top = float(reward.value(c))
    slope = float(reward.marginal(0.0))
    grade = p * slope if math.isfinite(slope) else math.inf  # the tail bound's p r'(0)
    shrink = 1.0 - p
    edge = -1.0  # the level at or below which a power series sums the rest
    if type(policy) is FixedFractionPolicy:  # exactly: a subclass may consume otherwise
        head = math.inf  # c / edge
        if reward.affine and tol > 0.0:
            edge = 0.5 / (policy.p * reward.affine[0])
            head = c / edge
        needed, rounding = _fraction_rungs(policy.p, shrink, top, grade * c, tol, head)
        last = c * (1.0 - policy.p) ** _SERIES_RUNGS  # the level at the cap
        _past_the_cap(needed, rounding, shrink, min(top, grade * last))
    total = climb = drift = 0.0  # the value, climb_i and the drift sum w_i climb_i so far
    shift = max(math.frexp(c)[1] - 1, 0)  # climb and drift are summed in units of 2**shift
    unit = math.ldexp(1.0, -shift)  # so a climb past the float maximum stays finite
    level = c
    survivor = 1.0  # (1-p)**(i-1)
    residual = 0.0
    weights: list[float] = []  # the block's rung weights and consumptions, for _fold_rungs
    spent: list[float] = []
    rungs, summed = 0, c <= edge  # summed: the walk hands the rest to the power series
    if not summed:
        flush = _SLOT_BLOCK  # the rung that ends this block
        ladder = _Ladder(policy, level)
        for rungs in range(1, _SERIES_RUNGS + 1):
            weight = p * survivor
            climb += level * unit
            drift += weight * climb
            weights.append(weight)
            spent.append(ladder.step())
            level = ladder.level
            survivor *= shrink
            if level == 0.0:
                residual = 0.0
                break
            bound = grade * level
            residual = survivor * (bound if bound < top else top)  # min(top, bound)
            if residual <= tol:
                break
            if level <= edge:
                summed = True
                break
            if rungs == flush:
                if ladder.fixed:  # every later rung repeats this one
                    _fixed_point_fails_fast(residual, rungs, shrink, tol, min(top, grade * level))
                total = _fold_rungs(total, reward, weights, spent)
                flush += _SLOT_BLOCK
        else:
            raise NonConvergenceError(residual, _SERIES_RUNGS, *_SERIES_CAP)
    if weights:
        total = _fold_rungs(total, reward, weights, spent)
    value, bound_error, summing = total, (rungs + 4) * residual, 0.0  # in units of eps
    if summed:
        weight = p * survivor
        tail, residual, spread, terms = _fraction_tail(reward, policy.p, p, level, weight, tol)
        value = total + tail
        bound_error = (1.5 * terms + rungs + 7) * residual
        summing = spread + (rungs + 3) * tail + 0.5 * value
    rounding = (
        _EPS
        * (
            math.ldexp(1.5 * (rungs + 1) * total + bound_error + summing, -shift)
            + 3.5 * slope * (drift + p * survivor * climb)
        )
        * math.ldexp(1.0, shift)  # a product, which overflows to inf where ldexp raises
    )
    return EvaluationResult(
        value=value, method="bernoulli_series", residual=residual, tolerance=residual + rounding
    )


def _fraction_rungs(
    fraction: float, shrink: float, top: float, start: float, tol: float, head: float = math.inf
) -> tuple[float, float]:
    """The rungs a fixed-fraction walk takes before its tail bound drops to
    tol, and how far rounding may move the walk's own count; (0, 0.0) when
    the ladder may end at 0 first, or tol is not in (0, top).

    With fraction <= 1/2 it never does: fraction * L rounds to at most
    L / 2 rounded, which is below L for every float L > 0, so L - u is a
    positive float.  The level after n rungs is then c g**n, g = 1 - fraction,
    so the bound after n rungs is the smaller of top * shrink**n and
    start * (shrink g)**n, start = p r'(0) c, and the first n at which it
    drops to tol is the smaller of the two geometric counts
    log(top / tol) / -log(shrink) and log(start / tol) / -log(shrink g), each
    rounded up.  The walk's survivor is shrink**n within (n + 1) eps/2
    relative.  Each rung's u = fraction * L and L - u round by eps/2, and
    u <= L - u, so each rung moves the level by at most eps relative and it
    is c g**n within n eps; with the products, each of the two bounds is
    within 2 (n + 2) eps of its geometric sequence, logs included.  Near the
    first crossing both are that close, so neither crosses earlier or later
    than 1 + 2 eps (n + 2) / rate rungs of its count, where rate is the
    slower decay, -log(shrink), unless shrink rounds to 1 (p below eps/2):
    then the survivor stays 1.0 and only the second bound falls.  head, c
    over the level at which an awgn or sqrt walk hands the rest to its
    summed tail (inf for none), adds a third count: c g**n, within n eps,
    reaches that level after log(head) / -log(g) rungs, rounded up, and
    rate becomes the slowest of the decays the counts use.
    """
    if not (fraction <= 0.5 and 0.0 < tol < top):
        return 0, 0.0
    rate = -math.log(shrink) - math.log1p(-fraction)
    needed = math.log(max(start, tol) / tol) / rate
    if shrink < 1.0:
        rate = -math.log(shrink)
        needed = min(needed, math.log(top / tol) / rate)
    if head < math.inf:  # the walk also stops once its level c g**n is at most c / head
        decay = -math.log1p(-fraction)
        needed = min(needed, max(math.log(head), 0.0) / decay)
        rate = min(rate, decay)
    if needed == math.inf:  # r'(0) not finite and shrink 1.0: no bound falls
        return math.inf, 0.0
    needed = math.ceil(needed)
    return needed, 1.0 + 2.0 * _EPS * (needed + 2) / rate


def _fraction_tail(
    reward: RewardFunction, fraction: float, p: float, level: float, weight: float, tol: float
) -> tuple[float, float, float, int]:
    """The fixed-fraction series on from a level inside the reward's power
    series radius, with the two sums exchanged.  Returns the tail, its
    truncation bound, a rounding bound in units of eps and the count M of
    terms summed.

    From level L the rungs consume x g**j, x = fraction * L and
    g = 1 - fraction, at weights weight * q**j, q = 1 - p, where weight is
    p (1-p)**J after J rungs.  awgn and sqrt are power series
    r(u) = sum_m r_m u**m, with r_m = (-1)**(m+1) gamma**m / (2m) and
    binomial(1/2, m), so the tail is

        weight * sum_m t_m,    t_m = r_m x**m / (1 - q g**m),

    where both sums converge absolutely while gamma x < 1 (gamma is 1 for
    sqrt).  The caller hands over y = gamma x at most 1/2, within 4u
    (u = eps/2).  The t_m then alternate in sign and |t_(m+1) / t_m| < y,
    because r_m's ratios are m / (m+1) and (m - 1/2) / (m+1) and
    1 - q g**m grows with m.  So the terms after the M-th sum to at most
    |t_(M+1)|.  M stops at the first t_(M+1) that is at most eps/8 |t_1| and
    whose weighted bound is at most tol.  The M terms are summed smallest
    first.

    Rounding, with log1p and expm1 within 2u: r_m x**m is built from
    y / 2 by one product a term, 3u each, so it is within 3(m - 1)u.  In
    1 - q g**m = -expm1(log1p(-p) + m log1p(-fraction)) the argument s is
    within 4u; that moves 1 - e**s by at most |s| e**s / (1 - e**s) <= 1
    times as much, relative, and expm1 adds 2u.  With the division, t_m is
    within (3m + 4)u; 3m + 6 covers the second-order terms.  Adding
    smallest first costs u |s_k| at each partial sum s_k.  So the sum is
    within u sum_m ((3m + 6) |t_m| + |s_m|), and the returned rounding
    bound is weight times half of that.
    """
    gamma, e = reward.affine
    y = fraction * level * gamma
    half = 0.5 if e == 2 else 0.0  # r_(m+1) / r_m = -(m - half) / (m + 1) gamma
    down, shrink = math.log1p(-fraction), math.log1p(-p)
    power = 0.5 * y  # r_m x**m, and r_1 x = y / 2 for both rewards
    terms = [power / -math.expm1(shrink + down)]
    stop = 0.125 * _EPS * abs(terms[0])
    spread = 9.0 * abs(terms[0])  # the sum of (3m + 6) |t_m| and of |s_m|
    expm1 = math.expm1
    for m in itertools.count(2):
        power *= -y * (m - 1 - half) / m
        term = power / -expm1(shrink + m * down)
        size = abs(term)
        if size <= stop and weight * size <= tol:
            break
        terms.append(term)
        spread += (3 * m + 6) * size
    tail = 0.0
    for t in reversed(terms):
        tail += t
        spread += abs(tail)
    return weight * tail, weight * size, weight * 0.5 * spread, len(terms)


def _fixed_point_fails_fast(
    residual: float, rungs: int, shrink: float, tol: float, bound: float
) -> None:
    """Raise NonConvergenceError, naming the rungs needed, when a walk whose
    level stopped moving at rung `rungs` would pass the cap by more than its
    rounding before its tail bound drops to tol.

    From then on the tail bound is the walk's survivor times bound, so it
    falls by shrink a rung and drops to tol after log(residual / tol) / rate
    more rungs, rate = -log(shrink), rounded up; never when shrink rounds to
    1.  The survivor is shrink**n within (n + 1) eps/2 relative, so, as in
    _fraction_rungs, the walk crosses within 1 + 2 eps (n + 2) / rate rungs
    of that count.  No prediction for tol <= 0, which only an underflow of
    the survivor meets.
    """
    if not tol > 0.0:
        return
    rate = -math.log(shrink)
    needed, rounding = math.inf, 0.0
    if rate > 0.0:
        needed = rungs + math.ceil((math.log(residual) - math.log(tol)) / rate)
        rounding = 1.0 + 2.0 * _EPS * (needed + 2) / rate
    _past_the_cap(needed, rounding, shrink, bound)


def _past_the_cap(needed: float, rounding: float, shrink: float, bound: float) -> None:
    """Raise NonConvergenceError, naming the rungs needed, when a predicted
    walk passes the cap by more than its rounding; its tail bound at the
    cap is shrink**_SERIES_RUNGS * bound."""
    if needed > _SERIES_RUNGS + rounding:
        span = shrink**_SERIES_RUNGS * bound
        raise NonConvergenceError(span, _SERIES_RUNGS, *_SERIES_CAP, needed=needed)


def _fold_rungs(total: float, reward: RewardFunction, weights, spent) -> float:
    """Add a block of rungs' weighted rewards to the running value in rung
    order, empty the block, and return the new value.  One reward._value
    call scores the block, and the value adds its terms left to right in
    Python floats (np.sum would add pairwise), so every partial sum is the
    one a rung-at-a-time walk rounds to."""
    for weight, gain in zip(weights, reward._value(np.array(spent)).tolist()):
        total += weight * gain
    weights.clear()
    spent.clear()
    return total


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
    # evaluate walked the kinks through the first past c, or past the kink
    # cap or the float range through the last the table extends
    analytic = p * float(reward.marginal(policy.evaluate(c)))
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
    battery and averages their per-slot rewards.  Path i draws from the
    generator of SeedSequence(seed).spawn(paths)[i], bit for bit, so a seed
    fixes the result bit for bit; _streams hashes all the children at once
    and spot-checks one against numpy's own SeedSequence.  stderr is the
    sample standard error over paths.

    Draws come in time blocks of _SLOT_BLOCK slots, each path's generator
    continuing where the last block stopped, so memory does not grow with n
    and the draws equal one n-slot draw per path.  Rewards are added to each
    path's total in slot order (_down_slots).  The slots run one of two
    ways, both resting on _evaluate's per-level contract (but for a custom
    MaximinPolicy's ladder, see _renewal_totals):

      * 0-or-c arrivals (BernoulliArrivals) by renewal: every charge fills
        the battery to exactly c, so a path's level is the rung of the
        reserve ladder from c indexed by the slots since its last charge, or
        of the ladder from 0 before its first.  A block is held as one bool
        a draw and scored in slices of slot rows.  See _renewal_totals.
      * any other law in chunks of _CHUNK slots run side by side and
        spliced where a chunk's copy meets the true path: a slot's outcome
        depends only on the stored level and the draw, so two copies of a
        path that hold equal levels after the same slot run on with equal
        bits.  See _spliced_block.  A block in which a chunk's copy, other
        than the last chunk's, does not meet within its chunk is finished
        by the slot loop, _slot_steps, and so is the rest of the call: on
        slow-mixing laws this costs one block's chunk passes.

    Each path's generator fills its own row of a path-major buffer: on
    0-or-c arrivals with bare uniforms, which a comparison to p turns into
    sample's charges bit for bit, and on any other law through sample's
    out=.  Every way scores the block's consumptions through reward.value,
    which rejects NaN or negative ones, and gives the same bits.
    """
    n, paths = int(n), int(paths)
    if n < 1 or paths < 2:
        raise ValueError("need n >= 1, paths >= 2")
    c = arrivals.c
    streams = _streams(seed, paths)
    if isinstance(arrivals, BernoulliArrivals):
        return _estimate(_renewal_totals(policy, arrivals, reward, n, streams), n)
    chunked = True  # until a block's chunks do not all meet
    width = min(n, _SLOT_BLOCK)
    span = -(-width // _CHUNK) * _CHUNK
    draws = np.empty((paths, span))  # path-major, each path's draws a row
    spent = np.empty((span, paths))  # slot-major, each slot's consumptions a row
    full = np.empty_like(spent)
    stored = np.zeros(paths)
    totals = np.zeros(paths)
    for start in range(0, n, width):
        cols = min(width, n - start)
        for row, rng in zip(draws, streams):
            arrivals.sample(rng, cols, out=row[:cols])
        if chunked:
            stored, chunked = _spliced_block(policy, draws, spent, full, stored, c, cols)
        else:
            stored = _slot_steps(policy, draws[:, :cols], spent[:cols], stored, c)
        gains = reward.value(spent[:cols])
        totals = _down_slots(np.add, totals, gains)
    return _estimate(totals, n)


def _streams(seed, paths: int) -> list:
    """One generator per path, each in the state of default_rng(child) for
    the children of SeedSequence(int(seed)).spawn(paths), in order.

    Child i's entropy is the seed's little-endian 32-bit words, padded with
    zeros to the pool size since a spawn key follows, and then i.
    SeedSequence hashes these words with constants that depend only on the
    word's position, never on the data, so its mix_entropy and
    generate_state(4, np.uint64) run here once on uint32 arrays across all
    children, where uint32 products wrap as in numpy's own hash.  A PCG64
    seeded from a child's row is then that child's.  One child is checked
    against numpy's SeedSequence on every call; where they disagree, on a
    numpy whose hash moved, the generators come from numpy's own spawn,
    the same ones at ~12 ms more a call, rather than moving every result.
    """
    from numpy.random import PCG64, Generator, SeedSequence
    from numpy.random.bit_generator import ISeedSequence

    root = SeedSequence(int(seed))
    pool, value = root.pool_size, int(root.entropy)
    words = np.empty((max(pool, -(-value.bit_length() // 32)) + 1, paths), np.uint32)
    for i, row in enumerate(words[:-1]):
        row[:] = value >> 32 * i & 0xFFFFFFFF
    words[-1] = np.arange(paths)
    hashmix = _hasher(_INIT_A, _MULT_A)
    mixer = [hashmix(row) for row in words[:pool]]
    for src in range(pool):
        for dst in range(pool):
            if src != dst:
                mixer[dst] = _mix(mixer[dst], hashmix(mixer[src]))
    for row in words[pool:]:
        for dst in range(pool):
            mixer[dst] = _mix(mixer[dst], hashmix(row))
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.empty((paths, 8), np.uint32)
    for i in range(8):
        state[:, i] = hashmix(mixer[i % pool])
    keys = state.astype("<u4").view("<u8").astype(np.uint64)
    last = paths - 1
    if not np.array_equal(
        keys[last], SeedSequence(root.entropy, spawn_key=(last,)).generate_state(4, np.uint64)
    ):
        return [Generator(PCG64(child)) for child in root.spawn(paths)]

    class Key(ISeedSequence):
        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key  # PCG64 asks for generate_state(4, np.uint64)

    return [Generator(PCG64(Key(key))) for key in keys]


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays: each call xors its array with
    the hash constant, steps the constant to const * mult mod 2**32, and
    multiplies and xorshifts by the new one."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & 0xFFFFFFFF
        value *= const
        value ^= value >> 16
        return value

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 arrays."""
    value = x * _MIX_MULT_L - y * _MIX_MULT_R
    value ^= value >> 16
    return value


def _slot_steps(policy, draws, spent, level, c):
    """Run the slots one by one over all paths from `level`, reading each
    slot's draws from a column of draws and writing its consumptions into
    a row of spent, and return the level carried out of the last."""
    for col, row in zip(draws.T, spent):
        lvl = np.minimum(level + col, c)
        np.minimum(policy._evaluate(lvl), lvl, out=row)
        level = lvl - row
    return level


def _spliced_block(policy, draws, spent, full, level, c, cols):
    """simulate's time-parallel pass over one block of `cols` slots, whose
    draws are in the path-major draws[:, :cols]: writes the slots'
    consumptions into spent[:cols] and returns the level carried out of the
    block, and whether every chunk but the last met its full copy.

    The block is cut into chunks of _CHUNK slots, the last one possibly
    short.  Pass 1 runs a copy of every chunk of every path from a full
    battery, all side by side, keeping each slot's consumption in spent and
    its stored level in full.  Pass 2 starts a spliced copy of chunk 0 from
    `level` and of chunk k from the end of chunk k - 1's full copy, and runs
    them side by side, writing a copy's consumptions until, after some slot,
    its level equals its full copy's bit for bit (==).  From that slot on
    the two meet the same draws from the same level, so the full copy's
    consumptions stand.  If every chunk but the last met, each spliced copy
    started from the true level, by induction from chunk 0, and spent holds
    the true consumptions; the last chunk's copy is written to the block's
    end wherever it did not meet.  Otherwise the earliest chunk that did
    not meet started from the true level, and the slot loop reruns the
    block from there.

    Each step is the slot loop's arithmetic on an array of levels, each of
    one path at one slot, so it gives the slot loop's bits under
    _evaluate's per-level contract, which every policy must meet.  Where
    consumption and reserve are also nondecreasing in the level, as for the
    built-in policies, a copy stays at or below its full copy, up to
    rounding, and the two meet once both empty or both fill: within a few
    slots on most laws.
    """
    paths, span = draws.shape
    chunks = -(-cols // _CHUNK)
    tail = cols - (chunks - 1) * _CHUNK  # the slots of the last chunk
    # (chunk, slot in the chunk, path) views of the three buffers
    d3 = draws.reshape(paths, -1, _CHUNK)[:, :chunks].transpose(1, 2, 0)
    s3, f3 = (a.reshape(-1, _CHUNK, paths)[:chunks] for a in (spent, full))
    stored = np.full((chunks, paths), c)
    for s in range(_CHUNK):
        k = chunks if s < tail else chunks - 1
        if k == 0:
            break
        lvl = np.minimum(stored[:k] + d3[:k, s], c)
        u = policy._evaluate(lvl.ravel()).reshape(lvl.shape)
        stored = np.subtract(lvl, np.minimum(u, lvl, out=s3[:k, s]), out=f3[:k, s])
    starts = np.concatenate((level, f3[:-1, -1].ravel()))  # chunk k's spliced start
    end = f3[-1, tail - 1].copy()
    # the copies still going: their chunk and path, the flat offsets of
    # their chunk's first draw and first consumption, and their levels
    chunk, path = np.divmod(np.arange(chunks * paths), paths)
    at_draw = path * span + chunk * _CHUNK
    offset = chunk * (_CHUNK * paths) + path
    x = starts
    d1, s1, f1 = draws.ravel(), spent.ravel(), full.ravel()
    for s in range(_CHUNK):
        at = offset + s * paths
        lvl = np.minimum(x + d1.take(at_draw + s), c)
        u = np.minimum(policy._evaluate(lvl), lvl)
        s1[at] = u
        x = lvl - u
        going = x != f1.take(at)
        if s == tail - 1:  # the last chunk ends here
            last = chunk == chunks - 1
            end[path[last]] = x[last]
            going &= ~last
        if not going.all():
            chunk, path, offset, at_draw, x = (v[going] for v in (chunk, path, offset, at_draw, x))
            if not x.size:
                return end, True
    first = int(chunk.min())
    lo = first * _CHUNK
    level = starts[first * paths : (first + 1) * paths]
    return _slot_steps(policy, draws[:, lo:cols], spent[lo:cols], level, c), False


def _estimate(totals: np.ndarray, n: int) -> EvaluationResult:
    """simulate's result from each path's n-slot reward total.  Where the
    largest |mean| lies outside [2**-20, 2**20], the stderr is taken over
    the means scaled by a power of two to below 1, so that their squared
    deviations neither underflow nor overflow, and then scaled back."""
    means = totals / n
    value = float(np.mean(means))
    top = float(np.max(np.abs(means)))
    scaled = 0.0 < top < math.inf and not 2.0**-20 <= top <= 2.0**20
    shift = math.frexp(top)[1] if scaled else 0  # |means| / 2**shift < 1
    spread = np.std(np.ldexp(means, -shift), ddof=1) / np.sqrt(len(totals))
    stderr = math.ldexp(float(spread), shift)
    return EvaluationResult(
        value=value, method="monte_carlo", stderr=stderr, tolerance=3.0 * stderr
    )


def _walked(ladder: _Ladder, reward: RewardFunction, table: np.ndarray, rung: int) -> np.ndarray:
    """table, the rewards of the ladder's rungs walked so far, walked on
    through `rung` or to the ladder's fixed point, past which it reads its
    last rung."""
    spent = []
    while not ladder.fixed and table.size + len(spent) <= rung:
        spent.append(ladder.step())
    if spent:
        table = np.concatenate((table, reward.value(np.array(spent))))
    return table


def _renewal_totals(
    policy: StationaryPolicy,
    arrivals: BernoulliArrivals,
    reward: RewardFunction,
    n: int,
    streams: list,
) -> np.ndarray:
    """simulate's per-path reward totals on 0-or-c arrivals, by renewal.

    A draw is exactly 0.0 or c (c * (u < p)), and min(L + c, c) is c for
    every level L in [0, c], so a charge refills the battery to c and the
    level after the arrival at slot t is rung t - s of the ladder from c,
    s the slot of the last charge, or rung t of the ladder from 0 before the
    first.  A rung L - u lies in [0, c], so the slot loop's min(L - u + 0.0, c)
    is L - u and the rungs are its levels, bit for bit, for a policy whose
    consumption at a level depends on that level alone.  A custom reward's
    MaximinPolicy steps its ladder down from the one before instead, so
    its rungs are the policy at the ladder's true levels, within
    inversion_tol and the walk's level drift of _evaluate at the float ones.

    The one block-sized array holds a time block's charges, path-major, one
    bool a draw: groups of _GATHER // width paths draw their uniforms into a
    float scratch, and one comparison to p marks a group's charges (a draw
    is c exactly when its uniform is below p, as in BernoulliArrivals.sample).
    Slices of _GATHER // paths slot rows then read the charges transposed
    into two slot-major buffers: the counts, each slot's 1 + slot where a
    path charged, a running maximum down the slots for the last charge and
    the slots since it; and the rewards gathered from the reward table of
    the ladder from c, walked only as far as the longest gap seen or to its
    fixed point (_walked), which a running sum adds into the totals.  Each
    path's maximum and sum go on from slice to slice in slot order
    (_down_slots), with op.accumulate's bits.  The ladder from 0 is one
    rung: its first spends min(u, 0) = 0 and is its fixed point, so every
    slot before a path's first charge gains that rung's reward, walked (and a
    NaN or negative u rejected) in the first slice with such a slot.  The
    counts are int32 while n allows, and np.take's intp copy of them is one
    slice: at 1 024 paths a call holds 1 MB of charges and 1 MB of scratch.
    """
    c, paths = arrivals.c, len(streams)
    width = min(n, _SLOT_BLOCK)
    group = max(1, _GATHER // width)  # paths a float scratch holds
    rows = min(width, max(1, _GATHER // paths))  # slot rows a slice
    count = np.int32 if n + 1 < 2**31 else np.intp
    charged = np.empty((paths, width), dtype=np.bool_)  # path-major, each path's charges a row
    uniforms = np.empty((min(group, paths), width))
    counts = np.empty((rows, paths), dtype=count)  # slot-major, each slot a row
    gains = np.empty((rows, paths))
    last = np.zeros(paths, dtype=count)  # 1 + the slot of the last charge, 0 before one
    totals = np.zeros(paths)
    full = _Ladder(policy, c)
    table = np.empty(0)  # the rewards of the rungs from c
    zero = None  # the reward of every rung from 0, walked at the first uncharged path
    for start in range(0, n, width):
        cols = min(width, n - start)
        for g in range(0, paths, group):
            batch = streams[g : g + group]
            drawn = uniforms[: len(batch), :cols]
            for row, rng in zip(drawn, batch):
                rng.random(cols, out=row)
            np.less(drawn, arrivals.p, out=charged[g : g + group, :cols])
        for lo in range(0, cols, rows):
            since, gain = counts[: cols - lo], gains[: cols - lo]
            slots = np.arange(start + lo + 1, start + lo + 1 + len(since), dtype=count)[:, None]
            np.multiply(charged[:, lo : lo + len(since)].T, slots, out=since)  # 1 + slot if charged
            last = _down_slots(np.maximum, last, since)  # 1 + the slot of the last charge
            fresh = since == 0 if since[0].min() == 0 else None  # slots before a first charge
            np.subtract(slots, since, out=since)  # slots since the last charge; 1 + slot if none
            if fresh is not None:
                since[fresh] = 0
            table = _walked(full, reward, table, int(since.max()))
            np.take(table, since, out=gain, mode="clip")
            if fresh is not None:
                if zero is None:
                    zero = reward.value(np.array([_Ladder(policy, 0.0).step()]))[0]
                gain[fresh] = zero
            totals = _down_slots(np.add, totals, gain)
    return totals


def _down_slots(op: np.ufunc, first: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Run op down a slot-major block in place and in slot order, from
    op(first, rows[0]) to op(rows[t - 1], rows[t]) at each later slot t, and
    return a copy of the last row.  Each path's chain of op calls is that of
    op.accumulate along it, so a running sum keeps its bits, whether the
    block goes by one strided accumulate (under _ROW_PATHS paths) or by one
    call a slot row."""
    op(first, rows[0], out=rows[0])
    if rows.shape[1] < _ROW_PATHS:
        op.accumulate(rows, axis=0, out=rows)
    else:
        prev = rows[0]
        for row in rows[1:]:
            prev = op(prev, row, out=row)
    return rows[-1].copy()


@dataclass(frozen=True)
class MdpModel:
    """Battery chain restricted to the uniform capacity grid.

    States and actions are the grid levels i * c / cells; an action j <= i
    consumes grid[j] from state i, after which the discretized arrival k
    moves the chain to min(i - j + k, cells).  Everything stays on the grid,
    so transitions are exact index arithmetic.  The expectation operator
    over the arrival (_expectation) is built once, on first use, and shared
    by every optimal_gain and policy_gain call on the model.
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

    @functools.cached_property
    def _expected_next(self):
        return _expectation(self.mass)

    def __getstate__(self) -> dict:
        """The fields alone: the expectation operator is a closure, which
        does not pickle, and a copy builds its own on first use."""
        state = self.__dict__.copy()
        state.pop("_expected_next", None)
        return state


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


def _next_fast_len(target: int) -> int:
    """The least 2**a * 3**b * 5**c >= target, for target >= 1: the FFT
    length scipy.fft.next_fast_len(target, True) picks."""
    best = 2 ** (target - 1).bit_length()
    power5 = 1
    while power5 < best:
        odd = power5
        while odd < best:
            fewest = -(-target // odd)  # the least m with m * odd >= target
            best = min(best, 2 ** (fewest - 1).bit_length() * odd)
            odd *= 3
        power5 *= 5
    return best


def _expectation(mass: np.ndarray):
    """The map v -> w, w[m] = E[v(min(m + arrival, top))] for every
    post-decision level m, for value vectors as long as mass.

    Correlates v, extended by copies of v[-1], with the arrival's support,
    mass[:k] up to its last nonzero cell, with the same bits as
    scipy.signal.fftconvolve(vext[:n+k-1], mass[:k][::-1], "valid"): by a
    numpy.fft round trip at fftconvolve's length, with that support's
    spectrum computed here once, or directly below 128 levels and for a
    one-cell support, which fftconvolve multiplies too.  With k = n that is
    the correlation with all of mass.  A model builds this map once
    (MdpModel._expected_next), and each call extends v into one new array.
    """
    n = len(mass)
    k = int(np.flatnonzero(mass)[-1]) + 1
    support = mass[:k]

    def extend(v: np.ndarray) -> np.ndarray:
        out = np.empty(n + k - 1)
        out[:n] = v
        out[n:] = v[-1]
        return out

    if n < 128 or k == 1:
        return lambda v: np.correlate(extend(v), support, mode="valid")
    size = _next_fast_len(n + 2 * k - 2)
    spectrum = np.fft.rfft(support[::-1], size)

    def correlate(v: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(extend(v), size) * spectrum, size)[k - 1 : n + k - 1]

    return correlate


# candidate sums held at once by _scanned and _window_argmax (2 MiB)
_SCAN_BLOCK = 2**18


def _is_concave(seq: np.ndarray) -> bool:
    """Whether the slopes of seq are nonincreasing, exactly as computed."""
    return bool(np.all(np.diff(seq, 2) <= 0))


def _best_actions(
    action_rewards: np.ndarray, w: np.ndarray, rewards_concave: bool
) -> np.ndarray:
    """A maximizing j <= i of action_rewards[j] + w[i - j], for every state i.

    When both sequences are concave as computed, _merged merges their slopes
    in O(n log n).  When only the reward table is, _bracketed returns the
    first argmax of the computed sums, as the scan does, bit for bit, from a
    few candidates a state.  Otherwise, or when _bracketed's bound is not
    finite, _scanned takes the first argmax of every candidate sum in O(n**2).
    """
    if rewards_concave:
        if _is_concave(w):
            return _merged(action_rewards, w)
        best = _bracketed(action_rewards, w)
        if best is not None:
            return best
    return _scanned(action_rewards, w)


def _merged(action_rewards: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The max-plus convolution's maximizers for two concave sequences: the
    best sum for state i takes the i largest of the two sequences' slopes,
    and those are a prefix of each, so j[i] counts the reward slopes among
    them.  w's slopes come first in the stable sort, so exact ties keep j
    smallest."""
    n = len(w)
    slopes = np.concatenate([np.diff(w), np.diff(action_rewards)])
    kept = np.argsort(-slopes, kind="stable")[: n - 1]
    return np.concatenate([[0], np.cumsum(kept >= n - 1)])


def _scanned(action_rewards: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The first argmax over j <= i of every candidate sum, exactly, a block
    of states at a time so that each block holds at most _SCAN_BLOCK sums."""
    n = len(w)
    # shifted[i, j] = w[i - j] for j <= i and -inf above the diagonal (a view)
    padded = np.concatenate([np.full(n - 1, -np.inf), w])
    shifted = np.lib.stride_tricks.sliding_window_view(padded, n)[:, ::-1]
    rows = max(1, _SCAN_BLOCK // n)
    best = np.empty(n, dtype=np.int64)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        best[lo:hi] = np.argmax(action_rewards[:hi] + shifted[lo:hi, :hi], axis=1)
    return best


def _bracketed(r: np.ndarray, w: np.ndarray) -> np.ndarray | None:
    """_scanned's result, bit for bit, for a reward table r whose slopes are
    nonincreasing as computed and any w as long; None when the margin below
    is not finite (a non-finite value or an overflow), and the caller scans.

    hat = min(forward, backward) is a concave majorant of w: forward runs
    from w[0] with each slope of w raised to the largest slope at or after
    it, backward from w[-1] with each slope lowered to the smallest at or
    before it.  The slope merge of r and hat gives each state i a candidate
    k, and j passes the window test when

        fl(r[j] + hat[i - j]) >= fl(fl(r[k] + w[i - k]) - margin).

    Each side of the window is probed at k -+ 1, 2, 4, ... and ends just
    inside the first probe that fails, or at 0 or i.  The first argmax of
    the computed sums r[j] + w[i - j] inside the window is returned.

    Why that is the scan's.  Take u = eps/2, a = max|diff(w)|, b =
    max|diff(r)|, S = |r|max + |w|max + |hat|max, which bounds every sum,
    and s = fl(r[k] + w[i - k]); in exact arithmetic on the stored floats:

      * R(j) = r[0] + the sum of r's computed slopes below j is concave,
        and within 0.51 eps n b of r[j]: a computed difference is within
        u/(1 - u) of its own magnitude of the exact one;
      * forward and backward, summed exactly from their slopes, are
        concave and, by the same bound, above w less 0.51 eps n a, so
        G = min(forward, backward) + 0.51 eps n a is a concave majorant of
        w; as computed, the running sums lie within 0.51 n eps (|w|max +
        n a) of the exact ones (Higham 2002, §4.2, for n below 1e13);
      * F(j) = R(j) + 0.51 eps n b + G(i - j) is concave in j and at least
        r[j] + w[i - j], and fl(r[j] + hat[i - j]) is at least F(j) less
        1.02 eps n b + 0.51 eps n a + 0.51 n eps (|w|max + n a) + u S.

    Every j whose computed sum reaches s, so every first argmax of the
    row, and k itself have F(j) >= s - u S, and the j where F does form an
    interval I about k.  On I the window test passes once the margin
    covers u S, the rounding of s and of the floor (about u S each) and the
    terms above; margin = 2 (n + 2) eps (S + (n + 1)(a + b)) covers them
    with a factor of two to spare.  So a failing probe lies outside I, the
    window covers I, and the first argmax inside it is the scan's.
    """
    n = len(w)
    with np.errstate(all="ignore"):  # a non-finite value leaves margin non-finite
        slopes = np.diff(w)
        forward = np.cumsum(np.concatenate([w[:1], np.maximum.accumulate(slopes[::-1])[::-1]]))
        backward = np.cumsum(np.concatenate([w[-1:], -np.minimum.accumulate(slopes)[::-1]]))
        hat = np.minimum(forward, backward[::-1])
        scale = (
            np.abs(r).max()
            + np.abs(w).max()
            + np.abs(hat).max()
            + (n + 1) * (np.abs(slopes).max(initial=0.0) + np.abs(np.diff(r)).max(initial=0.0))
        )
        margin = 2.0 * (n + 2) * _EPS * float(scale)
    if not math.isfinite(margin):
        return None
    states = np.arange(n)
    start = _merged(r, hat)
    floor = r[start] + w[states - start] - margin
    # the window edges: [0, n) the lower, [n, 2n) the upper, each state's
    # own limit until a probe fails
    sign = np.repeat(np.array([-1, 1]), n)
    edge = np.concatenate([np.zeros(n, dtype=np.int64), states])
    open_ = np.flatnonzero(np.concatenate([start, start]) != edge)
    step = 1
    while open_.size:
        row = open_ % n
        probe = start[row] + sign[open_] * step
        inside = (probe >= 0) & (probe <= row)
        open_, row, probe = open_[inside], row[inside], probe[inside]
        short = r[probe] + hat[row - probe] < floor[row]
        edge[open_[short]] = probe[short] - sign[open_[short]]
        open_ = open_[~short]
        step *= 2
    return _window_argmax(r, w, edge[:n], edge[n:])


def _window_argmax(r: np.ndarray, w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The first argmax of r[j] + w[i - j] over lo[i] <= j <= hi[i] <= i, for
    every state i, a block of states at a time so that each block holds at
    most _SCAN_BLOCK sums.  Each row is padded to the widest window with
    copies of its last column, which cannot be a first argmax."""
    n = len(w)
    width = int((hi - lo).max()) + 1
    columns = np.arange(width)
    rows = max(1, _SCAN_BLOCK // width)
    best = np.empty(n, dtype=np.int64)
    for a in range(0, n, rows):
        b = min(a + rows, n)
        j = np.minimum(lo[a:b, None] + columns, hi[a:b, None])
        sums = r[j] + w[np.arange(a, b)[:, None] - j]
        best[a:b] = lo[a:b] + np.argmax(sums, axis=1)
    return best


# GMRES's relative residual: loose for the solves between Howard
# improvements, tight for the one whose bias the certificate sweeps start from
_HOWARD_RTOL = 1e-8
_FINAL_RTOL = 1e-13
# Krylov vectors GMRES builds before it restarts from its current x
_RESTART = 60
# what a Howard run costs, in expectations: plain sweeps go on while their
# contraction predicts that fewer than this many reach eps
_HOWARD_COST = 40
# spans _relative_vi keeps, of the plain sweeps since any Howard run:
# _howard_pays reads the last two, and an error reports their contraction
_KEPT_SPANS = 8


def _bias(x: np.ndarray) -> np.ndarray:
    """h from a solve's x = (g, h[1:]): x with the reference h[0] = 0."""
    h = x.copy()
    h[0] = 0.0
    return h


def _solve(
    operator, rhs: np.ndarray, guess: np.ndarray, rtol: float, applied=None
) -> np.ndarray:
    """Restarted GMRES for operator(x) = rhs from guess, stopping once the
    residual estimate is at most rtol * |rhs|; 0 for a zero rhs, and the
    guess itself when the solve ends in non-finite values.  applied, when
    given, is operator(guess), and the first residual uses it in place of a
    matvec.  The certificate sweep checks whatever x comes back, so a
    breakdown costs sweeps, never accuracy.

    Each cycle builds up to _RESTART Arnoldi vectors, orthogonalized by
    classical Gram-Schmidt run twice (CGS2), and reduces the Hessenberg
    least-squares problem with Givens rotations on Python floats, so the
    residual estimate |g[-1]| comes for free after each matvec.  About 10n
    matvecs at most run in all: a solve that reaches that cap without
    meeting rtol returns its last x, whose residual is then above
    rtol * |rhs|, and the sweeps after it converge from there.  Norms are
    sqrt(v . v), numpy's own 2-norm of a 1-D vector.
    """
    target = rtol * math.sqrt(rhs.dot(rhs))
    if target == 0.0:
        return np.zeros_like(rhs)
    n = len(rhs)
    width = min(_RESTART, n)
    basis = np.empty((width + 1, n))
    x = guess
    with np.errstate(all="ignore"):
        for _ in range(10 * n // width + 1):
            r = rhs - (operator(x) if applied is None else applied)
            applied = None
            beta = math.sqrt(r.dot(r))
            if not beta > target:  # converged, or not finite
                break
            np.divide(r, beta, out=basis[0])
            g = [beta]  # the rotated right-hand side; |g[-1]| estimates |r|
            columns: list[list[float]] = []  # R of the rotated Hessenberg matrix
            rotations: list[tuple[float, float]] = []
            for j in range(width):
                w = operator(basis[j])
                done = basis[: j + 1]
                h = done @ w
                w -= h @ done
                again = done @ w
                w -= again @ done
                column = (h + again).tolist()
                tail = math.sqrt(w.dot(w))
                for i, (cos, sin) in enumerate(rotations):
                    column[i], column[i + 1] = (
                        cos * column[i] + sin * column[i + 1],
                        cos * column[i + 1] - sin * column[i],
                    )
                diag = math.hypot(column[j], tail)
                if diag == 0.0:  # no new direction; a NaN runs on into x
                    break
                cos, sin = column[j] / diag, tail / diag
                column[j] = diag
                rotations.append((cos, sin))
                columns.append(column)
                g.append(-sin * g[j])
                g[j] *= cos
                if not abs(g[-1]) > target or j + 1 == width:
                    break
                np.divide(w, tail, out=basis[j + 1])
            y = [0.0] * len(columns)
            for i in reversed(range(len(columns))):
                y[i] = (
                    g[i] - sum(columns[k][i] * y[k] for k in range(i + 1, len(columns)))
                ) / columns[i][i]
            x = x + np.asarray(y) @ basis[: len(columns)]
            if not abs(g[-1]) > target or len(columns) <= j:  # done, or no new direction
                break
    return x if np.isfinite(x).all() else guess


def _policy_bias(expected_next, rewards, actions, guess, rtol, guess_next=None):
    """The gain g and bias h of the stationary policy `actions`, as one
    vector x = (g, h[1:]): the solution of

        g + h[i] - E[h(next state) | post-decision level i - actions[i]]
            = rewards[actions[i]],    h[0] = 0,

    by a GMRES solve warm-started from guess, whose matvec is one
    expectation correlation.  guess_next, when given, is
    expected_next(_bias(guess)), and the first residual reuses it; for a
    zero guess that is any zero vector."""
    post = np.arange(len(actions)) - actions

    def matvec(x, x_next=None):
        h = _bias(x)
        expected = (expected_next(h) if x_next is None else x_next)[post]
        h += x[0]
        h -= expected
        return h

    applied = None if guess_next is None else matvec(guess, guess_next)
    return _solve(matvec, rewards[actions], guess, rtol, applied)


def _howard_pays(spans: Sequence[float], eps: float) -> bool:
    """Whether plain sweeps would take more than _HOWARD_COST further sweeps
    to bring the last span down to eps, at the contraction rho of the last
    two spans: log(eps / span) / log(rho), unbounded when rho >= 1."""
    rho = spans[-1] / spans[-2]
    if not rho < 1.0:
        return True
    return math.log(eps / spans[-1]) / math.log(rho) > _HOWARD_COST


def _relative_vi(
    model: MdpModel, actions_for, grid_term: float, eps: float, max_iter: int, howard: bool
):
    """Relative value iteration under the span criterion, for optimal_gain
    and policy_gain, sped up by Krylov solves.  Returns the last sweep's
    actions too.

    actions_for(expected next value) picks a sweep's actions.  Each sweep
    counts against max_iter, and the sweeps run while the span of the value
    differences is above eps, so the result always comes from a genuine
    sweep and grid_term is the tolerance's grid part.  Without howard one
    tight solve of the policy's bias, from 0, comes first, and the sweeps
    start from it: the first certifies the solve.  With howard the sweeps
    start from 0, and once three spans give a contraction under which
    _howard_pays, Howard policy iteration starts from the last sweep's
    actions and value: each step solves the policy's bias loosely and then
    switches the states where actions_for's choice is strictly better, and
    counts as a sweep; the steps stop when none is.  One tight solve of the
    last policy's bias follows, and the sweeps go on from it.
    """
    eps = _check_positive(eps, "eps")
    max_iter = int(max_iter)
    expected_next = model._expected_next
    rewards = model.action_rewards
    states = np.arange(model.states)
    v = np.zeros(model.states)
    if not howard:  # from 0, whose expectation is 0, so no matvec for the first residual
        v = _bias(_policy_bias(expected_next, rewards, actions_for(v), v, _FINAL_RTOL, v))
    spans: deque[float] = deque(maxlen=_KEPT_SPANS)
    span = np.inf
    steps = 0
    while steps < max_iter:
        w = expected_next(v)
        actions = actions_for(w)
        new_v = rewards[actions] + w[states - actions]
        delta = new_v - v
        hi, lo = float(delta.max()), float(delta.min())
        span = hi - lo
        steps += 1
        if span <= eps:
            result = EvaluationResult(
                value=0.5 * (hi + lo),
                method="value_iteration",
                residual=span,
                tolerance=0.5 * span + grid_term,
            )
            return result, actions
        v = new_v - new_v[0]  # reference state: empty battery
        spans.append(span)
        if howard and len(spans) >= 3 and _howard_pays(spans, eps):
            howard = False
            x = v.copy()
            x[0] = 0.5 * (hi + lo)
            w = None  # expected_next(_bias(x)) once a step has taken it
            while steps < max_iter - 1:
                x = _policy_bias(expected_next, rewards, actions, x, _HOWARD_RTOL, w)
                steps += 1
                w = expected_next(_bias(x))
                best = actions_for(w)
                switch = rewards[best] + w[states - best] > rewards[actions] + w[states - actions]
                if not switch.any():
                    break
                actions = np.where(switch, best, actions)
            v = _bias(_policy_bias(expected_next, rewards, actions, x, _FINAL_RTOL, w))
            spans.clear()  # the kept spans are consecutive plain sweeps
    raise NonConvergenceError(span, max_iter, spans=spans)


def optimal_gain(
    model: MdpModel, eps: float = 1e-9, max_iter: int = 10**6
) -> tuple[EvaluationResult, np.ndarray]:
    """Optimal average reward of the grid MDP by relative value iteration,
    switching to Howard policy iteration where that pays.

    Value iteration sweeps from 0 until the span of successive value
    differences drops below eps; the true grid gain then lies within span/2
    of the reported value.  Once three spans give a contraction rho, and
    log(eps / span) / log(rho) sweeps would still be left (unbounded for
    rho >= 1) with more than a Howard run's cost, _HOWARD_COST expectations,
    Howard policy iteration takes over from the last sweep's actions and
    value: each step solves the policy's gain and bias (a GMRES solve whose
    matvec is one expectation) and switches each state to a maximizing
    action where that is strictly better, and counts as one sweep against
    max_iter.  The sweeps then go on from the last policy's bias, and the
    first of them is an a-posteriori certificate of the solve.  Also returns
    the maximizing action index per state of the last sweep (smallest on
    ties).  Raises NonConvergenceError at the sweep cap.

    Each sweep and Howard step maximizes rewards[j] + w[i - j] over j <= i.
    The reward table is checked for concavity once, the expected next value
    w every time; when both are concave the maximum comes from a merge of
    their slopes, which returns an actual candidate sum and, on every
    concave model tested, the scan's.  When only the reward table is
    concave, a window about each state's candidate from a concave majorant
    of w holds every maximizer, and the first argmax inside it is the exact
    scan's, bit for bit (_bracketed); a reward table that is not concave
    takes the exact O(n**2) scan.
    """
    rewards = model.action_rewards
    rewards_concave = _is_concave(rewards)
    grid_term = 0.5 * model.slope_bound * model.cell
    return _relative_vi(
        model,
        lambda w: _best_actions(rewards, w, rewards_concave),
        grid_term,
        eps,
        max_iter,
        howard=True,
    )


def policy_gain(
    model: MdpModel,
    policy: StationaryPolicy,
    eps: float = 1e-9,
    max_iter: int = 10**6,
) -> EvaluationResult:
    """Average reward of a fixed policy on the grid MDP.

    The policy's consumption at each grid state, clamped to the state's
    level (a NaN or negative one raises ValueError, as in the series and
    Monte Carlo), is snapped down to the nearest feasible grid action.  One
    GMRES solve gives the policy's bias, and the same certificate sweep as
    optimal_gain's, with the actions fixed, reports its gain within span/2.
    """
    u = np.minimum(np.asarray(policy.evaluate(model.grid), dtype=float), model.grid)
    if not (u >= 0.0).all():  # NaN too
        raise ValueError("u must be finite and nonnegative")
    actions = np.floor(u / model.cell + 1e-9).astype(np.int64)  # u <= grid[i]: at most i
    grid_term = model.slope_bound * model.cell
    return _relative_vi(model, lambda w: actions, grid_term, eps, max_iter, howard=False)[0]
