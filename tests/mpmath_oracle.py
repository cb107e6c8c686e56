"""60-digit mpmath references for the maximin kinks, the maximin policy and
the Bernoulli series, shared by the oracle tests.

Rewards are awgn:gamma, or sqrt when gamma is None.  With s = 1/(1-p) the
exact kink E_k has consumption y_k = (s**k - 1)/gamma (awgn) or s**(2k) - 1
(sqrt) and stored level x_k = y_1 + ... + y_k, and the maximin policy is
linear between consecutive kinks.  Inputs are floats taken as exact.
"""

import bisect

import mpmath

DPS = 60


class Maximin:
    """The exact maximin policy, from its kinks through the first past upto."""

    def __init__(self, gamma, p, upto):
        with mpmath.workdps(DPS):
            s = 1 / (1 - mpmath.mpf(p))
            step = s * s if gamma is None else s
            scale = 1 if gamma is None else mpmath.mpf(gamma)
            self.x, self.y = [mpmath.mpf(0)], [mpmath.mpf(0)]
            power = mpmath.mpf(1)
            while self.x[-1] <= upto:
                power *= step
                y = (power - 1) / scale
                self.x.append(self.x[-1] + y)
                self.y.append(y)

    def segment(self, x):
        """Index k of the segment [x_(k-1), x_k) holding x."""
        return bisect.bisect_right(self.x, x)

    def __call__(self, x):
        with mpmath.workdps(DPS):
            x = mpmath.mpf(x)
            k = self.segment(x)
            if k == 1:  # greedy segment: x_1 == y_1
                return x
            x0, x1, y0, y1 = self.x[k - 1], self.x[k], self.y[k - 1], self.y[k]
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def reward(gamma, u):
    """awgn:gamma's reward, or sqrt's when gamma is None."""
    if gamma is None:
        return mpmath.sqrt(1 + u) - 1
    return mpmath.log1p(gamma * u) / 2


def maximin_series(gamma, p, c):
    """Average reward of the maximin policy under 0-or-c arrivals: its ladder
    from c, rung i weighted p (1-p)**(i-1), ends at exactly 0."""
    policy = Maximin(gamma, p, c)
    with mpmath.workdps(DPS):
        p = mpmath.mpf(p)
        level, weight, total = mpmath.mpf(c), p, mpmath.mpf(0)
        while level > 0:
            u = policy(level)
            total += weight * reward(gamma, u)
            level -= u
            weight *= 1 - p
        return total


def fraction_series(gamma, p, c):
    """The same average for the fixed-fraction policy consuming p * level,
    which never empties the battery.  Rung j >= 0 consumes a q**j / gamma
    with a = gamma p c and q = 1 - p, at weight p q**j.  Rungs are summed
    one by one until a q**J <= 1/2; from there log1p's power series, summed
    over j first, gives the rest: (p q**J / 2) sum_m (-1)**(m+1)
    (a q**J)**m / (m (1 - q**(m+1))), whose terms shrink at least by half."""
    with mpmath.workdps(DPS):
        p = mpmath.mpf(p)
        q = 1 - p
        a = gamma * p * c
        total, weight = mpmath.mpf(0), p
        while a > 0.5:
            total += weight * mpmath.log1p(a) / 2
            a *= q
            weight *= q
        m, power, term = 1, a, mpmath.mpf(1)
        while abs(term) > mpmath.mpf(10) ** (-DPS):
            term = (-1) ** (m + 1) * power / (m * (1 - q ** (m + 1)))
            total += weight * term / 2
            m += 1
            power *= a
        return total


def fraction_tail(gamma, p, c, n):
    """The part of fraction_series(gamma, p, c) after its first n rungs: the
    same series from the level c (1-p)**n, at weights (1-p)**n lower."""
    with mpmath.workdps(DPS):
        q = 1 - mpmath.mpf(p)
        return q**n * fraction_series(gamma, p, c * q**n)


def greedy_series(gamma, p, c):
    """The same average for the greedy policy: one rung of c."""
    with mpmath.workdps(DPS):
        return mpmath.mpf(p) * reward(gamma, mpmath.mpf(c))
