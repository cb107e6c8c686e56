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
# longest fixed-fraction head fraction_series sums rung by rung
HEAD_RUNGS = 10_000


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


def fraction_series(gamma, p, c, fraction=None):
    """The same average for the fixed-fraction policy consuming f * level,
    f = fraction (p by default), which never empties the battery.  Rung
    j >= 0 consumes a g**j with a = f c and g = 1 - f, at weight p q**j,
    q = 1 - p.  The head, the rungs before the first J with
    y = scale a g**J <= 1/2 (scale gamma for awgn, 1 for sqrt), is summed
    rung by rung, or by mpmath.sumem's Euler-Maclaurin sum when it is longer
    than HEAD_RUNGS (the two agreed to 2.4e-56 on a 52 981-rung head, at
    p = f = 1e-4 and gamma c = 1e5).  From there the reward's power series, summed over j
    first, gives the rest: p q**J sum_m r_m y**m / (1 - q g**m), with
    r_m = (-1)**(m+1) / (2m) (awgn) or binomial(1/2, m) (sqrt), whose terms
    shrink at least by half."""
    with mpmath.workdps(DPS):
        p = mpmath.mpf(p)
        f = p if fraction is None else mpmath.mpf(fraction)
        q, g = 1 - p, 1 - f
        a = f * c
        y = a * (1 if gamma is None else gamma)
        head = 0
        if y > 0.5:
            head = int(mpmath.ceil(mpmath.log(2 * y) / -mpmath.log(g)))
            while y * g**head > 0.5:
                head += 1
        if head > HEAD_RUNGS:
            total = p * mpmath.sumem(lambda j: q**j * reward(gamma, a * g**j), [0, head - 1])
        else:
            total, weight, u = mpmath.mpf(0), p, a
            for _ in range(head):
                total += weight * reward(gamma, u)
                u *= g
                weight *= q
        weight, y = p * q**head, y * g**head
        m, power, term = 1, y, mpmath.mpf(1)
        while abs(term) > mpmath.mpf(10) ** (-DPS):
            r = mpmath.binomial(0.5, m) if gamma is None else (-1) ** (m + 1) / (2 * mpmath.mpf(m))
            term = r * power / (1 - q * g**m)
            total += weight * term
            m += 1
            power *= y
        return total


def fraction_tail(gamma, p, c, n, fraction=None):
    """The part of fraction_series(gamma, p, c, fraction) after its first n
    rungs: the same series from the level c (1-f)**n, at weights (1-p)**n
    lower."""
    with mpmath.workdps(DPS):
        q = 1 - mpmath.mpf(p)
        g = q if fraction is None else 1 - mpmath.mpf(fraction)
        return q**n * fraction_series(gamma, p, c * g**n, fraction)


def greedy_series(gamma, p, c):
    """The same average for the greedy policy: one rung of c."""
    with mpmath.workdps(DPS):
        return mpmath.mpf(p) * reward(gamma, mpmath.mpf(c))
