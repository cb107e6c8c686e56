"""Unit tests for the capped arrival families."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from ehpolicy import arrivals as arr
from ehpolicy import checks

# nominal-ratio inversions frozen from an independent root-finding run
EXP_MCR_BY_NMCR = {
    0.1: 0.09999546000702375,
    0.5: 0.43233235838169365,
    0.9: 0.603726310972885,
}


def survival_mean(dist) -> float:
    """E[min(X, c)] as the integral of the survival function on [0, c]."""
    value, _ = quad(
        lambda t: 1.0 - float(dist._continuous_cdf(np.asarray(t))), 0.0, dist.c, limit=200
    )
    return value


class TestBernoulli:
    def test_two_point_structure(self):
        dist = arr.BernoulliArrivals(2.0, 0.3)
        assert dist.atom_at_zero() == 0.7
        assert dist.capacity_atom() == 0.3
        assert dist.effective_mean() == pytest.approx(0.6, abs=1e-15)
        assert dist.mcr() == pytest.approx(0.3, abs=1e-15)

    def test_nmcr_undefined(self):
        with pytest.raises(ValueError):
            arr.BernoulliArrivals(1.0, 0.5).nmcr()

    def test_samples_are_two_valued(self):
        dist = arr.BernoulliArrivals(1.5, 0.4)
        draws = dist.sample(np.random.default_rng(7), 10_000)
        assert set(np.unique(draws)) == {0.0, 1.5}
        assert abs(draws.mean() - 0.6) < 0.02

    def test_parameter_validation(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                arr.BernoulliArrivals(1.0, bad)
        with pytest.raises(ValueError):
            arr.BernoulliArrivals(0.0, 0.5)


class TestLimitedUniform:
    def test_mean_below_capacity(self):
        dist = arr.LimitedUniformArrivals(2.0, 1.2)
        assert dist.effective_mean() == pytest.approx(0.6, abs=1e-15)
        assert dist.capacity_atom() == 0.0

    def test_mean_with_clipping(self):
        dist = arr.LimitedUniformArrivals(1.0, 2.0)
        # mean of min(U[0,2], 1) = 1 - 1/4
        assert dist.effective_mean() == pytest.approx(0.75, abs=1e-15)
        assert dist.capacity_atom() == pytest.approx(0.5, abs=1e-15)

    def test_figure_ratio(self):
        dist = arr.LimitedUniformArrivals(1.0, 2.0 * 0.9)
        assert dist.mcr() == pytest.approx(0.7222222222222222, abs=1e-15)
        assert dist.nmcr() == pytest.approx(0.9, abs=1e-15)

    @pytest.mark.parametrize("b", [0.4, 1.0, 1.7, 5.0])
    def test_mean_matches_survival_integral(self, b):
        dist = arr.LimitedUniformArrivals(1.0, b)
        assert dist.effective_mean() == pytest.approx(survival_mean(dist), abs=1e-10)

    def test_sample_range_and_mean(self):
        dist = arr.LimitedUniformArrivals(1.0, 1.6)
        draws = dist.sample(np.random.default_rng(11), 200_000)
        assert np.all((draws >= 0.0) & (draws <= 1.0))
        band = 4.0 * draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - dist.effective_mean()) < band


class TestLimitedExponential:
    @pytest.mark.parametrize("rate", [0.3, 1.0, 4.0])
    def test_mean_matches_survival_integral(self, rate):
        dist = arr.LimitedExponentialArrivals(1.5, rate)
        assert dist.effective_mean() == pytest.approx(survival_mean(dist), abs=1e-10)

    def test_capacity_atom_is_censored_tail(self):
        dist = arr.LimitedExponentialArrivals(2.0, 0.8)
        assert dist.capacity_atom() == pytest.approx(math.exp(-1.6), abs=1e-15)

    def test_nmcr(self):
        dist = arr.LimitedExponentialArrivals(2.0, 0.25)
        assert dist.nmcr() == pytest.approx(2.0, abs=1e-15)

    def test_sample_censoring(self):
        dist = arr.LimitedExponentialArrivals(1.0, 1.0)
        draws = dist.sample(np.random.default_rng(3), 200_000)
        assert np.all((draws >= 0.0) & (draws <= 1.0))
        at_cap = np.mean(draws == 1.0)
        assert abs(at_cap - math.exp(-1.0)) < 0.005


@pytest.mark.parametrize(
    "dist",
    [arr.LimitedUniformArrivals(1.0, b) for b in (0.4, 1.0, 1.7, 5.0)]
    + [arr.LimitedExponentialArrivals(c, rate) for c, rate in ((1.5, 0.3), (2.0, 0.8), (0.5, 4.0))],
    ids=lambda d: f"{d.family}-{d.c}-{getattr(d, 'b', None) or d.rate}",
)
def test_verifys_gauss_legendre_integral_matches_quad(dist):
    # the survival integral verify checks effective_mean against, piecewise
    # smooth for a uniform law with b < c
    assert checks._survival_integral(dist) == pytest.approx(survival_mean(dist), abs=1e-15)


class TestRatioConstructors:
    @pytest.mark.parametrize("nmcr,mcr", sorted(EXP_MCR_BY_NMCR.items()))
    def test_exponential_ratio_values(self, nmcr, mcr):
        dist = arr.from_nmcr("exponential", 1.0, nmcr)
        assert dist.mcr() == pytest.approx(mcr, abs=1e-12)
        # analytic form: nmcr * (1 - exp(-1/nmcr))
        assert dist.mcr() == pytest.approx(nmcr * -math.expm1(-1.0 / nmcr), abs=1e-14)

    @pytest.mark.parametrize("target", [0.05, 0.3, 0.6, 0.85])
    @pytest.mark.parametrize("family", ["uniform", "exponential"])
    def test_mcr_round_trip(self, family, target):
        dist = arr.from_mcr(family, 2.0, target)
        assert dist.mcr() == pytest.approx(target, abs=1e-12)

    @pytest.mark.parametrize(
        "c, mcr, rate",
        [
            (1.0, 0.5, "0x1.97f7c26efbf2ap+0"),
            (2.0, 0.1, "0x1.3ffc477640121p+2"),
            (0.5, 0.95, "0x1.a7d96b551befap-3"),
        ],
    )
    def test_exponential_from_mcr_rate_is_pinned_bit_for_bit(self, c, mcr, rate):
        assert arr.from_mcr("exponential", c, mcr).rate.hex() == rate

    @pytest.mark.parametrize(
        "mcr", [1e-9, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999999, 1 - 1e-9]
    )
    def test_exponential_nominal_ratio_is_within_ulps_of_the_root(self, mcr):
        # t (1 - exp(-1/t)) = mcr at 50 digits, from the float root
        t = arr._exponential_nmcr_for_mcr(mcr)
        with mpmath.workdps(50):
            p = mpmath.mpf(mcr)
            root = mpmath.findroot(lambda x: x * -mpmath.expm1(-1 / x) - p, mpmath.mpf(t))
            ulps = float(abs(t - root)) / math.ulp(t)
        assert ulps <= (1.0 if mcr <= 0.7 else 4.0)

    def test_uniform_mcr_branches(self):
        low = arr.from_mcr("uniform", 1.0, 0.25)
        assert low.nmcr() == pytest.approx(0.25, abs=1e-14)
        high = arr.from_mcr("uniform", 1.0, 0.75)
        assert high.nmcr() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("target", [0.1, 0.5, 0.9, 2.0])
    @pytest.mark.parametrize("family", ["uniform", "exponential"])
    def test_nmcr_round_trip(self, family, target):
        dist = arr.from_nmcr(family, 3.0, target)
        assert dist.nmcr() == pytest.approx(target, abs=1e-13)

    def test_bernoulli_from_mcr(self):
        dist = arr.from_mcr("bernoulli", 2.0, 0.4)
        assert isinstance(dist, arr.BernoulliArrivals)
        assert dist.p == 0.4

    def test_bernoulli_has_no_nominal_ratio(self):
        with pytest.raises(ValueError):
            arr.from_nmcr("bernoulli", 1.0, 0.5)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            arr.from_mcr("triangular", 1.0, 0.5)

    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            arr.from_mcr("uniform", 1.0, 1.0)
        with pytest.raises(ValueError):
            arr.from_mcr("exponential", 1.0, 0.0)


class TestDiscretize:
    CASES = [
        arr.BernoulliArrivals(2.0, 0.3),
        arr.LimitedUniformArrivals(2.0, 1.2),
        arr.LimitedUniformArrivals(2.0, 5.0),
        arr.LimitedExponentialArrivals(2.0, 0.8),
    ]

    @pytest.mark.parametrize("dist", CASES)
    @pytest.mark.parametrize("cells", [1, 2, 7, 100, 1000])
    def test_mass_and_mean(self, dist, cells):
        pmf = dist.discretize(cells)
        assert pmf.grid.shape == (cells + 1,)
        assert pmf.grid[0] == 0.0 and pmf.grid[-1] == dist.c
        assert pmf.mass.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pmf.mass >= -1e-15)
        assert abs(pmf.mean() - dist.effective_mean()) <= dist.c / cells

    def test_two_point_law_is_exact(self):
        pmf = arr.BernoulliArrivals(1.0, 0.3).discretize(1)
        np.testing.assert_array_equal(pmf.mass, [0.7, 0.3])

    def test_atoms_preserved(self):
        dist = arr.LimitedUniformArrivals(1.0, 2.0)
        pmf = dist.discretize(4)
        # everything at or beyond capacity collapses onto the top grid point
        assert pmf.mass[-1] >= dist.capacity_atom()

    def test_cells_validated(self):
        with pytest.raises(ValueError):
            arr.BernoulliArrivals(1.0, 0.5).discretize(0)


# each family's draws as written before sample took out=
SAMPLE_REFERENCE = {
    "bernoulli": lambda d, rng, n: d.c * (rng.random(n) < d.p),
    "uniform": lambda d, rng, n: np.minimum(d.b * rng.random(n), d.c),
    "exponential": lambda d, rng, n: np.minimum(rng.exponential(1.0 / d.rate, n), d.c),
}


class TestSampleInto:
    @pytest.mark.parametrize(
        "dist",
        [
            arr.BernoulliArrivals(2.0, 0.3),
            arr.LimitedUniformArrivals(2.0, 1.5),  # below the capacity
            arr.LimitedUniformArrivals(2.0, 3.0),  # with an atom at c
            arr.LimitedExponentialArrivals(1.0, 2.0),
            arr.LimitedExponentialArrivals(3.0, 0.1),
        ],
        ids=lambda d: f"{d.family}-{d.c}",
    )
    @pytest.mark.parametrize("size", [None, 1, 7, 1024])
    def test_out_gives_the_same_draws(self, dist, size):
        def hexes(x):
            return [v.hex() for v in np.atleast_1d(x).tolist()]

        plain = np.random.default_rng(11)
        want = SAMPLE_REFERENCE[dist.family](dist, plain, size)
        fresh = dist.sample(np.random.default_rng(11), size)
        assert isinstance(fresh, type(want)) and hexes(fresh) == hexes(want)
        if size is None:
            return
        row = np.full(size + 3, -1.0)  # a caller's row, longer than the draw
        rng = np.random.default_rng(11)
        got = dist.sample(rng, size, out=row[:size])
        assert np.shares_memory(got, row) and got.shape == (size,)
        assert hexes(row[:size]) == hexes(want)
        assert (row[size:] == -1.0).all()
        assert rng.random() == plain.random()  # both generators stand at the same place

    @pytest.mark.parametrize(
        "dist",
        [
            arr.BernoulliArrivals(2.0, 0.3),
            arr.LimitedUniformArrivals(2.0, 3.0),
            arr.LimitedExponentialArrivals(3.0, 0.1),
        ],
        ids=lambda d: d.family,
    )
    @pytest.mark.parametrize("size", [None, 7, 1024])
    def test_sample_is_the_raw_fill_then_the_map(self, dist, size):
        # one definition: sample is _fill's raw draws through _transform, and
        # the map run in place over a block of rows, as simulate runs it on a
        # group of paths, gives each row's sample bit for bit
        def hexes(x):
            return [v.hex() for v in np.ravel(x).tolist()]

        want = dist._transform(dist._fill(np.random.default_rng(5), size))
        assert hexes(dist.sample(np.random.default_rng(5), size)) == hexes(want)
        if size is None:
            return
        rows = np.empty((3, size + 2))[:, :size]  # a group's scratch, wider than the draw
        for seed, row in enumerate(rows):
            dist._fill(np.random.default_rng(seed), size, out=row)
        assert dist._transform(rows, out=rows) is rows
        for seed, row in enumerate(rows):
            into = np.empty(size)
            dist.sample(np.random.default_rng(seed), size, out=into)
            assert hexes(row) == hexes(into) == hexes(dist.sample(np.random.default_rng(seed), size))
