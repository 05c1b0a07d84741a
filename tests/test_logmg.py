"""Tests for the log-scale distribution."""

import math

import numpy as np
import pytest

from multigauss import LogMultiGauss, MultiGauss, signed_coeffs

SQRT_2PI = math.sqrt(2.0 * math.pi)

# frozen 40-digit reference: first moment at M=2, mu=0, sigma=1
MOMENT1_M2 = 1.848180056383484970655163


class TestPdf:
    def test_lognormal_mode_argument(self):
        d = LogMultiGauss(0.0, 1.0, 1)
        assert d.pdf(1.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-14)

    def test_zero_outside_support(self):
        d = LogMultiGauss(0.0, 1.0, 10)
        assert d.pdf(-1.0) == 0.0
        assert d.pdf(0.0) == 0.0

    def test_change_of_variables_identity(self):
        base = MultiGauss(0.0, 1.0, 10)
        d = LogMultiGauss.from_base(base)
        for y in np.geomspace(1e-3, 1e3, 25):
            assert d.pdf(float(y)) * y == pytest.approx(float(base.pdf(math.log(y))),
                                                        rel=1e-14, abs=1e-300)

    def test_matches_series_form(self):
        # the alternating-series representation at ln(y), divided by y
        d = LogMultiGauss(0.0, 1.0, 10)
        y = 0.5
        ms = np.arange(1.0, 11.0)
        bell = float(np.sum(signed_coeffs(10, 10) * np.exp(-0.5 * ms * math.log(y) ** 2)))
        assert d.pdf(y) == pytest.approx(bell / (d.base.c0 * SQRT_2PI * y), rel=1e-12)

    def test_array_input(self):
        d = LogMultiGauss(0.0, 1.0, 2)
        ys = np.array([-1.0, 0.0, 0.5, 2.0])
        vals = d.pdf(ys)
        assert vals[0] == 0.0 and vals[1] == 0.0
        assert vals[2] == d.pdf(0.5) and vals[3] == d.pdf(2.0)


class TestCdf:
    def test_median_at_exp_location(self):
        # exp/log round trip costs one ulp in the argument; the erf-series
        # itself carries condition_number * eps noise around the median
        for mval in (1, 10, 0.5):
            d = LogMultiGauss(0.3, 1.0, mval)
            assert d.cdf(math.exp(0.3)) == pytest.approx(0.5, abs=1e-13)
            assert LogMultiGauss(0.0, 1.0, mval).cdf(1.0) == 0.5

    def test_lognormal_quantile(self):
        d = LogMultiGauss(0.0, 1.0, 1)
        assert d.cdf(math.exp(1.959963984540054)) == pytest.approx(0.975, rel=1e-12)

    def test_support_boundary(self):
        d = LogMultiGauss(0.0, 1.0, 2)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(-3.0) == 0.0

    def test_nan_and_arrays(self):
        d = LogMultiGauss(0.0, 1.0, 2)
        assert math.isnan(d.cdf(float("nan")))
        vals = d.cdf(np.array([np.nan, -1.0, 0.0, 1.0, 2.0, np.inf]))
        assert math.isnan(vals[0])
        np.testing.assert_array_equal(vals[1:], [0.0, 0.0, 0.5, d.cdf(2.0), 1.0])
        assert type(d.cdf(2.0)) is float
        dens = d.pdf(np.array([np.nan, -1.0, 0.0, 1.0, np.inf]))
        assert math.isnan(dens[0]) and math.isnan(d.pdf(float("nan")))
        np.testing.assert_array_equal(dens[1:], [0.0, 0.0, d.pdf(1.0), 0.0])

    def test_equals_base_at_log(self):
        d = LogMultiGauss(0.0, 1.0, 10)
        for y in (0.1, 0.7, 2.0, 9.0):
            assert d.cdf(y) == d.base.cdf(math.log(y))

    def test_matches_density_quadrature(self):
        # integral of the density over (0, 2], taken in log space
        from multigauss.oracle import QuadratureSpec, integrate

        d = LogMultiGauss(0.0, 1.0, 10)
        q = integrate(lambda x: d.pdf(np.exp(x)) * np.exp(x),
                      QuadratureSpec(-13.0, math.log(2.0), abs_tol=1e-11, rel_tol=1e-10))
        assert d.cdf(2.0) == pytest.approx(q, abs=1e-8)


class TestMoments:
    def test_lognormal_mean(self):
        for mu, sigma in ((0.0, 1.0), (0.5, 0.7)):
            d = LogMultiGauss(mu, sigma, 1)
            assert d.moment(1) == pytest.approx(math.exp(mu + sigma**2 / 2), rel=1e-14)

    def test_lognormal_second_moment(self):
        d = LogMultiGauss(0.0, 1.0, 1)
        assert d.moment(2) == pytest.approx(math.exp(2.0), rel=1e-14)

    def test_two_component_mean(self):
        d = LogMultiGauss(0.0, 1.0, 2)
        assert d.moment(1) == pytest.approx(MOMENT1_M2, rel=1e-14)

    def test_moment_log_convexity(self):
        # E[Y^k]^2 <= E[Y^(k-1)] E[Y^(k+1)] by Cauchy-Schwarz
        for mval in (2, 10, 0.5):
            d = LogMultiGauss(0.0, 1.0, mval)
            ms = [d.moment(k) for k in range(1, 6)]
            for k in range(1, 4):
                assert ms[k] ** 2 <= ms[k - 1] * ms[k + 1] * (1 + 1e-12)

    def test_overflow_signals(self):
        d = LogMultiGauss(0.0, 10.0, 2)
        with pytest.raises(OverflowError):
            d.moment(8)

    def test_invalid_order(self):
        d = LogMultiGauss(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            d.moment(0)


class TestMgfGuard:
    def test_raises_for_nonzero_argument(self):
        d = LogMultiGauss(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            d.mgf(0.1)

    def test_unit_at_zero(self):
        assert LogMultiGauss(0.0, 1.0, 2).mgf(0.0) == 1.0


class TestLognormalReduction:
    def test_all_quantities_match_closed_forms(self):
        mu, sigma = 0.2, 0.8
        d = LogMultiGauss(mu, sigma, 1)
        for y in np.geomspace(0.05, 20.0, 50):
            ref_pdf = math.exp(-0.5 * ((math.log(y) - mu) / sigma) ** 2) / (y * sigma * SQRT_2PI)
            ref_cdf = 0.5 * math.erfc(-(math.log(y) - mu) / (sigma * math.sqrt(2.0)))
            assert d.pdf(float(y)) == pytest.approx(ref_pdf, rel=1e-12, abs=1e-300)
            assert d.cdf(float(y)) == pytest.approx(ref_cdf, rel=1e-12, abs=1e-15)
        for k in (1, 2, 3, 4):
            ref = math.exp(k * mu + (k * sigma) ** 2 / 2.0)
            assert d.moment(k) == pytest.approx(ref, rel=1e-12)


class TestModeLocation:
    @staticmethod
    def _argmax(f, lo, hi, tol=1e-8):
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = f(c), f(d)
        while b - a > tol:
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = f(d)
        return 0.5 * (a + b)

    def test_mode_moves_down_as_shape_grows(self):
        modes = []
        for mval in (1, 2, 10, 40):
            d = LogMultiGauss(0.0, 1.0, mval)
            modes.append(self._argmax(d.pdf, 1e-4, 2.0))
        assert modes[0] == pytest.approx(math.exp(-1.0), rel=1e-4)  # log-normal mode
        assert np.all(np.diff(modes) < 0.0)


class TestSampling:
    def test_strictly_positive(self):
        d = LogMultiGauss(0.0, 1.0, 10)
        ys = d.sample(5000, np.random.default_rng(3))
        assert np.all(ys > 0.0)

    def test_median_preserved(self):
        d = LogMultiGauss(0.0, 1.0, 1)
        ys = d.sample(100_000, np.random.default_rng(4))
        assert np.median(ys) == pytest.approx(1.0, rel=0.01)

    def test_determinism(self):
        d = LogMultiGauss(0.0, 1.0, 2)
        a = d.sample(64, np.random.default_rng(11))
        b = d.sample(64, np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)

    def test_exp_beyond_the_float_range_is_silent(self):
        import warnings

        d = LogMultiGauss(0.0, 1e3, 2)
        x = d.base.sample(3, np.random.default_rng(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ys = d.sample(3, np.random.default_rng(1))
        # an exp that overflows is inf and one that underflows is 0
        assert x.max() > 710.0 and x.min() < -746.0
        np.testing.assert_array_equal(ys[x > 710.0], np.inf)
        np.testing.assert_array_equal(ys[x < -746.0], 0.0)
