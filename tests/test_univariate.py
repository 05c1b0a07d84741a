"""Tests for the univariate distribution object."""

import math
import warnings

import numpy as np
import pytest

from multigauss import (
    MultiGauss,
    SeriesNotConverged,
    SeriesResult,
    TruncationFlag,
    xi_coeff,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)

# 40-digit frozen references
C0_2 = 1.292893218813452475599156
CDF_M10_AT_HALF = 0.6054927320571882477136325  # mu=0 sigma=1, x=0.5
MGF_M2_AT_ONE = 1.848180056383484970655163


@pytest.fixture(scope="module")
def std_m10():
    return MultiGauss(0.0, 1.0, 10)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultiGauss(0.0, 0.0, 2)
        with pytest.raises(ValueError):
            MultiGauss(0.0, -1.0, 2)
        with pytest.raises(ValueError):
            MultiGauss(math.inf, 1.0, 2)
        with pytest.raises(ValueError):
            MultiGauss(0.0, 1.0, -3)
        with pytest.raises(TypeError):
            MultiGauss(0.0, 1.0, 2, policy="loose")

    def test_normalization_cached(self, std_m10):
        assert std_m10.c0 == pytest.approx(1.890851969665063772, rel=1e-14)
        assert std_m10.c0_result.truncation_flag is TruncationFlag.EXACT

    def test_xi_cached(self, std_m10):
        assert std_m10.xi(0) == 1.0
        assert std_m10.xi(1) == pytest.approx(2.123055659463106, rel=1e-12)

    def test_hopeless_cancellation_rejected(self):
        with pytest.raises(SeriesNotConverged):
            MultiGauss(0.0, 1.0, 60)

    def test_unconverged_normalization_rejected(self, monkeypatch):
        from multigauss import univariate

        def cap_hit(alpha, shape):
            return SeriesResult(1.2, 5, 1.0, TruncationFlag.CAP_HIT)

        monkeypatch.setattr(univariate, "series_s", cap_hit)
        with pytest.raises(SeriesNotConverged, match="S\\(1/2\\) did not converge"):
            MultiGauss(0, 1, 0.5)

    @pytest.mark.parametrize("mval", [0.025, 0.5, 2.5, 10])
    def test_moment_ratios_are_computed_on_first_use(self, mval):
        d = MultiGauss(0.0, 1.0, mval)
        assert d._xi == {}
        for n in (3, 1, 6, 1):
            assert d.xi(n) == pytest.approx(xi_coeff(n, mval), rel=1e-13)
        assert sorted(d._xi) == [1, 3, 6]

    def test_public_fields_read_only(self, std_m10):
        with pytest.raises(AttributeError):
            std_m10.mu = 1.0
        with pytest.raises(AttributeError):
            std_m10.sigma = 2.0


class TestPdf:
    def test_no_warning_where_the_squared_distance_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = MultiGauss(0.0, 1.0, 2.5)
            assert d.pdf(1e200) == 0.0 and d.logpdf(1e200) == -math.inf
            assert MultiGauss(0.0, 1e-300, 2.5).pdf(1.0) == 0.0

    def test_gaussian_peak(self):
        d = MultiGauss(0.0, 1.0, 1)
        assert float(d.pdf(0.0)) == pytest.approx(1.0 / SQRT_2PI, rel=1e-15)

    def test_peak_value_any_shape(self):
        for mval in (2, 10, 40, 0.5, 2.5):
            d = MultiGauss(0.0, 1.0, mval)
            assert float(d.pdf(0.0)) == pytest.approx(1.0 / (d.c0 * SQRT_2PI), rel=1e-15)

    def test_two_component_peak(self):
        d = MultiGauss(0.0, 1.0, 2)
        assert float(d.pdf(0.0)) == pytest.approx(1.0 / (C0_2 * SQRT_2PI), rel=1e-14)
        assert float(d.pdf(0.0)) == pytest.approx(0.308566, rel=1e-5)

    def test_even_symmetry(self):
        d = MultiGauss(3.0, 2.0, 10)
        for t in (0.3, 1.0, 4 * 2.0, 11.0):
            assert float(d.pdf(3.0 + t)) == float(d.pdf(3.0 - t))

    def test_nonnegative_and_peaked_at_mode(self):
        xs = np.linspace(-8, 8, 401)
        for mval in (1, 2, 40, 0.5):
            d = MultiGauss(0.0, 1.0, mval)
            vals = d.pdf(xs)
            assert np.all(vals >= 0.0)
            assert np.all(vals <= float(d.pdf(0.0)) * (1 + 1e-15))

    def test_flat_top_peak_decreases_with_shape(self):
        peaks = [float(MultiGauss(0, 1, m).pdf(0.0)) for m in (1, 2, 10, 40)]
        assert np.all(np.diff(peaks) < 0.0)

    def test_array_evaluation_matches_scalar(self, std_m10):
        xs = np.array([-2.0, 0.0, 1.5])
        np.testing.assert_array_equal(std_m10.pdf(xs),
                                      [float(std_m10.pdf(x)) for x in xs])

    def test_logpdf_tail(self, std_m10):
        x = 30.0
        # far tail behaves like the leading Gaussian component times M
        expect = math.log(10.0) - 0.5 * x * x - math.log(std_m10.c0 * SQRT_2PI)
        assert std_m10.logpdf(x) == pytest.approx(expect, rel=1e-12)

    def test_logpdf_finite_where_profile_underflows(self):
        mp = pytest.importorskip("mpmath")
        d = MultiGauss(0.0, 1.0, 2.5)
        with mp.workdps(30):
            m = mp.mpf(2.5)
            bell = lambda s: -mp.expm1(m * mp.log1p(-mp.exp(-s * s / 2)))
            c0 = 2 * mp.quad(bell, [0, 1, 2, 4, 8, 16, mp.inf]) / mp.sqrt(2 * mp.pi)
            want = mp.log(bell(mp.mpf(40))) - mp.log(c0 * mp.sqrt(2 * mp.pi))
        assert float(want) == pytest.approx(-800.0, abs=2.0)
        assert d.logpdf(40.0) == pytest.approx(float(want), rel=1e-12)
        vals = d.logpdf(np.array([-40.0, 38.0, 1e10, np.inf, np.nan]))
        assert vals[0] == d.logpdf(40.0)
        assert np.all(np.isfinite(vals[:3])) and vals[3] == -np.inf and np.isnan(vals[4])


class TestCdf:
    def test_median_at_location(self):
        for mval in (1, 2, 40, 0.5, 0.025):
            d = MultiGauss(1.5, 0.7, mval)
            assert d.cdf(1.5) == 0.5

    def test_gaussian_quantile_value(self):
        d = MultiGauss(0.0, 1.0, 1)
        assert d.cdf(1.959963984540054) == pytest.approx(0.975, rel=1e-12)

    def test_frozen_value_m10(self, std_m10):
        assert std_m10.cdf(0.5) == pytest.approx(CDF_M10_AT_HALF, rel=1e-13)

    def test_monotone_and_tails(self):
        for mval in (1, 10, 40, 0.5):
            d = MultiGauss(0.0, 1.0, mval)
            xs = np.linspace(-10, 10, 201)
            vals = [d.cdf(float(x)) for x in xs]
            assert np.all(np.diff(vals) >= 0.0)
            assert vals[0] < 1e-9
            assert vals[-1] > 1.0 - 1e-9

    def test_reflection_symmetry(self, std_m10):
        for t in (0.3, 1.7, 3.2):
            assert std_m10.cdf(-t) == pytest.approx(1.0 - std_m10.cdf(t), abs=1e-15)

    def test_quadrature_fallback_engaged_for_m40(self):
        d = MultiGauss(0.0, 1.0, 40)
        assert d.c0_result.condition_number > 1e6  # forces the quadrature path
        # derivative of the quadrature-backed cdf still matches the pdf
        h = 1e-5
        fd = (d.cdf(1.0 + h) - d.cdf(1.0 - h)) / (2 * h)
        assert fd == pytest.approx(float(d.pdf(1.0)), rel=1e-7)

    def test_fractional_band_seam_is_continuous(self):
        d = MultiGauss(0.0, 1.0, 0.025)
        a = d.cdf(-0.3 - 1e-9)
        b = d.cdf(-0.3 + 1e-9)
        assert abs(a - b) < 1e-8  # only the true density step across 2e-9


class TestGeneratingFunctions:
    def test_mgf_normalization(self, std_m10):
        assert std_m10.mgf(0.0) == 1.0

    def test_gaussian_mgf(self):
        d = MultiGauss(0.0, 1.0, 1)
        assert d.mgf(1.0) == pytest.approx(math.exp(0.5), rel=1e-15)

    def test_two_component_mgf(self):
        d = MultiGauss(0.0, 1.0, 2)
        assert d.mgf(1.0) == pytest.approx(MGF_M2_AT_ONE, rel=1e-14)

    def test_mgf_overflow_signals(self):
        d = MultiGauss(0.0, 1.0, 2)
        with pytest.raises(OverflowError):
            d.mgf(60.0)

    def test_cf_at_zero(self, std_m10):
        assert std_m10.cf(0.0) == complex(1.0, 0.0)

    def test_gaussian_cf(self):
        d = MultiGauss(0.0, 1.0, 1)
        assert d.cf(2.0).real == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert d.cf(2.0).imag == 0.0

    def test_cf_modulus_bounded(self):
        d = MultiGauss(1.0, 2.0, 10)
        for w in np.linspace(-6, 6, 41):
            assert abs(d.cf(float(w))) <= 1.0 + 1e-12

    def test_cf_phase_structure(self):
        # cf(w) = e^{i w mu} R(w) with R real: the de-phased value is real
        d = MultiGauss(1.7, 1.0, 10)
        for w in (0.5, 1.0, 3.0):
            z = d.cf(w) * complex(math.cos(-w * 1.7), math.sin(-w * 1.7))
            assert abs(z.imag) <= 1e-15 * abs(z.real) + 1e-300

    def test_cf_is_continued_mgf(self):
        # real even part: cf(w) at mu=0 equals mgf evaluated at imaginary
        # argument; check against a high-order numeric continuation via the
        # moment expansion sum (-1)^j m_{2j} w^{2j} / (2j)!
        d = MultiGauss(0.0, 1.0, 2)
        w = 0.4
        series = sum((-1.0) ** j * d.raw_moment(2 * j) * w ** (2 * j) / math.factorial(2 * j)
                     for j in range(0, 18))
        assert d.cf(w).real == pytest.approx(series, rel=1e-12)

    def test_cf_builds_its_unsplit_rule_once(self, monkeypatch):
        from multigauss.univariate import _CdfTable

        builds, build = [], _CdfTable.expectation_rule

        def counting(self, parts=1, tail=0.0):
            builds.append(parts)
            return build(self, parts, tail)

        monkeypatch.setattr(_CdfTable, "expectation_rule", counting)
        d = MultiGauss(0.2, 1.1, 2.5)
        w = np.linspace(-12.0, 12.0, 41)
        first = d.cf(w)
        assert np.array_equal(d.cf(w), first) and d.cf(3.0) == d.cf(np.array([3.0]))[0]
        assert builds == [1]
        d.cf(40.0), d.cf(40.0)  # |sigma omega| = 44: split in three, built per call
        assert builds == [1, 3, 3]


class TestMoments:
    def test_first_moment_exact(self):
        for mval in (1, 2, 10, 0.5):
            d = MultiGauss(2.0, 0.5, mval)
            assert d.raw_moment(1) == 2.0

    def test_second_moment_centered(self):
        for mval in (2, 10, 0.5):
            d = MultiGauss(0.0, 1.5, mval)
            assert d.raw_moment(2) == pytest.approx(1.5**2 * d.xi(1), rel=1e-13)

    def test_fourth_moment_centered(self):
        d = MultiGauss(0.0, 1.0, 2)
        assert d.raw_moment(4) == pytest.approx(3.0 * d.xi(2), rel=1e-13)

    def test_gaussian_third_moment(self):
        d = MultiGauss(1.0, 1.0, 1)
        # mu^3 + 3 mu sigma^2 = 4
        assert d.raw_moment(3) == pytest.approx(4.0, rel=1e-13)

    def test_moment_zero(self, std_m10):
        assert std_m10.raw_moment(0) == 1.0

    def test_invalid_order(self, std_m10):
        with pytest.raises(ValueError):
            std_m10.raw_moment(-1)


class TestCumulants:
    def test_first_is_location(self):
        d = MultiGauss(2.0, 0.5, 10)
        assert d.cumulant(1) == 2.0

    def test_second_gaussian(self):
        d = MultiGauss(0.0, 1.3, 1)
        assert d.cumulant(2) == pytest.approx(1.3**2, rel=1e-12)

    def test_closed_forms(self):
        d = MultiGauss(0.0, 1.0, 2)
        xi1, xi2 = d.xi(1), d.xi(2)
        assert d.cumulant(2) == pytest.approx(xi1, rel=1e-12)
        assert abs(d.cumulant(3)) <= 1e-12
        assert d.cumulant(4) == pytest.approx(3.0 * (xi2 - xi1 * xi1), rel=1e-10)

    def test_odd_cumulants_vanish(self):
        d = MultiGauss(2.0, 0.5, 10)
        assert abs(d.cumulant(3)) <= 1e-10 * 0.5**3
        assert abs(d.cumulant(5)) <= 1e-8 * 0.5**5

    def test_flat_top_is_platykurtic(self):
        # negative excess kurtosis for flattened shapes
        d = MultiGauss(0.0, 1.0, 10)
        assert d.cumulant(4) < 0.0


class TestQuantile:
    def test_median(self):
        d = MultiGauss(3.0, 2.0, 10)
        assert d.quantile(0.5) == 3.0

    def test_gaussian_value(self):
        d = MultiGauss(0.0, 1.0, 1)
        assert d.quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)

    def test_round_trip(self):
        for mval in (1, 10, 0.5):
            d = MultiGauss(0.0, 1.0, mval)
            for u in (0.001, 0.1, 0.9, 0.999):
                assert abs(d.cdf(d.quantile(u)) - u) <= 1e-12

    def test_monotone_in_level(self, std_m10):
        us = np.linspace(0.02, 0.98, 25)
        qs = [std_m10.quantile(float(u)) for u in us]
        assert np.all(np.diff(qs) > 0.0)

    def test_rejects_bad_levels(self, std_m10):
        for bad in (0.0, 1.0, -0.2, 1.5, math.nan):
            with pytest.raises(ValueError):
                std_m10.quantile(bad)


class TestSampling:
    def test_determinism(self, std_m10):
        a = std_m10.sample(100, np.random.default_rng(42))
        b = std_m10.sample(100, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_law_of_large_numbers(self):
        d = MultiGauss(0.0, 1.0, 1)
        xs = d.sample(100_000, np.random.default_rng(1))
        assert abs(xs.mean()) <= 4.0 / math.sqrt(100_000)

    def test_fractional_variance(self):
        d = MultiGauss(0.0, 1.0, 0.5)
        xs = d.sample(100_000, np.random.default_rng(2))
        assert xs.var() == pytest.approx(d.xi(1), rel=0.05)

    def test_mgf_monte_carlo_cross_check(self):
        d = MultiGauss(0.0, 1.0, 2)
        xs = d.sample(200_000, np.random.default_rng(12))
        assert np.mean(np.exp(xs)) == pytest.approx(d.mgf(1.0), rel=0.02)

    def test_requires_generator(self, std_m10):
        with pytest.raises(TypeError):
            std_m10.sample(10, 42)
        with pytest.raises(ValueError):
            std_m10.sample(0, np.random.default_rng(0))


class TestPolicyInteraction:
    @pytest.mark.parametrize("mval", [0.1, 0.37, 1.1, 3.7, 7.3, 15.9])
    def test_mass_across_awkward_fractional_shapes(self, mval):
        from multigauss.oracle import QuadratureSpec, integrate

        d = MultiGauss(0.0, 1.0, mval)
        mass = integrate(d.pdf, QuadratureSpec(-13.0, 13.0, abs_tol=1e-12,
                                               rel_tol=1e-11))
        # accuracy degrades as condition_number * eps, stay an order inside
        budget = max(1e-12, 20.0 * d.c0_result.condition_number * 2.3e-16)
        assert abs(mass - 1.0) <= budget


class TestThreadSafety:
    def test_shared_object_matches_single_thread(self):
        import sys
        import threading

        def work(d):
            out = [d.mgf(t) for t in (0.5, 2.0, 25.0)]
            out += [d.cf(w) for w in (150.0, 0.5, 80.0, 1.0, 40.0)]
            out += list(d.cdf(np.linspace(-6.0, 6.0, 301)))
            return out

        want = work(MultiGauss(0.0, 1.0, 2.5))
        shared = MultiGauss(0.0, 1.0, 2.5)
        results = [None] * 8

        def run(i):
            results[i] = work(shared)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert got == want


#: Shapes whose closed-form profile is checked against mpmath to the last bits.
PROFILE_SHAPES = (1e-3, 0.025, 0.5, 1, 2, 2.5, 10, 12.3, 40, 40.5, 54, 57)


class TestClosedFormPrecision:
    """The closed form keeps full relative precision on the whole half-line."""

    @staticmethod
    def profile(w, m):
        """50-digit ``1 - (1 - e^-w)^M``, through ``log1p`` past ``w = 0.5``."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            w, m = mp.mpf(w), mp.mpf(m)
            if w < 0.5:
                return 1 - (-mp.expm1(-w)) ** m
            return -mp.expm1(m * mp.log1p(-mp.exp(-w)))

    @staticmethod
    def rel_err(got, want):
        return max(abs(g - float(v)) / abs(float(v)) for g, v in zip(got, want))

    @pytest.mark.parametrize("m", PROFILE_SHAPES)
    def test_profile_to_w_700(self, m):
        from multigauss.univariate import mg_profile

        ws = np.concatenate([np.geomspace(1e-8, 700.0, 240), np.linspace(0.5, 40.0, 80)])
        want = [self.profile(w, m) for w in ws]
        assert self.rel_err(mg_profile(ws, m), want) <= 1e-15

    @pytest.mark.parametrize("m", PROFILE_SHAPES)
    def test_scaled_profile_to_w_800(self, m):
        mp = pytest.importorskip("mpmath")
        from multigauss.univariate import ShapeParam, _profile_tail_series

        ws = np.concatenate([np.geomspace(1e-8, 800.0, 240),
                             [699.0, 700.0, np.nextafter(700.0, 800.0), 708.0, 745.0]])
        with mp.workdps(50):
            want = [mp.exp(w) * self.profile(w, m) for w in ws]
        assert self.rel_err(_profile_tail_series(ws, ShapeParam.of(m)), want) <= 1e-15

    @pytest.mark.parametrize("m", PROFILE_SHAPES)
    def test_logpdf_where_the_profile_underflows(self, m):
        mp = pytest.importorskip("mpmath")
        d = MultiGauss(0.0, 1.0, m)
        xs = np.array([38.0, 39.0, 40.0, 60.0, 1e3])
        with mp.workdps(50):
            log_norm = mp.log(mp.mpf(d.c0) * mp.sqrt(2 * mp.pi))
            want = [mp.log(self.profile(x * x / 2, m)) - log_norm for x in xs]
        assert self.rel_err(d.logpdf(xs), want) <= 1e-15
