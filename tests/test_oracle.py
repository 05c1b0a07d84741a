"""Self-tests of the verification oracle (quadrature, KS, finite differences)."""

import math

import numpy as np
import pytest

from multigauss.oracle import (
    OracleReport,
    QuadratureError,
    QuadratureSpec,
    finite_diff,
    gaussian_cdf,
    gaussian_pdf,
    integrate,
    integrate_2d_graded,
    integrate_cos_weighted,
    ks_statistic,
)

INF = math.inf

# Gaussian moments E[x^k] for the standard normal: (k-1)!! for even k
GAUSS_MOMENTS = {0: 1.0, 2: 1.0, 4: 3.0, 6: 15.0, 8: 105.0}


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(1.0, 1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(2.0, 1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(0.0, 1.0, abs_tol=0.0, rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(0.0, 1.0, max_subdivisions=0)


class TestIntegrate:
    def test_gaussian_mass_infinite_interval(self):
        val = integrate(gaussian_pdf, QuadratureSpec(-INF, INF, abs_tol=1e-13))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_second_moment(self):
        val = integrate(lambda x: x * x * gaussian_pdf(x),
                        QuadratureSpec(-INF, INF, abs_tol=1e-12))
        assert val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("k", [0, 2, 4, 6, 8])
    def test_polynomial_times_gaussian(self, k):
        val = integrate(lambda x: x**k * gaussian_pdf(x),
                        QuadratureSpec(-14.0, 14.0, abs_tol=1e-12, rel_tol=1e-12))
        assert val == pytest.approx(GAUSS_MOMENTS[k], rel=1e-11)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_odd_moments_vanish(self, k):
        val = integrate(lambda x: x**k * gaussian_pdf(x),
                        QuadratureSpec(-14.0, 14.0, abs_tol=1e-11, rel_tol=0.0))
        assert abs(val) <= 1e-11

    def test_half_infinite_intervals(self):
        up = integrate(gaussian_pdf, QuadratureSpec(0.0, INF, abs_tol=1e-12))
        dn = integrate(gaussian_pdf, QuadratureSpec(-INF, 0.0, abs_tol=1e-12))
        assert up == pytest.approx(0.5, abs=1e-11)
        assert dn == pytest.approx(0.5, abs=1e-11)

    def test_plain_polynomial(self):
        val = integrate(lambda x: 3.0 * x * x, QuadratureSpec(0.0, 2.0))
        assert val == pytest.approx(8.0, rel=1e-14)

    def test_non_convergence_error(self):
        # integrable singularity with a tiny subdivision budget
        spec = QuadratureSpec(0.0, 1.0, abs_tol=1e-14, rel_tol=0.0, max_subdivisions=8)
        with pytest.raises(QuadratureError):
            integrate(lambda x: abs(x - 1.0 / math.pi) ** -0.5, spec)


class TestArrayContract:
    # the outermost Kronrod node, as a fraction of the panel's half-width
    X_OUTER = 0.991455371120812639206854697526329

    def _panel(self, x):
        c, h = 0.5 * (x[0] + x[-1]), 0.5 * (x[-1] - x[0]) / self.X_OUTER
        return c - h, c + h

    def test_one_call_per_panel_on_its_15_ascending_nodes(self):
        calls = []

        def f(x):
            calls.append(np.array(x, copy=True))
            return np.exp(-50.0 * x * x)

        val = integrate(f, QuadratureSpec(-3.0, 5.0, abs_tol=1e-13, rel_tol=0.0))
        assert val == pytest.approx(math.sqrt(math.pi / 50.0), rel=1e-12)
        assert len(calls) >= 3 and len(calls) % 2 == 1
        panels = [self._panel(x) for x in calls]
        for x, (a, b) in zip(calls, panels):
            assert x.shape == (15,) and x.dtype == float
            assert a < x[0] and np.all(np.diff(x) > 0.0) and x[-1] < b
        assert panels[0] == pytest.approx((-3.0, 5.0), rel=1e-14)
        # every later pair of calls covers the two halves of an earlier panel
        for k in range(1, len(panels), 2):
            (a1, b1), (a2, b2) = panels[k], panels[k + 1]
            assert b1 == pytest.approx(a2, abs=1e-13)
            assert any(p == pytest.approx((a1, b2), abs=1e-13) for p in panels[:k])

    def test_gaussian_pdf_on_an_array_equals_its_scalar_calls(self):
        xs = np.linspace(-9.0, 9.0, 101)
        got = gaussian_pdf(xs, mu=0.3, sigma=1.7)
        assert got.shape == xs.shape
        assert [float(v) for v in got] == [gaussian_pdf(float(x), mu=0.3, sigma=1.7)
                                           for x in xs]
        assert type(gaussian_pdf(0.5)) is float


class TestOscillatoryIntegrate:
    def test_gaussian_characteristic_value(self):
        for w in (0.5, 2.0, 5.0):
            val = integrate_cos_weighted(gaussian_pdf, w, -13.0, 13.0, abs_tol=1e-12)
            assert val == pytest.approx(math.exp(-0.5 * w * w), abs=1e-11)

    def test_zero_frequency_falls_back(self):
        val = integrate_cos_weighted(gaussian_pdf, 0.0, -13.0, 13.0, abs_tol=1e-12)
        assert val == pytest.approx(1.0, abs=1e-11)


class TestIntegrate2D:
    def test_standard_bivariate_gaussian(self):
        def f(gx, gy):
            return np.exp(-0.5 * (gx * gx + gy * gy)) / (2.0 * math.pi)

        val = integrate_2d_graded(f, (0.0, 0.0), (9.0, 9.0), panels_per_side=24)
        assert val == pytest.approx(1.0, abs=1e-10)


class TestKsStatistic:
    def test_degenerate_sample_at_median(self):
        xs = np.full(1000, 0.0)
        assert ks_statistic(xs, gaussian_cdf) == pytest.approx(0.5, abs=1e-3)

    def test_gross_mismatch(self):
        rng = np.random.default_rng(0)
        xs = np.sort(rng.standard_normal(2000))
        stat = ks_statistic(xs, lambda x: gaussian_cdf(x, mu=3.0))
        assert stat > 0.8

    def test_matching_distribution(self):
        rng = np.random.default_rng(1)
        n = 100_000
        xs = np.sort(rng.standard_normal(n))
        assert ks_statistic(xs, gaussian_cdf) < 1.63 / math.sqrt(n)

    def test_requires_sorted_nonempty(self):
        with pytest.raises(ValueError):
            ks_statistic([], gaussian_cdf)
        with pytest.raises(ValueError):
            ks_statistic([1.0, 0.0], gaussian_cdf)


class TestFiniteDiff:
    def test_square(self):
        assert finite_diff(lambda x: x * x, 1.0, 1e-6) == pytest.approx(2.0, abs=1e-9)

    def test_constant(self):
        assert finite_diff(lambda x: 4.25, 0.3, 1e-5) == 0.0

    def test_requires_positive_step(self):
        with pytest.raises(ValueError):
            finite_diff(lambda x: x, 0.0, 0.0)


class TestOracleReport:
    def test_pass_fail_semantics(self):
        ok = OracleReport("t", 1.0, 1.0 + 1e-12, abs_tol=1e-9)
        assert ok.passed and ok.abs_err == pytest.approx(1e-12, rel=1e-3)
        bad = OracleReport("t", 1.0, 2.0, abs_tol=1e-9)
        assert not bad.passed and bad.rel_err == 0.5

    def test_both_tolerances_must_hold(self):
        r = OracleReport("t", 1.0, 1.1, abs_tol=1.0, rel_tol=1e-3)
        assert not r.passed

    def test_serialization(self):
        d = OracleReport("t", 1.0, 2.0, abs_tol=10.0, notes="n").to_dict()
        assert set(d) == {"target_name", "library_value", "oracle_value", "abs_err",
                          "rel_err", "passed", "notes"}

    def test_mv_suite_reports_plain_bools(self):
        from multigauss.verify import run_suite

        reports = run_suite("mv")
        assert reports and all(type(r.passed) is bool for r in reports)
