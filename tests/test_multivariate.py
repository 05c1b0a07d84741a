"""Tests for the multivariate density and its radial sampler."""

import math
import warnings

import numpy as np
import pytest

from multigauss import (BivariateParams, MultiGauss, MvMultiGauss, SeriesNotConverged,
                        bivariate_pdf)
from multigauss.oracle import integrate_2d_graded


def _mass(mv, reach=10.0, panels=40):
    def f(gx, gy):
        return mv.pdf(np.stack([gx.ravel(), gy.ravel()], axis=1)).reshape(gx.shape)

    s1 = math.sqrt(mv.cov[0, 0])
    s2 = math.sqrt(mv.cov[1, 1])
    return integrate_2d_graded(f, (mv.mean[0], mv.mean[1]), (reach * s1, reach * s2),
                               panels_per_side=panels, order=8)


class TestConstruction:
    def test_symmetry_required(self):
        with pytest.raises(ValueError, match="symmetric"):
            MvMultiGauss([0, 0], [[1.0, 0.3], [0.2, 1.0]], 2)

    def test_positive_definiteness_required(self):
        with pytest.raises(ValueError, match="leading minor: 2"):
            MvMultiGauss([0, 0], [[1.0, 0.0], [0.0, -1.0]], 2)
        with pytest.raises(ValueError, match="leading minor: 1"):
            MvMultiGauss([0, 0], [[-1.0, 0.0], [0.0, 1.0]], 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MvMultiGauss([0, 0, 0], np.eye(2), 2)

    def test_norm_const_positive(self):
        mv = MvMultiGauss([0, 0], np.eye(2), 10)
        assert mv.norm_const > 0.0
        # S(1; M) equals the harmonic number for integer M
        assert mv.norm_const == pytest.approx(sum(1.0 / k for k in range(1, 11)),
                                              rel=1e-13)

    def test_arrays_read_only(self):
        mv = MvMultiGauss([0, 0], np.eye(2), 2)
        with pytest.raises(ValueError):
            mv.cov[0, 0] = 5.0


class TestBivariateParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BivariateParams(0, 0, -1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            BivariateParams(0, 0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BivariateParams(0, 0, 1.0, 1.0, -1.0)

    def test_covariance_assembly(self):
        p = BivariateParams(1.0, -2.0, 2.0, 0.5, 0.6)
        np.testing.assert_allclose(p.covariance(),
                                   [[4.0, 0.6], [0.6, 0.25]])
        np.testing.assert_allclose(p.mean(), [1.0, -2.0])


class TestPdf:
    def test_standard_gaussian_peak(self):
        mv = MvMultiGauss([0, 0], np.eye(2), 1)
        assert mv.pdf([0.0, 0.0]) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)

    def test_dimension_reduction(self):
        mv = MvMultiGauss([0.5], [[4.0]], 10)
        d = MultiGauss(0.5, 2.0, 10)
        for x in (-3.0, 0.1, 0.5, 2.2, 6.0):
            assert mv.pdf([x]) == pytest.approx(float(d.pdf(x)), rel=1e-15, abs=1e-300)

    def test_no_warning_where_the_squared_distance_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert MvMultiGauss([0, 0], np.eye(2), 2.5).pdf([1e200, 0.0]) == 0.0
            assert bivariate_pdf(BivariateParams(0, 0, 1, 1, 0.5), 2.5, 1e200, 0.0) == 0.0
            assert MvMultiGauss([0, 0], np.eye(2), 2.5).pdf([1e200, 1e200]) == 0.0
            for x1, x2 in ((1e200, 1e200), (np.inf, 0.0), (np.inf, -np.inf)):
                assert bivariate_pdf(BivariateParams(0, 0, 1, 1, 0.5), 2.5, x1, x2) == 0.0
            # infinite coordinates that meet in the substitution (inf - inf)
            mv = MvMultiGauss([0, 0], [[1, .5], [.5, 1]], 2.5)
            assert mv.pdf([np.inf, np.inf]) == 0.0 and mv.pdf([-np.inf, -np.inf]) == 0.0
            mv3 = MvMultiGauss([0, 0, 0], [[1, .5, .2], [.5, 1, .3], [.2, .3, 1]], 2.5)
            assert mv3.pdf([np.inf, np.inf, 0.0]) == 0.0
            # NaN in still gives NaN
            assert math.isnan(bivariate_pdf(BivariateParams(0, 0, 1, 1, 0.5), 2.5, np.nan, 1e200))
            assert math.isnan(mv.pdf([np.nan, np.inf]))

    def test_nan_row_gives_nan_and_keeps_the_others(self):
        mv = MvMultiGauss([0, 0], [[1.0, 0.3], [0.3, 2.0]], 2.5)
        pts = np.array([[0.0, 0.0], [np.nan, 1.0], [1.0, -1.0]])
        out = mv.pdf(pts)
        assert math.isnan(out[1])
        assert out[0] == mv.pdf(pts[0]) and out[2] == mv.pdf(pts[2])
        assert math.isnan(mv.pdf([1.0, np.nan]))
        assert math.isnan(float(MultiGauss(0.0, 1.0, 2.5).pdf(np.nan)))

    def test_batch_matches_scalar(self):
        mv = MvMultiGauss([0, 0], [[1.0, 0.3], [0.3, 2.0]], 2.5)
        pts = np.array([[0.0, 0.0], [1.0, -1.0], [2.0, 3.0]])
        batch = mv.pdf(pts)
        for row, v in zip(pts, batch):
            assert mv.pdf(row) == v

    def test_dimension_mismatch_rejected(self):
        mv = MvMultiGauss([0, 0], np.eye(2), 2)
        with pytest.raises(ValueError):
            mv.pdf([1.0, 2.0, 3.0])

    def test_level_sets_depend_only_on_quadratic_form(self):
        mv = MvMultiGauss([0, 0], np.eye(2), 10)
        rng = np.random.default_rng(8)
        for r in (0.5, 1.5, 3.0):
            thetas = rng.uniform(0.0, 2.0 * math.pi, size=32)
            pts = np.column_stack([r * np.cos(thetas), r * np.sin(thetas)])
            # the rounded quadratic form differs by an ulp or two between angles, and
            # past w = ln 2 the profile resolves that: compare equal forms exactly
            q = mv.mahalanobis_sq(pts)
            vals = np.array([mv.pdf(p) for p in pts])
            assert np.unique(q).size < q.size
            for qv in np.unique(q):
                assert np.ptp(vals[q == qv]) == 0.0
            assert np.all(np.diff(vals[np.argsort(q, kind="stable")]) <= 0.0)

    def test_mass_is_one(self):
        mv = MvMultiGauss([0, 0], np.eye(2), 40)
        assert _mass(mv) == pytest.approx(1.0, abs=1e-7)

    def test_gaussian_reduction_on_grid(self):
        # M = 1 equals the textbook bivariate Gaussian on a 10x10 grid
        cov = np.array([[1.0, 0.3], [0.3, 2.0]])
        mv = MvMultiGauss([0.5, -0.5], cov, 1)
        inv = np.linalg.inv(cov)
        det = np.linalg.det(cov)
        for x1 in np.linspace(-3.0, 4.0, 10):
            for x2 in np.linspace(-4.0, 3.0, 10):
                d = np.array([x1 - 0.5, x2 + 0.5])
                ref = math.exp(-0.5 * d @ inv @ d) / (2.0 * math.pi * math.sqrt(det))
                assert mv.pdf([x1, x2]) == pytest.approx(ref, rel=1e-13, abs=1e-300)


class TestBivariateClosedForm:
    def test_gaussian_peak_values(self):
        p0 = BivariateParams(0, 0, 1, 1, 0.0)
        assert bivariate_pdf(p0, 1, 0.0, 0.0) == pytest.approx(1.0 / (2 * math.pi), rel=1e-15)
        p7 = BivariateParams(0, 0, 1, 1, 0.7)
        ref = 1.0 / (2.0 * math.pi * math.sqrt(1.0 - 0.49))
        assert bivariate_pdf(p7, 1, 0.0, 0.0) == pytest.approx(ref, rel=1e-15)

    def test_matches_cholesky_path(self):
        p = BivariateParams(0.0, 0.0, 1.0, 1.0, 0.7)
        mv = MvMultiGauss(p.mean(), p.covariance(), 40)
        for x1, x2 in ((1.0, 1.0), (0.0, 2.0), (-1.3, 0.4), (2.5, -2.5)):
            a = bivariate_pdf(p, 40, x1, x2)
            b = mv.pdf([x1, x2])
            assert a == pytest.approx(b, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("mval", [55, 57, 60, 200.3])
    def test_unreliable_normalization_raises(self, mval):
        # S(1; M) keeps no reliable digits here; MvMultiGauss raises for the same shapes
        p = BivariateParams(0.0, 0.0, 1.0, 1.0, 0.3)
        with pytest.raises(SeriesNotConverged):
            bivariate_pdf(p, mval, 0.5, -0.2)
        with pytest.raises(SeriesNotConverged):
            MvMultiGauss(p.mean(), p.covariance(), mval)

    def test_largest_exact_shape_matches_cholesky_path(self):
        p = BivariateParams(0.2, -0.1, 1.1, 0.9, -0.6)
        mv = MvMultiGauss(p.mean(), p.covariance(), 54)
        xs = np.array([[0.2, -0.1], [1.0, 1.0], [-1.4, 0.9], [2.8, -2.0], [0.0, 3.5]])
        got = bivariate_pdf(p, 54, xs[:, 0], xs[:, 1])
        np.testing.assert_allclose(got, mv.pdf(xs), rtol=1e-13, atol=0.0)

    def test_exchange_symmetry(self):
        p = BivariateParams(0.5, 0.5, 1.3, 1.3, 0.4)
        for x1, x2 in ((1.0, -0.5), (2.0, 0.1)):
            assert bivariate_pdf(p, 10, x1, x2) == bivariate_pdf(p, 10, x2, x1)

    def test_array_evaluation(self):
        p = BivariateParams(0, 0, 1, 1, 0.0)
        xs = np.array([0.0, 1.0])
        vals = bivariate_pdf(p, 2, xs, xs)
        assert vals.shape == (2,)
        assert vals[0] == bivariate_pdf(p, 2, 0.0, 0.0)


class TestSampler:
    def test_gaussian_passthrough(self):
        # at M = 1 the output is exactly the Gaussian stream mean + Z L^T
        cov = np.array([[1.0, 0.3], [0.3, 2.0]])
        mv = MvMultiGauss([1.0, -1.0], cov, 1)
        out = mv.sample(500, np.random.default_rng(21))
        z = np.random.default_rng(21).standard_normal((500, 2))
        expect = np.array([1.0, -1.0]) + z @ np.linalg.cholesky(cov).T
        np.testing.assert_array_equal(out, expect)

    def test_determinism(self):
        mv = MvMultiGauss([0, 0], np.eye(2), 10)
        a = mv.sample(1000, np.random.default_rng(5))
        b = mv.sample(1000, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_marginal_second_moment(self):
        # E[X_i^2] = Sigma_ii S(N/2 + 1; M) / S(N/2; M); adjudicated against
        # 2-D quadrature of the density (see the verification suite)
        from multigauss import series_s

        mv = MvMultiGauss([0, 0], np.eye(2), 10)
        pts = mv.sample(100_000, np.random.default_rng(6))
        expect = series_s(2.0, 10).value / series_s(1.0, 10).value
        assert pts.var(axis=0) == pytest.approx(expect, rel=0.05)

    def test_flat_top_draws_have_the_requested_shape(self):
        mv = MvMultiGauss([0, 0], np.eye(2), 40)
        rng = np.random.default_rng(7)
        n = 50_000
        out = mv.sample(n, rng)
        assert out.shape == (n, 2)

    def test_cusped_shape_marginal_variance(self):
        mv = MvMultiGauss([0, 0], np.eye(2), 0.5)
        pts = mv.sample(50_000, np.random.default_rng(9))
        from multigauss import series_s

        expect = series_s(2.0, 0.5).value / series_s(1.0, 0.5).value
        assert pts.var(axis=0) == pytest.approx(expect, rel=0.05)

    def test_rejects_bad_args(self):
        mv = MvMultiGauss([0, 0], np.eye(2), 2)
        with pytest.raises(ValueError):
            mv.sample(0, np.random.default_rng(0))
        with pytest.raises(TypeError):
            mv.sample(10, 1234)


class TestThreeDimensions:
    def test_peak_value(self):
        mv = MvMultiGauss([0, 0, 0], np.eye(3), 10)
        ref = 1.0 / (mv.norm_const * (2.0 * math.pi) ** 1.5)
        assert mv.pdf([0.0, 0.0, 0.0]) == ref

    def test_sampler_marginal_moment(self):
        from multigauss import series_s

        mv = MvMultiGauss([0, 0, 0], np.eye(3), 10)
        pts = mv.sample(100_000, np.random.default_rng(17))
        expect = series_s(2.5, 10).value / series_s(1.5, 10).value
        assert pts.var(axis=0) == pytest.approx(expect, rel=0.05)
