"""Tests for the multivariate density and its radial sampler."""

import math
import re
import warnings

import numpy as np
import pytest

from multigauss import (BivariateParams, MultiGauss, MvMultiGauss, SeriesNotConverged,
                        bivariate_pdf)
from multigauss.oracle import integrate_2d_graded
from multigauss.univariate import mg_profile


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
        for scale in (1e200, 1e-200, 1e-160):  # squares to inf, 0 and a subnormal
            with pytest.raises(ValueError, match="sigma2 = "):
                BivariateParams(0, 0, 1.0, scale, 0.0)

    def test_variance_near_the_largest_float(self):
        """Symmetrizing a variance above half the largest float does not overflow."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mv = MvMultiGauss([0.0, 0.0], BivariateParams(0, 0, 1e154, 1.0, 0.5).covariance(), 1)
            peak = mv.pdf([0.0, 0.0])
        assert peak == pytest.approx(1.0 / (2.0 * math.pi * 1e154 * math.sqrt(0.75)), rel=1e-14)

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


def former_mahalanobis_sq(mv, x):
    """The forward substitution that preceded the elementwise kernel, verbatim.

    Its rows are strided columns of the points' transpose, each solved by a
    BLAS dot product, 32 rows per block; ``Q`` is numpy's pairwise sum per
    point.  At N <= 2 the kernel must keep its bits.
    """
    inv_diag = 1.0 / np.diag(mv.chol)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    with np.errstate(over="ignore", invalid="ignore"):
        chol, z = mv.chol, (pts - mv.mean).T
        for start in range(0, mv.dim, 32):
            block = slice(start, start + 32)
            if start:
                z[block] -= chol[block, :start] @ z[:start]
            for i in range(start, min(start + 32, mv.dim)):
                z[i] = (z[i] - chol[i, start:i] @ z[start:i]) * inv_diag[i]
        q = np.sum(z * z, axis=0)
    bad = np.isnan(q)
    if bad.any():
        q[bad & ~np.isnan(pts).any(axis=1)] = np.inf
    if single:
        return float(q[0])
    return q


def former_pdf(mv, x):
    """The density as formed before the normalizer was kept on the object."""
    q = former_mahalanobis_sq(mv, x)
    log_det_half = float(np.sum(np.log(np.diag(mv.chol))))
    norm = mv.norm_const * (2.0 * math.pi) ** (0.5 * mv.dim) * math.exp(log_det_half)
    return mg_profile(np.asarray(q) * 0.5, mv.shape) / norm


def _low_dim_laws(n):
    """Covariances from unit to very unequal scales and strong correlation."""
    rng = np.random.default_rng([2026, n])
    covs = [np.eye(n), 1e-3 * np.eye(n), 1e5 * np.eye(n)]
    for _ in range(6):
        a = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-2, 2, size=(n, 1))
        covs.append(a @ a.T + 1e-3 * np.diag(np.diag(a @ a.T)))
    if n == 2:
        covs += [[[1.0, rho], [rho, 1.0]] for rho in (0.9, -0.9, 0.999999)]
        covs.append([[4.0, -1.1], [-1.1, 0.35]])
    return [(rng.normal(size=n) * 10.0 ** rng.uniform(-1, 2), c) for c in covs]


def _low_dim_points(mv, rng):
    n = mv.dim
    spread = np.sqrt(np.diag(mv.cov))
    near = mv.mean + spread * rng.normal(size=(300, n)) * rng.choice([0.01, 1.0, 5.0, 40.0],
                                                                     size=(300, 1))
    far = np.array([[1e150] * n, [-1e155] * n, [1e200] * n, [-1e300] * n, [1e308] * n,
                    [5e-324] * n])
    far[:, 0] *= -1.0
    specials = [np.nan, np.inf, -np.inf, 0.0, 1.0]
    odd = np.array(np.meshgrid(*[specials] * n)).reshape(n, -1).T
    return np.concatenate([near, far, odd])


class TestForwardSubstitution:
    """The elementwise kernel of `mahalanobis_sq`: its bits, accuracy and shapes."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_low_dimensions_keep_the_former_bits(self, n):
        rng = np.random.default_rng([7, n])
        for mean, cov in _low_dim_laws(n):
            for mval in (1, 2.5, 0.025, 40):
                mv = MvMultiGauss(mean, cov, mval)
                pts = _low_dim_points(mv, rng)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    q, want = mv.mahalanobis_sq(pts), former_mahalanobis_sq(mv, pts)
                    dens, want_dens = mv.pdf(pts), former_pdf(mv, pts)
                np.testing.assert_array_equal(q, want, strict=True)
                np.testing.assert_array_equal(dens, want_dens, strict=True)
                for row in pts[::37]:
                    one = mv.mahalanobis_sq(row)
                    assert isinstance(one, float)
                    np.testing.assert_array_equal(one, former_mahalanobis_sq(mv, row))
                for empty in (np.zeros((0, n)), np.zeros((3, 0, n))):
                    assert mv.mahalanobis_sq(empty).shape == empty.shape[:-1]
                    assert mv.pdf(empty).shape == mv.logpdf(empty).shape == empty.shape[:-1]

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="the reference needs an extended-precision long double")
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 20, 200])
    def test_within_an_ulp_or_so_of_a_long_double_substitution(self, n):
        rng = np.random.default_rng([20261018, n])
        worst = 0.0
        for _ in range(5 if n < 200 else 2):
            a = rng.normal(size=(n, n))
            cov = a @ a.T + rng.uniform(0.05, 2.0) * n * np.eye(n)
            mean = rng.normal(size=n)
            mv = MvMultiGauss(mean, cov, 2.5)
            pts = mean + 3.0 * rng.normal(size=(400, n)) @ mv.chol.T
            chol = mv.chol.astype(np.longdouble)
            d = (pts.astype(np.longdouble) - mean.astype(np.longdouble)).T
            z = np.empty_like(d)
            for i in range(n):
                z[i] = (d[i] - chol[i, :i] @ z[:i]) / chol[i, i]
            want = (z * z).sum(axis=0)
            worst = max(worst, float(np.max(np.abs(mv.mahalanobis_sq(pts) - want) / want)))
        # the former kernel's error on the same data reaches 7.4e-16
        assert worst <= 7.4e-16

    def test_batches_of_any_shape(self):
        cov = np.array([[1.0, 0.3, 0.0], [0.3, 2.0, -0.4], [0.0, -0.4, 0.7]])
        rng = np.random.default_rng(12)
        for n in (1, 2, 3):
            mv = MvMultiGauss(np.zeros(n), cov[:n, :n], 2.5)
            pts = rng.normal(size=(4, 5, n))
            flat = pts.reshape(-1, n)
            for method in (mv.mahalanobis_sq, mv.pdf, mv.logpdf):
                got = method(pts)
                assert got.shape == (4, 5)
                np.testing.assert_array_equal(got.ravel(), method(flat))
                assert method(flat[7]) == got[1, 2]
        mv2 = MvMultiGauss([0.0, 0.0], [[1.0, 0.5], [0.5, 2.0]], 2.5)
        assert mv2.pdf(np.ones((2, 2, 2))).shape == (2, 2)

    def test_a_last_axis_other_than_the_dimension_is_named(self):
        mv3 = MvMultiGauss(np.zeros(3), np.eye(3), 2.5)
        mv2 = MvMultiGauss(np.zeros(2), np.eye(2), 2.5)
        for mv, x in ((mv3, np.zeros((2, 3, 1))), (mv2, np.zeros((2, 2, 3))), (mv2, np.zeros(3)),
                      (mv2, 1.0)):
            for method in (mv.mahalanobis_sq, mv.pdf, mv.logpdf):
                with pytest.raises(ValueError, match=re.escape(
                        f"{mv.dim} coordinates on their last axis, got shape {np.shape(x)}")):
                    method(x)


def _log_density_reference(mean, var, mval, x):
    """Log-density of a diagonal covariance in 40-digit arithmetic."""
    import mpmath

    with mpmath.workdps(40):
        n = len(mean)
        q = mpmath.fsum((mpmath.mpf(xi) - mpmath.mpf(mi)) ** 2 / mpmath.mpf(v)
                        for xi, mi, v in zip(x, mean, var))
        w = q / 2
        log_f = mpmath.log(-mpmath.expm1(mval * mpmath.log1p(-mpmath.exp(-w))))
        s = mpmath.fsum(mpmath.binomial(mval, m) * (-1) ** (m - 1) * mpmath.mpf(m) ** (-n / 2)
                        for m in range(1, 40))
        log_norm = (mpmath.log(s) + mpmath.mpf(n) / 2 * mpmath.log(2 * mpmath.pi)
                    + mpmath.fsum(mpmath.log(mpmath.mpf(v)) for v in var) / 2)
        return float(log_f - log_norm)


class TestLogDensity:
    @pytest.mark.parametrize("n", [800, 1000])
    @pytest.mark.parametrize("mval", [1, 2.5])
    def test_high_dimensions_in_log_space(self, n, mval):
        rng = np.random.default_rng([n, int(10 * mval)])
        mean = rng.normal(size=n)
        var = rng.uniform(0.5, 2.0, size=n)
        mv = MvMultiGauss(mean, np.diag(var), mval)
        pts = mean + np.sqrt(var) * rng.normal(size=(4, n)) * np.array([[0.0], [0.1], [1.0], [1.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mv.logpdf(pts)
            dens = mv.pdf(pts)
        want = [_log_density_reference(mean, var, mval, row) for row in pts]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        # (2 pi)^(N/2) passes the float range: the density is exp(logpdf), 0 or subnormal
        np.testing.assert_array_equal(dens, np.exp(got))
        assert np.all((dens >= 0.0) & (dens < 2.3e-308))
        assert mv.pdf(pts[0]) == dens[0] and mv.logpdf(pts[0]) == got[0]

    def test_high_dimension_with_a_representable_density(self):
        mv = MvMultiGauss(np.zeros(800), 0.1 * np.eye(800), 2.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_peak = mv.logpdf(np.zeros(800))
            assert mv.pdf(np.zeros(800)) == math.exp(log_peak)
        # log f(0) = 0, less log S(400; M) = log 2.5, 400 log 2 pi and 400 log 0.1
        assert log_peak == pytest.approx(-math.log(2.5) - 400 * math.log(0.2 * math.pi), rel=1e-14)

    def test_matches_the_density_where_both_are_representable(self):
        mv = MvMultiGauss([0.5, -1.0, 0.0], [[1.0, 0.3, 0.0], [0.3, 2.0, -0.4], [0.0, -0.4, 0.7]],
                          2.5)
        pts = np.random.default_rng(4).normal(size=(200, 3)) * 4.0
        np.testing.assert_allclose(mv.logpdf(pts), np.log(mv.pdf(pts)), rtol=1e-13, atol=1e-13)
        far = np.array([[60.0, 0.0, 0.0], [1e3, 1e3, 1e3], [np.inf, 0.0, 0.0], [np.nan, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = mv.logpdf(far)
        assert np.isfinite(out[:2]).all() and out[1] < out[0] < -1e3
        assert out[2] == -np.inf and math.isnan(out[3])

    @pytest.mark.parametrize("mval", [1e-300, 1e-200, 1e-100])
    def test_tiny_shapes_keep_the_limit_where_the_profile_underflows(self, mval):
        """At ``M -> 0`` the density is ``-log(1 - e^-Q/2)`` over ``zeta(N/2 + 1)
        (2 pi)^(N/2) det^(1/2)``; ``f`` underflows from ``Q/2 ~ 708 + log M``."""
        mp = pytest.importorskip("mpmath")
        cov = np.array([[1.0, 0.3, 0.0], [0.3, 2.0, -0.4], [0.0, -0.4, 0.7]])
        mv = MvMultiGauss(np.zeros(3), cov, mval)
        pts = np.array([[0.5, 0.0, 0.0], [20.0, 0.0, 0.0], [0.0, 30.0, 1.0], [37.0, 0.0, 0.0],
                        [38.0, 1.0, 0.0], [60.0, 0.0, 0.0]])
        q = mv.mahalanobis_sq(pts)
        with mp.workdps(50):
            log_norm = mp.log(mp.zeta(2.5) * (2 * mp.pi) ** 1.5
                              * mp.sqrt(mp.mpf(float(np.linalg.det(cov)))))
            want = [mp.log(-mp.log1p(-mp.exp(-mp.mpf(v) / 2))) - log_norm for v in q]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mv.logpdf(pts)
        # log M and the log normalizer are near -700, and each rounds there
        np.testing.assert_allclose(got, [float(v) for v in want], rtol=0.0,
                                   atol=2 * math.ulp(700.0))
