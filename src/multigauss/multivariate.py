"""N-dimensional generalization with the bivariate case as a specialization.

The density depends on the point only through the Mahalanobis quadratic form
``Q(x) = (x - mean)^T Sigma^{-1} (x - mean)`` of the first-component
covariance ``Sigma``:

    p(x) = [1 - (1 - e^(-Q/2))^M] / (S(N/2; M) (2 pi)^(N/2) det(Sigma)^(1/2)).

The m-th term of the binomial expansion is the Gaussian with covariance
``Sigma / m``, so term-wise integration gives total mass ``S(N/2; M)`` for
the unnormalized profile - the normalization therefore uses ``S(N/2; M)``,
not the one-dimensional constant ``S(1/2; M)`` (the two agree only at
``N = 1``).  An ``S(1/2)``-normalized density would integrate to
``S(1/2)/S(N/2) != 1``; the verification suite reports that discrepancy.

The law is elliptical: ``X = mean + L R D`` with ``L`` the Cholesky factor
of ``Sigma``, ``D`` uniform on the unit sphere and the radius ``R = sqrt(Q)``
independent of ``D`` with density proportional to ``r^(N-1) [1 - (1 -
e^(-r^2/2))^M]`` (Cambanis, Huang & Simons 1981).  The radial CDF comes from
the same panel table as the univariate CDF, built with dimension ``N``; it
gives the ellipsoid mass ``P(Q <= q)`` and, inverted through a PCHIP table,
an exact sampler without rejection.  The full multivariate CDF over
rectangles has no tractable form and is not provided; marginals of this
family are not members of the family, so no marginal objects exist either.
"""

from __future__ import annotations

import math

import numpy as np
from dataclasses import dataclass
from scipy.interpolate import PchipInterpolator
from scipy.linalg import solve_triangular
from scipy.special import ndtri as _ndtri

from .series import (DEFAULT_POLICY, ShapeParam, TruncationPolicy, check_normalization,
                     series_s)
from .univariate import _CDF_BAND, _CDF_REACH, _CdfTable, mg_profile

__all__ = ["MvMultiGauss", "BivariateParams", "bivariate_pdf"]

_TWO_PI = 2.0 * math.pi
_SQRT_2PI = math.sqrt(_TWO_PI)

#: Nodes of the radial sampler's inverse table.
_SAMPLER_NODES = 801

#: Largest |score| the radial sampler's table reaches: a float generator's
#: uniforms lie within [2^-53, 1 - 2^-53], whose scores are below 8.3.
_SCORE_REACH = 8.5

#: Coarse radii at which the radial score is computed once per object to
#: place the sampler's nodes: geometric up to the mode band (the lower tail
#: is a power law in r), then steps of 0.25 out to the table's reach.
_RADIUS_CANDIDATES = np.concatenate((np.geomspace(1e-30, _CDF_BAND, 100, endpoint=False),
                                     np.arange(_CDF_BAND, _CDF_REACH, 0.25)))


@dataclass(frozen=True)
class BivariateParams:
    """Location/scale/correlation parameterization of the bivariate case."""

    mu1: float
    mu2: float
    sigma1: float
    sigma2: float
    rho: float

    def __post_init__(self):
        for name in ("mu1", "mu2", "sigma1", "sigma2", "rho"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.sigma1 <= 0.0 or self.sigma2 <= 0.0:
            raise ValueError("sigma1 and sigma2 must be positive")
        if not abs(self.rho) < 1.0:
            raise ValueError(f"|rho| must be strictly below 1, got {self.rho!r}")

    def covariance(self) -> np.ndarray:
        """The equivalent first-component covariance matrix."""
        off = self.rho * self.sigma1 * self.sigma2
        return np.array([[self.sigma1**2, off], [off, self.sigma2**2]])

    def mean(self) -> np.ndarray:
        return np.array([self.mu1, self.mu2])


class MvMultiGauss:
    """N-dimensional flat-top/cusped density, its ellipsoid mass and sampler.

    ``cov`` is the covariance of the leading (m = 1) component; it must be
    symmetric to 1e-12 relative and positive definite (the Cholesky
    factorization is taken at construction and a failure names the first
    non-positive leading minor).  ``N = 1`` reduces exactly to the
    univariate density.  The radial table behind `ellipsoid_mass` and
    `sample` is built on first use and published by a single assignment, so
    one object may be shared between threads; `sample` requires a
    caller-owned ``numpy.random.Generator`` per thread.
    """

    def __init__(self, mean, cov, m, policy: TruncationPolicy | None = None):
        mean = np.array(mean, dtype=float, copy=True).reshape(-1)
        if mean.size < 1:
            raise ValueError("mean must have at least one component")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean must be finite")
        cov = np.array(cov, dtype=float, copy=True)
        n = mean.size
        if cov.shape != (n, n):
            raise ValueError(f"cov must be {n}x{n}, got {cov.shape}")
        if not np.all(np.isfinite(cov)):
            raise ValueError("cov must be finite")
        scale = float(np.abs(cov).max())
        if scale <= 0.0 or float(np.abs(cov - cov.T).max()) > 1e-12 * scale:
            raise ValueError("cov must be symmetric to 1e-12 relative tolerance")
        cov = 0.5 * (cov + cov.T)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError(
                f"cov is not positive definite (first failing leading minor: "
                f"{self._first_bad_minor(cov)})"
            ) from None
        self._mean = mean
        self._cov = cov
        self._chol = chol
        self._shape = ShapeParam.of(m)
        self._policy = policy if policy is not None else DEFAULT_POLICY
        res = series_s(0.5 * n, self._shape, self._policy)
        check_normalization(res, self._shape, f"normalization S({0.5 * n:g}; M)")
        if not res.value > 0.0:
            raise ValueError(f"normalization failed for M={self._shape.value}, N={n}")
        self._norm_result = res
        self._log_det_half = float(np.sum(np.log(np.diag(chol))))
        self._radial_cache = None
        self._sampler_cache = None
        for arr in (self._mean, self._cov, self._chol):
            arr.setflags(write=False)

    @staticmethod
    def _first_bad_minor(cov: np.ndarray) -> int:
        for k in range(1, cov.shape[0] + 1):
            try:
                np.linalg.cholesky(cov[:k, :k])
            except np.linalg.LinAlgError:
                return k
        return cov.shape[0]

    @property
    def dim(self) -> int:
        return self._mean.size

    @property
    def mean(self) -> np.ndarray:
        return self._mean

    @property
    def cov(self) -> np.ndarray:
        return self._cov

    @property
    def chol(self) -> np.ndarray:
        """Lower-triangular Cholesky factor of ``cov``."""
        return self._chol

    @property
    def shape(self) -> ShapeParam:
        return self._shape

    @property
    def policy(self) -> TruncationPolicy:
        return self._policy

    @property
    def norm_const(self) -> float:
        """``S(N/2; M)``, the mass of the unnormalized profile."""
        return self._norm_result.value

    def __repr__(self) -> str:
        return f"MvMultiGauss(dim={self.dim}, m={self._shape.value:g})"

    def mahalanobis_sq(self, x) -> np.ndarray | float:
        """Quadratic form ``(x - mean)^T Sigma^{-1} (x - mean)``."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[1] != self.dim:
            raise ValueError(f"points must have dimension {self.dim}, got {pts.shape[1]}")
        z = solve_triangular(self._chol, (pts - self._mean).T, lower=True)
        q = np.sum(z * z, axis=0)
        if single:
            return float(q[0])
        return q

    def pdf(self, x):
        """Density at a point of shape (N,) or a batch of shape (k, N)."""
        q = self.mahalanobis_sq(x)
        core = mg_profile(np.asarray(q) * 0.5, self._shape)
        norm = self.norm_const * _TWO_PI ** (0.5 * self.dim) * math.exp(self._log_det_half)
        out = core / norm
        if np.isscalar(q) or np.ndim(q) == 0:
            return float(out)
        return out

    def ellipsoid_mass(self, q):
        """``P(Q <= q)``, the mass inside the ellipsoid ``Q(x) <= q``.

        ``q`` is a scalar or an array; a scalar gives a ``float``.  The mass
        is the radial law's CDF at ``sqrt(q)``, from the object's cached
        table: absolute error below 1e-14, taken from the tail masses above
        the median so that ``1 - mass`` is as accurate as a float near 1
        allows.  Negative ``q`` gives 0, ``+inf`` gives 1 and NaN gives NaN.
        """
        q = np.asarray(q, dtype=float)
        flat = np.atleast_1d(q).ravel()
        with np.errstate(invalid="ignore"):
            r = np.sqrt(np.maximum(flat, 0.0))
        table = self._radial_table()
        out = table.below(r)
        upper = out > 0.5
        out[upper] = 1.0 - table.above(r[upper])
        out[np.isnan(flat)] = np.nan
        return float(out[0]) if q.ndim == 0 else out.reshape(q.shape)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` points from the exact law, without rejection.

        The law is elliptical: ``X = mean + L (R D)`` with ``L`` the Cholesky
        factor, ``D = Z/|Z|`` uniform on the sphere and the radius ``R``
        drawn by inverse-CDF sampling of its radial law.  One block of
        standard normals gives the directions, then one block of uniforms
        the radii.  At ``M = 1`` the output is exactly the Gaussian stream
        ``mean + Z L^T``.  Identical generator state yields identical output.
        """
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise ValueError(f"n must be a positive integer, got {n!r}")
        if not isinstance(rng, np.random.Generator):
            raise TypeError("rng must be a numpy.random.Generator")
        n = int(n)
        z = rng.standard_normal((n, self.dim))
        if self._shape.is_integer and self._shape.int_value == 1:
            return self._mean + z @ self._chol.T
        norm = np.sqrt(np.einsum("ij,ij->i", z, z))
        z[norm == 0.0, 0] = 1.0  # a zero direction (probability ~0) becomes e_1
        norm[norm == 0.0] = 1.0
        with np.errstate(divide="ignore"):
            radius = self._radius_at(_ndtri(rng.random(n)))
        z *= (radius / norm)[:, None]
        out = z @ self._chol.T
        out += self._mean
        return out

    def _radius_at(self, score: np.ndarray) -> np.ndarray:
        """Radius at each Gaussian score (clipped to the grid), by the PCHIP table.

        The grid is uniform, so the cubic piece holding each score is found
        by arithmetic rather than by binary search.
        """
        grid, coeffs = self._radial_sampler()
        score = np.clip(score, grid[0], grid[-1])
        k = ((score - grid[0]) * ((grid.size - 1) / (grid[-1] - grid[0]))).astype(np.intp)
        np.minimum(k, grid.size - 2, out=k)
        t = score - grid[k]
        return ((coeffs[0, k] * t + coeffs[1, k]) * t + coeffs[2, k]) * t + coeffs[3, k]

    def _radial_table(self) -> _CdfTable:
        table = self._radial_cache
        if table is None:
            table = _CdfTable(self._shape, self.dim)
            self._radial_cache = table  # one assignment publishes a complete table
        return table

    def _radial_sampler(self):
        """Inverse of the radial CDF: a uniform grid of Gaussian scores and the
        coefficients of the PCHIP interpolant of ``r`` on it.

        The score is ``ndtri(P(R <= r))`` below the median and
        ``-ndtri(P(R > r))`` above it, so both tails keep their relative
        precision.  The grid has `_SAMPLER_NODES` points over ``|score| <=
        8.5`` (beyond every uniform a float generator yields).  A coarse pass
        over `_RADIUS_CANDIDATES` gives each grid score a first radius, and
        two Newton steps in ``log r`` move it onto the score.
        """
        sampler = self._sampler_cache
        if sampler is None:
            table = self._radial_table()
            sc = _radial_score(table, _RADIUS_CANDIDATES)
            keep = np.isfinite(sc)
            sc, log_rc = sc[keep], np.log(_RADIUS_CANDIDATES[keep])
            grid = np.linspace(max(sc[0], -_SCORE_REACH), min(sc[-1], _SCORE_REACH),
                               _SAMPLER_NODES)
            log_r = np.interp(grid, sc, log_rc)
            for _ in range(2):
                r = np.exp(log_r)
                s = _radial_score(table, r)
                # d score / d log r = r density(r) / phi(score)
                log_r -= (s - grid) * np.exp(-0.5 * s * s) / (_SQRT_2PI * r * table.density(r))
            sampler = (grid, PchipInterpolator(grid, np.exp(log_r)).c)
            self._sampler_cache = sampler  # one assignment publishes it
        return sampler


def _radial_score(table: _CdfTable, r: np.ndarray) -> np.ndarray:
    """Gaussian score of the radial CDF at ``r``, from whichever tail is smaller."""
    below = table.below(r)
    upper = below > 0.5
    with np.errstate(divide="ignore"):
        score = _ndtri(below)
        score[upper] = -_ndtri(table.above(r[upper]))
    return score


def _bivariate_norm(shape: ShapeParam, policy: TruncationPolicy) -> float:
    return series_s(1.0, shape, policy).value


def bivariate_pdf(params: BivariateParams, m, x1, x2, policy: TruncationPolicy | None = None):
    """Bivariate density in the (mu, sigma, rho) parameterization.

    Evaluates the elliptic quadratic form

        z = d1^2/s1^2 - 2 rho d1 d2/(s1 s2) + d2^2/s2^2,   Q = z/(1 - rho^2),

    and the closed-form profile normalized by ``S(1; M)``.  Agrees with
    :class:`MvMultiGauss` built from ``params.covariance()`` to ~1e-13.
    """
    if not isinstance(params, BivariateParams):
        raise TypeError("params must be a BivariateParams")
    shape = ShapeParam.of(m)
    if policy is None:
        policy = DEFAULT_POLICY
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    scalar = x1.ndim == 0 and x2.ndim == 0
    d1 = (x1 - params.mu1) / params.sigma1
    d2 = (x2 - params.mu2) / params.sigma2
    one_minus_r2 = 1.0 - params.rho * params.rho
    z = d1 * d1 - 2.0 * params.rho * d1 * d2 + d2 * d2
    w = 0.5 * z / one_minus_r2
    norm = (
        _bivariate_norm(shape, policy)
        * _TWO_PI
        * params.sigma1
        * params.sigma2
        * math.sqrt(one_minus_r2)
    )
    out = mg_profile(w, shape) / norm
    if scalar:
        return float(out)
    return out
