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
gives the ellipsoid mass ``P(Q <= q)``, and the radial inverse shared with
the univariate sampler and quantile turns it into an exact sampler without
rejection.  The full multivariate CDF over rectangles has no tractable form
and is not provided; marginals of this family are not members of the
family, so no marginal objects exist either.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from dataclasses import dataclass

from .series import ShapeParam
from .univariate import (_CdfTable, _RadialInverse, _gaussian, _normalization, _radial_draw,
                         mg_profile)

__all__ = ["MvMultiGauss", "BivariateParams", "bivariate_pdf"]

_TWO_PI = 2.0 * math.pi

#: Rows of the Cholesky factor per step of the forward substitution: each
#: step first subtracts, in one matrix product, the rows solved before it.
_SUBST_BLOCK = 32


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

    def __init__(self, mean, cov, m):
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
        self._norm_result = _normalization(0.5 * n, self._shape, f"normalization S({0.5 * n:g}; M)")
        self._log_det_half = float(np.sum(np.log(np.diag(chol))))
        # multiplied, not divided, as in scipy's solve_triangular: at N = 1 Q keeps its bits
        self._inv_diag = 1.0 / np.diag(chol)
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
        # forward substitution L z = x - mean, one point per column, so a
        # point holding a NaN or an inf, or one whose Q passes the float
        # range, gives nan or inf, silently, and leaves the other points alone
        with np.errstate(over="ignore", invalid="ignore"):
            chol, z = self._chol, (pts - self._mean).T
            for start in range(0, self.dim, _SUBST_BLOCK):
                block = slice(start, start + _SUBST_BLOCK)
                if start:
                    z[block] -= chol[block, :start] @ z[:start]
                for i in range(start, min(start + _SUBST_BLOCK, self.dim)):
                    z[i] = (z[i] - chol[i, start:i] @ z[start:i]) * self._inv_diag[i]
            q = np.sum(z * z, axis=0)
        # where infinite terms meet (inf - inf) Q is NaN; with no NaN coordinate
        # it is +inf there, as the matrix is positive definite
        bad = np.isnan(q)
        if bad.any():
            q[bad & ~np.isnan(pts).any(axis=1)] = np.inf
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
        tail, upper = self._radial_table.smaller_tail(r)
        out = np.where(upper, 1.0 - tail, tail)
        out[np.isnan(flat)] = np.nan
        return float(out[0]) if q.ndim == 0 else out.reshape(q.shape)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` points from the exact law, without rejection.

        The law is elliptical: ``X = mean + L (R D)`` with ``L`` the Cholesky
        factor, ``D = Z/|Z|`` uniform on the sphere and the radius ``R``
        drawn by inverse-CDF sampling of its radial law, by the same radial
        inverse and draw as the univariate sampler.  One block of standard
        normals gives the directions, then one block of uniforms the radii;
        at ``N = 1`` the uniforms alone give sign and radius, as in
        `MultiGauss.sample`, whose stream a one-dimensional law shares.
        At ``M = 1`` the output is exactly the Gaussian stream
        ``mean + Z L^T``.  Identical generator state yields identical output.
        """
        inverse = None if _gaussian(self._shape) else self._inverse
        x = _radial_draw(n, rng, self.dim, inverse) @ self._chol.T
        x += self._mean
        return x

    @cached_property
    def _radial_table(self) -> _CdfTable:
        return _CdfTable(self._shape, self.dim)

    @cached_property
    def _inverse(self) -> _RadialInverse:
        return _RadialInverse(self._radial_table)


def bivariate_pdf(params: BivariateParams, m, x1, x2):
    """Bivariate density in the (mu, sigma, rho) parameterization.

    Evaluates the elliptic quadratic form

        z = d1^2/s1^2 - 2 rho d1 d2/(s1 s2) + d2^2/s2^2,   Q = z/(1 - rho^2),

    and the closed-form profile normalized by ``S(1; M)``, which is checked
    as for :class:`MvMultiGauss` (the same shapes raise).  Agrees with
    :class:`MvMultiGauss` built from ``params.covariance()`` to ~1e-13.
    """
    if not isinstance(params, BivariateParams):
        raise TypeError("params must be a BivariateParams")
    shape = ShapeParam.of(m)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    scalar = x1.ndim == 0 and x2.ndim == 0
    one_minus_r2 = 1.0 - params.rho * params.rho
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = (x1 - params.mu1) / params.sigma1
        d2 = (x2 - params.mu2) / params.sigma2
        z = d1 * d1 - 2.0 * params.rho * d1 * d2 + d2 * d2
        w = 0.5 * z / one_minus_r2
    # past the float range the form is inf, or NaN where infinite terms meet
    # (inf - inf, inf * 0); it is +inf there, as the matrix is positive definite
    w = np.where(np.isnan(w) & ~(np.isnan(x1) | np.isnan(x2)), np.inf, w)
    norm = (_normalization(1.0, shape, "normalization S(1; M)").value * _TWO_PI
            * params.sigma1 * params.sigma2 * math.sqrt(one_minus_r2))
    out = mg_profile(w, shape) / norm
    if scalar:
        return float(out)
    return out
