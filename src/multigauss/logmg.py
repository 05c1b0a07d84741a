"""Log-scale counterpart: the distribution of Y = exp(X).

If ``X`` is a flat-top/cusped Gaussian generalization with parameters
``(mu, sigma, M)``, then ``Y = e^X`` generalizes the classic log-normal in
the same way: at ``M = 1`` all formulas reduce to the log-normal ones, and
the moments are the MGF of ``X`` at integer arguments, ``E[Y^k] = MGF_X(k)``.
The MGF of ``Y`` itself diverges for every ``t != 0``.
"""

from __future__ import annotations

import numpy as np

from .univariate import MultiGauss

__all__ = ["LogMultiGauss"]


class LogMultiGauss:
    """Positive random variable whose logarithm is `MultiGauss`-distributed."""

    def __init__(self, mu: float, sigma: float, m):
        self._base = MultiGauss(mu, sigma, m)

    @classmethod
    def from_base(cls, base: MultiGauss) -> "LogMultiGauss":
        obj = cls.__new__(cls)
        obj._base = base
        return obj

    @property
    def base(self) -> MultiGauss:
        """The underlying distribution of ``ln Y``."""
        return self._base

    def __repr__(self) -> str:
        b = self._base
        return f"LogMultiGauss(mu={b.mu:g}, sigma={b.sigma:g}, m={b.shape.value:g})"

    def pdf(self, y):
        """Density ``pdf_X(ln y) / y`` for ``y > 0``, zero elsewhere, NaN for NaN."""
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        y = np.atleast_1d(y)
        out = np.where(np.isnan(y), np.nan, 0.0)
        pos = y > 0.0
        if np.any(pos):
            yp = y[pos]
            out[pos] = self._base.pdf(np.log(yp)) / yp
        if scalar:
            return float(out[0])
        return out

    def cdf(self, y):
        """P(Y <= y) = cdf_X(ln y) for y > 0, zero for y <= 0, NaN for NaN.

        Accepts scalars or arrays; a scalar input gives a ``float``.
        """
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            x = np.log(np.maximum(y, 0.0))  # maximum keeps NaN; log(0) = -inf
        return self._base.cdf(x)

    def moment(self, k: int) -> float:
        """k-th raw moment ``E[Y^k] = MGF_X(k)``, from `MultiGauss.mgf`.

        Raises ``OverflowError`` when the parameter/order combination exceeds
        the floating range.
        """
        if not (isinstance(k, (int, np.integer)) and k >= 1):
            raise ValueError(f"k must be a positive integer, got {k!r}")
        return self._base.mgf(float(k))

    def mgf(self, t: float) -> float:
        """Guard: the moment generating function of Y diverges for t != 0."""
        if float(t) == 0.0:
            return 1.0
        raise ValueError(
            "the log-scale distribution has no finite moment generating function "
            "for t != 0; use moment(k) for integer moments"
        )

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` strictly positive variates (exp of base samples)."""
        x = self._base.sample(n, rng)
        return np.exp(x, out=x)
