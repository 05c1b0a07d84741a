"""Univariate flat-top / cusped Gaussian generalization.

The density is

    p(x) = [1 - (1 - exp(-(x-mu)^2 / (2 sigma^2)))^M] / (c0(M) sqrt(2 pi) sigma),

a symmetric bump that is exactly Gaussian at ``M = 1``, increasingly
flat-topped as ``M`` grows, and cusped at the mode for ``0 < M < 1``.  The
same function expands into an alternating series of Gaussians with common
mean and component widths ``sigma / sqrt(m)``, which is what makes the CDF,
generating functions and moments tractable.

Evaluation strategy: the closed form above is numerically stable for every
``M`` and is always the production density path; the Gaussian series is kept
as a verification target (`pdf_series`).  The CDF has one path for every
``M``: each object lazily builds a table of the profile integral over the
standardized half-line (a Gauss-Jacobi rule over the mode band, which
absorbs the cusp of fractional shapes, then Gauss-Legendre panels out to 40
sigma, with the tail masses accumulated from infinity inward), and a CDF
value is the tabulated mass beyond the next panel edge plus one fixed
Gauss-Legendre rule up to that edge, vectorized over any array of points.

The law is the case N = 1 of the elliptical family, ``X = mu + sigma sign
R`` with ``R = |U|`` (Cambanis, Huang & Simons 1981).  One radial inverse
of the table (`_RadialInverse`) serves the quantile and, through
`_radial_draw`, the samplers of both families.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import ndtri as _ndtri, roots_jacobi

from .series import (
    DEFAULT_POLICY,
    SeriesNotConverged,
    SeriesResult,
    ShapeParam,
    TruncationFlag,
    TruncationPolicy,
    _Neumaier,
    _dd_mul_f,
    _two_prod,
    check_normalization,
    series_s,
    series_tail,
    signed_coeffs,
    xi_coeff,
)

__all__ = ["MultiGauss", "mg_profile"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Half-width (in units of sigma) of the mode band, which the CDF engine
#: integrates with a Gauss-Jacobi rule that absorbs the cusp of fractional
#: shapes.
_CDF_BAND = 0.3

#: Reach of the CDF table in units of sigma: beyond it the profile, below
#: ``M e^-800``, underflows and the lower tail is zero in floating point.
_CDF_REACH = 40.0

#: Points of the Gauss-Jacobi band rule and of every Gauss-Legendre panel.
_GJ_ORDER = 24
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

#: Points per block of a CDF call: temporaries stay (block x nodes) in size
#: however many points one call evaluates.
_CDF_BLOCK = 4096

#: Half-squared distance beyond which `MultiGauss.logpdf` takes the far-tail
#: series in log form, because ``e^-w`` leaves the normal float range.
_LOG_TAIL_SWITCH = 700.0


def _cdf_panel_edges() -> np.ndarray:
    """Panel edges of the CDF table: ``0``, the band, then out to the reach.

    Widths shrink like ``8/|u|`` in the tail, so the Gaussian factor changes
    by at most ``e^-8`` across one panel and 16 nodes integrate it to full
    relative precision.
    """
    edges = [0.0, _CDF_BAND]
    while edges[-1] < _CDF_REACH:
        s = edges[-1]
        edges.append(min(s + min(0.5, 8.0 / s), _CDF_REACH))
    return np.array(edges)


_CDF_EDGES = _cdf_panel_edges()


def _profile_tail_series(w, shape: ShapeParam) -> np.ndarray:
    """Far-tail profile over its leading exponential, for an array ``w``.

    Returns ``e^w sum_m C(M,m)(-1)^(m-1) e^(-m w) = M - C(M,2) e^-w + ...``.
    With ``e^-w`` small the leading term dominates and every term carries
    full relative precision, unlike the closed form whose output quantizes
    once ``(1 - e^-w)^M`` needs more than float precision.  The loop over
    ``m`` stops once every point's last term is below 1e-22 of its sum,
    tested every 8th term: beyond ``w = ln max(M, 1) + 4`` each term is at
    least ``e^4`` times smaller than the one before, so the terms added
    after that point cannot change a bit of the sum.
    Leaving out the factor ``e^-w`` keeps the log density finite where the
    profile itself underflows.
    """
    g = np.exp(-np.asarray(w, dtype=float))
    v = shape.value
    cap = shape.int_value if shape.is_integer else 64
    acc = np.full_like(g, v)
    gm = np.ones_like(g)
    b = v
    for m in range(2, cap + 1):
        b = b * (v - m + 1) / m
        gm *= g
        term = b * gm if m % 2 == 1 else -b * gm
        acc += term
        if m % 8 == 0 and np.all(np.abs(term) < 1e-22 * np.abs(acc)):
            break
    return acc


def _gaussian(shape: ShapeParam) -> bool:
    """Whether the shape is ``M = 1``, the Gaussian itself."""
    return shape.is_integer and shape.int_value == 1


def mg_profile(w, m_shape):
    """Peak-relative density profile ``1 - (1 - e^-w)^M`` for ``w >= 0``.

    Accepts scalars or arrays.  Near the peak the closed form is evaluated
    through ``expm1``/``log``; in the far tail (``w`` beyond ``ln M + 4``)
    the closed form has exhausted float resolution and the rapidly
    convergent Gaussian series takes over, keeping full *relative* precision
    all the way into the underflow region.
    """
    shape = ShapeParam.of(m_shape)
    w = np.asarray(w, dtype=float)
    scalar = w.ndim == 0
    if _gaussian(shape):
        out = np.exp(-w)
        return float(out) if scalar else out
    t = -np.expm1(-w)  # 1 - e^-w, exact near 0
    with np.errstate(divide="ignore"):
        logt = np.log(t)
    out = -np.expm1(shape.value * logt)
    w_switch = max(4.0, math.log(max(shape.value, 1.0)) + 4.0)
    far = np.atleast_1d(w > w_switch)
    if far.any():
        out = np.atleast_1d(out)
        wf = np.atleast_1d(w)[far]
        out[far] = np.exp(-wf) * _profile_tail_series(wf, shape)
        return float(out[0]) if scalar else out
    return float(out) if scalar else out


class _CdfTable:
    """Masses of the radial law with density ``s^(dim-1) f(s^2/2)``, ``s >= 0``.

    ``f`` is the profile of shape ``M``.  At ``dim = 1`` this is the law of
    ``|U|`` for the standardized univariate variable; at ``dim = N`` it is
    the law of the radius ``R = sqrt(Q)`` of the N-dimensional family.  The
    integrand is split over a Gauss-Jacobi rule on the mode band ``[0, 0.3]``
    (the split of `_band_integral` is exact for the cusp of ``0 < M < 1``),
    then Gauss-Legendre panels out to ``40``.  Panel masses are accumulated
    both ways: outward from ``0`` into ``head[k]``, the integral over
    ``[0, edges[k]]``, and inward from the far end into ``tail[k]``, the
    integral over ``[edges[k], inf)``.  So `below` keeps its relative
    precision near ``0`` and `above` and `lower_tail` keep theirs however
    small the tail.  Probabilities are these integrals over ``tail[0]``.
    Immutable once built.
    """

    def __init__(self, shape: ShapeParam, dim: int = 1):
        self._shape = shape
        self._dim = dim
        # the weight is taken as (s/unit)^(dim-1), which stays finite over the reach
        self._unit = math.sqrt(dim - 1.0) if dim > 2 else 1.0
        xg, wg = roots_jacobi(_GJ_ORDER, 0.0, 2.0 * shape.value + (dim - 1))
        self._gj_nodes = 0.5 * (1.0 + xg)
        self._gj_weights = wg
        panels = self._legendre_integral(_CDF_EDGES[1:-1], _CDF_EDGES[2:])
        band = self._band_integral(np.array([_CDF_BAND]))[0]
        tail = np.zeros(_CDF_EDGES.size)
        tail[1:-1] = np.cumsum(panels[::-1])[::-1]
        tail[0] = tail[1] + band
        if tail[_CDF_EDGES.searchsorted(_CDF_REACH - 4.0)] > 1e-16 * tail[0]:
            # the profile underflows past ~38.6: the law must end well inside
            raise ValueError(f"the radial law in {dim} dimensions reaches beyond the table")
        self._tail = tail
        self._head = np.concatenate(([0.0], band + np.cumsum(np.concatenate(([0.0], panels)))))
        self._scale = 0.5 / tail[0]

    def _legendre_integral(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Integral of the radial density over each ``[lo, hi]``, one 16-point rule each."""
        half = 0.5 * (hi - lo)
        s = (lo + half)[:, None] + half[:, None] * _GL_NODES
        vals = mg_profile(0.5 * s * s, self._shape)
        if self._dim > 1:
            vals = vals * (s / self._unit) ** (self._dim - 1)
        return half * (vals * _GL_WEIGHTS).sum(axis=1)

    def _band_integral(self, au: np.ndarray) -> np.ndarray:
        """Integral of the radial density over ``[0, au]`` for ``0 <= au <= 0.3``.

        Splits the profile as ``1 - psi`` with ``psi(s) = (1 - e^(-s^2/2))^M
        = s^(2M) chi(s)``: the part ``1`` integrates to ``au^dim/dim``, and
        the smooth factor ``chi`` is integrated against a Gauss-Jacobi rule
        with weight ``v^(2M+dim-1)``.
        """
        v = self._shape.value
        dim = self._dim
        y = 0.5 * (au[:, None] * self._gj_nodes) ** 2
        # phi(y) = (1 - e^-y)/y, smooth and positive; phi(0) = 1
        safe = np.where(y > 0.0, y, 1.0)
        phi = np.where(y > 0.0, -np.expm1(-safe) / safe, 1.0)
        chi = (np.exp(v * np.log(phi)) * self._gj_weights).sum(axis=1)
        core = au / dim - au ** (2.0 * v + 1.0) * 2.0 ** (-3.0 * v - dim) * chi
        return core * (au / self._unit) ** (dim - 1)

    def _blocks(self, r: np.ndarray, fill: float, band_fn, mid_fn) -> np.ndarray:
        """Evaluate a mass at a 1-D array ``r >= 0`` in blocks of `_CDF_BLOCK`.

        ``band_fn`` serves the points inside the mode band, ``mid_fn`` those
        between the band and the reach, and every other point (NaN, beyond
        the reach) gets ``fill``.
        """
        out = np.full_like(r, fill)
        for start in range(0, r.size, _CDF_BLOCK):
            blk = r[start:start + _CDF_BLOCK]
            res = out[start:start + _CDF_BLOCK]
            band = blk < _CDF_BAND
            if band.any():
                res[band] = band_fn(blk[band])
            mid = (blk >= _CDF_BAND) & (blk < _CDF_REACH)
            if mid.any():
                a = blk[mid]
                res[mid] = mid_fn(a, np.searchsorted(_CDF_EDGES, a, side="right"))
        return out

    def density(self, r: np.ndarray) -> np.ndarray:
        """Density of ``R`` at an array ``r >= 0``."""
        weight = (r / self._unit) ** (self._dim - 1)
        return mg_profile(0.5 * r * r, self._shape) * weight * (2.0 * self._scale)

    def lower_tail(self, au: np.ndarray) -> np.ndarray:
        """Half the mass beyond ``au``, for a 1-D array ``au >= 0``.

        At ``dim = 1`` this is ``P(U <= -au)``.  Zero at NaN and beyond the
        reach.
        """
        return self._blocks(
            au, 0.0,
            lambda a: 0.5 - self._band_integral(a) * self._scale,
            lambda a, k: (self._tail[k] + self._legendre_integral(a, _CDF_EDGES[k]))
            * self._scale)

    def above(self, r: np.ndarray) -> np.ndarray:
        """``P(R > r)`` for a 1-D array ``r >= 0``, relatively precise far out."""
        return 2.0 * self.lower_tail(r)

    def below(self, r: np.ndarray) -> np.ndarray:
        """``P(R <= r)`` for a 1-D array ``r >= 0``, relatively precise near 0.

        One at NaN and beyond the reach.
        """
        scale = 2.0 * self._scale
        return self._blocks(
            r, 1.0,
            lambda a: self._band_integral(a) * scale,
            lambda a, k: (self._head[k - 1] + self._legendre_integral(_CDF_EDGES[k - 1], a))
            * scale)


#: Nodes of the radial inverse: radii on a uniform grid of Gaussian scores.
_INVERSE_NODES = 801

#: Largest |score| the radial inverse's grid reaches: a float generator's
#: uniforms lie within [2^-53, 1 - 2^-53], whose scores are below 8.3.
_SCORE_REACH = 8.5

#: Coarse radii at which the radial score is computed once per inverse to
#: place its nodes: geometric up to the mode band (the lower tail is a power
#: law in r), then steps of 0.25 out to the table's reach.
_RADIUS_CANDIDATES = np.concatenate((np.geomspace(1e-30, _CDF_BAND, 100, endpoint=False),
                                     np.arange(_CDF_BAND, _CDF_REACH, 0.25)))


def _radial_score(table: _CdfTable, r: np.ndarray) -> np.ndarray:
    """Gaussian score of the radial CDF at ``r``, from whichever tail is smaller."""
    below = table.below(r)
    upper = below > 0.5
    with np.errstate(divide="ignore"):
        score = _ndtri(below)
        score[upper] = -_ndtri(table.above(r[upper]))
    return score


def _score_step(table: _CdfTable, log_r: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Newton step in ``log r`` from the radial score at ``r`` to ``score``.

    Subtract it from ``log r``: ``d score / d log r = r density(r) / phi(score)``.
    """
    r = np.exp(log_r)
    s = _radial_score(table, r)
    return (s - score) * np.exp(-0.5 * s * s) / (_SQRT_2PI * r * table.density(r))


class _RadialInverse:
    """Inverse of a table's radial CDF: the radius at a Gaussian score.

    The score is ``ndtri(P(R <= r))`` below the median and
    ``-ndtri(P(R > r))`` above it, so both tails keep their relative
    precision.  The inverse is the PCHIP interpolant of ``r`` on a uniform
    grid of `_INVERSE_NODES` scores over ``|score| <= 8.5``.  A coarse pass
    over `_RADIUS_CANDIDATES` gives each grid score a first radius, and two
    Newton steps (`_score_step`) move it onto the score.  Immutable.
    """

    def __init__(self, table: _CdfTable):
        sc = _radial_score(table, _RADIUS_CANDIDATES)
        keep = np.isfinite(sc)
        sc, log_rc = sc[keep], np.log(_RADIUS_CANDIDATES[keep])
        grid = np.linspace(max(sc[0], -_SCORE_REACH), min(sc[-1], _SCORE_REACH),
                           _INVERSE_NODES)
        log_r = np.interp(grid, sc, log_rc)
        for _ in range(2):
            log_r -= _score_step(table, log_r, grid)
        self.grid = grid
        self._coeffs = PchipInterpolator(grid, np.exp(log_r)).c

    def radius(self, score: np.ndarray) -> np.ndarray:
        """Radius at each Gaussian score, clipped to the grid.

        The grid is uniform, so the cubic piece holding each score is found
        by arithmetic rather than by binary search.
        """
        grid, coeffs = self.grid, self._coeffs
        score = np.clip(score, grid[0], grid[-1])
        k = ((score - grid[0]) * ((grid.size - 1) / (grid[-1] - grid[0]))).astype(np.intp)
        np.minimum(k, grid.size - 2, out=k)
        t = score - grid[k]
        return ((coeffs[0, k] * t + coeffs[1, k]) * t + coeffs[2, k]) * t + coeffs[3, k]


def _radial_draw(n: int, rng, dim: int, inverse: _RadialInverse | None) -> np.ndarray:
    """``n`` standardized points ``R D`` of a radial law, shape ``(n, dim)``.

    ``D = Z/|Z|`` is uniform on the sphere and ``R`` is drawn by inverse-CDF
    sampling: one block of standard normals gives the directions, then one
    block of uniforms the radii.  ``inverse`` is the law's `_RadialInverse`,
    or ``None`` for the Gaussian shape ``M = 1``, whose points are the
    standard normals themselves.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not isinstance(rng, np.random.Generator):
        raise TypeError("rng must be a numpy.random.Generator")
    n = int(n)
    z = rng.standard_normal((n, dim))
    if inverse is None:
        return z
    norm = np.sqrt(np.einsum("ij,ij->i", z, z))
    z[norm == 0.0, 0] = 1.0  # a zero direction (probability ~0) becomes e_1
    norm[norm == 0.0] = 1.0
    with np.errstate(divide="ignore"):
        radius = inverse.radius(_ndtri(rng.random(n)))
    z *= (radius / norm)[:, None]
    return z


def _gauss_raw_moment_poly(k: int, mu: float):
    """Coefficients ``a_j`` with ``E[X^k] = sum_j a_j s^j`` for X ~ N(mu, s).

    From the recursion ``g_k = mu g_{k-1} + (k-1) s g_{k-2}`` in the variance
    ``s``; exact rational/polynomial arithmetic in float.
    """
    if k == 0:
        return [1.0]
    prev2 = [1.0]
    prev = [mu]
    for order in range(2, k + 1):
        nxt = [0.0] * max(len(prev), len(prev2) + 1)
        for j, c in enumerate(prev):
            nxt[j] += mu * c
        for j, c in enumerate(prev2):
            nxt[j + 1] += (order - 1) * c
        prev2, prev = prev, nxt
    return prev


class MultiGauss:
    """Symmetric distribution with location ``mu``, scale ``sigma``, shape ``M``.

    Immutable after construction, which computes the normalization
    constant; the moment ratios, the CDF table and the radial inverse are
    built on first use, each published by one assignment.  All evaluation
    methods are safe for concurrent use; `sample` requires a caller-owned
    ``numpy.random.Generator`` that must not be shared between threads.
    """

    def __init__(self, mu: float, sigma: float, m, policy: TruncationPolicy | None = None):
        mu = float(mu)
        sigma = float(sigma)
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu!r}")
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ValueError(f"sigma must be a positive finite real, got {sigma!r}")
        self._mu = mu
        self._sigma = sigma
        self._shape = ShapeParam.of(m)
        self._policy = policy if policy is not None else DEFAULT_POLICY
        if not isinstance(self._policy, TruncationPolicy):
            raise TypeError("policy must be a TruncationPolicy")
        self._c0_result = series_s(0.5, self._shape, self._policy)
        if self._c0_result.truncation_flag is TruncationFlag.CAP_HIT:
            raise SeriesNotConverged(f"S(1/2) did not converge for M={self._shape.value} "
                                     f"(condition number {self._c0_result.condition_number:.3g})")
        # M = 55..57 still pass as exact here although their c0 is off by up
        # to 2.8e-2 (a known fault, listed in ROADMAP.md)
        check_normalization(self._c0_result, self._shape, "normalization", exact_limit=57)
        if not self._c0_result.value > 0.0:
            raise ValueError(
                f"normalization constant is not positive/finite for M={self._shape.value}"
            )
        self._xi: dict[int, float] = {}
        self._coeff_cache = signed_coeffs(self._shape, self._policy.max_terms)

    # -- parameters ---------------------------------------------------------

    @property
    def mu(self) -> float:
        return self._mu

    @property
    def sigma(self) -> float:
        return self._sigma

    @property
    def shape(self) -> ShapeParam:
        return self._shape

    @property
    def policy(self) -> TruncationPolicy:
        return self._policy

    @property
    def c0(self) -> float:
        """Normalization constant ``S(1/2; M)``."""
        return self._c0_result.value

    @property
    def c0_result(self) -> SeriesResult:
        """Full series metadata behind :attr:`c0`."""
        return self._c0_result

    def xi(self, n: int) -> float:
        """Moment coefficient ratio ``xi_n = S(n+1/2; M) / S(1/2; M)``."""
        if n == 0:
            return 1.0
        if n not in self._xi:
            self._xi[n] = xi_coeff(n, self._shape, self._policy)
        return self._xi[n]

    def __repr__(self) -> str:
        return f"MultiGauss(mu={self._mu:g}, sigma={self._sigma:g}, m={self._shape.value:g})"

    # -- density ------------------------------------------------------------

    def pdf(self, x):
        """Density at ``x`` (scalar or array), by the stable closed form."""
        x = np.asarray(x, dtype=float)
        u = (x - self._mu) / self._sigma
        w = 0.5 * u * u
        return mg_profile(w, self._shape) / (self.c0 * _SQRT_2PI * self._sigma)

    def logpdf(self, x):
        """Log-density, finite for every finite ``x``.

        Beyond ~37 sigma, where the profile underflows, the log of the
        far-tail series is taken in log form: ``-w`` plus the log of the
        series over ``e^-w``.
        """
        x = np.asarray(x, dtype=float)
        u = (x - self._mu) / self._sigma
        w = 0.5 * u * u
        log_norm = math.log(self.c0 * _SQRT_2PI * self._sigma)
        with np.errstate(divide="ignore"):
            out = np.log(mg_profile(w, self._shape)) - log_norm
        far = np.atleast_1d(w > _LOG_TAIL_SWITCH)
        if far.any():
            out = np.atleast_1d(out)
            wf = np.atleast_1d(w)[far]
            out[far] = np.log(_profile_tail_series(wf, self._shape)) - wf - log_norm
            return float(out[0]) if x.ndim == 0 else out
        return float(out) if x.ndim == 0 else out

    def pdf_series(self, x: float) -> SeriesResult:
        """Density via the alternating Gaussian series, with quality metadata.

        This is the verification path: the value agrees with :meth:`pdf` up
        to the cancellation floor implied by ``condition_number``.  For
        fractional shapes the series is truncated per the policy; close to
        the mode it converges too slowly for the cap and honestly reports
        ``CAP_HIT``.
        """
        x = float(x)
        u = (x - self._mu) / self._sigma
        w = 0.5 * u * u
        norm = self.c0 * _SQRT_2PI * self._sigma
        acc = _Neumaier()
        abs_acc = _Neumaier()
        if self._shape.is_integer:
            mi = self._shape.int_value
            v = float(mi)
            b = 1.0
            for m in range(1, mi + 1):
                b = b * (v - m + 1) / m
                hi, lo = _two_prod(b, math.exp(-m * w))
                sign = 1.0 if (m % 2 == 1) else -1.0
                acc.add(sign * hi)
                acc.add(sign * lo)
                abs_acc.add(hi)
                abs_acc.add(lo)
            value = acc.total() / norm
            abs_sum = abs(abs_acc.total())
            cond = abs_sum / abs(acc.total()) if acc.total() != 0.0 else math.inf
            return SeriesResult(value, mi, max(cond, 1.0), TruncationFlag.EXACT)
        pol = self._policy
        b = 1.0
        v = self._shape.value
        terms_used = pol.max_terms
        flag = TruncationFlag.CAP_HIT
        for m in range(1, pol.max_terms + 1):
            b = b * (v - m + 1) / m
            term = b * math.exp(-m * w)
            if m % 2 == 0:
                term = -term
            acc.add(term)
            abs_acc.add(abs(term))
            if m >= pol.min_terms and abs(term) < pol.eps_abs:
                terms_used = m
                flag = TruncationFlag.TOLERANCE_MET
                break
        total = acc.total()
        cond = abs(abs_acc.total()) / abs(total) if total != 0.0 else math.inf
        return SeriesResult(total / norm, terms_used, max(cond, 1.0), flag)

    # -- cumulative distribution --------------------------------------------

    def cdf(self, x):
        """Cumulative distribution function at ``x`` (scalar or array).

        Absolute error below ~1e-14, and the lower tail keeps ~1e-12
        relative precision down to the float underflow.  NaN gives NaN and
        ``-inf``/``+inf`` give 0/1; a scalar input gives a ``float``.  Each
        call integrates the profile through the object's cached panel table,
        so one array call is much cheaper than a loop of scalar calls.
        """
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            u = np.atleast_1d((x - self._mu) / self._sigma)
        lower = self._cdf_table.lower_tail(np.abs(u).ravel()).reshape(u.shape)
        out = np.where(u < 0.0, lower, 1.0 - lower)
        out[np.isnan(u)] = np.nan
        return float(out[0]) if x.ndim == 0 else out

    @cached_property
    def _cdf_table(self) -> _CdfTable:
        return _CdfTable(self._shape)

    @cached_property
    def _inverse(self) -> _RadialInverse:
        return _RadialInverse(self._cdf_table)

    def _signed_coeffs(self, n: int) -> np.ndarray:
        # read the cache once: another thread may replace it meanwhile
        coeffs = self._coeff_cache
        if not self._shape.is_integer and n > len(coeffs):
            coeffs = signed_coeffs(self._shape, n)
            self._coeff_cache = coeffs
        return coeffs[:n]

    # -- generating functions -------------------------------------------------

    def _weighted_exp_sum(self, g: float, shift: float) -> float:
        """``sum_m C(M,m)(-1)^(m-1) m^(-1/2) exp(g/m + shift)``.

        Callers arrange ``g/m + shift <= 0`` for every m, so no intermediate
        overflows.  The exponential factor tends to ``e^shift``, so for
        fractional shapes the tail is completed order by order in
        ``g^j / (j! m^j)`` through the zeta-completed tails of exponent
        ``1/2 + j``; the summation window grows with ``|g|`` so that the
        order expansion always converges immediately.
        """
        if self._shape.is_integer:
            mi = self._shape.int_value
            v = float(mi)
            acc = _Neumaier()
            b = 1.0
            for m in range(1, mi + 1):
                b = b * (v - m + 1) / m
                hi, lo = _dd_mul_f(*_two_prod(b, math.exp(g / m + shift)), 1.0 / math.sqrt(m))
                sign = 1.0 if (m % 2 == 1) else -1.0
                acc.add(sign * hi)
                acc.add(sign * lo)
            return acc.total()
        n_eff = max(self._policy.max_terms, min(int(4.0 * abs(g)) + 1, 500_000))
        coeffs = self._signed_coeffs(n_eff)
        n_eff = len(coeffs)
        ms = np.arange(1.0, n_eff + 1.0)
        acc = math.fsum(coeffs * np.exp(g / ms + shift) / np.sqrt(ms))
        factor = math.exp(shift)  # underflow to 0 only when the tail truly vanishes
        for j in range(0, 200):
            tail_j, _ = series_tail(0.5 + j, self._shape, n_eff)
            contrib = factor * tail_j
            acc += contrib
            if j >= 2 and abs(contrib) < 1e-18 * max(abs(acc), 1e-300):
                break
            factor *= g / (j + 1)
            if factor == 0.0:
                break
        return acc

    def mgf(self, t: float) -> float:
        """Moment generating function; finite for every real ``t``.

        Raises ``OverflowError`` when the value itself exceeds the floating
        range, which is the out-of-domain signal for extreme ``t``.
        """
        t = float(t)
        if t == 0.0:
            return 1.0
        beta = 0.5 * (self._sigma * t) ** 2
        # pull e^beta out of every term: exp(beta/m) = e^beta exp(beta(1-m)/m)
        bracket = self._weighted_exp_sum(beta, -beta)
        if not bracket > 0.0:
            raise SeriesNotConverged(
                f"MGF series cancelled catastrophically for M={self._shape.value}, t={t}"
            )
        return math.exp(self._mu * t + beta + math.log(bracket / self.c0))

    def cf(self, omega: float) -> complex:
        """Characteristic function ``E[e^(i omega X)]``; modulus <= 1.

        Equals the analytic continuation of the MGF at ``i omega``: the
        component Gaussians contribute ``exp(-sigma^2 omega^2 / (2m))``
        weighted by ``C(M,m)(-1)^(m-1)/sqrt(m)``, with the location entering
        only through the phase ``e^(i omega mu)``.
        """
        omega = float(omega)
        if omega == 0.0:
            return complex(1.0, 0.0)
        gamma = 0.5 * (self._sigma * omega) ** 2
        r = self._weighted_exp_sum(-gamma, 0.0) / self.c0
        phase = self._mu * omega
        return complex(math.cos(phase) * r, math.sin(phase) * r)

    # -- moments and cumulants -------------------------------------------------

    def raw_moment(self, k: int) -> float:
        """k-th raw moment ``E[X^k]``.

        Each component Gaussian contributes its raw moment (three-term
        recursion in the component variance), so the result collapses to a
        polynomial in ``sigma^2`` with the ``xi_j`` ratios as weights:
        ``E[X] = mu``, ``E[X^2] = mu^2 + sigma^2 xi_1``, ``E[X^4] = mu^4 +
        6 mu^2 sigma^2 xi_1 + 3 sigma^4 xi_2``, and so on.
        """
        if not (isinstance(k, (int, np.integer)) and k >= 0):
            raise ValueError(f"k must be a non-negative integer, got {k!r}")
        if k == 0:
            return 1.0
        poly = _gauss_raw_moment_poly(int(k), self._mu)
        s2 = self._sigma * self._sigma
        total = 0.0
        power = 1.0
        for j, c in enumerate(poly):
            if c != 0.0:
                total += c * power * self.xi(j)
            power *= s2
        return total

    def cumulant(self, k: int) -> float:
        """k-th cumulant via the moment-to-cumulant recursion.

        Closed forms: ``k1 = mu``, ``k2 = sigma^2 xi_1``, ``k3 = 0``,
        ``k4 = 3 sigma^4 (xi_2 - xi_1^2)``; all odd cumulants >= 3 vanish by
        symmetry.
        """
        if not (isinstance(k, (int, np.integer)) and k >= 1):
            raise ValueError(f"k must be a positive integer, got {k!r}")
        k = int(k)
        moments = [self.raw_moment(i) for i in range(0, k + 1)]
        kappas = [0.0] * (k + 1)
        for order in range(1, k + 1):
            acc = moments[order]
            for j in range(1, order):
                acc -= math.comb(order - 1, j - 1) * kappas[j] * moments[order - j]
            kappas[order] = acc
        return kappas[k]

    def variance(self) -> float:
        return self._sigma * self._sigma * self.xi(1)

    # -- quantiles and sampling -------------------------------------------------

    def quantile(self, u):
        """Inverse CDF: the ``x`` with ``|cdf(x) - u| <= 1e-12``, for a scalar
        or an array of levels ``u`` strictly inside (0, 1).

        ``x = mu -+ sigma r`` with ``P(|U| > r) = 2 min(u, 1 - u)``: the
        radial inverse gives ``r`` at that tail's Gaussian score (beyond its
        grid ``r^2 - score^2`` keeps its value at the grid's end), and the
        Newton step in ``log r`` that places the inverse's nodes polishes it,
        so the tails keep their relative precision down to ~1e-305.  Each
        level is solved on its own: a scalar gives the array's bits, as a
        ``float``.
        """
        levels = np.asarray(u, dtype=float)
        p = levels.ravel()
        bad = ~((p > 0.0) & (p < 1.0))
        if bad.any():
            raise ValueError(
                f"quantile level must lie strictly in (0, 1), got {float(p[bad][0])!r}")
        inverse = self._inverse
        with np.errstate(divide="ignore"):
            score = -_ndtri(2.0 * np.minimum(p, 1.0 - p))  # -inf at the median
        r = inverse.radius(score)
        top = inverse.grid[-1:]
        far = score > top
        r[far] = np.sqrt(score[far] ** 2 + (inverse.radius(top) ** 2 - top * top))
        log_r = np.log(r)
        log_reach = math.log(_CDF_REACH)
        todo = np.flatnonzero(p != 0.5)
        for _ in range(8):  # from the inverse's start three steps reach full precision
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                step = _score_step(self._cdf_table, log_r[todo], score[todo])
            moving = np.isfinite(step)  # beyond the table's reach the score is infinite
            todo, step = todo[moving], step[moving]
            log_r[todo] = np.minimum(log_r[todo] - step, log_reach)
            todo = todo[np.abs(step) > 1e-9]
            if todo.size == 0:
                break
        x = self._mu + self._sigma * np.copysign(np.exp(log_r), p - 0.5)
        x[p == 0.5] = self._mu
        return float(x[0]) if levels.ndim == 0 else x.reshape(levels.shape)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` variates ``mu + sigma sign R`` by inverse-CDF sampling.

        The sign is that of a standard normal and the radius ``R = |U|``
        comes from the radial inverse at the Gaussian score of a uniform
        (interpolation error below ~1e-6 sigma, far inside every statistical
        tolerance): the one-dimensional case of the multivariate sampler.  At
        ``M = 1`` the output is exactly ``mu + sigma Z``.  Identical generator
        state yields identical output.
        """
        points = _radial_draw(n, rng, 1, None if _gaussian(self._shape) else self._inverse)
        return self._mu + self._sigma * points[:, 0]
