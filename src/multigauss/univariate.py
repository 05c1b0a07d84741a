"""Univariate flat-top / cusped Gaussian generalization.

The density is

    p(x) = [1 - (1 - exp(-(x-mu)^2 / (2 sigma^2)))^M] / (c0(M) sqrt(2 pi) sigma),

a symmetric bump that is exactly Gaussian at ``M = 1``, increasingly
flat-topped as ``M`` grows, and cusped at the mode for ``0 < M < 1``.  The
same function expands into an alternating series of Gaussians with common
mean and component widths ``sigma / sqrt(m)``; that series (`multigauss.series`)
gives the normalization constant and stays the reference the rest is
checked against.

Evaluation strategy: the closed form above is the one profile formula on
the whole half-line ``w = (x-mu)^2 / (2 sigma^2) >= 0``.  It keeps full
relative precision for every ``M`` out to ``w = 700``, where the profile
nears the float underflow; beyond, the scaled profile ``e^w f(w)`` is ``M``
(`_profile_tail_series`).  The density, the CDF table, the expectation rule
and the log density all evaluate it.  Every other quantity is an integral
of the profile over the standardized half-line, taken from one table that
each object builds on first use: a Gauss-Jacobi rule over the mode band
(which absorbs the cusp of fractional shapes), then Gauss-Legendre panels
out to 40 sigma.  The CDF is the tabulated mass beyond the next panel edge
plus one fixed rule up to that edge.  The moment ratios, the MGF and the CF
are expectations under the same nodes (`_CdfTable.expectation_rule`), with
the profile folded into the weights as ``e^w f(w)`` so that no weight
underflows; all are vectorized over any array of points.

The law is the case N = 1 of the elliptical family, ``X = mu + sigma sign
R`` with ``R = |U|`` (Cambanis, Huang & Simons 1981).  One radial inverse
of the table (`_RadialInverse`) serves the quantile and, through
`_radial_draw`, the samplers of both families.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from scipy.special import beta as _beta, betaln as _betaln, erfc, eval_jacobi

from .series import (
    EXACT_COEFF_LIMIT,
    SeriesNotConverged,
    SeriesResult,
    ShapeParam,
    TruncationFlag,
    check_normalization,
    series_s,
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

#: Half-squared distance beyond which the scaled profile ``e^w f(w)`` is
#: taken as ``M`` (`_profile_tail_series`): ``e^-w`` is about to leave the
#: normal float range, and the next term, ``-C(M,2) e^-w``, is below
#: ``M e^-700`` of it.
_LOG_TAIL_SWITCH = 700.0

_LN2 = math.log(2.0)

#: An MGF point ``a = |sigma t|`` sums the rule's nodes ``s <= a + 12``,
#: rounded up to a multiple of 4: past ``a + 12`` both Gaussian factors are
#: below ``e^-72``, far under the rounding of the sum.
_MGF_WINDOW = 12.0
_MGF_WINDOW_STEP = 4.0

#: Elements of the (points x nodes) temporaries of one expectation block.
_RULE_BLOCK = 1 << 18

#: Largest ``|sigma omega|`` that one split of the table's panels resolves
#: for the CF, and the largest it is evaluated at.
_CF_PANEL_FREQ = 16.0
_CF_REACH = 1e4

#: Share of the mass beyond the last panel of the CF's rules.
_CF_TAIL = 1e-17


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


def _gaussian(shape: ShapeParam) -> bool:
    """Whether the shape is ``M = 1``, the Gaussian itself."""
    return shape.is_integer and shape.int_value == 1


def mg_profile(w, m_shape):
    """Peak-relative density profile ``1 - (1 - e^-w)^M`` for ``w >= 0``.

    Accepts scalars or arrays.  The closed form is evaluated through
    ``(1 - e^-w)^M = exp(M log(1 - e^-w))``, with the log taken through
    ``expm1`` up to ``w = ln 2`` and through ``log1p`` beyond, so it keeps
    full relative precision on both sides: near the peak, and in the tail,
    ``~ M e^-w``, until ``e^-w`` leaves the normal float range (``w`` ~ 708).
    """
    shape = ShapeParam.of(m_shape)
    w = np.asarray(w, dtype=float)
    if _gaussian(shape):
        out = np.exp(-w)
    else:
        # log(1 - e^-w); both branches cost less than gathering each one's points
        with np.errstate(divide="ignore"):
            log_gap = np.where(w <= _LN2, np.log(-np.expm1(-w)), np.log1p(-np.exp(-w)))
        out = -np.expm1(shape.value * log_gap)
    return float(out) if w.ndim == 0 else out


def _profile_tail_series(w, shape: ShapeParam) -> np.ndarray:
    """Scaled profile ``h = e^w f(w)`` for an array ``w >= 0``: between 1 and ``M``.

    ``np.exp(w) * mg_profile(w)`` up to `_LOG_TAIL_SWITCH` and exactly ``M``
    beyond, where ``f`` itself underflows; NaN gives NaN.  The name is older
    than this closed form: the benchmark's tracer patches the function by
    it.
    """
    w = np.asarray(w, dtype=float)
    h = np.full_like(w, shape.value)
    near = ~(w > _LOG_TAIL_SWITCH)
    h[near] = np.exp(w[near]) * mg_profile(w[near], shape)
    return h


def _normalization(alpha: float, shape: ShapeParam, what: str,
                   exact_limit: int = EXACT_COEFF_LIMIT) -> SeriesResult:
    """``S(alpha; M)`` from the series, checked to have kept its digits and to be positive.

    Raises `SeriesNotConverged` for a ``CAP_HIT`` result or one that
    `check_normalization` rejects, and ``ValueError`` unless it is positive.
    """
    res = series_s(alpha, shape)
    if res.truncation_flag is TruncationFlag.CAP_HIT:
        raise SeriesNotConverged(f"{what} did not converge for M={shape.value} "
                                 f"(condition number {res.condition_number:.3g})")
    check_normalization(res, alpha, shape, what, exact_limit=exact_limit)
    if not res.value > 0.0:
        raise ValueError(f"{what} is not positive/finite for M={shape.value}")
    return res


def _rule_sum(points: np.ndarray, nodes: np.ndarray, weights: np.ndarray, kernel) -> np.ndarray:
    """``sum_i weights_i kernel(p, nodes_i)`` for each of the 1-D ``points``, in blocks.

    Each point's sum is one row reduction, so a point gets the same bits
    whatever else the array holds.
    """
    out = np.empty(points.size)
    step = max(1, _RULE_BLOCK // nodes.size)
    for start in range(0, points.size, step):
        out[start:start + step] = (kernel(points[start:start + step, None], nodes)
                                   * weights).sum(axis=1)
    return out


def _roots_jacobi(n: int, a: float, b: float):
    """Nodes and weights of the ``n``-point Gauss-Jacobi rule, weight ``(1-x)^a (1+x)^b``.

    The eigenvalues of the Jacobi matrix of the three-term recurrence, one
    Newton step on ``P_n^(a,b)``, then weights ``1/(P_(n-1) P_n')``
    normalized to the weight's mass: the operations of
    ``scipy.special.roots_jacobi(n, a, b)``, with its bits, for ``a != b``
    and ``a + b != 0``.
    """
    k = np.arange(n, dtype=float)
    ab = 2.0 * k + a + b
    diag = np.where(k == 0, (b - a) / (2 + a + b), (b * b - a * a) / (ab * (ab + 2)))
    kk, abk = k[1:], ab[1:]
    off = (2.0 / abk * np.sqrt((kk + a) * (kk + b) / (abk + 1))
           * np.where(kk == 1, 1.0, np.sqrt(kk * (kk + a + b) / (abk - 1))))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1), UPLO="L")
    dy = 0.5 * (n + a + b + 1) * eval_jacobi(n - 1, a + 1, b + 1, x)
    x -= eval_jacobi(n, a, b, x) / dy
    # P_(n-1) and P_n' span many decades: scale each before the product
    fm = eval_jacobi(n - 1, a, b, x)
    log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.)
    w = 1.0 / (fm * dy)
    if a + b <= 1000:
        mu0 = 2.0 ** (a + b + 1) * _beta(a + 1, b + 1)
    else:
        mu0 = np.exp((a + b + 1) * np.log(2.0) + _betaln(a + 1, b + 1))
    return x, w * (mu0 / w.sum())


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
        panels = self._legendre_integral(_CDF_EDGES[1:-1], _CDF_EDGES[2:])
        # past 2M + N ~ 1030 the Jacobi rule's mass overflows and the band's
        # mass is NaN, which the reach check below rejects
        with np.errstate(over="ignore", invalid="ignore"):
            xg, wg = _roots_jacobi(_GJ_ORDER, 0.0, 2.0 * shape.value + (dim - 1))
            self._gj_nodes = 0.5 * (1.0 + xg)
            self._gj_weights = wg
            band = self._band_integral(np.array([_CDF_BAND]))[0]
        tail = np.zeros(_CDF_EDGES.size)
        tail[1:-1] = np.cumsum(panels[::-1])[::-1]
        tail[0] = tail[1] + band
        if not tail[_CDF_EDGES.searchsorted(_CDF_REACH - 4.0)] <= 1e-16 * tail[0]:
            # the profile underflows past ~38.6: the law must end well inside
            raise ValueError(f"the radial law in {dim} dimensions reaches beyond the table")
        self._tail = tail
        self._head = np.concatenate(([0.0], band + np.cumsum(np.concatenate(([0.0], panels)))))
        self._scale = 0.5 / tail[0]
        # `below` exceeds 1/2 at every radius from this panel edge on
        self.median_edge = _CDF_EDGES[np.argmax(self._head * (2.0 * self._scale) > 0.5)]

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
        chi = self._band_terms(au).sum(axis=1)
        core = au / dim - au ** (2.0 * v + 1.0) * 2.0 ** (-3.0 * v - dim) * chi
        return core * (au / self._unit) ** (dim - 1)

    def _band_terms(self, au: np.ndarray) -> np.ndarray:
        """Gauss-Jacobi terms ``w_j phi(y_j)^M`` of ``chi`` on ``[0, au]``, one row per ``au``."""
        y = 0.5 * (au[:, None] * self._gj_nodes) ** 2
        # phi(y) = (1 - e^-y)/y, smooth and positive; phi(0) = 1
        safe = np.where(y > 0.0, y, 1.0)
        phi = np.where(y > 0.0, -np.expm1(-safe) / safe, 1.0)
        return np.exp(self._shape.value * np.log(phi)) * self._gj_weights

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

    def smaller_tail(self, r: np.ndarray):
        """The smaller of ``P(R <= r)`` and ``P(R > r)`` at a 1-D array ``r >= 0``.

        Returns the masses and a mask of the points that took ``P(R > r)``.
        A radius from `median_edge` on takes the upper tail alone; only the
        others integrate `below` to learn which tail is smaller.  NaN and
        radii beyond the reach give the upper tail's 0.
        """
        upper = r >= self.median_edge
        lower = np.flatnonzero(~upper)
        below = self.below(r[lower])
        upper[lower[below > 0.5]] = True
        tail = np.empty_like(r)
        tail[lower] = below
        tail[upper] = self.above(r[upper])
        return tail, upper

    def expectation_rule(self, parts: int = 1, tail: float = 0.0):
        """Nodes ``s_i`` and weights ``H_i`` of the table's own quadrature (``dim = 1``).

        ``sum_i H_i e^(-s_i^2/2) g(s_i)`` approximates ``int f(s^2/2) g(s) ds``
        for smooth ``g``, from 0 out to the first panel edge beyond which at
        most ``tail`` of the mass lies (the reach for ``tail = 0``).  Every
        interval of the table is split into ``parts`` equal pieces, so the
        mode band narrows with them: its profile is split as ``1 - psi``,
        the ``1`` by one Gauss-Legendre panel and ``psi`` by the Gauss-Jacobi
        rule (negative weights), and every other panel is a Gauss-Legendre
        panel.  The profile enters the weights as ``h = e^w f(w)``, so a
        weight stays finite where ``f`` underflows.
        """
        last = int(np.argmax(self._tail <= tail * self._tail[0])) if tail else _CDF_EDGES.size - 1
        edges = _CDF_EDGES[:last + 1]
        frac = np.arange(parts) / parts
        edges = np.append((edges[:-1, None] + np.diff(edges)[:, None] * frac).ravel(), edges[-1])
        half = 0.5 * np.diff(edges)[:, None]
        s = (edges[:-1, None] + half * (1.0 + _GL_NODES)).ravel()
        w = 0.5 * s * s
        n_band = _GL_NODES.size
        h = np.concatenate((np.exp(w[:n_band]), _profile_tail_series(w[n_band:], self._shape)))
        v, band = self._shape.value, edges[1:2]
        sj = band * self._gj_nodes
        hj = (-band ** (2.0 * v + 1.0) * 2.0 ** (-3.0 * v - 1.0) * self._band_terms(band)[0]
              * np.exp(0.5 * sj * sj))
        return np.concatenate((s, sj)), np.concatenate(((half * _GL_WEIGHTS).ravel() * h, hj))

    @cached_property
    def rule(self):
        """`expectation_rule` out to the reach, built on first use."""
        return self.expectation_rule()

    @cached_property
    def cf_rule(self):
        """Unsplit `expectation_rule` cut at `_CF_TAIL`: the CF's rule to ``|sigma omega| = 16``."""
        return self.expectation_rule(tail=_CF_TAIL)


def _tail_roots(p: np.ndarray):
    """``a = sqrt(-2 log p)`` and ``b = sqrt(-2 log(1 - p))`` for an array of masses in [0, 1]."""
    with np.errstate(divide="ignore"):
        a = np.log(p)
        b = np.negative(p)
        np.log1p(b, out=b)
    a *= -2.0
    b *= -2.0
    return np.sqrt(a, out=a), np.sqrt(b, out=b)


def _log_tail_score(p: np.ndarray) -> np.ndarray:
    """Log-tail score ``sqrt(-2 log p) - sqrt(-2 log(1 - p))`` of an array of tail masses.

    It stands in for the Gaussian score of the tail: it tends to
    ``sqrt(-2 log p)`` as ``p -> 0``, so both tails keep their relative
    precision, and it is odd about ``p = 1/2`` and analytic across it, so
    either tail of a law may be taken.  ``+inf`` at ``p = 0``, ``-inf`` at
    ``p = 1``.
    """
    a, b = _tail_roots(p)
    a -= b
    return a


#: Nodes of the radial inverse: radii on a uniform grid of log-tail scores.
_INVERSE_NODES = 401

#: Scores per block of `_RadialInverse.radius`.
_RADIUS_BLOCK = 8192

#: Largest |score| the radial inverse's grid reaches, about 8.854: the score
#: of the Gaussian tail beyond 8.5, ~9.5e-18.  A float generator's nonzero
#: uniforms, multiples of 2^-53, have scores below 8.6.
_SCORE_REACH = float(_log_tail_score(np.array([0.5 * erfc(8.5 * math.sqrt(0.5))]))[0])

#: Coarse radii at which the radial score is computed once per inverse to
#: place its nodes: geometric up to the mode band (the lower tail is a power
#: law in r), then steps of 0.25 out to the table's reach.
_RADIUS_CANDIDATES = np.concatenate((np.geomspace(1e-30, _CDF_BAND, 100, endpoint=False),
                                     np.arange(_CDF_BAND, _CDF_REACH, 0.25)))


def _radial_score(table: _CdfTable, r: np.ndarray) -> np.ndarray:
    """Log-tail score of the radial CDF at ``r``, negative below the median.

    `_log_tail_score` of the table's `smaller_tail`, negated where that is
    ``P(R <= r)``: ``sqrt(-2 log(1 - F)) - sqrt(-2 log F)`` with ``F`` the
    radial CDF, increasing in ``r`` and analytic across the median.
    """
    tail, upper = table.smaller_tail(r)
    score = _log_tail_score(tail)
    return np.negative(score, out=score, where=~upper)


def _score_step(table: _CdfTable, log_r: np.ndarray, score: np.ndarray):
    """Newton step in ``log r`` from the radial score at ``r`` to ``score``.

    Returns the step, to be subtracted from ``log r``, and the slope
    ``d log r / d score`` at ``r``, which the step is the score's miss times.
    With ``p`` the smaller tail at ``r`` and ``a, b`` its `_tail_roots`,
    ``d score / d r = density(r) (1/(p a) + 1/((1 - p) b))``, taken as
    ``density / (p a)`` times ``1 + p a / ((1 - p) b)`` so that no factor
    overflows far out.
    """
    r = np.exp(log_r)
    tail, upper = table.smaller_tail(r)
    a, b = _tail_roots(tail)
    s = np.subtract(a, b)
    np.negative(s, out=s, where=~upper)
    pa = tail * a
    slope = pa / (r * table.density(r) * (1.0 + pa / ((1.0 - tail) * b)))
    return (s - score) * slope, slope


class _RadialInverse:
    """Inverse of a table's radial CDF: the radius at a log-tail score.

    The score is `_radial_score`, ``sqrt(-2 log p) - sqrt(-2 log(1 - p))``
    of the smaller tail ``p``, negated below the median, so both tails keep
    their relative precision and no draw needs the Gaussian quantile.  The
    inverse is the cubic Hermite interpolant of ``r`` on a uniform grid of
    `_INVERSE_NODES` scores over ``|score| <= 8.854`` (`_SCORE_REACH`, the
    radii of the Gaussian scores ``|z| <= 8.5``).  The scores at
    `_RADIUS_CANDIDATES` give each grid score a first radius, and three
    Newton steps (`_score_step`) move it onto the score.  The slope of the
    last step, taken where ``r`` is already within ~1e-8, gives each node
    its exact derivative ``dr / d score``, so the cubic's error falls as the
    fourth power of the spacing: within ~1.3e-8 of the radius.  Immutable.
    """

    def __init__(self, table: _CdfTable):
        sc = _radial_score(table, _RADIUS_CANDIDATES)
        keep = np.isfinite(sc)
        sc, log_rc = sc[keep], np.log(_RADIUS_CANDIDATES[keep])
        grid = np.linspace(max(sc[0], -_SCORE_REACH), min(sc[-1], _SCORE_REACH),
                           _INVERSE_NODES)
        log_r = np.interp(grid, sc, log_rc)
        for _ in range(3):
            step, slope = _score_step(table, log_r, grid)
            log_r -= step
        r = np.exp(log_r)
        # Hermite pieces ((c0 t + c1) t + c2) t + c3 with node slopes dr/dscore
        d = r * slope
        h = np.diff(grid)
        m = np.diff(r) / h
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self.grid = grid
        self._coeffs = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], r[:-1]))

    def radius(self, values: np.ndarray, tail: bool = False, out: np.ndarray | None = None):
        """Radius at each of the 1-D array's scores, clipped to the grid.

        With ``tail`` the values are upper tails ``P(R > r)`` instead, and
        each block's `_log_tail_score` is computed in the block, so no array
        of scores as long as the input is made; ``out`` may then be the
        input itself.  The grid is uniform, so the cubic piece holding each
        score is found by arithmetic rather than by binary search.  The
        values are taken in blocks of `_RADIUS_BLOCK`, so the temporaries
        stay small and cached.
        """
        grid, coeffs = self.grid, self._coeffs
        lo, hi = grid[0], grid[-1]
        per_piece = (grid.size - 1) / (hi - lo)
        if out is None:
            out = np.empty_like(values)
        for start in range(0, values.size, _RADIUS_BLOCK):
            blk = values[start:start + _RADIUS_BLOCK]
            t = np.clip(_log_tail_score(blk) if tail else blk, lo, hi)
            row = np.subtract(t, lo)
            row *= per_piece
            k = row.astype(np.intp)
            np.minimum(k, grid.size - 2, out=k)
            # the Horner sum ((c0 t + c1) t + c2) t + c3 in place, on rows gathered by take
            t -= grid.take(k, out=row)
            res = coeffs[0].take(k, out=out[start:start + _RADIUS_BLOCK])
            for c in coeffs[1:]:
                res *= t
                res += c.take(k, out=row)
        return out


def _radial_draw(n: int, rng, dim: int, inverse: _RadialInverse | None) -> np.ndarray:
    """``n`` standardized points ``R D`` of a radial law, shape ``(n, dim)``.

    ``inverse`` is the law's `_RadialInverse`, through which ``R`` is drawn
    by inverse-CDF sampling, or ``None`` for the Gaussian shape ``M = 1``,
    whose points are one block of standard normals.  In one dimension one
    block of uniforms ``u`` gives both factors: ``D`` is the sign of
    ``u - 1/2`` and ``R`` the radius of the upper tail ``2 min(u, 1 - u)``,
    the unpolished `MultiGauss.quantile` of ``u`` (within ~1.4e-8 of it,
    the inverse's interpolation error).  In more dimensions
    ``D = Z/|Z|`` is uniform on the sphere: one block of standard normals
    gives the directions, then one block of uniforms the radii, ``R`` that
    of the upper tail ``1 - u``.  The radii are looked up at the tails'
    log-tail scores, computed block by block; a uniform of 0 gives the
    radius at an end of the inverse's grid.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not isinstance(rng, np.random.Generator):
        raise TypeError("rng must be a numpy.random.Generator")
    n = int(n)
    if inverse is None:
        return rng.standard_normal((n, dim))
    if dim == 1:
        u = rng.random(n)
        tail = np.subtract(1.0, u)
        np.minimum(u, tail, out=tail)
        tail *= 2.0
        radius = inverse.radius(tail, tail=True, out=tail)
        u -= 0.5
        return np.copysign(radius, u, out=radius)[:, None]
    z = rng.standard_normal((n, dim))
    norm = np.sqrt(np.einsum("ij,ij->i", z, z))
    zero = norm == 0.0
    z[zero, 0] = 1.0  # a zero direction (probability ~0) becomes e_1
    norm[zero] = 1.0
    u = rng.random(n)
    radius = inverse.radius(np.subtract(1.0, u, out=u), tail=True, out=u)
    radius /= norm
    z *= radius[:, None]
    return z


class MultiGauss:
    """Symmetric distribution with location ``mu``, scale ``sigma``, shape ``M``.

    Immutable after construction, which computes the normalization
    constant; the moment ratios, the CDF table with its expectation rule,
    the MGF's denominator and the radial inverse are built on first use,
    each published by one assignment.  All evaluation methods are safe for concurrent use;
    `sample` requires a caller-owned ``numpy.random.Generator`` that must
    not be shared between threads.
    """

    def __init__(self, mu: float, sigma: float, m):
        mu = float(mu)
        sigma = float(sigma)
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu!r}")
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ValueError(f"sigma must be a positive finite real, got {sigma!r}")
        self._mu = mu
        self._sigma = sigma
        self._shape = ShapeParam.of(m)
        # M = 55..57 still pass as exact here although their c0 is off by up
        # to 2.8e-2 (a known fault, listed in ROADMAP.md)
        self._c0_result = _normalization(0.5, self._shape, "S(1/2)", exact_limit=57)
        self._xi: dict[int, float] = {}

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
    def c0(self) -> float:
        """Normalization constant ``S(1/2; M)``."""
        return self._c0_result.value

    @property
    def c0_result(self) -> SeriesResult:
        """Full series metadata behind :attr:`c0`."""
        return self._c0_result

    def xi(self, n: int) -> float:
        """Moment coefficient ratio ``xi_n = S(n+1/2; M) / S(1/2; M)``.

        Taken as ``E[U^(2n)] / (2n-1)!!`` under the table's expectation rule
        (the terms in log form, so no power overflows; exactly 1 at ``M = 1``),
        and cached per ``n``.
        """
        if not (isinstance(n, (int, np.integer)) and n >= 0):
            raise ValueError(f"n must be a non-negative integer, got {n!r}")
        if n == 0 or _gaussian(self._shape):
            return 1.0
        if n not in self._xi:
            s, h = self._cdf_table.rule
            log_dfact = math.log(math.prod(range(1, 2 * n, 2)))
            with np.errstate(divide="ignore"):
                terms = np.exp(np.log(np.abs(h)) - 0.5 * s * s + 2 * n * np.log(s) - log_dfact)
            self._xi[n] = float((np.sign(h) * terms).sum() / (h * np.exp(-0.5 * s * s)).sum())
        return self._xi[n]

    def __repr__(self) -> str:
        return f"MultiGauss(mu={self._mu:g}, sigma={self._sigma:g}, m={self._shape.value:g})"

    # -- density ------------------------------------------------------------

    def pdf(self, x):
        """Density at ``x`` (scalar or array), by the stable closed form."""
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # past the float range w is inf: density 0
            u = (x - self._mu) / self._sigma
            w = 0.5 * u * u
        return mg_profile(w, self._shape) / (self.c0 * _SQRT_2PI * self._sigma)

    def logpdf(self, x):
        """Log-density, finite for every finite ``x``.

        ``log f(w)`` of the closed form, less the log of the normalization.
        Beyond `_LOG_TAIL_SWITCH` (~37 sigma), where ``f`` leaves the normal
        float range, ``log f = log h - w`` with the scaled profile ``h =
        e^w f = M`` of `_profile_tail_series`.
        """
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # past the float range w is inf: -inf
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

    # -- generating functions -------------------------------------------------

    def mgf(self, t):
        """Moment generating function ``E[e^(t X)]`` at a scalar or an array ``t``.

        ``E[e^(aU)] = e^(a^2/2) m(a) / m(0)`` with ``m`` the `_shifted_mass`
        of ``h = e^w f``, by the table's expectation rule out to 40 sigma
        and, beyond, ``h = M`` in closed form (erfc); so only ``e^(a^2/2)``
        can overflow.  Raises ``OverflowError`` when a value exceeds the
        floating range, the out-of-domain signal for extreme ``t``.  A scalar
        gives a ``float`` with the bits of the array element; ``mgf(0) = 1``.
        """
        t = np.asarray(t, dtype=float)
        flat = np.atleast_1d(t).ravel()
        a = np.abs(self._sigma * flat)
        ratio = self._shifted_mass(a) / self._mgf_norm
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.exp(self._mu * flat + 0.5 * a * a) * ratio
        bad = ~np.isfinite(out) & ~np.isnan(flat)
        if bad.any():
            raise OverflowError(f"the MGF exceeds the float range at t={flat[bad][0]!r}")
        return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)

    @cached_property
    def _mgf_norm(self) -> float:
        """`_shifted_mass` at ``a = 0``, the MGF's denominator."""
        return float(self._shifted_mass(np.zeros(1))[0])

    def _shifted_mass(self, a: np.ndarray) -> np.ndarray:
        """``int_0^inf h(s) (e^(-(s-a)^2/2) + e^(-(s+a)^2/2)) / 2 ds`` for each ``a >= 0``.

        Each point sums only the rule's nodes inside its `_MGF_WINDOW`, whose
        bound depends on the point alone, so a point gets the same bits
        whatever else the array holds.
        """
        s, h = self._cdf_table.rule
        bound = _MGF_WINDOW_STEP * np.ceil((a + _MGF_WINDOW) / _MGF_WINDOW_STEP)
        near = np.full_like(a, np.nan)
        for b in np.unique(bound[~np.isnan(bound)]):
            keep, pick = s <= b, bound == b
            near[pick] = _rule_sum(a[pick], s[keep], h[keep],
                                   lambda p, s: 0.5 * (np.exp(-0.5 * (s - p) ** 2)
                                                       + np.exp(-0.5 * (s + p) ** 2)))
        # the mirror term erfc((reach + a)/sqrt(2)) underflows to 0 for every a >= 0
        far = erfc((_CDF_REACH - a) / math.sqrt(2.0))
        return near + self._shape.value * math.sqrt(math.pi / 8.0) * far

    def cf(self, omega):
        """Characteristic function ``E[e^(i omega X)]`` at a scalar or an array.

        ``e^(i omega mu) E[cos(sigma omega U)]``, the expectation by the
        table's rule cut where at most 1e-17 of the mass lies beyond.  Above
        ``|sigma omega| = 16`` every panel and the mode band are split into
        ``ceil(|sigma omega| / 16)`` pieces to resolve the oscillation;
        beyond ``|sigma omega| = 1e4`` it raises ``ValueError``.  Absolute
        error below 1e-14 for ``M >= 0.025`` (~1e-16 from ``M = 0.1``; the
        sharper cusps below lose digits to it, 3e-14 at ``M = 0.01``).  A
        scalar gives a ``complex`` with the bits of the array element;
        ``cf(0) = 1``.
        """
        omega = np.asarray(omega, dtype=float)
        w = np.atleast_1d(omega).ravel()
        a = np.abs(self._sigma * w)
        if (a > _CF_REACH).any():
            raise ValueError(f"|sigma omega| must not exceed {_CF_REACH:g}, got {a.max()!r}")
        parts = np.ceil(np.maximum(a, 1.0) / _CF_PANEL_FREQ)
        r = np.full_like(a, np.nan)
        table = self._cdf_table
        for k in np.unique(parts[~np.isnan(a)]):
            s, h = table.cf_rule if k == 1 else table.expectation_rule(int(k), tail=_CF_TAIL)
            q = h * np.exp(-0.5 * s * s)
            pick = parts == k
            r[pick] = _rule_sum(a[pick], s, q, lambda p, s: np.cos(p * s)) / q.sum()
        out = r * np.exp(1j * self._mu * w)
        return complex(out[0]) if omega.ndim == 0 else out.reshape(omega.shape)

    # -- moments and cumulants -------------------------------------------------

    def raw_moment(self, k: int) -> float:
        """k-th raw moment ``E[X^k]``.

        With ``X = mu + sigma U`` and ``E[U^(2j)] = (2j-1)!! xi_j`` (the odd
        powers of ``U`` vanish), ``E[X^k] = sum_j C(k, 2j) (2j-1)!! mu^(k-2j)
        sigma^(2j) xi_j`` over ``j = 0..k//2``: ``E[X] = mu``, ``E[X^2] =
        mu^2 + sigma^2 xi_1``, ``E[X^4] = mu^4 + 6 mu^2 sigma^2 xi_1 + 3
        sigma^4 xi_2``, and so on.  A plain float sum, so a term beyond the
        float range gives ``+-inf`` rather than an error.
        """
        if not (isinstance(k, (int, np.integer)) and k >= 0):
            raise ValueError(f"k must be a non-negative integer, got {k!r}")
        k = int(k)
        xis = [self.xi(j) for j in range(k // 2 + 1)]
        mu, s2 = np.float64(self._mu), np.float64(self._sigma * self._sigma)
        total = 0.0
        coeff = 1.0  # C(k, 2j) (2j-1)!!, exact while it stays below 2^53
        with np.errstate(over="ignore", invalid="ignore"):
            for j, xi in enumerate(xis):
                total += coeff * mu ** (k - 2 * j) * s2 ** j * xi
                coeff = coeff * ((k - 2 * j) * (k - 2 * j - 1)) / (2 * j + 2)
        return float(total)

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
        radial inverse gives ``r`` at that tail's log-tail score
        ``sqrt(-2 log p) - sqrt(-2 log(1 - p))`` (beyond its grid, where
        ``p ~ e^(-r^2/2) / r`` and the score is all but ``sqrt(-2 log p)``,
        ``r^2 + log r^2 - score^2`` keeps its value at the grid's end), and
        the Newton step in ``log r`` that places the inverse's nodes
        polishes it (two steps inside the grid, at most three beyond), so
        the tails keep their relative precision down to ~1e-305.  Each level is solved on its own: a scalar gives the
        array's bits, as a ``float``.
        """
        levels = np.asarray(u, dtype=float)
        p = levels.ravel()
        bad = ~((p > 0.0) & (p < 1.0))
        if bad.any():
            raise ValueError(
                f"quantile level must lie strictly in (0, 1), got {float(p[bad][0])!r}")
        inverse = self._inverse
        score = _log_tail_score(2.0 * np.minimum(p, 1.0 - p))  # -inf at the median
        r = inverse.radius(score)
        top = inverse.grid[-1:]
        far = score > top
        if far.any():
            # far out p ~ e^(-r^2/2) / r, so r^2 + log r^2 - score^2 keeps its
            # value at the grid's end: two fixed-point steps solve for r^2
            r_top = inverse.radius(top) ** 2
            w = score[far] ** 2 + (r_top + np.log(r_top) - top * top)
            r[far] = np.sqrt(w - np.log(w - np.log(w)))
        log_r = np.log(r)
        log_reach = math.log(_CDF_REACH)
        todo = np.flatnonzero(p != 0.5)
        # from the inverse's start two steps reach full precision inside its
        # grid, and at most three beyond it
        for _ in range(8):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                step = _score_step(self._cdf_table, log_r[todo], score[todo])[0]
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

        One block of uniforms ``u`` gives both factors: the sign is that of
        ``u - 1/2`` and the radius ``R = |U|`` comes from the radial inverse
        at the log-tail score of the tail ``2 min(u, 1 - u)``, computed
        block by block with the lookup.  So each variate is the `quantile`
        of its uniform without the Newton polish (the inverse's
        interpolation error, below ~1.4e-8 sigma, far inside every
        statistical tolerance): the
        one-dimensional case of the multivariate sampler.  At ``M = 1`` the
        output is exactly ``mu + sigma Z``.  Identical generator state yields
        identical output.
        """
        x = _radial_draw(n, rng, 1, None if _gaussian(self._shape) else self._inverse)[:, 0]
        x *= self._sigma
        x += self._mu
        return x
