"""Univariate flat-top / cusped Gaussian generalization.

The density is

    p(x) = [1 - (1 - exp(-(x-mu)^2 / (2 sigma^2)))^M] / (c0(M) sqrt(2 pi) sigma),

a symmetric bump that is exactly Gaussian at ``M = 1``, increasingly
flat-topped as ``M`` grows, and cusped at the mode for ``0 < M < 1``.  The
same function expands into an alternating series of Gaussians with common
mean and component widths ``sigma / sqrt(m)``; that series (`multigauss.series`)
gives the normalization constant at integer ``M``, where it is a finite sum
taken exactly, and stays the reference the rest is checked against.  At
fractional ``M`` the constant is its Mellin integral, taken by one fixed
144-node rule (`_mellin_rule`).

Evaluation strategy: the closed form above is the one profile formula on
the whole half-line ``w = (x-mu)^2 / (2 sigma^2) >= 0``.  It keeps full
relative precision for every ``M`` out to ``w = 700``, where the profile
nears the float underflow; beyond, the scaled profile ``e^w f(w)`` is ``M``
(`_profile_tail_series`).  The density, the CDF table, the expectation rule
and the log density all evaluate it.  Every other quantity is an integral
of the profile over the standardized half-line, taken from one table that
each object builds on first use: a Gauss-Jacobi rule over the mode band
(which absorbs the cusp of fractional shapes, in a closed form that keeps
its digits however small ``M``), then Gauss-Legendre panels out to 40
sigma.  The CDF is the tabulated mass beyond the next panel edge plus one
fixed rule up to that edge.  The moment ratios, the MGF and the CF
are expectations under the same nodes (`_CdfTable.expectation_rule`), with
the profile folded into the weights as ``e^w f(w)`` so that no weight
underflows; all are vectorized over any array of points.

The law is the case N = 1 of the elliptical family, ``X = mu + sigma sign
R`` with ``R = |U|`` (Cambanis, Huang & Simons 1981).  One radial inverse
of the table (`_RadialInverse`) serves the quantile and, through
`_radial_draw`, the samplers of both families.  No scipy is needed.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property

import numpy as np

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


def _legendre_rule(half) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a symmetric rule on [-1, 1] from its ``(node, weight)`` pairs above 0.

    The module's Gauss-Legendre rules pass ``numpy.polynomial.legendre.leggauss``'s
    bits, written out so that importing the package loads no
    ``numpy.polynomial`` (the tests check them against it).
    """
    x, w = np.array(half).T
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


#: Points of the Gauss-Jacobi band rule and of every Gauss-Legendre panel.
_GJ_ORDER = 24
_GL_NODES, _GL_WEIGHTS = _legendre_rule((
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
))

#: Points per block of a CDF call: temporaries stay (block x nodes) in size
#: however many points one call evaluates.
_CDF_BLOCK = 4096

#: Half-squared distance beyond which the scaled profile ``e^w f(w)`` is
#: taken as ``M`` (`_profile_tail_series`): ``e^-w`` is about to leave the
#: normal float range, and the next term, ``-C(M,2) e^-w``, is below
#: ``M e^-700`` of it.
_LOG_TAIL_SWITCH = 700.0

_LN2 = math.log(2.0)

#: Log of the smallest normal float: where ``log M - w`` is below it the
#: profile is subnormal or 0, and `_log_profile` leaves its float value.
_LOG_TINY = math.log(sys.float_info.min)

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


def _log_gap(w: np.ndarray) -> np.ndarray:
    """``log(1 - e^-w)`` for an array ``w >= 0``: by ``expm1`` up to ``w = ln 2``, ``log1p`` beyond.

    Both branches cost less than gathering each one's points; ``-inf`` at 0.
    """
    with np.errstate(divide="ignore"):
        return np.where(w <= _LN2, np.log(-np.expm1(-w)), np.log1p(-np.exp(-w)))


def mg_profile(w, m_shape):
    """Peak-relative density profile ``1 - (1 - e^-w)^M`` for ``w >= 0``.

    Accepts scalars or arrays.  The closed form is evaluated through
    ``(1 - e^-w)^M = exp(M log(1 - e^-w))`` (`_log_gap`), so it keeps full
    relative precision near the peak and in the tail, ``~ M e^-w``, until
    ``e^-w`` leaves the normal float range (``w`` ~ 708).
    """
    shape = ShapeParam.of(m_shape)
    w = np.asarray(w, dtype=float)
    out = np.exp(-w) if _gaussian(shape) else -np.expm1(shape.value * _log_gap(w))
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


def _log_profile(w: np.ndarray, shape: ShapeParam) -> np.ndarray:
    """``log f(w)`` for an array ``w >= 0``.

    The log of `mg_profile` wherever ``f`` is a normal float.  Where ``M
    e^-w`` falls below the smallest normal float (before `_LOG_TAIL_SWITCH`
    only for ``M < e^-8.4``), ``f = -M log(1 - e^-w)`` to double precision,
    so ``log f = log M + log(-log(1 - e^-w))`` (`_log_gap`); beyond the
    switch, where ``e^-w`` itself leaves the normal range, ``log M - w``.
    """
    with np.errstate(divide="ignore"):  # the profile underflows to 0: -inf
        out = np.log(mg_profile(w, shape))
    far = w > min(_LOG_TAIL_SWITCH, math.log(shape.value) - _LOG_TINY)
    if far.any():
        wf = w[far]
        with np.errstate(divide="ignore"):  # -log(1 - e^-w) is 0 from w ~ 745
            log_scaled = np.where(wf > _LOG_TAIL_SWITCH, -wf, np.log(-_log_gap(wf)))
        out[far] = np.log(shape.value) + log_scaled  # log M + log(f / M)
    return out


#: Nodes per unit of ``u`` and left end of the Mellin rule (`_mellin_nodes`).
_MELLIN_NODES_PER_UNIT = 20
_MELLIN_LEFT = -5.0

#: The rule ends where ``log t`` reaches this: the profile is below ``M e^-1000``.
_MELLIN_LOG_REACH = 7.0

#: Largest order, and largest fractional shape, that the Mellin rule serves:
#: it is checked against 40-digit references at orders up to 5 (``N <= 10``),
#: and it holds 3e-15 at ``M = 256.5`` but loses digits from ``M`` ~ 300.
#: Higher orders keep `series_s`, whose terms fall like ``m^-alpha``.
_MELLIN_MAX_ORDER = 5.0
_MELLIN_MAX_SHAPE = 128.0


def _mellin_nodes():
    """Nodes of the rule of ``int_0^inf t^(a-1) f(t) dt``: ``log t``, weights, ``log(1 - e^-t)``.

    The double-exponential substitution ``t = exp((pi/2) sinh u)`` (Takahasi
    & Mori 1974) makes the integrand decay doubly exponentially at both ends
    for every ``M > 0``, so the trapezoidal rule in ``u`` converges
    geometrically (Trefethen & Weideman 2014).  The nodes are ``u = -5 +
    k/20`` while ``log t < 7``: 144 of them, ``t`` from 2.4e-51 to 774.  The
    weight is ``dt/du / t`` times the step, so that a term is ``t^a w f(t)``.
    ``log(1 - e^-t)`` is `mg_profile`'s `_log_gap`, so that ``-expm1(M
    log(1 - e^-t))`` gives its bits.  The arrays are read-only.
    """
    # every k below this count puts u short of the reach's asinh(2 * 7 / pi)
    count = math.ceil((math.asinh(2.0 * _MELLIN_LOG_REACH / math.pi) - _MELLIN_LEFT)
                      * _MELLIN_NODES_PER_UNIT)
    u = _MELLIN_LEFT + np.arange(count) / _MELLIN_NODES_PER_UNIT
    log_t = 0.5 * math.pi * np.sinh(u)
    weights = 0.5 * math.pi * np.cosh(u) / _MELLIN_NODES_PER_UNIT
    log_gap = _log_gap(np.exp(log_t))
    for arr in (log_t, weights, log_gap):
        arr.setflags(write=False)
    return log_t, weights, log_gap


_MELLIN_LOG_T, _MELLIN_WEIGHTS, _MELLIN_LOG_GAP = _mellin_nodes()


def _mellin_rule(alpha: float, v: float) -> SeriesResult:
    """``S(alpha; M) = Gamma(alpha)^-1 int_0^inf t^(alpha-1) f(t) dt`` on the fixed nodes.

    Every term is positive, so the correctly rounded ``fsum`` loses nothing
    to cancellation, and ``1/Gamma(alpha)`` is one last rounding: within
    5e-16 relative of 40-digit mpmath for ``M`` from 1e-9 to 128 at orders
    0.5 to 5.
    """
    terms = np.exp(alpha * _MELLIN_LOG_T) * _MELLIN_WEIGHTS * -np.expm1(v * _MELLIN_LOG_GAP)
    return SeriesResult(math.fsum(terms.tolist()) / math.gamma(alpha), terms.size, 1.0,
                        TruncationFlag.TOLERANCE_MET)


def _normalization(alpha: float, shape: ShapeParam, what: str,
                   exact_limit: int = EXACT_COEFF_LIMIT) -> SeriesResult:
    """``S(alpha; M)`` for ``alpha > 0``, checked to have kept its digits and to be positive.

    A fractional shape up to ``M = 128`` at an order up to 5 takes the
    Mellin rule (`_mellin_rule`), with 144 positive terms, condition number
    1 and ``TOLERANCE_MET``; a larger fractional shape raises
    `SeriesNotConverged` there.  Integer shapes keep the exact series, and
    higher orders, where the series converges like ``m^-alpha``, the
    truncated one (`series_s`): either raises `SeriesNotConverged` for a
    ``CAP_HIT`` result or one that `check_normalization` rejects.  Raises
    ``ValueError`` unless the value is positive.
    """
    if shape.is_integer or alpha > _MELLIN_MAX_ORDER:
        res = series_s(alpha, shape)
        if res.truncation_flag is TruncationFlag.CAP_HIT:
            raise SeriesNotConverged(f"{what} did not converge for M={shape.value} "
                                     f"(condition number {res.condition_number:.3g})")
        check_normalization(res, alpha, shape, what, exact_limit=exact_limit)
    elif shape.value > _MELLIN_MAX_SHAPE:
        raise SeriesNotConverged(f"{what} is out of reach for fractional M={shape.value} "
                                 f"(above {_MELLIN_MAX_SHAPE:g})")
    else:
        res = _mellin_rule(alpha, shape.value)
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


def _jacobi_rule(n: int, b: float):
    """Nodes ``v_j`` and weights ``w_j`` of the ``n``-point Gauss rule of ``v^b`` on [0, 1].

    Golub & Welsch (1969): the eigenvalues and the squared first eigenvector
    components of the Jacobi matrix of ``P_k^(0,b)``.  ``sum_j w_j g(v_j)``
    approximates ``(b + 1) int_0^1 v^b g(v) dv``: the weights sum to 1.
    """
    k = np.arange(n, dtype=float)
    ab = 2.0 * k + b
    off = 2.0 * k[1:] * (k[1:] + b) / (ab[1:] * np.sqrt(ab[1:] ** 2 - 1.0))
    x, vec = np.linalg.eigh(np.diag(b * b / (ab * (ab + 2.0))) + np.diag(off, -1))
    return 0.5 * (1.0 + x), vec[0] ** 2


def _log_phi(y: np.ndarray) -> np.ndarray:
    """``log phi(y)`` with ``phi(y) = (1 - e^-y)/y``, smooth, in ``(0, 1]``, ``phi(0) = 1``."""
    safe = np.where(y > 0.0, y, 1.0)
    return np.where(y > 0.0, np.log(-np.expm1(-safe) / safe), 0.0)


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
        self._gj_nodes, self._gj_weights = _jacobi_rule(_GJ_ORDER, 2.0 * shape.value + (dim - 1))
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

        The profile is ``1 - (x v^2)^M phi(x v^2)^M`` at ``s = au v``, ``x =
        au^2/2``; with the Gauss-Jacobi rule of weight ``v^(2M+N-1)`` the
        integral is ``au^N/(2M+N) [(2M - N expm1(M log x))/N - x^M sum_j w_j
        expm1(M log phi_j)]``, two positive terms however small ``M``.
        """
        v, dim = self._shape.value, self._dim
        x = 0.5 * au * au
        with np.errstate(divide="ignore"):  # log 0 = -inf gives x^M = 0
            m_log_x = v * np.log(x)
        terms = np.expm1(v * _log_phi(x[:, None] * self._gj_nodes ** 2)) * self._gj_weights
        psi = np.exp(m_log_x) * terms.sum(axis=1)
        core = (2.0 * v - dim * np.expm1(m_log_x)) / dim - psi
        return au / (2.0 * v + dim) * core * (au / self._unit) ** (dim - 1)

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

    def held_tails(self, band_radii: np.ndarray):
        """`smaller_tail` at ``band_radii`` in the mode band, then at the
        panel edges inside the reach, returned with those radii.

        The band's masses are closed forms (`_band_integral`) and the edges'
        are the ones the table accumulated, so no panel is integrated.
        """
        scale = 2.0 * self._scale
        r = np.concatenate((band_radii, _CDF_EDGES[1:-1]))
        below = np.concatenate((self._band_integral(band_radii), self._head[1:-1])) * scale
        above = np.concatenate((1.0 - below[:band_radii.size], self._tail[1:-1] * scale))
        upper = below > 0.5
        return r, np.where(upper, above, below), upper

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
        v, band = self._shape.value, edges[1]
        sj = band * self._gj_nodes
        x = 0.5 * band * band
        hj = (-band * x ** v / (2.0 * v + 1.0) * self._gj_weights
              * np.exp(v * _log_phi(x * self._gj_nodes ** 2) + 0.5 * sj * sj))
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
_SCORE_REACH = float(_log_tail_score(np.array([0.5 * math.erfc(8.5 * math.sqrt(0.5))]))[0])

#: Radii of the mode band at which the inverse's first radii are placed,
#: besides the panel edges: geometric, as the lower tail is a power law in r.
_BAND_RADII = np.geomspace(1e-30, _CDF_BAND, 100, endpoint=False)

#: Gauss-Legendre rule that carries a tail over the first Newton step.
_STEP_NODES, _STEP_WEIGHTS = _legendre_rule((
    (0.33998104358485626, 0.6521451548625464),
    (0.8611363115940526, 0.34785484513745357),
))


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
    s, slope = _score_slope(table, r, *table.smaller_tail(r))
    return (s - score) * slope, slope


def _score_slope(table: _CdfTable, r: np.ndarray, tail: np.ndarray, upper: np.ndarray):
    """Radial score at ``r`` and its ``d log r / d score`` (see `_score_step`),
    from the tail ``tail`` at ``r``, an upper tail where ``upper``.

    Either tail may be passed, even past the median: the score is odd about
    ``p = 1/2`` and its slope is symmetric in ``p`` and ``1 - p``.
    """
    a, b = _tail_roots(tail)
    s = np.subtract(a, b)
    np.negative(s, out=s, where=~upper)
    pa = tail * a
    return s, pa / (r * table.density(r) * (1.0 + pa / ((1.0 - tail) * b)))


def _hermite_pieces(x: np.ndarray, y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Cubic Hermite pieces of the nodes ``(x, y)`` with slopes ``d``.

    Row ``j`` of the result is ``c_j`` of each piece's
    ``((c0 t + c1) t + c2) t + c3`` in ``t = x - x_k`` over ``[x_k, x_k+1]``.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


class _RadialInverse:
    """Inverse of a table's radial CDF: the radius at a log-tail score.

    The score is `_radial_score`, ``sqrt(-2 log p) - sqrt(-2 log(1 - p))``
    of the smaller tail ``p``, negated below the median, so both tails keep
    their relative precision and no draw needs the Gaussian quantile.  The
    inverse is the cubic Hermite interpolant of ``r`` on a uniform grid of
    `_INVERSE_NODES` scores over ``|score| <= 8.854`` (`_SCORE_REACH`, the
    radii of the Gaussian scores ``|z| <= 8.5``).  The first radius of each
    grid score comes from masses the table already holds
    (`_CdfTable.held_tails`, at `_BAND_RADII` and the panel edges): a cubic
    Hermite interpolant of ``log r`` in the score, with the slopes of the
    density, within ~1e-3 in ``log r``.  One pass of the table there gives
    the first Newton step in ``log r`` (that of `_score_step`); the tail is
    carried over that short step by a 4-point Gauss-Legendre rule of the
    density, and gives the second step, of at most ~2e-7, and the slope at
    its start each node's derivative ``dr / d score``.  So the cubic's
    error falls as the fourth power of the spacing: within ~1.3e-8 of the
    radius.  Immutable.
    """

    def __init__(self, table: _CdfTable):
        held, tail, upper = table.held_tails(_BAND_RADII)
        with np.errstate(divide="ignore", invalid="ignore"):  # a mass of 0 has no score
            sc, slope = _score_slope(table, held, tail, upper)
        keep = np.isfinite(sc) & np.isfinite(slope)
        # from M ~ 1e-296 down the band's masses underflow to repeated values:
        # a knot's score must pass every score before it
        keep[1:] &= sc[1:] > np.maximum.accumulate(np.where(keep, sc, -np.inf))[:-1]
        sc = sc[keep]
        grid = np.linspace(max(sc[0], -_SCORE_REACH), min(sc[-1], _SCORE_REACH),
                           _INVERSE_NODES)
        start = _hermite_pieces(sc, np.log(held[keep]), slope[keep])
        k = np.clip(sc.searchsorted(grid, side="right") - 1, 0, sc.size - 2)
        t = grid - sc[k]
        log_r = ((start[0, k] * t + start[1, k]) * t + start[2, k]) * t + start[3, k]
        # one pass of the table and one Newton step
        r = np.exp(log_r)
        tail, upper = table.smaller_tail(r)
        score, slope = _score_slope(table, r, tail, upper)
        log_r -= (score - grid) * slope
        # the last step from the tail carried over the first one
        step_r = np.exp(log_r)
        half = 0.5 * (step_r - r)
        nodes = (r + half)[:, None] + half[:, None] * _STEP_NODES
        mass = half * (table.density(nodes) @ _STEP_WEIGHTS)
        tail += np.where(upper, -mass, mass)
        score, slope = _score_slope(table, step_r, tail, upper)
        log_r -= (score - grid) * slope
        r = np.exp(log_r)
        self.grid = grid
        # node slopes dr/dscore
        self._coeffs = _hermite_pieces(grid, r, r * slope)

    def radius(self, values: np.ndarray, tail: bool = False, out: np.ndarray | None = None):
        """Radius at each of the 1-D array's scores, clipped to the grid.

        With ``tail`` the values are upper tails ``P(R > r)`` instead, and
        each block's `_log_tail_score` is computed in the block, so no array
        of scores as long as the input is made; ``out`` may then be the
        input itself.  The grid is uniform, so the cubic piece holding each
        score is found by arithmetic rather than by binary search.  The
        values are taken in blocks of `_RADIUS_BLOCK`, so the temporaries
        stay small and cached.  The pieces are gathered by ``take`` in its
        ``clip`` mode, which checks no bound and maps the grid's last score
        to the last piece.
        """
        grid, coeffs = self.grid, self._coeffs
        knots = grid[:-1]
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
            # the Horner sum ((c0 t + c1) t + c2) t + c3 in place, on rows gathered by take
            t -= knots.take(k, out=row, mode="clip")
            res = coeffs[0].take(k, out=out[start:start + _RADIUS_BLOCK], mode="clip")
            for c in coeffs[1:]:
                res *= t
                res += c.take(k, out=row, mode="clip")
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
        """Normalization constant ``S(1/2; M)``.

        The exact series at integer ``M``; at fractional ``M`` up to 128 the
        Mellin rule (`_mellin_rule`), within 5e-16 relative.
        """
        return self._c0_result.value

    @property
    def c0_result(self) -> SeriesResult:
        """How :attr:`c0` was taken, as a `SeriesResult`.

        At integer ``M`` the metadata of the exact series (``EXACT``, with
        its condition number).  At fractional ``M`` that of the Mellin rule:
        ``terms_used`` is its 144 nodes, the condition number 1 (every term
        is positive) and the flag ``TOLERANCE_MET``.
        """
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
        # past the float range w is inf: density 0; a subnormal or zero
        # normalization gives inf, or NaN where the profile underflows too
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            u = (x - self._mu) / self._sigma
            w = 0.5 * u * u
            out = np.divide(mg_profile(w, self._shape), self.c0 * _SQRT_2PI * self._sigma)
        return float(out) if x.ndim == 0 else out

    def logpdf(self, x):
        """Log-density, finite for every finite ``x``.

        `_log_profile` at ``w = (x - mu)^2 / (2 sigma^2)`` (``log M - w``
        beyond ~37 sigma, and ``log M + log(-log(1 - e^-w))`` where ``f``
        underflows short of that at a tiny ``M``), less the log of the
        normalization.
        """
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # past the float range w is inf: -inf
            u = (x - self._mu) / self._sigma
            w = np.atleast_1d(0.5 * u * u)
        out = _log_profile(w, self._shape) - math.log(self.c0 * _SQRT_2PI * self._sigma)
        return float(out[0]) if x.ndim == 0 else out

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
        floating range, the out-of-domain signal for extreme ``t``.  Within
        1e-14 relative for ``M >= 0.025``; below, the mode band cancels (as in
        `cf`): 1.8e-14 at ``M = 1e-3``, 2.9e-11 at 1e-6, 4.0e-8 at 1e-9.  A
        scalar gives a ``float`` with the bits of the array element; ``mgf(0) = 1``.
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
        for b in sorted(set(bound[~np.isnan(bound)].tolist())):
            keep, pick = s <= b, bound == b
            near[pick] = _rule_sum(a[pick], s[keep], h[keep],
                                   lambda p, s: 0.5 * (np.exp(-0.5 * (s - p) ** 2)
                                                       + np.exp(-0.5 * (s + p) ** 2)))
        # the mirror term erfc((reach + a)/sqrt(2)) underflows to 0 for every a >= 0
        far = np.array([math.erfc(z) for z in (_CDF_REACH - a) / math.sqrt(2.0)])
        return near + self._shape.value * math.sqrt(math.pi / 8.0) * far

    def cf(self, omega):
        """Characteristic function ``E[e^(i omega X)]`` at a scalar or an array.

        ``e^(i omega mu) E[cos(sigma omega U)]``, the expectation by the
        table's rule cut where at most 1e-17 of the mass lies beyond.  Above
        ``|sigma omega| = 16`` every panel and the mode band are split into
        ``ceil(|sigma omega| / 16)`` pieces to resolve the oscillation;
        beyond ``|sigma omega| = 1e4`` it raises ``ValueError``.  Absolute
        error below 1e-14 for ``M >= 0.025`` (~1e-16 from ``M = 0.1``).
        Below, the mode band's split ``1 - psi`` cancels and loses about
        ``log10(1/M)`` digits: 3e-14 at ``M = 0.01``, 2.7e-14 at 1e-3,
        3.2e-11 at 1e-6, 5.3e-8 at 1e-9.  A scalar gives a ``complex`` with the bits of
        the array element; ``cf(0) = 1``.
        """
        omega = np.asarray(omega, dtype=float)
        w = np.atleast_1d(omega).ravel()
        a = np.abs(self._sigma * w)
        if (a > _CF_REACH).any():
            raise ValueError(f"|sigma omega| must not exceed {_CF_REACH:g}, got {a.max()!r}")
        parts = np.ceil(np.maximum(a, 1.0) / _CF_PANEL_FREQ)
        r = np.full_like(a, np.nan)
        table = self._cdf_table
        for k in sorted(set(parts[~np.isnan(a)].tolist())):
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
        identical output.  A draw beyond the float range is ``-inf`` or
        ``inf``, with no warning.
        """
        x = _radial_draw(n, rng, 1, None if _gaussian(self._shape) else self._inverse)[:, 0]
        with np.errstate(over="ignore"):
            x *= self._sigma
            x += self._mu
        return x
