"""Alternating binomial series engine with compensated or correctly rounded summation.

Every normalization constant and moment coefficient in this package is a sum
of the form

    S(alpha; M) = sum_{m >= 1} C(M, m) (-1)^(m-1) m^(-alpha),

where ``C(M, m) = (M)_m / m!`` is the generalized binomial coefficient built
from the falling factorial ``(M)_m = M (M-1) ... (M-m+1)``.  Two numerical
hazards live here:

* For integer ``M`` the sum is finite (``m = 1..M``) but violently
  cancellation-prone: at ``M = 40`` the terms reach ``~1.4e11`` while the sum
  is ``O(1)``, so naive accumulation loses about eleven digits.  Terms are
  therefore formed as double-double products of the (exactly representable)
  binomial coefficient and a double-double reciprocal root, and accumulated
  with Neumaier summation.  The result stays accurate to a few ulp.

* For non-integer ``M`` the series is infinite with terms decaying like
  ``m^(-M-1-alpha)`` - much too slow to truncate at a few thousand terms when
  ``M`` is small.  After the truncated partial sum, the remaining tail is in
  the constant-sign asymptotic regime and is completed analytically through
  Hurwitz zeta functions, which restores near machine precision at the
  default cap of 2000 terms.  The terms are formed in numpy, a block of up
  to 2048 at a time, and the kept terms and the tail are summed with the
  correctly rounded ``math.fsum`` (no Neumaier summation on this path).

The condition number ``sum |t_m| / |sum t_m|`` of every evaluation is
reported so callers can judge how many digits survived the cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

__all__ = [
    "INTEGER_DETECTION_TOL",
    "ShapeParam",
    "TruncationPolicy",
    "TruncationFlag",
    "SeriesResult",
    "SeriesNotConverged",
    "DEFAULT_POLICY",
    "binom_coeff",
    "check_normalization",
    "series_s",
    "series_tail",
    "signed_coeffs",
    "xi_coeff",
]

#: Distance from the nearest integer below which a shape parameter is treated
#: as integer.  Deliberately documented rather than silent: M = 2 + 1e-13 is
#: an integer here, M = 2.0000000000001 is fractional.
INTEGER_DETECTION_TOL = 1e-12


class TruncationFlag(Enum):
    """How a series evaluation terminated."""

    #: Finite sum of an integer shape parameter; no truncation at all.
    EXACT = "exact"
    #: The remaining error estimate dropped below the policy tolerance.
    TOLERANCE_MET = "tolerance_met"
    #: The term cap was reached and the result may not be converged.
    CAP_HIT = "cap_hit"


class SeriesNotConverged(ArithmeticError):
    """A truncated series did not converge well enough to be trusted."""


@dataclass(frozen=True)
class ShapeParam:
    """Validated shape parameter M > 0 with integer/fractional classification.

    ``is_integer`` is derived during construction: true iff ``value`` lies
    within ``INTEGER_DETECTION_TOL`` of a positive integer.  Integer shapes
    make every coefficient series terminate exactly at ``m = round(value)``.
    """

    value: float
    is_integer: bool = field(init=False)

    def __post_init__(self):
        v = float(self.value)
        if not math.isfinite(v) or v <= 0.0:
            raise ValueError(f"shape parameter must be a positive finite real, got {self.value!r}")
        nearest = round(v)
        object.__setattr__(self, "value", v)
        object.__setattr__(
            self, "is_integer", nearest >= 1 and abs(v - nearest) <= INTEGER_DETECTION_TOL
        )

    @property
    def int_value(self) -> int:
        """The integer value of an integer shape (raises otherwise)."""
        if not self.is_integer:
            raise ValueError(f"shape {self.value} is not integer")
        return round(self.value)

    @classmethod
    def of(cls, m) -> "ShapeParam":
        """Coerce a float or an existing ``ShapeParam``."""
        if isinstance(m, ShapeParam):
            return m
        return cls(float(m))


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls series length for fractional shape parameters.

    Ignored for integer shapes, where the sum is exact and finite.  The
    defaults (stop below ``1e-14`` absolute, cap at 2000 terms, never stop
    before 10 terms so the sign pattern has settled) are suitable for every
    operation in the package.
    """

    eps_abs: float = 1e-14
    max_terms: int = 2000
    min_terms: int = 10

    def __post_init__(self):
        if not (self.eps_abs >= 0.0 and math.isfinite(self.eps_abs)):
            raise ValueError(f"eps_abs must be non-negative and finite, got {self.eps_abs!r}")
        if not (isinstance(self.max_terms, int) and self.max_terms >= 1):
            raise ValueError(f"max_terms must be a positive integer, got {self.max_terms!r}")
        if not (isinstance(self.min_terms, int) and self.min_terms >= 1):
            raise ValueError(f"min_terms must be a positive integer, got {self.min_terms!r}")
        if self.min_terms > self.max_terms:
            raise ValueError(
                f"min_terms ({self.min_terms}) must not exceed max_terms ({self.max_terms})"
            )


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class SeriesResult:
    """Value of an alternating series plus numerical-quality metadata.

    ``condition_number`` is ``sum |t_m| / |value|`` (>= 1 unless the value is
    zero); roughly ``log10(condition_number)`` digits were lost to
    cancellation.  ``truncation_flag`` is ``EXACT`` for integer shapes,
    ``TOLERANCE_MET`` when the remaining-error estimate (including the
    analytic tail completion) is below the policy tolerance, and ``CAP_HIT``
    when the result is genuinely unconverged and should not be trusted.
    """

    value: float
    terms_used: int
    condition_number: float
    truncation_flag: TruncationFlag


# ---------------------------------------------------------------------------
# double-double building blocks
#
# Error-free transformations (Dekker/Veltkamp products, Neumaier sums).  A
# "double-double" is an unevaluated pair (hi, lo) with |lo| <= ulp(hi)/2,
# carrying ~32 significant digits.  Only used for integer-shape sums, where
# the binomial coefficients are exact and cancellation is severe.
# ---------------------------------------------------------------------------

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitter


def _two_prod(a: float, b: float):
    """Return (p, e) with p = fl(a*b) and p + e = a*b exactly."""
    p = a * b
    aa = _SPLIT * a
    ahi = aa - (aa - a)
    alo = a - ahi
    bb = _SPLIT * b
    bhi = bb - (bb - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def _recip_sqrt_dd(m: int):
    """1/sqrt(m) as a double-double, via one Newton step in exact arithmetic."""
    r = 1.0 / math.sqrt(m)
    p, pe = _two_prod(r, r)
    q, qe = _two_prod(p, float(m))
    e = (1.0 - q) - (qe + pe * m)
    return r, 0.5 * r * e


def _recip_dd(d: float):
    """1/d as a double-double."""
    q = 1.0 / d
    p, pe = _two_prod(q, d)
    e = (1.0 - p) - pe
    return q, e * q


def _dd_mul_f(hi: float, lo: float, f: float):
    """(hi + lo) * f as a double-double; f need not be exact."""
    p, pe = _two_prod(hi, f)
    return p, pe + lo * f


def _dd_div_f(hi: float, lo: float, d: float):
    """(hi + lo) / d as a double-double."""
    q1 = hi / d
    p, pe = _two_prod(q1, d)
    r = ((hi - p) - pe) + lo
    return q1, r / d


class _Neumaier:
    """Compensated accumulator (Neumaier's improved Kahan summation)."""

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float) -> None:
        t = self.s + x
        if abs(self.s) >= abs(x):
            self.c += (self.s - t) + x
        else:
            self.c += (x - t) + self.s
        self.s = t

    def total(self) -> float:
        return self.s + self.c


# ---------------------------------------------------------------------------
# binomial coefficients
# ---------------------------------------------------------------------------

def binom_coeff(m_shape, m: int) -> float:
    """Generalized binomial coefficient ``(M)_m / m!``.

    Computed by the incremental ratio ``b_m = b_{m-1} (M - m + 1) / m`` so no
    intermediate factorial can overflow, even at ``m = 10000``.  For integer
    shapes the result is exact whenever it is exactly representable (so up to
    at least ``M = 40``) and exactly ``0.0`` for ``m > M``.
    """
    shape = ShapeParam.of(m_shape)
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if shape.is_integer:
        mi = shape.int_value
        if m > mi:
            return 0.0
        v = float(mi)
    else:
        v = shape.value
    b = 1.0
    for i in range(1, m + 1):
        b = b * (v - i + 1) / i
    return b


def signed_coeffs(m_shape, n: int) -> np.ndarray:
    """Array of ``C(M, m) (-1)^(m-1)`` for ``m = 1..n``.

    For integer shapes the array is truncated at ``m = M`` (later entries
    would be exact zeros).  Fractional coefficients come from a cumulative
    product of ratios, adequate for the weighted sums they feed.
    """
    shape = ShapeParam.of(m_shape)
    if n < 1:
        raise ValueError("n must be >= 1")
    if shape.is_integer:
        mi = shape.int_value
        n = min(n, mi)
        out = np.empty(n)
        b = 1.0
        v = float(mi)
        for m in range(1, n + 1):
            b = b * (v - m + 1) / m
            out[m - 1] = b if (m % 2 == 1) else -b
        return out
    ms = np.arange(1.0, n + 1.0)
    ratios = (shape.value - ms + 1.0) / ms
    coeffs = np.cumprod(ratios)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return coeffs * signs


# ---------------------------------------------------------------------------
# tail completion for fractional shapes
# ---------------------------------------------------------------------------

def _tail_coeffs(v: float):
    """Coefficients of the large-m expansion of Gamma(m-M)/Gamma(m+1) * m^(M+1).

    From the Stirling series of ``log Gamma``:
        log rho(m) = p1/m + p2/m^2 + p3/m^3 + p4/m^4 + O(m^-5),
    exponentiated to ``rho(m) = 1 + c1/m + ... + c4/m^4 + O(m^-5)``.
    """
    p1 = v * (v + 1.0) / 2.0
    p2 = v * (v + 1.0) * (2.0 * v + 1.0) / 12.0
    p3 = (v * (v + 1.0)) ** 2 / 12.0
    p4 = v * (6.0 * v**4 + 15.0 * v**3 + 10.0 * v**2 - 1.0) / 120.0
    c1 = p1
    c2 = p2 + p1 * p1 / 2.0
    c3 = p3 + p1 * p2 + p1**3 / 6.0
    c4 = p4 + p1 * p3 + p2 * p2 / 2.0 + p1 * p1 * p2 / 2.0 + p1**4 / 24.0
    return 1.0, c1, c2, c3, c4


def series_tail(alpha: float, m_shape, n_summed: int):
    """Analytic completion of ``sum_{m > n_summed} C(M,m)(-1)^(m-1) m^(-alpha)``.

    Returns ``(tail, residual_estimate)``.  Uses the reflection identity

        C(M, m) (-1)^(m-1) = M / Gamma(1-M) * Gamma(m-M) / Gamma(m+1),

    valid for non-integer M, so the tail is a constant-sign sum of smooth
    terms ``~ m^(-M-1-alpha)`` which reduces to Hurwitz zeta values after the
    asymptotic expansion of the Gamma ratio.  The residual estimate is the
    magnitude of the last retained correction; it bounds the truncation of
    the expansion itself.  Returns ``(0.0, 0.0)`` for integer shapes (no
    tail) and ``(0.0, inf)`` when the completion is not applicable (divergent
    exponent or too few summed terms) or leaves the float range.
    """
    shape = ShapeParam.of(m_shape)
    if shape.is_integer:
        return 0.0, 0.0
    v = shape.value
    s0 = v + 1.0 + alpha
    if s0 <= 1.0 + 1e-12 or n_summed < max(10.0, v + 2.0):
        return 0.0, math.inf
    try:
        gamma = math.gamma(1.0 - v)
    except (OverflowError, ValueError):
        # Gamma overflow means the tail terms underflow long before n_summed.
        return 0.0, 0.0
    if gamma == 0.0:
        # underflow (M beyond ~170): the reflection constant is out of range
        return 0.0, math.inf
    kappa = v / gamma
    cs = _tail_coeffs(v)
    zs = _hurwitz_zeta(s0 + np.arange(5.0), n_summed + 1.0)
    if not np.all(np.isfinite(zs)):
        return 0.0, math.inf
    # float arithmetic, which overflows to inf or nan without a warning
    tail = kappa * float(np.dot(cs, zs))
    residual = abs(kappa * cs[4] * float(zs[4]))
    if not (math.isfinite(tail) and math.isfinite(residual)):
        # near M = 171 the reflection constant or the expansion leaves the float range
        return 0.0, math.inf
    return tail, residual


# ---------------------------------------------------------------------------
# the series itself
# ---------------------------------------------------------------------------

def _half_integer_order(alpha: float):
    """Return integer j >= 0 with alpha = j + 1/2, or None."""
    j = round(alpha - 0.5)
    if j >= 0 and abs(alpha - (j + 0.5)) <= 1e-12:
        return j
    return None


def _integer_order(alpha: float):
    j = round(alpha)
    if j >= 0 and abs(alpha - j) <= 1e-12:
        return j
    return None


def _series_integer(alpha: float, shape: ShapeParam) -> SeriesResult:
    mi = shape.int_value
    v = float(mi)
    acc = _Neumaier()
    abs_acc = _Neumaier()
    half = _half_integer_order(alpha)
    whole = _integer_order(alpha) if half is None else None
    b = 1.0
    for m in range(1, mi + 1):
        b = b * (v - m + 1) / m  # exact while representable
        sign = 1.0 if (m % 2 == 1) else -1.0
        if half is not None:
            hi, lo = _recip_sqrt_dd(m)
            hi, lo = _dd_mul_f(hi, lo, b)
            if half:
                hi, lo = _dd_div_f(hi, lo, float(m) ** half)
        elif whole is not None:
            if whole:
                hi, lo = _recip_dd(float(m) ** whole)
                hi, lo = _dd_mul_f(hi, lo, b)
            else:
                hi, lo = b, 0.0
        else:
            hi, lo = b * m ** (-alpha), 0.0
        acc.add(sign * hi)
        acc.add(sign * lo)
        abs_acc.add(abs(hi))
        abs_acc.add(abs(lo) if hi >= 0 else -abs(lo))
    value = acc.total()
    abs_sum = abs(abs_acc.total())
    cond = abs_sum / abs(value) if value != 0.0 else math.inf
    return SeriesResult(value, mi, max(cond, 1.0), TruncationFlag.EXACT)


#: Terms the fractional series forms per numpy pass after a first block
#: sized by `_first_block`.  Even, like the first, so every block starts at
#: an odd ``m``; the default cap of 2000 terms is at most two blocks.
_SERIES_BLOCK = 2048


def _first_block(alpha: float, v: float, policy: TruncationPolicy) -> int:
    """Terms of the fractional series' first block: even, at most `_SERIES_BLOCK`.

    Past ``m ~ M`` the terms decay like ``m^(-M-1-alpha) / |Gamma(-M)|``, so
    they fall below ``eps_abs`` near ``m = (eps_abs |Gamma(-M)|)^(-1/(M+1+alpha))``.
    The block holds twice that plus ``M + 16``, and at least ``min_terms``:
    where the terms decay fast the series stops inside it, and otherwise the
    next block continues the same product.
    """
    decay = v + 1.0 + alpha
    if policy.eps_abs <= 0.0 or decay <= 0.0:
        return _SERIES_BLOCK
    log_stop = -(math.log(policy.eps_abs) + math.lgamma(-v)) / decay
    if log_stop > math.log(_SERIES_BLOCK):
        return _SERIES_BLOCK
    size = max(2.0 * math.exp(log_stop) + v + 16.0, policy.min_terms)
    return min(_SERIES_BLOCK, 2 * math.ceil(size / 2.0))


def _series_fractional(alpha: float, shape: ShapeParam, policy: TruncationPolicy) -> SeriesResult:
    v = shape.value
    blocks = []
    b = 1.0
    terms_used = policy.max_terms
    met_in_loop = False
    start, size = 1, _first_block(alpha, v, policy)
    with np.errstate(all="ignore"):
        while start <= policy.max_terms:
            m = np.arange(start, min(start + size, policy.max_terms + 1), dtype=float)
            # the product of the ratios (v - m + 1)/m, continued from the last
            # block's b: the same bits as one product over every block
            coeffs = np.cumprod(np.concatenate(([b], (v - m + 1.0) / m)))[1:]
            terms = coeffs * m ** -alpha
            terms[1::2] = -terms[1::2]
            small = np.abs(terms) < policy.eps_abs
            small[:max(policy.min_terms - start, 0)] = False
            stop = int(small.argmax())
            if small[stop]:
                blocks.append(terms[:stop + 1])
                terms_used = start + stop
                met_in_loop = True
                break
            blocks.append(terms)
            b = float(coeffs[-1])
            if not math.isfinite(b):
                # every later term is non-finite too, so none can meet the tolerance
                break
            start, size = start + size, _SERIES_BLOCK
    terms = np.concatenate(blocks)
    tail, residual = series_tail(alpha, shape, terms_used)
    if np.isfinite(terms).all():
        try:
            value = math.fsum(terms.tolist() + [tail])
        except OverflowError:  # a partial sum beyond the float range
            value = math.nan
        # sum |t_m| only sets the condition number, so a plain sum serves, and
        # where every term has one sign it is |value|: condition number 1
        if (terms.min() >= 0.0 and tail >= 0.0) or (terms.max() <= 0.0 and tail <= 0.0):
            abs_sum = abs(value)
        else:
            abs_sum = float(np.abs(terms).sum()) + abs(tail)
    else:
        value = abs_sum = math.nan
    if math.isfinite(value) and (met_in_loop or residual < max(policy.eps_abs, 5e-16 * abs(value))):
        flag = TruncationFlag.TOLERANCE_MET
    else:
        flag = TruncationFlag.CAP_HIT
    cond = abs_sum / abs(value) if value != 0.0 else math.inf
    return SeriesResult(value, terms_used, max(cond, 1.0), flag)


def series_s(alpha: float, m_shape, policy: TruncationPolicy | None = None) -> SeriesResult:
    """Evaluate ``S(alpha; M) = sum_{m>=1} C(M,m) (-1)^(m-1) m^(-alpha)``.

    The family's normalization constant is ``S(1/2; M)`` and the n-th moment
    coefficient is ``S(n + 1/2; M)``.  Integer shapes give the exact finite
    sum (compensated, double-double terms for integer and half-integer
    ``alpha``); fractional shapes are truncated per ``policy`` and completed
    with the analytic Hurwitz-zeta tail.  The series converges only for
    ``alpha > -M``; outside that range the result carries ``CAP_HIT``.
    """
    shape = ShapeParam.of(m_shape)
    alpha = float(alpha)
    if policy is None:
        policy = DEFAULT_POLICY
    if shape.is_integer:
        return _series_integer(alpha, shape)
    return _series_fractional(alpha, shape, policy)


#: Largest integer shape whose binomial coefficients the incremental product
#: ``b (M - m + 1) / m`` forms exactly: from ``M = 55`` the intermediate
#: ``b (M - m + 1)`` passes ``2^53`` and rounds.
EXACT_COEFF_LIMIT = 54


def check_normalization(result: SeriesResult, shape: ShapeParam, what: str,
                        exact_limit: int = EXACT_COEFF_LIMIT) -> None:
    """Raise :class:`SeriesNotConverged` unless a normalization kept its digits.

    Integer shapes up to ``exact_limit`` sum exact double-double terms, so
    only their last rounding counts; any other shape loses about
    ``log10(condition_number)`` digits of plain float precision.  A value
    whose estimated relative error exceeds 1e-3, or that is not finite,
    retains no significant digits.
    """
    exact_terms = shape.is_integer and shape.int_value <= exact_limit
    err_floor = 1e-30 if exact_terms else 2e-16
    if not (math.isfinite(result.value)
            and result.condition_number * err_floor <= 1e-3):
        raise SeriesNotConverged(
            f"{what} for M={shape.value} retains no significant digits "
            f"(condition number {result.condition_number:.3g})"
        )


def xi_coeff(n: int, m_shape, policy: TruncationPolicy | None = None) -> float:
    """Moment coefficient ratio ``S(n + 1/2; M) / S(1/2; M)``.

    ``xi_0`` is identically 1.  Raises :class:`SeriesNotConverged` when
    either series reports ``CAP_HIT``.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    if n == 0:
        return 1.0
    shape = ShapeParam.of(m_shape)
    num = series_s(n + 0.5, shape, policy)
    den = series_s(0.5, shape, policy)
    for res, label in ((num, f"S({n}+1/2)"), (den, "S(1/2)")):
        if res.truncation_flag is TruncationFlag.CAP_HIT:
            raise SeriesNotConverged(
                f"{label} did not converge for M={shape.value} "
                f"(condition number {res.condition_number:.3g})"
            )
    return num.value / den.value
