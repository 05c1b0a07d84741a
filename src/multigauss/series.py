"""Alternating binomial series engine with exact or correctly rounded summation.

Every normalization constant and moment coefficient in this package is a sum
of the form

    S(alpha; M) = sum_{m >= 1} C(M, m) (-1)^(m-1) m^(-alpha),

where ``C(M, m) = (M)_m / m!`` is the generalized binomial coefficient built
from the falling factorial ``(M)_m = M (M-1) ... (M-m+1)``.  Two numerical
hazards live here:

* For integer ``M`` the sum is finite (``m = 1..M``) but violently
  cancellation-prone: at ``M = 40`` the terms reach ``~1.4e11`` while the sum
  is ``O(1)``, so naive accumulation loses about eleven digits.  So the
  terms, the exact products of the (exactly representable) binomial
  coefficients and ``m^(-alpha)`` to one unit of ``2^-160``, are summed
  exactly in Python integers as fixed point, and only the final quotient
  rounds: for ``2 alpha`` a non-negative integer the value is correctly
  rounded wherever the coefficients are exact (``M <= 54``).

* For non-integer ``M`` the series is infinite with terms decaying like
  ``m^(-M-1-alpha)`` - much too slow to truncate at a few thousand terms when
  ``M`` is small.  After the truncated partial sum, the remaining tail is in
  the constant-sign asymptotic regime and is completed analytically through
  Hurwitz zeta functions, which restores near machine precision at the
  default cap of 2000 terms.  The terms are formed in numpy, a block of up
  to 2048 at a time, and the kept terms and the tail are summed with the
  correctly rounded ``math.fsum``.

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
# binomial coefficients
# ---------------------------------------------------------------------------

#: Largest integer shape whose binomial coefficients the incremental product
#: ``b (M - m + 1) / m`` forms exactly: from ``M = 55`` the intermediate
#: ``b (M - m + 1)`` passes ``2^53`` and rounds.
EXACT_COEFF_LIMIT = 54


def _coeff_products(v: float, n: int) -> list[float]:
    """``(v)_m / m!`` for ``m = 1..n`` by the incremental product ``b_m = b_{m-1} (v - m + 1) / m``.

    No intermediate factorial can overflow, even at ``m = 10000``.  For an
    integer ``v`` up to `EXACT_COEFF_LIMIT` every product is exact.
    """
    out = []
    b = 1.0
    for m in range(1, n + 1):
        b = b * (v - m + 1) / m
        out.append(b)
    return out


def binom_coeff(m_shape, m: int) -> float:
    """Generalized binomial coefficient ``(M)_m / m!``.

    Computed by `_coeff_products`, so for integer shapes the result is exact
    up to ``M = EXACT_COEFF_LIMIT`` and exactly ``0.0`` for ``m > M``.
    """
    shape = ShapeParam.of(m_shape)
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if not shape.is_integer:
        return _coeff_products(shape.value, m)[-1]
    mi = shape.int_value
    return _coeff_products(float(mi), m)[-1] if m <= mi else 0.0


def signed_coeffs(m_shape, n: int) -> np.ndarray:
    """Array of ``C(M, m) (-1)^(m-1)`` for ``m = 1..n``.

    For integer shapes the array is truncated at ``m = M`` (later entries
    would be exact zeros) and holds the bits of `binom_coeff`.  Fractional
    coefficients come from a cumulative product of ratios, adequate for the
    weighted sums they feed.
    """
    shape = ShapeParam.of(m_shape)
    if n < 1:
        raise ValueError("n must be >= 1")
    if shape.is_integer:
        mi = shape.int_value
        out = np.array(_coeff_products(float(mi), min(n, mi)))
        out[1::2] = -out[1::2]
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

#: Fraction bits of the fixed-point integer sum of an integer-shape series.
_FIX_BITS = 160


def _series_integer(alpha: float, shape: ShapeParam) -> SeriesResult:
    """The finite sum of an integer shape in ``2^-_FIX_BITS`` fixed point, rounded once.

    ``m^-alpha`` is an integer square root where ``2 alpha`` is a
    non-negative integer and the float ``m ** -alpha`` otherwise.  A
    coefficient, power or sum beyond the float range, or a NaN order, gives NaN.
    """
    mi = shape.int_value
    k = 2.0 * alpha
    if k >= 0.0 and k.is_integer():
        # isqrt(floor(2^2F / m^k)) = floor(2^F m^-alpha); for m >= 2, m^(2F+1)
        # already exceeds 2^2F, which bounds the size of the power
        k = min(int(k), 2 * _FIX_BITS + 1)

        def power(m):
            return math.isqrt((1 << 2 * _FIX_BITS) // m ** k)
    else:
        def power(m):
            num, den = (m ** -alpha).as_integer_ratio()
            return (num << _FIX_BITS) // den
    total = abs_total = 0
    try:
        for m, b in enumerate(_coeff_products(float(mi), mi), 1):
            num, den = b.as_integer_ratio()
            term = num * power(m) // den
            total += term if m % 2 else -term
            abs_total += term  # every C(M, m) of an integer M is positive
        value = total / (1 << _FIX_BITS)
        cond = abs_total / abs(total) if total else math.inf
    except (OverflowError, ValueError):
        return SeriesResult(math.nan, mi, math.nan, TruncationFlag.EXACT)
    return SeriesResult(value, mi, cond, TruncationFlag.EXACT)


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
    coefficient is ``S(n + 1/2; M)``.  Integer shapes give the finite sum,
    taken exactly in fixed-point integers and rounded once (``m^(-alpha)``
    is exact to ``2^-160`` where ``2 alpha`` is a non-negative integer, and
    a rounded float otherwise); fractional shapes are truncated per
    ``policy`` and completed with the analytic Hurwitz-zeta tail.  The
    series converges only for ``alpha > -M``; outside that range the result
    carries ``CAP_HIT``.
    """
    shape = ShapeParam.of(m_shape)
    alpha = float(alpha)
    if policy is None:
        policy = DEFAULT_POLICY
    if shape.is_integer:
        return _series_integer(alpha, shape)
    return _series_fractional(alpha, shape, policy)


def check_normalization(result: SeriesResult, alpha: float, shape: ShapeParam, what: str,
                        exact_limit: int = EXACT_COEFF_LIMIT) -> None:
    """Raise :class:`SeriesNotConverged` unless ``result = S(alpha; M)`` kept its digits.

    Integer shapes up to ``exact_limit`` sum exact terms in fixed point at
    the orders where ``2 alpha`` is a non-negative integer, so only their
    last rounding counts; any other shape or order loses about
    ``log10(condition_number)`` digits of plain float precision.  A value
    whose estimated relative error exceeds 1e-3, or that is not finite,
    retains no significant digits.
    """
    k = 2.0 * alpha
    exact_terms = (shape.is_integer and shape.int_value <= exact_limit
                   and k >= 0.0 and k.is_integer())
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
    either series reports ``CAP_HIT`` or `check_normalization` rejects it.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    if n == 0:
        return 1.0
    shape = ShapeParam.of(m_shape)
    num = series_s(n + 0.5, shape, policy)
    den = series_s(0.5, shape, policy)
    for alpha, res, label in ((n + 0.5, num, f"S({n}+1/2)"), (0.5, den, "S(1/2)")):
        if res.truncation_flag is TruncationFlag.CAP_HIT:
            raise SeriesNotConverged(
                f"{label} did not converge for M={shape.value} "
                f"(condition number {res.condition_number:.3g})"
            )
        check_normalization(res, alpha, shape, label)
    return num.value / den.value
