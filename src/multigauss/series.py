"""Alternating binomial series engine with exact or correctly rounded summation.

The paper writes every normalization constant and moment coefficient as a
sum of the form

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
  rounded wherever the coefficients are exact (``M <= 54``).  Those powers
  ``floor(2^160 m^(-alpha))`` do not depend on ``M``: a small bounded cache
  keeps them for every shape, and the terms and sums are C-level passes
  (``map``/``sum``) over them.  The float coefficients pass the float
  range from ``M = 1021``, which gives NaN; from ``M = 1045``, where the
  central one is above ``e^720``, the NaN comes before any is formed, so
  it takes no time whatever ``M``.

* For non-integer ``M`` the series is infinite with terms decaying like
  ``m^(-M-1-alpha)`` - much too slow to truncate at a few thousand terms when
  ``M`` is small.  After the truncated partial sum, the remaining tail is in
  the constant-sign asymptotic regime and is completed analytically through
  Hurwitz zeta functions, which restores near machine precision at the
  default cap of 2000 terms.  The zeta values come from `_hurwitz_zeta`, in
  this module: direct terms, then the Euler-Maclaurin formula, so nothing
  here needs more than numpy.  The terms are formed in one numpy pass of
  the policy's ``max_terms``, and the kept terms and the tail are summed
  with the correctly rounded ``math.fsum``.

The constructors take the integer sums from here, and the fractional ones
above order 5 (``N > 10``), each only where `check_normalization`'s
estimated relative error is within 1e-13 and an integer ``M`` is at most
100; the Mellin rule of `multigauss.univariate` gives the rest, and
`multigauss.verify` checks it against this series.

The condition number ``sum |t_m| / |sum t_m|`` of every evaluation is
reported so callers can judge how many digits survived the cancellation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import repeat
from operator import floordiv, mul

import numpy as np

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
        # a subnormal M gives a subnormal constant, whose reciprocal overflows
        if not sys.float_info.min <= v < math.inf:
            raise ValueError("shape parameter must be a positive finite real of at least "
                             f"{sys.float_info.min!r}, the smallest normal float; "
                             f"got {self.value!r}")
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
    operation in the package.  All ``max_terms`` terms are formed in one
    numpy pass: work and memory grow with ``max_terms``.
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
    """``C(v, m)`` for ``m = 1..n`` of an integer ``v``: ``b_m = b_{m-1} (v - m + 1) / m``.

    No intermediate factorial can overflow.  Up to `EXACT_COEFF_LIMIT`
    every product is exact.
    """
    out = []
    b = 1.0
    for m in range(1, n + 1):
        b = b * (v - m + 1) / m
        out.append(b)
    return out


def _signed_products(v: float, n: int) -> np.ndarray:
    """``C(v, m) (-1)^(m-1)`` for ``m = 1..n`` of a fractional ``v``.

    The cumulative product of the ratios ``(v - (m - 1)) / m``, its signs
    flipped at even ``m``.  ``m - 1`` is exact, so the first is ``v``
    itself, where ``v - m + 1`` would cancel (to 0 at ``v = 1e-100``).
    """
    m = np.arange(1.0, n + 1.0)
    with np.errstate(all="ignore"):
        out = np.cumprod((v - (m - 1.0)) / m)
    out[1::2] = -out[1::2]
    return out


def binom_coeff(m_shape, m: int) -> float:
    """Generalized binomial coefficient ``(M)_m / m!``.

    Exact for integer shapes up to ``M = EXACT_COEFF_LIMIT``, and exactly
    ``0.0`` for ``m > M``.  A fractional shape's is the last of the ``m``
    `signed_coeffs`, its sign restored, so work and memory grow with ``m``.
    """
    shape = ShapeParam.of(m_shape)
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if not shape.is_integer:
        c = float(_signed_products(shape.value, m)[-1])
        return c if m % 2 else -c
    mi = shape.int_value
    return _coeff_products(float(mi), m)[-1] if m <= mi else 0.0


def signed_coeffs(m_shape, n: int) -> np.ndarray:
    """Array of ``C(M, m) (-1)^(m-1)`` for ``m = 1..n``.

    For integer shapes the array is truncated at ``m = M`` (later entries
    would be exact zeros).  Every entry holds the bits of `binom_coeff`,
    its sign applied.
    """
    shape = ShapeParam.of(m_shape)
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not shape.is_integer:
        return _signed_products(shape.value, n)
    mi = shape.int_value
    out = np.array(_coeff_products(float(mi), min(n, mi)))
    out[1::2] = -out[1::2]
    return out


# ---------------------------------------------------------------------------
# tail completion for fractional shapes
# ---------------------------------------------------------------------------

#: Bernoulli numbers ``B_2j`` for ``j = 1..14`` as (numerator, denominator).
_BERNOULLI_2J = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
                 (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
                 (-236364091, 2730), (8553103, 6), (-23749461029, 870))
#: The Euler-Maclaurin coefficients ``B_2j / (2j)!``, each rounded once.
_EM_COEFFS = tuple(num / (den * math.factorial(2 * j))
                   for j, (num, den) in enumerate(_BERNOULLI_2J, 1))


def _hurwitz_zeta(s: float, a: float, orders: int = 1) -> list[float]:
    """``zeta(s + i, a) = sum_{k >= 0} (a + k)^-(s + i)`` for ``i = 0..orders-1``.

    For ``s > 1`` and ``a >= 1``.  The first ``K`` terms are summed
    directly, until ``N = a + K`` passes ``s + orders + 19``; the rest is
    the Euler-Maclaurin formula at ``N`` (DLMF 2.10.1, as in DLMF 25.11(iii)):

        zeta(s, N) = N^(1-s) / (s-1) + N^-s / 2
                     + sum_j B_2j / (2j)! (s)_(2j-1) N^(1-s-2j),

    with ``(s)_k = s (s+1) ... (s+k-1)``.  Past ``N`` the corrections shrink
    by about ``(s + 2j)^2 / (2 pi N)^2`` each, so fewer than 14 reach 1e-18
    of the sum.  The orders share ``N``, one power each, one list of rising
    factorials (``(s+i)_k = (s)_(i+k) / (s)_i``) and one loop over the
    corrections, which stops once the top order's falls below 1e-18 of its
    integral term: each lower order's is smaller still.

    Where the terms fall below ``e^-45`` of the first within 128 terms past
    ``N`` (large ``s``), they alone are summed.  The work is so bounded
    whatever ``s``, and where even the bound ``a^-s (1 + a/(s-1))`` on the
    sum rounds to zero every order is zero at once.
    """
    if s * math.log(a) - math.log1p(a / (s - 1.0)) > 745.2:
        return [0.0] * orders
    top = s + (orders - 1)
    count = max(math.ceil(top + 20.0 - a), 0)
    # past `reach` terms each is below e^-45 of the first: their sum, relative
    # to the first, is under 1e-18 wherever the direct sum is taken
    reach = math.ceil(a * math.expm1(45.0 / s))
    direct = reach <= count + 128
    terms = reach if direct else count
    head = [0.0] * orders
    if terms:
        x = a + np.arange(float(terms))
        head = (x ** -(s + np.arange(float(orders)))[:, None]).sum(axis=1).tolist()
    if direct:
        return head
    n = a + count
    rising = [1.0]  # rising[k] = (s)_k
    for k in range(orders):
        rising.append(rising[-1] * (s + k))
    # the top order's correction j, over n^-top, is weights[j] rising[-1] / rising[orders - 1]
    bound = 1e-18 * n / (top - 1.0) * rising[-2]
    weights = []  # B_2j / (2j)! n^(1-2j)
    w = 1.0 / n
    for c in _EM_COEFFS:
        weights.append(c * w)
        if abs(weights[-1] * rising[-1]) <= bound:
            break
        k = len(rising) - 1
        rising.append(rising[-1] * (s + k))
        rising.append(rising[-1] * (s + k + 1.0))
        w /= n * n
    out = []
    for i, h in enumerate(head):
        sigma = s + i  # 1 - sigma is exact; 1 - s - i would round twice
        corr = sum(map(mul, weights, rising[i + 1::2])) / rising[i]
        out.append(h + n ** (1.0 - sigma) * (1.0 / (sigma - 1.0) + (0.5 + corr) / n))
    return out


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
    asymptotic expansion of the Gamma ratio.  The five zeta values come from
    one call of `_hurwitz_zeta`, this module's Euler-Maclaurin sum.  The
    residual estimate is the magnitude of the last retained correction; it
    bounds the truncation of the expansion itself.  Returns ``(0.0, 0.0)``
    for integer shapes (no tail) and ``(0.0, inf)`` when the completion is
    not applicable (divergent exponent or too few summed terms) or leaves
    the float range.
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
    zs = _hurwitz_zeta(s0, n_summed + 1.0, len(cs))
    # float arithmetic, which overflows to inf or nan without a warning
    tail = kappa * sum(map(mul, cs, zs))
    residual = abs(kappa * cs[4] * zs[4])
    if not (math.isfinite(tail) and math.isfinite(residual)):
        # near M = 171 the reflection constant or the expansion leaves the float range
        return 0.0, math.inf
    return tail, residual


# ---------------------------------------------------------------------------
# the series itself
# ---------------------------------------------------------------------------

#: Fraction bits of the fixed-point integer sum of an integer-shape series.
_FIX_BITS = 160

#: Natural log of the central coefficient ``C(M, M/2)`` above which the float
#: product of the coefficients is certain to reach ``inf`` (the float range
#: ends at ``e^709.8``): from ``M = 1045`` on.
_LOG_COEFF_LIMIT = 720.0


@lru_cache(maxsize=512)
def _fixed_power(m: int, k: int) -> int:
    """``floor(2^_FIX_BITS m^(-k/2))`` as ``isqrt(floor(2^(2 _FIX_BITS) / m^k))``.

    These do not depend on the shape, so a new ``M`` reuses those of every
    smaller one.  512 entries of ~140 bytes hold the orders ``k = 1..9`` up
    to ``m = 57``.
    """
    return math.isqrt((1 << 2 * _FIX_BITS) // m ** k)


def _coeffs_overflow(mi: int) -> bool:
    """Whether the float coefficients of the integer shape ``mi`` are certain to reach ``inf``.

    ``lgamma(M + 1) - 2 lgamma(M/2 + 1)`` is the log of the central
    coefficient, to within ``1/(2M)``.
    """
    try:
        return math.lgamma(mi + 1.0) - 2.0 * math.lgamma(mi / 2.0 + 1.0) > _LOG_COEFF_LIMIT
    except OverflowError:  # lgamma itself leaves the float range (M ~ 1e306)
        return True


def _series_integer(alpha: float, shape: ShapeParam) -> SeriesResult:
    """The finite sum of an integer shape in ``2^-_FIX_BITS`` fixed point, rounded once.

    ``m^-alpha`` is the cached `_fixed_power` where ``2 alpha`` is a
    non-negative integer and the float ``m ** -alpha`` otherwise.  A
    coefficient, power or sum beyond the float range, or a NaN order, gives
    NaN, and so does a shape whose coefficients would overflow, before any
    is formed.
    """
    mi = shape.int_value
    if _coeffs_overflow(mi):
        return SeriesResult(math.nan, mi, math.nan, TruncationFlag.EXACT)
    ms = range(1, mi + 1)
    k = 2.0 * alpha
    try:
        nums, dens = zip(*map(float.as_integer_ratio, _coeff_products(float(mi), mi)))
        if k >= 0.0 and k.is_integer():
            # for m >= 2, m^(2F+1) already exceeds 2^2F, which bounds the power
            powers = map(_fixed_power, ms, repeat(min(int(k), 2 * _FIX_BITS + 1)))
        else:
            powers = [(num << _FIX_BITS) // den
                      for num, den in map(float.as_integer_ratio, map(pow, ms, repeat(-alpha)))]
        # exact terms; every C(M, m) of an integer M is positive
        terms = list(map(floordiv, map(mul, nums, powers), dens))
        total = sum(terms[::2]) - sum(terms[1::2])
        value = total / (1 << _FIX_BITS)
        cond = sum(terms) / abs(total) if total else math.inf
    except (OverflowError, ValueError):
        return SeriesResult(math.nan, mi, math.nan, TruncationFlag.EXACT)
    return SeriesResult(value, mi, cond, TruncationFlag.EXACT)


def _series_fractional(alpha: float, shape: ShapeParam, policy: TruncationPolicy) -> SeriesResult:
    m = np.arange(1.0, policy.max_terms + 1.0)
    with np.errstate(all="ignore"):
        terms = _signed_products(shape.value, policy.max_terms) * m ** -alpha
        small = np.abs(terms) < policy.eps_abs
    small[:policy.min_terms - 1] = False
    stop = int(small.argmax())
    met = bool(small[stop])
    if met:
        terms = terms[:stop + 1]
    terms_used = terms.size
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
    if math.isfinite(value) and (met or residual < max(policy.eps_abs, 5e-16 * abs(value))):
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
                        exact_limit: int = EXACT_COEFF_LIMIT) -> float:
    """Raise :class:`SeriesNotConverged` unless ``result = S(alpha; M)`` kept its digits.

    A ``CAP_HIT`` result did not converge, and keeps none.  Integer shapes
    up to ``exact_limit`` sum exact terms in fixed point at the orders
    where ``2 alpha`` is a non-negative integer, so only their last
    rounding counts; any other shape or order loses about
    ``log10(condition_number)`` digits of plain float precision.  A value
    whose estimated relative error exceeds 1e-3, or that is not finite,
    retains no significant digits.  Returns that estimate, the condition
    number times 1e-30 for exact terms and 2e-16 otherwise.
    """
    if result.truncation_flag is TruncationFlag.CAP_HIT:
        raise SeriesNotConverged(f"{what} did not converge for M={shape.value} "
                                 f"(condition number {result.condition_number:.3g})")
    k = 2.0 * alpha
    exact_terms = (shape.is_integer and shape.int_value <= exact_limit
                   and k >= 0.0 and k.is_integer())
    err = result.condition_number * (1e-30 if exact_terms else 2e-16)
    if not (math.isfinite(result.value) and err <= 1e-3):
        raise SeriesNotConverged(
            f"{what} for M={shape.value} retains no significant digits "
            f"(condition number {result.condition_number:.3g})"
        )
    return err


def xi_coeff(n: int, m_shape, policy: TruncationPolicy | None = None) -> float:
    """Moment coefficient ratio ``S(n + 1/2; M) / S(1/2; M)``.

    ``xi_0`` is identically 1.  Raises :class:`SeriesNotConverged` when
    `check_normalization` rejects either series.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    if n == 0:
        return 1.0
    shape = ShapeParam.of(m_shape)
    num = series_s(n + 0.5, shape, policy)
    den = series_s(0.5, shape, policy)
    for alpha, res, label in ((n + 0.5, num, f"S({n}+1/2)"), (0.5, den, "S(1/2)")):
        check_normalization(res, alpha, shape, label)
    return num.value / den.value
