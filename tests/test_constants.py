"""The normalization constants of the three families against committed references.

A fractional shape up to ``M = 128`` takes ``S(a; M)`` at orders ``a <= 5``
from one fixed rule of its Mellin integral (`univariate._mellin_rule`); the
``"constants"`` block of ``tests/series_reference.json`` holds that integral
at 40 digits.  Integer shapes keep the exact series.
"""

import json
import math
import os
import warnings

import mpmath as mp
import numpy as np
import pytest

from multigauss import MultiGauss, MvMultiGauss, SeriesNotConverged, TruncationFlag, series_s
from multigauss.multivariate import BivariateParams, bivariate_pdf

with open(os.path.join(os.path.dirname(__file__), "series_reference.json"), encoding="utf-8") as fh:
    _DOC = json.load(fh)["constants"]

#: ``{M: {a: S(a; M)}}`` at 40 digits, ``a = 0.5, 1, ..., 5``.
REFS = {float(m): dict(zip(_DOC["orders"], vals)) for m, vals in _DOC["values"].items()}

#: Shapes that the series served with full digits, and those it did not.
SERIES_SHAPES = (1e-3, 0.025, 0.5, 2.5, 7.3, 12.378584)
NEW_SHAPES = (1e-9, 1e-6, 20.5, 40.5, 46.5, 60.5, 100.5, 127.5)

REL = 1e-15


def test_the_reference_block_covers_every_shape_and_order():
    assert sorted(REFS) == sorted(SERIES_SHAPES + NEW_SHAPES)
    assert _DOC["orders"] == [k / 2 for k in range(1, 11)]


@pytest.mark.parametrize("mval", SERIES_SHAPES + NEW_SHAPES)
def test_constants_match_the_mellin_references(mval):
    refs = REFS[mval]
    d = MultiGauss(0.0, 1.0, mval)
    assert d.c0 == pytest.approx(refs[0.5], rel=REL, abs=0)
    assert d.c0_result.terms_used == 144 and d.c0_result.condition_number == 1.0
    assert d.c0_result.truncation_flag is TruncationFlag.TOLERANCE_MET
    for n in range(1, 11):
        mv = MvMultiGauss(np.zeros(n), np.eye(n), mval)
        assert mv.norm_const == pytest.approx(refs[n / 2], rel=REL, abs=0), n
        if n == 2:
            # the bivariate density at its mode is 1 / (S(1; M) 2 pi)
            peak = bivariate_pdf(BivariateParams(0.0, 0.0, 1.0, 1.0, 0.0), mval, 0.0, 0.0)
            assert peak == 1.0 / (mv.norm_const * 2.0 * math.pi)


#: ``zeta(a + 1)`` at ``a = 0.5, 1, ..., 5`` (mpmath, 25 digits).
ZETA = dict(zip([k / 2 for k in range(1, 11)], (
    2.612375348685488343348568, 1.644934066848226436472415, 1.34148725725091717975677,
    1.202056903159594285399738, 1.126733867317056646427812, 1.082323233711138191516004,
    1.054707510761454264022967, 1.036927755143369926331365, 1.025204579954685694592406,
    1.017343061984449139714518)))


@pytest.mark.parametrize("mval", [1e-20, 1e-100, 1e-300])
def test_vanishing_shapes_reach_their_limit(mval):
    # C(M, m) (-1)^(m-1) = M/m + O(M^2), so S(a; M) = M zeta(a + 1) to ~M relative
    assert MultiGauss(0.0, 1.0, mval).c0 == pytest.approx(mval * ZETA[0.5], rel=REL, abs=0)
    for n in range(1, 11):
        mv = MvMultiGauss(np.zeros(n), np.eye(n), mval)
        assert mv.norm_const == pytest.approx(mval * ZETA[n / 2], rel=REL, abs=0), n


@pytest.mark.parametrize("mval, ref", [(1e-12, 1.012005899888512240889325e-12),
                                       (1e-20, 1.012005899888524796100659e-20)])
def test_tiny_shapes_above_order_five_keep_their_digits(mval, ref):
    # N = 11 takes S(5.5; M) from the series, whose first coefficient is M
    # itself; 40-digit mpmath of the Mellin integral
    mv = MvMultiGauss(np.zeros(11), np.eye(11), mval)
    assert mv.norm_const == pytest.approx(ref, rel=1e-15, abs=0)


def test_integer_shapes_keep_the_exact_series():
    for mval in range(1, 58):
        assert MultiGauss(0.0, 1.0, mval).c0.hex() == series_s(0.5, mval).value.hex(), mval
    for mval in range(1, 55):
        for n in range(1, 11):
            mv = MvMultiGauss(np.zeros(n), np.eye(n), mval)
            assert mv.norm_const.hex() == series_s(n / 2, mval).value.hex(), (mval, n)


#: ``(N, M)`` above three dimensions: shapes whose norm the series once gave
#: 1e-13 to 1e40 off without an error, then shapes it serves with its digits.
WIDE_NORMS = [(4, 55), (10, 70), (20, 100), (60, 200), (60, 300), (40, 300), (30, 797),
              (11, 60.5), (11, 75.5), (27, 128.5), (11, 40.5),
              (12, 2.5), (11, 1e-12), (11, 12.3), (20, 60), (60, 80), (1000, 2.5)]


def _norm_reference(n, mval):
    """``S(N/2; M)`` to 50 digits: the finite sum at integer ``M``, else the Mellin integral."""
    a = mp.mpf(n) / 2
    if float(mval).is_integer():
        m = int(mval)
        with mp.workdps(50 + m // 3):  # the terms reach C(M, M/2) < 2^M
            return mp.fsum(mp.binomial(m, k) * (-1) ** (k - 1) * mp.mpf(k) ** -a
                           for k in range(1, m + 1))
    with mp.workdps(50):
        m = mp.mpf(mval)
        # the profile falls from t = log M on, and t^(a-1) e^-t peaks at a - 1;
        # below a - 1 - 8 sqrt(a), where it rises monotonically, one interval
        top = max(mp.log(m), 1)
        lo = a - 1 - 8 * mp.sqrt(a)
        inner = (1, top, top + 5, top + 20, lo, a - 1, a - 1 + 8 * mp.sqrt(a))
        edges = sorted({mp.mpf(0), mp.inf} | {t for t in inner if t >= lo and t > 0})
        # log(1 - e^-t) by expm1 near 0 and by log1p beyond, where 1 - e^-t rounds to 1
        log_gap = lambda t: mp.log(-mp.expm1(-t)) if t < 1 else mp.log1p(-mp.exp(-t))
        return mp.quad(lambda t: t ** (a - 1) * -mp.expm1(m * log_gap(t)), edges) / mp.gamma(a)


@pytest.mark.parametrize("n, mval", WIDE_NORMS)
def test_wide_norms_raise_or_keep_their_digits(n, mval):
    # the series' estimated error must be within 1e-13, and an integer M at most 100
    try:
        got = MvMultiGauss(np.zeros(n), np.eye(n), mval).norm_const
    except SeriesNotConverged:
        return
    assert abs(got / _norm_reference(n, mval) - 1) <= 1e-13


def test_orders_above_five_keep_the_series():
    mv = MvMultiGauss(np.zeros(12), np.eye(12), 2.5)
    assert mv.norm_const == series_s(6.0, 2.5).value


@pytest.mark.parametrize("mval", [128.5, 200.3, 1000.5])
def test_fractional_shapes_above_128_raise(mval):
    params = BivariateParams(0.0, 0.0, 1.0, 1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (lambda: MultiGauss(0.0, 1.0, mval),
                      lambda: MvMultiGauss(np.zeros(3), np.eye(3), mval),
                      lambda: bivariate_pdf(params, mval, 0.0, 0.0)):
            with pytest.raises(SeriesNotConverged, match="out of reach"):
                build()


def test_the_nodes_are_fixed_and_read_only():
    from multigauss import univariate

    arrays = (univariate._MELLIN_LOG_T, univariate._MELLIN_WEIGHTS, univariate._MELLIN_LOG_GAP)
    for arr in arrays:
        assert arr.shape == (144,)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    t = np.exp(univariate._MELLIN_LOG_T)
    assert 2.3e-51 < t[0] < 2.5e-51 and 770.0 < t[-1] < 780.0
    # the profile on the nodes is mg_profile's, bit for bit
    for mval in (1e-9, 0.5, 2.5, 127.5):
        np.testing.assert_array_equal(-np.expm1(mval * univariate._MELLIN_LOG_GAP),
                                      univariate.mg_profile(t, mval))


@pytest.mark.parametrize("mval", [20.5, 40.5, 50.5, 100.5, 127.5])
def test_large_fractional_shapes_agree_with_their_table(mval):
    # c0 against the CDF table, which shares nothing with it: the pdf's mass
    # between two points, by a 64-point Gauss-Legendre rule, is the cdf step
    x, w = np.polynomial.legendre.leggauss(64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = MultiGauss(0.3, 1.7, mval)
        assert d.cdf(0.3) == 0.5
        for a, b in ((-5.0, -0.5), (0.5, 4.0), (2.0, 9.0)):
            mass = 0.5 * (b - a) * (w * d.pdf(0.5 * (a + b) + 0.5 * (b - a) * x)).sum()
            assert mass == pytest.approx(d.cdf(b) - d.cdf(a), rel=1e-14), (a, b)
        if mval in REFS:
            assert d.xi(1) == pytest.approx(REFS[mval][1.5] / REFS[mval][0.5], rel=1e-15)
