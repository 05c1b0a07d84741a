"""Tests for the alternating binomial series engine."""

import math
import warnings

import numpy as np
import pytest

from multigauss import (
    SeriesNotConverged,
    ShapeParam,
    TruncationFlag,
    TruncationPolicy,
    binom_coeff,
    series_s,
    signed_coeffs,
    xi_coeff,
)
from multigauss.series import DEFAULT_POLICY, check_normalization, series_tail

# Frozen references from 40-digit evaluations (integral representation for
# fractional shapes, exact finite sums for integer ones).
C0_REF = {
    0.5: 0.7092339798559564059998256,
    0.025: 0.06251907992799139518514106,
    2.5: 1.383649822624643426188748,
    2: 1.292893218813452475599156,
    10: 1.890851969665063772033698,
    40: 2.31011903700174494672318,
}
XI1_2 = 1.273459080339013578400241


class TestShapeParam:
    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                ShapeParam(bad)

    def test_integer_detection(self):
        assert ShapeParam(2.0).is_integer
        # accidental femto-noise is swallowed by the 1e-12 tolerance ...
        assert ShapeParam(2.0 + 1e-13).is_integer
        # ... while anything farther out counts as deliberately fractional
        assert not ShapeParam(2.000000001).is_integer
        assert not ShapeParam(0.5).is_integer
        assert ShapeParam(40).int_value == 40

    def test_int_value_requires_integer(self):
        with pytest.raises(ValueError):
            ShapeParam(0.5).int_value

    def test_coercion(self):
        sp = ShapeParam(3.0)
        assert ShapeParam.of(sp) is sp
        assert ShapeParam.of(3).value == 3.0


class TestTruncationPolicy:
    def test_defaults(self):
        p = TruncationPolicy()
        assert p.eps_abs == 1e-14 and p.max_terms == 2000 and p.min_terms == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(eps_abs=-1.0)
        with pytest.raises(ValueError):
            TruncationPolicy(max_terms=0)
        with pytest.raises(ValueError):
            TruncationPolicy(min_terms=30, max_terms=20)


class TestBinomCoeff:
    def test_trivial_values(self):
        assert binom_coeff(1, 1) == 1.0
        assert binom_coeff(3, 3) == 1.0

    def test_fractional_value(self):
        assert binom_coeff(0.5, 2) == -0.125

    def test_exact_integer_binomial(self):
        assert binom_coeff(40, 20) == float(math.comb(40, 20)) == 137846528820.0

    def test_zero_beyond_integer_shape(self):
        assert binom_coeff(3, 4) == 0.0
        assert binom_coeff(40, 41) == 0.0

    def test_no_overflow_at_large_m(self):
        v = binom_coeff(0.5, 10000)
        assert math.isfinite(v)
        # |C(1/2, m)| ~ m^{-3/2} / (2 sqrt(pi))
        assert abs(v) == pytest.approx(10000.0**-1.5 / (2 * math.sqrt(math.pi)), rel=1e-3)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            binom_coeff(2, 0)
        with pytest.raises(ValueError):
            binom_coeff(2, -3)


class TestSeriesSum:
    def test_single_term_identity(self):
        for alpha in (0.5, 1.0, 2.5, 7.25, -3.0):
            r = series_s(alpha, 1)
            assert r.value == 1.0
            assert r.terms_used == 1
            assert r.condition_number == 1.0
            assert r.truncation_flag is TruncationFlag.EXACT

    def test_two_term_normalization(self):
        r = series_s(0.5, 2)
        assert r.value == pytest.approx(2.0 - 2.0**-0.5, rel=1e-15, abs=0)

    @pytest.mark.parametrize("mval", sorted(C0_REF))
    def test_frozen_normalizations(self, mval):
        r = series_s(0.5, mval)
        assert r.value == pytest.approx(C0_REF[mval], rel=1e-13, abs=0)

    def test_exact_flag_iff_integer(self):
        assert series_s(0.5, 7).truncation_flag is TruncationFlag.EXACT
        assert series_s(0.5, 7.3).truncation_flag is not TruncationFlag.EXACT

    def test_large_shape_compensated_accuracy(self):
        # condition number ~1e11 would leave ~1e-5 relative error with naive
        # float accumulation; the exact fixed-point integer sum keeps 1e-13.
        r = series_s(0.5, 40)
        assert 1e10 < r.condition_number < 1e12
        assert r.value == pytest.approx(C0_REF[40], rel=1e-13, abs=0)

    def test_positive_series_condition_is_one(self):
        for mval in (0.5, 0.25, 0.025):
            r = series_s(0.5, mval)
            assert r.condition_number == 1.0

    def test_normalization_monotone_in_integer_shape(self):
        values = [series_s(0.5, m).value for m in range(1, 41)]
        assert np.all(np.diff(values) > 0.0)

    def test_tail_sign_constancy_fractional(self):
        # beyond m - 1 > M the composite sign settles to (-1)^floor(M)
        mval = 2.5
        signs = set()
        for m in range(5, 200):
            term = binom_coeff(mval, m) * (-1.0) ** (m - 1)
            signs.add(math.copysign(1.0, term))
        assert signs == {(-1.0) ** math.floor(mval)}

    def test_truncation_stability(self):
        a = series_s(0.5, 2.5, TruncationPolicy(max_terms=2000))
        b = series_s(0.5, 2.5, TruncationPolicy(max_terms=4000))
        assert abs(a.value - b.value) <= 1e-12

    def test_cap_hit_when_tail_unavailable(self):
        r = series_s(0.5, 0.5, TruncationPolicy(max_terms=5, min_terms=1))
        assert r.truncation_flag is TruncationFlag.CAP_HIT
        assert r.terms_used == 5

    def test_divergent_exponent_flagged(self):
        # terms grow like m^(-M-1-alpha); alpha <= -M diverges
        r = series_s(-1.0, 0.5, TruncationPolicy(max_terms=50, min_terms=1))
        assert r.truncation_flag is TruncationFlag.CAP_HIT

    def test_terms_used_tracks_tolerance_stop(self):
        # steep coefficient decay: stops well before the cap
        r = series_s(0.5, 12.5)
        assert r.truncation_flag is TruncationFlag.TOLERANCE_MET
        assert r.terms_used < 200


class TestSignedCoeffs:
    def test_matches_binom_coeff(self):
        for mval in (3, 0.5, 2.5):
            arr = signed_coeffs(mval, 12)
            for i, c in enumerate(arr):
                m = i + 1
                assert c == pytest.approx(
                    binom_coeff(mval, m) * (-1.0) ** (m - 1), rel=1e-12, abs=1e-300
                )

    def test_integer_truncates_at_shape(self):
        assert len(signed_coeffs(3, 12)) == 3


class TestXiCoeff:
    def test_unit_for_gaussian_shape(self):
        for n in (1, 2, 3, 7):
            assert xi_coeff(n, 1) == 1.0

    def test_order_zero_is_one(self):
        assert xi_coeff(0, 10) == 1.0

    def test_two_term_ratio(self):
        assert xi_coeff(1, 2) == pytest.approx(XI1_2, rel=1e-14)
        exact = (2.0 - 2.0**-1.5) / (2.0 - 2.0**-0.5)
        assert xi_coeff(1, 2) == pytest.approx(exact, rel=1e-15)

    def test_propagates_non_convergence(self):
        with pytest.raises(SeriesNotConverged):
            xi_coeff(1, 0.5, TruncationPolicy(max_terms=5, min_terms=1))

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            xi_coeff(-1, 2)

    @pytest.mark.parametrize("mval", [47.5, 48.5, 100.5, 170.5, 171.5, 300.5, 55, 56, 57])
    def test_raises_where_the_series_keeps_no_digits(self, mval):
        # the series cancel to noise here (a negative variance ratio at
        # M = 100.5); from M = 55 the rounded coefficients put it off by ~1e-2
        with pytest.raises(SeriesNotConverged):
            xi_coeff(1, mval)

    @pytest.mark.parametrize("mval", [1, 2, 10, 40, 54, 0.5, 2.5, 12.378584])
    def test_is_the_ratio_of_the_two_series(self, mval):
        for n in (1, 2, 3, 4):
            ratio = series_s(n + 0.5, mval).value / series_s(0.5, mval).value
            assert xi_coeff(n, mval) == ratio


class TestTailReflectionUnderflow:
    def test_gamma_underflow_is_not_applicable(self):
        # math.gamma(1 - 200.3) underflows to 0: no completion, no ZeroDivisionError
        assert math.gamma(1.0 - 200.3) == 0.0
        assert series_tail(0.5, 200.3, 2000) == (0.0, math.inf)

    @pytest.mark.parametrize("mval", [170.5, 171.5, 172.5])
    def test_completion_past_the_float_range_is_not_applicable(self, mval):
        # Gamma(1 - M) nears its underflow here: the reflection constant or
        # the expansion overflows, which must neither warn nor yield a NaN
        # that passes for converged
        from multigauss import MultiGauss

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (0.5, 1.0, 1.5):
                r = series_s(a, mval)
                assert series_tail(a, mval, r.terms_used) == (0.0, math.inf)
                if r.truncation_flag is TruncationFlag.TOLERANCE_MET:
                    assert math.isfinite(r.value)
            with pytest.raises(SeriesNotConverged):
                MultiGauss(0.0, 1.0, mval)

    @pytest.mark.parametrize("alpha", [0.5, 1.5])  # the cap, and a stop inside the loop
    def test_non_finite_value_is_never_converged(self, monkeypatch, alpha):
        from multigauss import series

        monkeypatch.setattr(series, "series_tail", lambda *args: (math.inf, 0.0))
        r = series_s(alpha, 2.5)
        assert math.isinf(r.value) and r.truncation_flag is TruncationFlag.CAP_HIT

    def test_shared_normalization_check(self):
        check_normalization(series_s(0.5, 54), 0.5, ShapeParam(54), "c0")
        with pytest.raises(SeriesNotConverged, match="M=55"):
            check_normalization(series_s(0.5, 55), 0.5, ShapeParam(55), "c0")
        with pytest.raises(SeriesNotConverged):
            check_normalization(series_s(0.5, 200.3), 0.5, ShapeParam(200.3), "c0")

    @pytest.mark.parametrize("alpha, mval", [(0.25, 54), (0.25, 50), (0.75, 54)])
    def test_no_exact_floor_off_the_half_integer_orders(self, alpha, mval):
        # m^-alpha is a rounded float there, so the sum carries its whole
        # condition number: 11.8 %, 8.1e-3 and 5.35e-3 off
        with pytest.raises(SeriesNotConverged, match="no significant digits"):
            check_normalization(series_s(alpha, mval), alpha, ShapeParam(mval), "S")

    def test_half_integer_orders_keep_the_exact_floor(self):
        for mval in range(1, 55):
            for k in range(13):
                check_normalization(series_s(k / 2, mval), k / 2, ShapeParam(mval), "S")


def loop_stop(alpha, mval, policy):
    """The stopping index of the term-by-term loop: first m >= min_terms with |t_m| < eps_abs."""
    b = 1.0
    for m in range(1, policy.max_terms + 1):
        b = b * (mval - m + 1) / m
        if m >= policy.min_terms and abs(b * m ** -alpha) < policy.eps_abs:
            return m
    return policy.max_terms


@pytest.fixture(scope="module")
def mellin_refs():
    """``S(a; M)`` at 40 digits from ``Gamma(a)^-1 int t^(a-1) [1 - (1 - e^-t)^M] dt``."""
    mpmath = pytest.importorskip("mpmath")
    refs = {}
    with mpmath.workdps(40):
        for mval in FRACTIONAL_SHAPES:
            big_m = mpmath.mpf(mval)
            for a in (0.5, 1.0, 1.5, 2.5):
                big_a = mpmath.mpf(a)
                f = lambda t: t ** (big_a - 1) * (1 - (1 - mpmath.exp(-t)) ** big_m)
                s = mpmath.quad(f, [0, 1, 10, 50, mpmath.inf]) / mpmath.gamma(big_a)
                refs[a, mval] = float(s)
    return refs


FRACTIONAL_SHAPES = (1e-3, 0.025, 0.5, 2.5, 7.3, 12.378584)


class TestFractionalSeries:
    @pytest.mark.parametrize("mval", FRACTIONAL_SHAPES)
    def test_matches_mpmath(self, mellin_refs, mval):
        for a in (0.5, 1.0, 1.5, 2.5):
            assert series_s(a, mval).value == pytest.approx(mellin_refs[a, mval], rel=3e-14, abs=0)

    @pytest.mark.parametrize("mval", [200.3, 1000.5, 10000.5, 1e6 + 0.5])
    def test_huge_shapes_raise_without_warnings(self, mval):
        from multigauss import MultiGauss

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeriesNotConverged):
                MultiGauss(0.0, 1.0, mval)

    def test_non_finite_terms_hit_the_cap(self):
        r = series_s(0.5, 1e6 + 0.5)
        assert r.truncation_flag is TruncationFlag.CAP_HIT
        assert r.terms_used == DEFAULT_POLICY.max_terms
        assert math.isnan(r.value)

    def test_long_policy_agrees_with_the_default(self):
        r = series_s(0.5, 0.5, TruncationPolicy(max_terms=10**6))
        assert r.terms_used == 10**6
        assert r.value == pytest.approx(series_s(0.5, 0.5).value, rel=1e-14, abs=0)

    @pytest.mark.parametrize("alpha,mval,policy", [
        (0.5, 2.5, DEFAULT_POLICY),
        (0.5, 2.5, TruncationPolicy(max_terms=5000)),  # stops in the second block
        (1.5, 7.3, DEFAULT_POLICY),
        (0.5, 12.5, TruncationPolicy(max_terms=5000, min_terms=3000)),
        (2.5, 0.025, TruncationPolicy(eps_abs=1e-9)),
    ])
    def test_stops_where_the_term_loop_stops(self, alpha, mval, policy):
        r = series_s(alpha, mval, policy)
        assert r.terms_used == loop_stop(alpha, mval, policy)
        assert r.truncation_flag is TruncationFlag.TOLERANCE_MET

    def test_stops_near_the_start_of_a_later_block(self):
        t2049, t2050 = (abs(binom_coeff(2.5, m)) * m ** -0.5 for m in (2049, 2050))
        policy = TruncationPolicy(eps_abs=math.sqrt(t2049 * t2050), max_terms=5000)
        assert series_s(0.5, 2.5, policy).terms_used == 2050 == loop_stop(0.5, 2.5, policy)

    @pytest.mark.parametrize("mval", [1e-3, 0.5, 2.5, 7.3, 12.378584, 20.5, 47.5, 170.5, 200.3])
    def test_first_block_size_changes_no_bit(self, monkeypatch, mval):
        from multigauss import series

        policies = (DEFAULT_POLICY, TruncationPolicy(max_terms=5000, min_terms=3000),
                    TruncationPolicy(eps_abs=1e-9), TruncationPolicy(eps_abs=0.0, max_terms=3000))
        got = [series_s(a, mval, p) for a in (0.5, 1.5, 4.5) for p in policies]
        monkeypatch.setattr(series, "_first_block", lambda *args: series._SERIES_BLOCK)
        want = [series_s(a, mval, p) for a in (0.5, 1.5, 4.5) for p in policies]
        for g, w in zip(got, want):
            assert g.terms_used == w.terms_used and g.truncation_flag is w.truncation_flag
            assert g.value == w.value or (math.isnan(g.value) and math.isnan(w.value))
            assert (g.condition_number == w.condition_number
                    or (math.isnan(g.condition_number) and math.isnan(w.condition_number)))

    @pytest.mark.parametrize("mval", [7.3, 12.378584, 20.5, 47.5])
    def test_fast_decay_stops_inside_the_first_block(self, mval):
        from multigauss.series import _SERIES_BLOCK, _first_block

        for a in (0.5, 1.5, 4.5):
            size = _first_block(a, mval, DEFAULT_POLICY)
            assert size % 2 == 0 and size < _SERIES_BLOCK // 8
            assert series_s(a, mval).terms_used <= size


@pytest.fixture(scope="module")
def integer_refs():
    """``S(k/2; M)`` for ``k = 1..12``, ``M = 1..54`` at 60 digits, with exact binomials."""
    mpmath = pytest.importorskip("mpmath")
    refs = {}
    with mpmath.workdps(60):
        for mval in range(1, 55):
            for k in range(1, 13):
                a = mpmath.mpf(k) / 2
                refs[k, mval] = float(mpmath.fsum(
                    (-1) ** (m - 1) * math.comb(mval, m) * mpmath.power(m, -a)
                    for m in range(1, mval + 1)))
    return refs


class TestIntegerSeries:
    def test_half_integer_orders_are_correctly_rounded(self, integer_refs):
        for (k, mval), ref in integer_refs.items():
            assert series_s(k / 2, mval).value == ref, (k, mval)

    @pytest.mark.parametrize("mval", [55, 56, 57])
    def test_rounded_coefficients_keep_their_bits(self, mval):
        # from M = 55 the float product of the coefficients rounds; the sum is
        # exact over those rounded coefficients, not over the true binomials
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            ref = float(mpmath.fsum(
                (-1) ** (m - 1) * mpmath.mpf(binom_coeff(mval, m)) * mpmath.power(m, -0.5)
                for m in range(1, mval + 1)))
        assert series_s(0.5, mval).value == ref
        assert any(binom_coeff(mval, m) != math.comb(mval, m) for m in range(1, mval + 1))

    def test_coefficients_share_one_product(self):
        for mval in (1, 10, 54, 55, 57):
            coeffs = signed_coeffs(mval, 100)
            assert coeffs.size == mval
            for m, c in enumerate(coeffs, 1):
                assert c == (-1) ** (m - 1) * binom_coeff(mval, m)

    def test_exact_cancellation_gives_zero(self):
        # sum_m C(M, m) (-1)^(m-1) m^3 vanishes for M > 3
        for mval in (4, 10, 54):
            r = series_s(-3.0, mval)
            assert r.value == 0.0 and r.condition_number == math.inf

    def test_high_orders_leave_the_first_term(self):
        # m^(-alpha) falls below 2^-160 from m = 2 on
        for alpha in (1e6, 1e6 + 0.5, 1e6 + 0.25):
            r = series_s(alpha, 40)
            assert r.value == 40.0 and r.condition_number == 1.0

    @pytest.mark.parametrize("alpha,mval", [(-400.0, 40), (0.5, 1100), (math.nan, 5)])
    def test_out_of_range_is_nan_without_warnings(self, alpha, mval):
        # a power, a coefficient or the sum beyond the float range, or a NaN order
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = series_s(alpha, mval)
        assert math.isnan(r.value) and r.truncation_flag is TruncationFlag.EXACT
