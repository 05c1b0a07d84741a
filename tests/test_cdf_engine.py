"""The CDF engine: one cached panel table of the profile integral for every M.

References are mpmath quadratures of the profile ``1 - (1 - e^-w)^M``,
written out here and computed afresh in each run.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multigauss import LogMultiGauss, MultiGauss

SHAPES = (1, 2, 10, 40, 54, 0.025, 0.5, 2.5, 12.3)
DISTANCES = (0.1, 0.3 - 1e-9, 0.3 + 1e-9, 1.0, 3.0, 8.0, 20.0, 35.0)


def _profile(w, m):
    """``1 - (1 - e^-w)^M`` with full relative precision in the tail."""
    if w < 1:
        return 1 - (-mp.expm1(-w)) ** m  # expm1 keeps the cusp at w -> 0
    return -mp.expm1(m * mp.log1p(-mp.exp(-w)))


def _tail_integral(w0, m):
    """Integral of the profile over ``|u| >= sqrt(2 w0)``, taken in ``w = u^2/2``.

    In ``w`` the tail decays like ``e^-w``.  The integrand is scaled by
    ``e^w0`` because mpmath stops refining once successive estimates agree
    to an absolute ``eps``.
    """
    scale = mp.exp(w0)
    f = lambda t: _profile(w0 + t, m) * scale / mp.sqrt(2 * (w0 + t))
    return mp.quad(f, [0, 1, 4, 16, 64, mp.inf]) / scale


def _lower_tails(mval, distances):
    """``P(U <= -d)`` for each distance ``d``.

    Below ``|u| = 1`` the profile is integrated in ``u`` itself, where the
    integrand stays bounded at the mode.
    """
    with mp.workdps(20):
        m = mp.mpf(mval)
        beyond_one = _tail_integral(mp.mpf(0.5), m)

        def tail(d):
            if d >= 1.0:
                return _tail_integral(mp.mpf(d) ** 2 / 2, m)
            pts = [d] + ([0.3] if d < 0.3 else []) + [1]
            return mp.quad(lambda u: _profile(u * u / 2, m), pts) + beyond_one

        total = tail(0.0)
        return {d: tail(d) / (2 * total) for d in distances}


@pytest.mark.parametrize("mval", SHAPES)
def test_cdf_matches_mpmath(mval):
    d = MultiGauss(0.0, 1.0, mval)
    ref = _lower_tails(mval, DISTANCES)
    au = np.array(DISTANCES)
    lower, upper = d.cdf(-au), d.cdf(au)
    for a, lo, up in zip(DISTANCES, lower, upper):
        want = ref[a]
        assert abs(lo - float(want)) <= 1e-14, (mval, a)
        assert abs(up - float(1 - want)) <= 1e-14, (mval, a)
        assert abs(lo - float(want)) <= 1e-12 * float(want), (mval, a)


@pytest.mark.parametrize("mval", SHAPES)
def test_array_call_equals_scalar_calls(mval):
    d = MultiGauss(0.3, 1.7, mval)
    xs = np.concatenate((np.linspace(-70.0, 70.0, 57), [0.3, 0.3 + 0.51, np.inf, -np.inf]))
    vals = d.cdf(xs)
    assert vals.shape == xs.shape
    for x, v in zip(xs, vals):
        got = d.cdf(float(x))
        assert type(got) is float
        assert got == v
    grid = d.cdf(xs.reshape(-1, 1))
    assert grid.shape == (xs.size, 1)
    np.testing.assert_array_equal(grid[:, 0], vals)


@pytest.mark.parametrize("mval", SHAPES)
def test_array_quantile_round_trip(mval):
    d = MultiGauss(-1.0, 0.6, mval)
    levels = np.array([1e-12, 1e-6, 0.001, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0 - 1e-9])
    qs = d.quantile(levels)
    assert qs.shape == levels.shape
    assert np.all(np.diff(qs) > 0.0)
    assert np.max(np.abs(d.cdf(qs) - levels)) <= 1e-12
    assert d.quantile(0.5) == -1.0
    assert d.quantile(0.3) == qs[4]


def test_cdf_nan_and_infinities():
    d = MultiGauss(0.0, 1.0, 2.5)
    out = d.cdf(np.array([np.nan, -np.inf, np.inf]))
    assert math.isnan(out[0]) and out[1] == 0.0 and out[2] == 1.0
    assert math.isnan(d.cdf(math.nan))
    with pytest.raises(ValueError):
        d.quantile(np.array([0.2, math.nan]))


def test_large_call_runs_in_blocks():
    d = MultiGauss(0.0, 1.0, 0.5)
    xs = np.linspace(-9.0, 9.0, 20_001)
    vals = d.cdf(xs)
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[10_000] == 0.5
    np.testing.assert_array_equal(vals[::1000], d.cdf(xs[::1000]))


@settings(max_examples=60, deadline=None)
@given(
    mval=st.sampled_from(SHAPES),
    mu=st.floats(-5.0, 5.0),
    sigma=st.floats(0.1, 10.0),
    dist=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=40),
)
def test_cdf_monotone_and_symmetric(mval, mu, sigma, dist):
    d = MultiGauss(mu, sigma, mval)
    dd = np.sort(np.array(dist)) * sigma
    lower = d.cdf(mu - dd)
    upper = d.cdf(mu + dd)
    assert np.all(np.diff(lower) <= 0.0)
    assert np.all(np.diff(upper) >= 0.0)
    assert np.all((lower >= 0.0) & (upper <= 1.0))
    # mu -+ d are rounded apart from the exact mirror images: allow that
    # rounding times the peak density, plus a few ulps of the sum
    peak = float(d.pdf(mu)) * sigma
    slack = 4e-16 * (1.0 + (abs(mu) + dd) / sigma) * peak + 4e-16
    assert np.all(np.abs(lower + upper - 1.0) <= slack)


def test_log_family_cdf_arrays():
    d = LogMultiGauss(0.2, 0.8, 10)
    ys = np.array([0.05, 0.5, 1.0, 3.0, 40.0])
    np.testing.assert_array_equal(d.cdf(ys), d.base.cdf(np.log(ys)))
