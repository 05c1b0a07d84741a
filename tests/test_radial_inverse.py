"""One radial inverse behind the univariate quantile and both samplers.

The univariate law is the N = 1 case of the elliptical family,
``X = mu + sigma sign R``, so the quantile and the sampler of `MultiGauss`
use the radial inverse of the multivariate sampler.  The sampler of
``0 < M < 1`` is also checked against an oracle that shares no code with
the CDF table: the exact Gaussian scale mixture of that range.
"""

import math
import sys
import threading

import numpy as np
import pytest

from multigauss import LogMultiGauss, MultiGauss, MvMultiGauss

SHAPES = (1, 2, 10, 40, 54, 0.025, 0.5, 2.5, 12.3, 1e-3)

#: Levels from the far lower tail to the far upper tail: the CLI's grid, a
#: log grid down to 1e-305, levels next to 1 and next to the median.
LEVELS = np.concatenate((
    np.linspace(0.01, 0.99, 41),
    np.logspace(-305.0, math.log10(0.4999), 120),
    1.0 - np.logspace(-16.0, -1.0, 30),
    0.5 + np.array([-2.0**-54, 2.0**-53, -1e-12, 1e-12, -1e-6, 1e-6]),
))


@pytest.mark.parametrize("mval", SHAPES)
def test_quantile_meets_its_contract(mval):
    d = MultiGauss(0.3, 1.7, mval)
    x = d.quantile(LEVELS)
    cdf = d.cdf(x)
    assert np.all(np.isfinite(x))
    assert np.all(np.diff(x[np.argsort(LEVELS)]) >= 0.0)
    assert np.max(np.abs(cdf - LEVELS)) <= 1e-12
    # the lower tail keeps its relative precision down to 1e-305 ...
    low = LEVELS < 1e-3
    assert np.max(np.abs(cdf[low] / LEVELS[low] - 1.0)) <= 2e-12
    # ... and so does the upper tail up to 1 - 1e-16
    high = LEVELS > 0.999
    assert np.max(np.abs((1.0 - cdf[high]) / (1.0 - LEVELS[high]) - 1.0)) <= 1e-12
    assert d.quantile(0.5) == 0.3
    for i in (0, 50, 100, 170, 196):
        got = d.quantile(float(LEVELS[i]))
        assert type(got) is float and got == x[i]


@pytest.mark.parametrize("mval", (1, 54, 0.025))
def test_quantile_stays_finite_below_the_normal_range(mval):
    d = MultiGauss(0.0, 1.0, mval)
    levels = np.array([1e-306, 1e-308, 1e-310, 1e-315, 1e-320, 5e-324])
    x = d.quantile(levels)
    assert np.all(np.isfinite(x)) and np.all(x < -37.0)
    assert np.max(d.cdf(x)) <= 1e-300


@pytest.mark.parametrize("mval", (1, 0.025, 2.5, 40))
def test_univariate_sampler_is_the_one_dimensional_radial_sampler(mval):
    got = MultiGauss(-2.0, 3.0, mval).sample(5000, np.random.default_rng(5))
    points = MvMultiGauss([0.0], [[1.0]], mval).sample(5000, np.random.default_rng(5))
    np.testing.assert_array_equal(got, -2.0 + 3.0 * points[:, 0])
    lmg = LogMultiGauss(-2.0, 3.0, mval).sample(5000, np.random.default_rng(5))
    np.testing.assert_array_equal(lmg, np.exp(got))


@pytest.mark.parametrize("mval", (0.025, 0.5, 2.5, 40, 54))
def test_univariate_sampler_is_the_quantile_transform(mval):
    # one uniform per variate: the draw is the quantile of the generator's
    # uniform, up to the inverse's interpolation error
    mu, sigma = -0.7, 2.3
    d = MultiGauss(mu, sigma, mval)
    for seed in (3, 8):
        x = d.sample(50_000, np.random.default_rng(seed))
        u = np.random.default_rng(seed).random(50_000)
        keep = u > 0.0
        assert np.max(np.abs(x[keep] - d.quantile(u[keep]))) <= 1e-6 * sigma


def test_gaussian_shape_draws_the_standard_normals():
    z = np.random.default_rng(9).standard_normal(3000)
    x = MultiGauss(-2.0, 3.0, 1).sample(3000, np.random.default_rng(9))
    np.testing.assert_array_equal(x, -2.0 + 3.0 * z)
    lmg = LogMultiGauss(-2.0, 3.0, 1).sample(3000, np.random.default_rng(9))
    np.testing.assert_array_equal(lmg, np.exp(-2.0 + 3.0 * z))
    mv = MvMultiGauss([0.5], [[4.0]], 1).sample(3000, np.random.default_rng(9))
    np.testing.assert_array_equal(mv[:, 0], z * 2.0 + 0.5)


def test_threads_sharing_one_object_match_one_thread():
    d = MultiGauss(0.5, 2.0, 2.5)
    levels = np.linspace(0.01, 0.99, 41)
    want_q = MultiGauss(0.5, 2.0, 2.5).quantile(levels)
    want = [MultiGauss(0.5, 2.0, 2.5).sample(5000, np.random.default_rng(s)) for s in range(8)]
    got = [None] * 8
    start = threading.Barrier(8)

    def work(i):
        start.wait(timeout=60.0)  # every thread meets the object before its inverse exists
        got[i] = (d.sample(5000, np.random.default_rng(i)), d.quantile(levels))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (x, q), w in zip(got, want):
        np.testing.assert_array_equal(x, w)
        np.testing.assert_array_equal(q, want_q)


def _mixture_draws(mval, mu, sigma, n, rng, terms=10_000):
    """Draws of the law of ``0 < M < 1`` as a Gaussian scale mixture.

    For ``0 < M < 1`` every ``C(M,m)(-1)^(m-1)`` is positive, so the
    profile is a mixture of the Gaussians ``N(mu, sigma^2/m)`` with weights
    proportional to ``C(M,m)(-1)^(m-1) m^(-1/2)``.  The first ``terms``
    components are drawn by their weights.  Beyond them the coefficients
    follow ``a_K (K/m)^(1+M)``, so the rest is one block whose index ``m``
    is drawn from the power law ``m^(-3/2-M)``, exact to ``O(1/terms)``.
    """
    m = np.arange(1, terms + 1)
    coeff = np.cumprod(np.concatenate(([mval], (m[1:] - 1.0 - mval) / m[1:])))
    rest = coeff[-1] * terms ** (1.0 + mval) * (terms + 0.5) ** (-0.5 - mval) / (0.5 + mval)
    weights = np.append(coeff / np.sqrt(m), rest)
    index = (rng.choice(terms + 1, size=n, p=weights / weights.sum()) + 1).astype(float)
    far = index > terms
    index[far] = (terms + 0.5) * rng.random(int(far.sum())) ** (-1.0 / (0.5 + mval))
    return mu + sigma * rng.standard_normal(n) / np.sqrt(index)


def _two_sample_gap(a, b):
    a, b = np.sort(a), np.sort(b)
    pts = np.concatenate((a, b))
    return np.max(np.abs(np.searchsorted(a, pts, side="right") / a.size
                         - np.searchsorted(b, pts, side="right") / b.size))


@pytest.mark.parametrize("mval", (0.025, 0.5))
def test_cusped_sampler_matches_the_scale_mixture(mval):
    n = 200_000
    got = MultiGauss(0.5, 2.0, mval).sample(n, np.random.default_rng(31))
    ref = _mixture_draws(mval, 0.5, 2.0, n, np.random.default_rng(32))
    # two one-sample DKW bounds at false-alarm rate 0.5e-6 each
    assert _two_sample_gap(got, ref) <= 2.0 * math.sqrt(math.log(4.0 / 1e-6) / (2.0 * n))


@pytest.mark.parametrize("mval", (1, 10, 54, 0.025, 0.5, 2.5))
@pytest.mark.parametrize("dim", (1, 3))
def test_smaller_tail_is_the_two_pass_choice(mval, dim):
    # the two-pass form: `below` everywhere, then `above` wherever below > 1/2
    from multigauss.series import ShapeParam
    from multigauss.univariate import _CDF_REACH, _CdfTable

    table = _CdfTable(ShapeParam(mval), dim)
    edge = table.median_edge
    r = np.concatenate((
        np.linspace(0.0, 0.3, 9),                          # the mode band
        edge + np.array([-0.2, -1e-9, 0.0, 1e-9, 0.2]),    # next to the median
        np.linspace(0.3, _CDF_REACH, 200),                 # out to the far tail
        _CDF_REACH + np.array([0.0, 1.0, 1e3]), [np.inf],  # beyond the reach
        [np.nan],
    ))
    below = table.below(r)
    upper = below > 0.5
    expected = below.copy()
    expected[upper] = table.above(r[upper])
    tail, took_upper = table.smaller_tail(r)
    np.testing.assert_array_equal(took_upper, upper)
    assert tail.tobytes() == expected.tobytes()
    # the median lies inside the table, so both branches are exercised
    assert upper.any() and not upper.all()
