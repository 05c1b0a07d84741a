"""The radial law of the multivariate family: table, ellipsoid mass, sampler.

References are mpmath quadratures of ``r^(N-1) f(r^2/2)``, with the profile
``f(w) = 1 - (1 - e^-w)^M`` written out here and computed afresh in each run.
"""

import math
import sys
import threading
import time
import warnings

import mpmath as mp
import numpy as np
import pytest

from multigauss import MultiGauss, MvMultiGauss, SeriesNotConverged
from multigauss.series import ShapeParam
from multigauss.univariate import (
    _CDF_BAND, _CDF_EDGES, _CDF_REACH, _GL_NODES, _GL_WEIGHTS, _INVERSE_NODES,
    _RADIUS_CANDIDATES, _SCORE_REACH, _CdfTable, _log_tail_score, _RadialInverse,
    _radial_score, _score_step, mg_profile,
)

SHAPES = (1e-3, 0.025, 0.5, 1, 2.5, 10, 40, 54)
#: Shapes so small that ``(1 - e^-w)^M`` is within ~M of 1: their references
#: take 40 digits instead of 20.
TINY_SHAPES = (1e-9, 1e-6)
DIMS = (2, 3, 5)
QS = (1e-6, 0.01, 0.5, 1.0, 2.0, 4.0, 9.0, 16.0, 25.0, 40.0)


def _profile(w, m):
    """``1 - (1 - e^-w)^M`` with full relative precision in the tail."""
    if w < 1:
        return 1 - (-mp.expm1(-w)) ** m  # expm1 keeps the cusp at w -> 0
    return -mp.expm1(m * mp.log1p(-mp.exp(-w)))


def _radial_masses(mval, dim, qs):
    """``P(Q <= q)`` and ``P(Q > q)`` at each ``q``, both summed from pieces.

    The upper tail is the sum of the pieces beyond ``q`` plus the tail
    beyond the last point, never ``1 - P(Q <= q)``.
    """
    with mp.workdps(40 if mval in TINY_SHAPES else 20):
        m = mp.mpf(mval)
        f = lambda r: r ** (dim - 1) * _profile(r * r / 2, m)
        edges = [mp.mpf(0)] + [mp.sqrt(mp.mpf(q)) for q in qs]
        pieces = [mp.quad(f, [a, b]) for a, b in zip(edges[:-1], edges[1:])]
        pieces.append(mp.quad(f, [edges[-1], 8, 16, mp.inf]))
        total = mp.fsum(pieces)
        below = [mp.fsum(pieces[:k + 1]) / total for k in range(len(qs))]
        above = [mp.fsum(pieces[k + 1:]) / total for k in range(len(qs))]
        return [float(v) for v in below], [float(v) for v in above]


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("mval", SHAPES + TINY_SHAPES)
def test_ellipsoid_mass_matches_mpmath(mval, dim):
    below, above = _radial_masses(mval, dim, QS)
    mv = MvMultiGauss(np.zeros(dim), np.eye(dim), mval)
    mass = mv.ellipsoid_mass(np.array(QS))
    assert np.max(np.abs(mass - below)) <= 1e-14
    # the table's upper tail keeps its relative precision out to q = 40 ...
    tail = mv._radial_table.above(np.sqrt(QS))
    assert np.max(np.abs(tail / above - 1.0)) <= 1e-10
    # ... and 1 - mass is that tail up to the float spacing below 1
    above = np.array(above)
    assert np.all(np.abs((1.0 - mass) - above) <= np.maximum(1e-10 * above, 2.0**-53))


@pytest.mark.parametrize("dim", (1, 3))
@pytest.mark.parametrize("mval", (520, 1e4))
def test_table_of_a_wide_flat_top_matches_mpmath(mval, dim):
    # 2M + N is past ~1030: the band rule's weights sum to 1, so no mass
    # 2^(2M+N)/(2M+N) overflows
    top = math.sqrt(2.0 * math.log(mval))  # where the flat top ends
    radii = np.array([1e-3, 0.1, 0.3, 1.0, 2.0, 3.0, top - 0.5, top, top + 1.0, top + 2.0])
    with mp.workdps(30):
        m = mp.mpf(mval)
        f = lambda r: r ** (dim - 1) * _profile(r * r / 2, m)
        edges = [mp.mpf(0)] + [mp.mpf(float(r)) for r in radii]
        pieces = [mp.quad(f, [a, b]) for a, b in zip(edges[:-1], edges[1:])]
        pieces.append(mp.quad(f, [edges[-1], edges[-1] + 2, edges[-1] + 6, mp.inf]))
        total = mp.fsum(pieces)
        below = np.array([float(mp.fsum(pieces[:k + 1]) / total) for k in range(radii.size)])
        above = np.array([float(mp.fsum(pieces[k + 1:]) / total) for k in range(radii.size)])
    table = _CdfTable(ShapeParam.of(mval), dim)
    np.testing.assert_allclose(table.below(radii), below, rtol=1e-15, atol=0.0)
    # the upper tail keeps 1e-15 over the flat top; past it, where the tail
    # falls below ~1e-2, its panels hold ~2e-15 at every M
    flat = radii <= top
    np.testing.assert_allclose(table.above(radii[flat]), above[flat], rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(table.above(radii), above, rtol=1e-14, atol=0.0)


def test_ellipsoid_mass_edges():
    mv = MvMultiGauss([1.0, -1.0], [[2.0, 0.3], [0.3, 1.0]], 2.5)
    out = mv.ellipsoid_mass(np.array([[-1.0, 0.0], [np.inf, np.nan]]))
    assert out.shape == (2, 2)
    assert out[0, 0] == 0.0 and out[0, 1] == 0.0 and out[1, 0] == 1.0
    assert math.isnan(out[1, 1])
    assert isinstance(mv.ellipsoid_mass(2.0), float)
    # the mass is that of Q, whatever the covariance
    standard = MvMultiGauss([0.0, 0.0], np.eye(2), 2.5)
    assert mv.ellipsoid_mass(2.0) == standard.ellipsoid_mass(2.0)


def _unit_table_lower_tail(shape, au):
    """The univariate table's lower tail as it was written before the table
    took a dimension: band rule without the ``v^(dim-1)`` factor, panels
    without the radial weight.  The band is the closed form on the table's
    own Gauss-Jacobi nodes and weights."""
    v = shape.value
    table = _CdfTable(shape, 1)
    nodes, weights = table._gj_nodes, table._gj_weights

    def legendre(lo, hi):
        half = 0.5 * (hi - lo)
        s = (lo + half)[:, None] + half[:, None] * _GL_NODES
        return half * (mg_profile(0.5 * s * s, shape) * _GL_WEIGHTS).sum(axis=1)

    def band(a):
        # a/(2M+1) [2M - expm1(M log x) - x^M sum_j w_j expm1(M log phi_j)], x = a^2/2
        x = 0.5 * a * a
        with np.errstate(divide="ignore"):
            m_log_x = v * np.log(x)
        y = x[:, None] * nodes ** 2
        safe = np.where(y > 0.0, y, 1.0)
        log_phi = np.where(y > 0.0, np.log(-np.expm1(-safe) / safe), 0.0)
        psi = np.exp(m_log_x) * (np.expm1(v * log_phi) * weights).sum(axis=1)
        return a / (2.0 * v + 1.0) * (2.0 * v - np.expm1(m_log_x) - psi)

    tail = np.zeros(_CDF_EDGES.size)
    tail[1:-1] = np.cumsum(legendre(_CDF_EDGES[1:-1], _CDF_EDGES[2:])[::-1])[::-1]
    tail[0] = tail[1] + band(np.array([_CDF_BAND]))[0]
    scale = 0.5 / tail[0]
    out = np.zeros_like(au)
    inner = au < _CDF_BAND
    out[inner] = 0.5 - band(au[inner]) * scale
    mid = (au >= _CDF_BAND) & (au < _CDF_REACH)
    k = np.searchsorted(_CDF_EDGES, au[mid], side="right")
    out[mid] = (tail[k] + legendre(au[mid], _CDF_EDGES[k])) * scale
    return out


@pytest.mark.parametrize("mval", (1, 2, 10, 40, 54, 0.025, 0.5, 2.5, 12.3))
def test_unit_dimension_table_keeps_its_bits(mval):
    shape = ShapeParam.of(mval)
    au = np.concatenate((np.linspace(0.0, 45.0, 3001), [0.3, 0.3 - 1e-12, 40.0]))
    got = _CdfTable(shape, 1).lower_tail(au)
    np.testing.assert_array_equal(got, _unit_table_lower_tail(shape, au))


def _tail_score_written_out(p):
    """``sqrt(-2 log p) - sqrt(-2 log(1 - p))`` (NaN past 1)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sqrt(-2.0 * np.log(p)) - np.sqrt(-2.0 * np.log1p(-p))


def _both_tails_score(table, r):
    """The radial score as it was written before it took one tail past the
    median: ``below`` at every radius, then ``above`` where that exceeds 1/2."""
    below = table.below(r)
    upper = below > 0.5
    score = -_tail_score_written_out(below)
    score[upper] = _tail_score_written_out(table.above(r[upper]))
    return score


@pytest.mark.parametrize("dim", (1, 2, 3, 5))
@pytest.mark.parametrize("mval", (1e-3, 0.025, 0.5, 1, 2.5, 40, 54))
def test_one_tail_radial_score_keeps_its_bits(mval, dim):
    table = _CdfTable(ShapeParam.of(mval), dim)
    k = int(np.searchsorted(_CDF_EDGES, table.median_edge))
    # the median edge is the first panel edge past the median
    below_edges = table.below(_CDF_EDGES[k - 1:k + 1])
    assert below_edges[0] <= 0.5 < below_edges[1]
    r = np.concatenate((
        np.geomspace(1e-30, _CDF_BAND, 300, endpoint=False),  # the mode band
        np.linspace(_CDF_EDGES[k - 1], _CDF_EDGES[k + 1], 401),  # the median's panel and the next
        np.nextafter(table.median_edge, [0.0, np.inf]),
        np.linspace(_CDF_BAND, _CDF_REACH, 3001),  # out to the far tail
        [_CDF_REACH, 40.5, 1e3, np.inf, np.nan],  # beyond the reach
    ))
    np.testing.assert_array_equal(_radial_score(table, r), _both_tails_score(table, r))


def _inverse_from_every_candidate(table):
    """The radial inverse's nodes and coefficients from the both-tails score
    at every candidate radius, three Newton steps, and the cubic Hermite
    pieces ((c0 t + c1) t + c2) t + c3 with the last step's slopes."""
    sc = _both_tails_score(table, _RADIUS_CANDIDATES)
    keep = np.isfinite(sc)
    sc, log_rc = sc[keep], np.log(_RADIUS_CANDIDATES[keep])
    grid = np.linspace(max(sc[0], -_SCORE_REACH), min(sc[-1], _SCORE_REACH), _INVERSE_NODES)
    log_r = np.interp(grid, sc, log_rc)
    for _ in range(3):
        step, slope = _score_step(table, log_r, grid)
        log_r -= step
    r = np.exp(log_r)
    d, h = r * slope, np.diff(grid)
    m = np.diff(r) / h
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return grid, np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], r[:-1]))


@pytest.mark.parametrize("dim", (1, 2, 3, 5, 20, 60))
@pytest.mark.parametrize("mval", (1e-3, 0.025, 0.5, 2.5, 12.3, 40, 54))
def test_coarse_pass_keeps_the_inverse_bits(mval, dim):
    # the coarse pass takes the one-tail score at every candidate radius
    table = _CdfTable(ShapeParam.of(mval), dim)
    inverse = _RadialInverse(table)
    grid, coeffs = _inverse_from_every_candidate(table)
    np.testing.assert_array_equal(inverse.grid, grid)
    np.testing.assert_array_equal(inverse._coeffs, coeffs)


@pytest.mark.parametrize("mval,dim", [(0.025, 2), (2.5, 3), (40, 5), (0.5, 1), (40, 1)])
def test_inverse_table_matches_bisection(mval, dim):
    table = _CdfTable(ShapeParam.of(mval), dim)
    inverse = _RadialInverse(table)
    assert inverse.grid[0] <= -8.3 and inverse.grid[-1] >= 8.3
    scores = np.random.default_rng(11).uniform(-8.3, 8.3, 1000)
    lo, hi = np.zeros_like(scores), np.full_like(scores, _CDF_REACH)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = _radial_score(table, mid) < scores
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    assert np.max(np.abs(inverse.radius(scores) - 0.5 * (lo + hi))) <= 1e-6


@pytest.mark.parametrize("dim", (1, 2, 3, 5, 9))
@pytest.mark.parametrize("mval", (1e-3, 0.025, 0.5, 2.5, 40, 54))
def test_inverse_matches_bisection_on_the_log_tail_score(mval, dim):
    table = _CdfTable(ShapeParam.of(mval), dim)
    inverse = _RadialInverse(table)
    grid = inverse.grid
    # the grid holds the score of every nonzero uniform, at most 8.572
    assert grid[0] <= -8.58 and grid[-1] >= 8.58
    scores = np.concatenate((
        np.random.default_rng(12).uniform(grid[0], grid[-1], 400),
        np.linspace(-0.05, 0.05, 21),  # next to the median
        grid[:3], grid[-3:],           # at both ends of the grid
    ))
    lo, hi = np.zeros_like(scores), np.full_like(scores, _CDF_REACH)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = _radial_score(table, mid) < scores
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    assert np.max(np.abs(inverse.radius(scores) - 0.5 * (lo + hi))) <= 1e-6


@pytest.mark.parametrize("dim", (1, 2, 3, 5, 9, 20, 60))
@pytest.mark.parametrize("mval", (1e-3, 0.025, 0.5, 2.5, 12.3, 40, 54))
def test_hermite_inverse_is_within_3e_8(mval, dim):
    # the cubic takes each node's exact slope from the last Newton step
    table = _CdfTable(ShapeParam.of(mval), dim)
    inverse = _RadialInverse(table)
    grid = inverse.grid
    scores = np.concatenate((
        np.random.default_rng(13).uniform(grid[0], grid[-1], 600),
        np.linspace(-0.05, 0.05, 21), grid[:3], grid[-3:],
    ))
    lo, hi = np.zeros_like(scores), np.full_like(scores, _CDF_REACH)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = _radial_score(table, mid) < scores
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    assert np.max(np.abs(inverse.radius(scores) - 0.5 * (lo + hi))) <= 3e-8
    if dim == 1:
        # each draw is the quantile of its uniform without the Newton polish
        d = MultiGauss(0.0, 1.0, mval)
        x = d.sample(200_000, np.random.default_rng(14))
        u = np.random.default_rng(14).random(200_000)
        keep = u > 0.0
        assert np.max(np.abs(x[keep] - d.quantile(u[keep]))) <= 3e-8


def test_log_tail_score_is_odd(monkeypatch):
    p = np.concatenate((np.logspace(-300.0, math.log10(0.5), 400),
                        [0.5, 0.25, 1e-17, 5e-324, 0.0]))
    # one mass taken once as the upper tail and once as the lower tail
    upper = np.repeat([True, False], p.size)
    monkeypatch.setattr(_CdfTable, "smaller_tail", lambda self, r: (np.tile(p, 2), upper.copy()))
    score = _radial_score(_CdfTable(ShapeParam.of(2.5), 1), np.zeros(2 * p.size))
    np.testing.assert_array_equal(score[:p.size], -score[p.size:])
    assert score[p.size - 5] == 0.0 and score[p.size - 1] == np.inf
    assert np.all(np.diff(score[:400]) < 0.0)
    # either tail of a law may be taken: the score of 1 - p is that of p, negated
    half = p[(p >= 0.25) & (p <= 0.5)]
    np.testing.assert_allclose(_log_tail_score(1.0 - half), -_log_tail_score(half),
                               rtol=0.0, atol=1e-15)


class _ZeroFirst(np.random.Generator):
    """A generator whose first two uniforms of every call are exactly 0."""

    def random(self, size=None, dtype=np.float64, out=None):
        u = super().random(size, dtype, out)
        u[:2] = 0.0
        return u


@pytest.mark.parametrize("dim", (1, 3))
def test_zero_uniform_draws_a_finite_point(dim):
    mv = MvMultiGauss(np.zeros(dim), np.eye(dim), 2.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = mv.sample(5, _ZeroFirst(np.random.PCG64(4)))
    assert np.all(np.isfinite(x))
    # a uniform of 0 takes the radius at an end of the inverse's grid: the
    # upper end in one dimension (tail 0), the lower end in more (tail 1)
    inverse = mv._inverse
    if dim == 1:
        np.testing.assert_array_equal(x[:2, 0], -inverse.radius(inverse.grid[-1:])[0])
    else:
        np.testing.assert_allclose(np.linalg.norm(x[:2], axis=1),
                                   inverse.radius(inverse.grid[:1])[0], rtol=1e-12)


def _dkw(n, delta):
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


@pytest.mark.parametrize("mval,dim", [(1e-3, 2), (0.025, 3), (0.5, 2), (2.5, 3), (40, 5)])
def test_sampler_radial_law_and_symmetry(mval, dim):
    rng = np.random.default_rng(7)
    scale = rng.uniform(0.5, 2.0, dim)
    b = rng.normal(0.0, 0.4, (dim, dim))
    cov = (b @ b.T + np.eye(dim)) * np.outer(scale, scale)
    mean = rng.uniform(-1.0, 1.0, dim)
    n = 100_000
    x = MvMultiGauss(mean, cov, mval).sample(n, np.random.default_rng(8))
    z = np.linalg.solve(np.linalg.cholesky(cov), (x - mean).T)
    q = np.sort(np.sum(z * z, axis=0))
    points = (0.05, 0.25, 1.0, 2.0, 4.0, 8.0, 16.0)
    below, _ = _radial_masses(mval, dim, points)
    got = np.searchsorted(q, points, side="right") / n
    # false-alarm rate 1e-6 for the radial law and for the sign tests together
    assert np.max(np.abs(got - below)) <= _dkw(n, 0.5e-6)
    negative = np.mean(z < 0.0, axis=1)
    assert np.max(np.abs(negative - 0.5)) <= _dkw(n, 0.5e-6 / dim)


def test_same_seed_same_points():
    mv = MvMultiGauss([0.0, 1.0, 2.0], np.diag([1.0, 2.0, 3.0]), 0.5)
    a = mv.sample(2000, np.random.default_rng(3))
    b = MvMultiGauss([0.0, 1.0, 2.0], np.diag([1.0, 2.0, 3.0]), 0.5).sample(
        2000, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, mv.sample(2000, np.random.default_rng(4)))


def test_threads_sharing_one_object_match_one_thread():
    mv = MvMultiGauss([0.5, -0.5], [[1.0, 0.4], [0.4, 2.0]], 2.5)
    seeds = range(8)
    want = [MvMultiGauss(mv.mean, mv.cov, 2.5).sample(5000, np.random.default_rng(s))
            for s in seeds]
    got = [None] * 8
    start = threading.Barrier(8)

    def work(i):
        start.wait(timeout=60.0)  # every thread meets the object before its tables exist
        got[i] = mv.sample(5000, np.random.default_rng(seeds[i]))

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
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_tiny_shape_draws_fast():
    mv = MvMultiGauss([0.0, 0.0], np.eye(2), 1e-3)
    t0 = time.perf_counter()
    x = mv.sample(100_000, np.random.default_rng(0))
    assert time.perf_counter() - t0 < 0.5
    assert x.shape == (100_000, 2) and np.all(np.isfinite(x))


def test_one_dimension_is_the_univariate_law():
    mv = MvMultiGauss([0.0], [[1.0]], 2.5)
    x = mv.sample(100_000, np.random.default_rng(2))[:, 0]
    assert abs(np.mean(x < 0.0) - 0.5) <= _dkw(100_000, 1e-6)
    from multigauss import MultiGauss

    u = np.sort(x)
    pts = np.array([-2.0, -1.0, -0.2, 0.3, 1.5])
    got = np.searchsorted(u, pts, side="right") / u.size
    assert np.max(np.abs(got - MultiGauss(0.0, 1.0, 2.5).cdf(pts))) <= _dkw(100_000, 1e-6)


def test_dimension_beyond_the_table_raises():
    mv = MvMultiGauss(np.zeros(1000), np.eye(1000), 2.5)
    with pytest.raises(ValueError, match="beyond the table"):
        mv.sample(10, np.random.default_rng(0))


@pytest.mark.parametrize("dim,mval", [(1100, 1), (1300, 2)])
def test_law_beyond_the_reach_raises_in_high_dimension(dim, mval):
    # the radius concentrates near sqrt(N) ~ 33-36, within 4 of the table's
    # reach: the reach check must reject the table
    mv = MvMultiGauss(np.zeros(dim), np.eye(dim), mval)
    with pytest.raises(ValueError, match="beyond the table"):
        mv.ellipsoid_mass(float(dim))
    if mval == 1:
        assert np.all(np.isfinite(mv.sample(10, np.random.default_rng(0))))
    else:
        with pytest.raises(ValueError, match="beyond the table"):
            mv.sample(10, np.random.default_rng(0))


@pytest.mark.parametrize("mval", (55, 56, 57, 58))
def test_inexact_integer_normalization_raises(mval):
    with pytest.raises(SeriesNotConverged):
        MvMultiGauss([0.0, 0.0], np.eye(2), mval)
    MvMultiGauss([0.0, 0.0], np.eye(2), 54)  # the last exact shape still builds
