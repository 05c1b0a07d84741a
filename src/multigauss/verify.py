"""Verification suites: library values against independent oracle values.

Each suite returns a list of :class:`~multigauss.oracle.OracleReport`; the
CLI ``verify`` subcommand serializes them and exits nonzero when any report
fails.  The oracle side never reuses production code paths: densities are
re-expressed directly from their defining formulas and integrated with the
self-contained Gauss-Kronrod engine from :mod:`multigauss.oracle`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaincinv

from .logmg import LogMultiGauss
from .multivariate import BivariateParams, MvMultiGauss, bivariate_pdf
from .oracle import (
    OracleReport,
    QuadratureSpec,
    _panel_nodes,
    finite_diff,
    gaussian_cdf,
    gaussian_pdf,
    integrate,
    integrate_2d_graded,
    integrate_cos_weighted,
    ks_statistic,
)
from .series import TruncationPolicy, series_s, signed_coeffs, xi_coeff
from .univariate import MultiGauss

__all__ = ["SUITES", "run_suite", "series_reports", "univariate_reports",
           "lmg_reports", "mv_reports"]

SUITES = ("series", "univariate", "lmg", "mv")

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Asymptotic one-sample Kolmogorov-Smirnov critical value at alpha = 0.01.
KS_CRIT_001 = 1.63

#: Fixed seeds so every verification run is reproducible.
SEED_UNIVARIATE = 20240613
SEED_LMG = 20240614
SEED_MV = 20240615


def _profile_oracle(t, mval: float):
    """Unnormalized profile written out directly (oracle-side implementation)."""
    return 1.0 - (1.0 - np.exp(-0.5 * t * t)) ** mval


# ---------------------------------------------------------------------------
# series suite
# ---------------------------------------------------------------------------

def series_reports() -> list[OracleReport]:
    reports = []
    for alpha in (0.5, 1.5, 2.5, 7.0):
        r = series_s(alpha, 1)
        reports.append(OracleReport(
            f"series/S({alpha}; M=1) == 1", r.value, 1.0, abs_tol=0.0,
            notes="single-term series, exact for every exponent"))
    # normalization constant equals quadrature of the unnormalized profile
    for mval in (1, 2, 10, 0.5, 2.5):
        c0 = series_s(0.5, mval).value
        q = integrate(lambda t, mv=float(mval): _profile_oracle(t, mv),
                      QuadratureSpec(-14.0, 14.0, abs_tol=1e-13, rel_tol=1e-12)) / _SQRT_2PI
        reports.append(OracleReport(
            f"series/c0(M={mval}) vs profile quadrature", c0, q, rel_tol=1e-8))
    # harmonic-number identity: S(1; M) = 1 + 1/2 + ... + 1/M for integer M
    for mval in (10, 40):
        harm = math.fsum(1.0 / k for k in range(1, mval + 1))
        reports.append(OracleReport(
            f"series/S(1; M={mval}) vs harmonic number", series_s(1.0, mval).value,
            harm, rel_tol=1e-13))
    # truncation stability of the fractional normalization
    a = series_s(0.5, 2.5, TruncationPolicy(max_terms=2000))
    b = series_s(0.5, 2.5, TruncationPolicy(max_terms=4000))
    reports.append(OracleReport(
        "series/c0(M=2.5) cap 2000 vs 4000", a.value, b.value, abs_tol=1e-8))
    # the moment ratios of the profile-integral rule against the series, the oracle
    for mval in (2, 10, 0.5, 2.5):
        d = MultiGauss(0.0, 1.0, mval)
        for n in (1, 2, 3, 4):
            reports.append(OracleReport(
                f"series/xi_{n}(M={mval}) rule vs series", d.xi(n), xi_coeff(n, mval),
                rel_tol=1e-13))
    # positive-term series have unit condition number
    for mval in (0.5, 0.025):
        r = series_s(0.5, mval)
        reports.append(OracleReport(
            f"series/condition(M={mval}) == 1", r.condition_number, 1.0, abs_tol=0.0,
            notes="all terms positive below M=1: no cancellation"))
    return reports


# ---------------------------------------------------------------------------
# univariate suite
# ---------------------------------------------------------------------------

def _pdf_mass_with_tail(d: MultiGauss) -> float:
    """Quadrature over mu +- 12 sigma plus the analytic Gaussian tail bound."""
    lo = d.mu - 12.0 * d.sigma
    hi = d.mu + 12.0 * d.sigma
    mass = integrate(d.pdf, QuadratureSpec(lo, hi, abs_tol=1e-12, rel_tol=1e-11))
    # profile <= max(M,1) e^-w, so each tail is below max(M,1)/c0 * Phi(-12)
    tail = max(d.shape.value, 1.0) / d.c0 * math.erfc(12.0 / math.sqrt(2.0))
    return mass + tail


def univariate_reports() -> list[OracleReport]:
    reports = []
    for mval in (1, 2, 10, 40, 0.5, 1.0 / 40.0, 2.5):
        d = MultiGauss(0.0, 1.0, mval)
        reports.append(OracleReport(
            f"univariate/mass(M={mval:g})", _pdf_mass_with_tail(d), 1.0, abs_tol=1e-9))
    # Gaussian reduction at M = 1
    d1 = MultiGauss(0.0, 1.0, 1)
    xs = np.linspace(-6.0, 6.0, 1000)
    dev_pdf = float(np.max(np.abs(d1.pdf(xs) - gaussian_pdf(xs))))
    dev_cdf = float(np.max(np.abs(d1.cdf(xs) - gaussian_cdf(xs))))
    reports.append(OracleReport("univariate/pdf reduction M=1", dev_pdf, 0.0, abs_tol=1e-15))
    reports.append(OracleReport("univariate/cdf reduction M=1", dev_cdf, 0.0, abs_tol=1e-15))
    # moments against direct quadrature
    for mval in (2, 0.5):
        d = MultiGauss(2.0, 0.5, mval)
        for k in (1, 2, 3, 4):
            q = integrate(lambda x, kk=k: x**kk * d.pdf(x),
                          QuadratureSpec(d.mu - 13 * d.sigma, d.mu + 13 * d.sigma,
                                         abs_tol=1e-13, rel_tol=1e-11))
            reports.append(OracleReport(
                f"univariate/moment k={k} (M={mval:g}, mu=2, sigma=0.5)",
                d.raw_moment(k), q, rel_tol=1e-8))
    # cumulant closed forms
    d = MultiGauss(0.5, 1.5, 10)
    xi1, xi2 = d.xi(1), d.xi(2)
    reports.append(OracleReport("univariate/kappa2 closed form", d.cumulant(2),
                                d.sigma**2 * xi1, rel_tol=1e-10))
    reports.append(OracleReport("univariate/kappa4 closed form", d.cumulant(4),
                                3.0 * d.sigma**4 * (xi2 - xi1 * xi1), rel_tol=1e-8))
    # cdf derivative equals pdf
    worst = 0.0
    xs = np.array([-2.5, -0.9, 0.35, 1.8])
    for mval in (10, 0.5):
        d = MultiGauss(0.0, 1.0, mval)
        p = d.pdf(xs)
        worst = max(worst, float(np.max(np.abs(finite_diff(d.cdf, xs, 1e-5) - p) / p)))
    reports.append(OracleReport("univariate/cdf' vs pdf (spot grid)", worst, 0.0,
                                abs_tol=1e-6))
    # characteristic function against oscillatory quadrature
    for mval in (2, 10):
        d = MultiGauss(0.0, 1.0, mval)
        for omega in (0.5, 1.0, 2.0, 5.0):
            q = integrate_cos_weighted(d.pdf, omega, -13.0, 13.0, abs_tol=1e-11)
            reports.append(OracleReport(
                f"univariate/cf(omega={omega:g}, M={mval})", d.cf(omega).real, q,
                abs_tol=1e-8))
    # the variant with an extra 1/m factor inside the sum is NOT the
    # characteristic function: demonstrate the mismatch explicitly.
    d = MultiGauss(0.0, 1.0, 10)
    omega = 1.0
    coeffs = signed_coeffs(d.shape, 10)
    ms = np.arange(1.0, 11.0)
    variant = float(np.sum(coeffs / (ms * np.sqrt(ms)) * np.exp(-0.5 * omega**2 / ms))) / d.c0
    q = integrate_cos_weighted(d.pdf, omega, -13.0, 13.0, abs_tol=1e-11)
    rep = OracleReport(
        "univariate/cf variant with extra 1/m factor mismatches quadrature",
        variant, q,
        notes="this check passes when the variant DISAGREES by more than 1e-3; "
              "the m^-n-free form above is the one matching the oracle")
    rep.passed = abs(variant - q) > 1e-3
    reports.append(rep)
    # quantile round trip
    for mval in (1, 10, 0.5):
        d = MultiGauss(0.0, 1.0, mval)
        levels = np.array([0.01, 0.25, 0.9, 0.999])
        worst = float(np.max(np.abs(d.cdf(d.quantile(levels)) - levels)))
        reports.append(OracleReport(
            f"univariate/quantile round trip (M={mval:g})", worst, 0.0, abs_tol=1e-10))
    # sampler Kolmogorov-Smirnov at n = 1e5
    n = 100_000
    for mval in (1, 10, 0.5):
        d = MultiGauss(0.0, 1.0, mval)
        rng = np.random.default_rng(SEED_UNIVARIATE)
        xs = np.sort(d.sample(n, rng))
        ks = ks_statistic(xs, d.cdf)
        reports.append(OracleReport(
            f"univariate/sampler KS (M={mval:g}, n=1e5)", ks, 0.0,
            abs_tol=KS_CRIT_001 / math.sqrt(n),
            notes=f"seed {SEED_UNIVARIATE}"))
    return reports


# ---------------------------------------------------------------------------
# log-scale suite
# ---------------------------------------------------------------------------

def _lmg_mass(d: LogMultiGauss) -> float:
    # integrate in log space: y = e^x turns the density into pdf_X(x)
    base = d.base
    lo = base.mu - 13.0 * base.sigma
    hi = base.mu + 13.0 * base.sigma
    return integrate(lambda x: d.pdf(np.exp(x)) * np.exp(x),
                     QuadratureSpec(lo, hi, abs_tol=1e-11, rel_tol=1e-10))


def lmg_reports() -> list[OracleReport]:
    reports = []
    for mval in (1, 2, 10, 40, 0.5):
        d = LogMultiGauss(0.0, 1.0, mval)
        reports.append(OracleReport(
            f"lmg/mass(M={mval:g})", _lmg_mass(d), 1.0, abs_tol=1e-8))
    # reduction to the classic log-normal at M = 1
    d1 = LogMultiGauss(0.0, 1.0, 1)
    ys = np.exp(np.linspace(-4.0, 4.0, 200))
    ref_pdf = np.exp(-0.5 * np.log(ys) ** 2) / (ys * _SQRT_2PI)
    dev = float(max(np.max(np.abs(d1.pdf(ys) - ref_pdf)),
                    np.max(np.abs(d1.cdf(ys) - gaussian_cdf(np.log(ys))))))
    reports.append(OracleReport("lmg/log-normal reduction M=1", dev, 0.0, abs_tol=1e-12))
    # moments against log-space quadrature
    for mval in (1, 2, 10):
        d = LogMultiGauss(0.0, 1.0, mval)
        for k in (1, 2, 3, 4):
            q = integrate(lambda x, kk=k: np.exp(kk * x) * d.base.pdf(x),
                          QuadratureSpec(-14.0, 4.0 * k + 14.0, abs_tol=1e-12, rel_tol=1e-10))
            reports.append(OracleReport(
                f"lmg/moment k={k} (M={mval})", d.moment(k), q, rel_tol=1e-7))
    # density maximum moves toward zero as the shape parameter grows
    modes = []
    for mval in (1, 2, 10, 40):
        d = LogMultiGauss(0.0, 1.0, mval)
        modes.append(_golden_max(d.pdf, 1e-6, 3.0))
    rep = OracleReport("lmg/mode location strictly decreasing in M",
                       min(np.diff(modes)), 0.0,
                       notes=f"modes {['%.5f' % v for v in modes]} for M=1,2,10,40")
    rep.passed = bool(np.all(np.diff(modes) < 0.0))
    reports.append(rep)
    # sampler
    n = 100_000
    d = LogMultiGauss(0.0, 1.0, 10)
    rng = np.random.default_rng(SEED_LMG)
    ys = np.sort(d.sample(n, rng))
    reports.append(OracleReport(
        "lmg/sampler KS (M=10, n=1e5)", ks_statistic(ys, d.cdf), 0.0,
        abs_tol=KS_CRIT_001 / math.sqrt(n), notes=f"seed {SEED_LMG}"))
    reports.append(OracleReport(
        "lmg/sampler positivity", float(np.min(ys) > 0.0), 1.0, abs_tol=0.0))
    return reports


def _golden_max(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section search for the maximizer of a unimodal function."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# multivariate suite
# ---------------------------------------------------------------------------

def _mv_mass(mv: MvMultiGauss, reach: float = 10.0) -> float:
    s1 = math.sqrt(mv.cov[0, 0])
    s2 = math.sqrt(mv.cov[1, 1])

    def f(gx, gy):
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        return mv.pdf(pts).reshape(gx.shape)

    return integrate_2d_graded(f, (mv.mean[0], mv.mean[1]),
                               (reach * s1, reach * s2), panels_per_side=40, order=8)


def _chi2_critical(df: int) -> float:
    """Upper 1 % point of the chi-square law with ``df`` degrees of freedom.

    ``2 P^-1(df/2, 0.99)`` with ``P`` the regularized lower incomplete gamma
    function: the formula, and the bits, of ``scipy.stats.chi2.ppf(0.99, df)``.
    """
    return float(2.0 * gammaincinv(df / 2, 0.99))


def _chi2_gof(mv: MvMultiGauss, n: int, seed: int, bins: int = 20, reach: float = 4.0):
    """Binned goodness of fit of the sampler against the density.

    Cell probabilities come from per-cell Gauss-Legendre quadrature; cells
    with expected count below 10 are pooled (together with the region outside
    the grid).  Returns (chi2, critical value at alpha = 0.01).
    """
    rng = np.random.default_rng(seed)
    pts = mv.sample(n, rng)
    s1 = math.sqrt(mv.cov[0, 0])
    s2 = math.sqrt(mv.cov[1, 1])
    ex = mv.mean[0] + s1 * np.linspace(-reach, reach, bins + 1)
    ey = mv.mean[1] + s2 * np.linspace(-reach, reach, bins + 1)
    counts, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=[ex, ey])
    # per-cell probabilities with a 6-point tensor rule per cell
    nx, wx = _panel_nodes(ex, 6)
    ny, wy = _panel_nodes(ey, 6)
    gx, gy = np.meshgrid(nx, ny, indexing="ij")
    vals = mv.pdf(np.stack([gx.ravel(), gy.ravel()], axis=1)).reshape(gx.shape)
    block = vals * wx[:, None] * wy[None, :]
    probs = block.reshape(bins, 6, bins, 6).sum(axis=(1, 3))
    outside_prob = max(1.0 - probs.sum(), 0.0)
    outside_count = n - counts.sum()
    exp_flat = (probs * n).ravel()
    obs_flat = counts.ravel()
    keep = exp_flat >= 10.0
    pooled_exp = exp_flat[~keep].sum() + outside_prob * n
    pooled_obs = obs_flat[~keep].sum() + outside_count
    chi2 = float(np.sum((obs_flat[keep] - exp_flat[keep]) ** 2 / exp_flat[keep]))
    groups = int(np.count_nonzero(keep))
    if pooled_exp > 0.0:
        chi2 += (pooled_obs - pooled_exp) ** 2 / pooled_exp
        groups += 1
    crit = _chi2_critical(groups - 1)
    return chi2, crit


#: Points of Q at which the radial law of the sampler is checked, and the
#: false-alarm rate of that check.
_RADIAL_POINTS = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0)
_RADIAL_ALARM = 1e-3


def _radial_gof(mval: float, dim: int, n: int, seed: int) -> tuple[float, float]:
    """Largest gap between the sampled and the quadrature law of Q.

    ``P(Q <= q)`` is the integral of ``t^(N/2-1) f(t/2)`` over ``[0, q]``
    divided by the integral over ``[0, inf)``, each by Gauss-Kronrod
    quadrature of the profile written out directly.  Returns the gap and the
    Dvoretzky-Kiefer-Wolfowitz bound it exceeds with probability
    `_RADIAL_ALARM` for a correct sampler.
    """
    mv = MvMultiGauss(np.zeros(dim), np.eye(dim), mval)
    x = mv.sample(n, np.random.default_rng(seed))
    q = np.einsum("ij,ij->i", x, x)

    def density(t):
        return t ** (0.5 * dim - 1.0) * _profile_oracle(np.sqrt(t), mval)

    # beyond Q = 100 the profile is below M e^-50: no mass at this tolerance
    edges = (0.0,) + _RADIAL_POINTS + (100.0,)
    pieces = [integrate(density, QuadratureSpec(a, b, abs_tol=1e-12))
              for a, b in zip(edges[:-1], edges[1:])]
    total = math.fsum(pieces)
    want = np.cumsum(pieces[:-1]) / total
    got = np.count_nonzero(q[:, None] <= np.array(_RADIAL_POINTS), axis=0) / n
    eps = math.sqrt(math.log(2.0 / _RADIAL_ALARM) / (2.0 * n))
    return float(np.max(np.abs(got - want))), eps


def mv_reports() -> list[OracleReport]:
    reports = []
    for mval in (1, 40, 1.0 / 40.0):
        for rho in (0.0, 0.7):
            p = BivariateParams(0.0, 0.0, 1.0, 1.0, rho)
            mv = MvMultiGauss(p.mean(), p.covariance(), mval)
            mass = _mv_mass(mv)
            reports.append(OracleReport(
                f"mv/mass(M={mval:g}, rho={rho:g})", mass, 1.0, abs_tol=1e-6))
    # mass that the naive one-dimensional normalization constant would give:
    # S(1/2)-normalized density integrates to S(1/2)/S(1), not 1.
    for mval in (40, 1.0 / 40.0):
        s_half = series_s(0.5, mval).value
        s_one = series_s(1.0, mval).value
        naive_mass = s_half / s_one
        rep = OracleReport(
            f"mv/naive 1-D constant mass deficit (M={mval:g})", naive_mass, 1.0,
            notes="a bivariate density normalized by the univariate constant "
                  f"would carry total mass {naive_mass:.6f}; the dimension-"
                  "matched constant is used instead and the masses above are 1")
        rep.passed = True
        reports.append(rep)
    # dimensional reduction N=1
    mv1 = MvMultiGauss([0.5], [[4.0]], 10)
    d1 = MultiGauss(0.5, 2.0, 10)
    xs = np.array([-3.0, 0.1, 0.5, 2.2, 6.0])
    dev = float(np.max(np.abs(mv1.pdf(xs[:, None]) - d1.pdf(xs))))
    reports.append(OracleReport("mv/N=1 reduction to univariate", dev, 0.0, abs_tol=1e-15))
    # bivariate closed form against the Cholesky path
    p = BivariateParams(0.3, -0.2, 1.2, 0.8, 0.7)
    mv = MvMultiGauss(p.mean(), p.covariance(), 40)
    pts = np.array([[0.3, -0.2], [1.0, 1.0], [-1.4, 0.9], [2.8, -2.0]])
    b = mv.pdf(pts)
    dev = float(np.max(np.abs(bivariate_pdf(p, 40, pts[:, 0], pts[:, 1]) - b)
                       / np.maximum(np.abs(b), 1e-300)))
    reports.append(OracleReport("mv/bivariate closed form vs Cholesky", dev, 0.0,
                                abs_tol=1e-13))
    # sampler goodness of fit in 2-D
    for mval in (1, 10):
        mv = MvMultiGauss([0.0, 0.0], np.eye(2), mval)
        chi2, crit = _chi2_gof(mv, 100_000, SEED_MV)
        rep = OracleReport(
            f"mv/sampler chi^2 (M={mval}, n=1e5)", chi2, crit,
            notes=f"seed {SEED_MV}; passes when chi2 <= critical value (alpha=0.01)")
        rep.passed = bool(chi2 <= crit)
        reports.append(rep)
    # radial law of the sampler in N = 3
    for mval in (40, 1.0 / 40.0):
        gap, eps = _radial_gof(mval, 3, 100_000, SEED_MV)
        reports.append(OracleReport(
            f"mv/sampler radial DKW (M={mval:g}, N=3, n=1e5)", gap, 0.0, abs_tol=eps,
            notes=f"seed {SEED_MV}; max |F_n - F| of Q at {len(_RADIAL_POINTS)} points "
                  f"against quadrature; DKW bound at false-alarm rate {_RADIAL_ALARM:g}"))
    return reports


def run_suite(name: str) -> list[OracleReport]:
    """Run one suite (or ``'all'``) and return its reports."""
    table = {
        "series": series_reports,
        "univariate": univariate_reports,
        "lmg": lmg_reports,
        "mv": mv_reports,
    }
    if name == "all":
        out = []
        for suite in SUITES:
            out.extend(table[suite]())
        return out
    if name not in table:
        raise ValueError(f"unknown suite {name!r}; choose from {('all',) + SUITES}")
    return table[name]()
