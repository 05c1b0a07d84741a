"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single ``[acceptance] criterion N ...: PASS/FAIL`` line (run with
``pytest -s`` to see them as they appear).  Criteria 1 and 10 also enforce
their runtime budgets.
"""

import math
import time
from fractions import Fraction

import numpy as np

from multigauss import (
    BivariateParams,
    LogMultiGauss,
    MultiGauss,
    MvMultiGauss,
    TruncationPolicy,
    bivariate_pdf,
    series_s,
    signed_coeffs,
)
from multigauss.cli import main as cli_main
from multigauss.oracle import (
    QuadratureSpec,
    finite_diff,
    gaussian_cdf,
    gaussian_pdf,
    integrate,
    integrate_2d_graded,
    integrate_cos_weighted,
    ks_statistic,
)
from multigauss.verify import KS_CRIT_001, _chi2_gof, _golden_max, _pdf_mass_with_tail

EPS = np.finfo(float).eps
SQRT_2PI = math.sqrt(2.0 * math.pi)

M_NORMALIZATION = (1, 2, 10, 40, 0.5, 1.0 / 40.0, 2.5)
SAMPLER_SEED = 20240601


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num} {label}: {status}{suffix}")
    assert ok, f"criterion {num} {label} failed{suffix}"


def _lmg_mass(d: LogMultiGauss) -> float:
    base = d.base
    return integrate(lambda x: d.pdf(np.exp(x)) * np.exp(x),
                     QuadratureSpec(base.mu - 13, base.mu + 13,
                                    abs_tol=1e-11, rel_tol=1e-10))


def _mv_mass(mval: float, rho: float) -> float:
    p = BivariateParams(0.0, 0.0, 1.0, 1.0, rho)
    mv = MvMultiGauss(p.mean(), p.covariance(), mval)

    def f(gx, gy):
        return mv.pdf(np.stack([gx.ravel(), gy.ravel()], axis=1)).reshape(gx.shape)

    return integrate_2d_graded(f, (0.0, 0.0), (10.0, 10.0), panels_per_side=40, order=8)


def test_criterion_01_normalization():
    t0 = time.perf_counter()
    worst_uni = max(abs(_pdf_mass_with_tail(MultiGauss(0.0, 1.0, m)) - 1.0)
                    for m in M_NORMALIZATION)
    worst_lmg = max(abs(_lmg_mass(LogMultiGauss(0.0, 1.0, m)) - 1.0)
                    for m in (1, 2, 10, 40, 0.5))
    worst_mv = max(abs(_mv_mass(m, rho) - 1.0)
                   for m in (1, 40, 1.0 / 40.0) for rho in (0.0, 0.7))
    elapsed = time.perf_counter() - t0
    ok = worst_uni <= 1e-9 and worst_lmg <= 1e-8 and worst_mv <= 1e-6 and elapsed < 10.0
    _report(1, "normalization",
            ok, f"uni {worst_uni:.1e}, lmg {worst_lmg:.1e}, 2d {worst_mv:.1e}, "
                f"{elapsed:.1f}s")


def test_criterion_02_gaussian_reduction():
    d = MultiGauss(0.0, 1.0, 1)
    xs = np.linspace(-6.0, 6.0, 1000)
    ts = np.linspace(-1.0, 1.0, 1000)
    ws = np.linspace(-3.0, 3.0, 1000)
    dev = 0.0
    for x in xs:
        dev = max(dev, abs(float(d.pdf(x)) - gaussian_pdf(float(x))))
        dev = max(dev, abs(d.cdf(float(x)) - gaussian_cdf(float(x))))
    for t in ts:
        dev = max(dev, abs(d.mgf(float(t)) - math.exp(0.5 * t * t)))
    for w in ws:
        dev = max(dev, abs(d.cf(float(w)) - math.exp(-0.5 * w * w)))
    lg = LogMultiGauss(0.0, 1.0, 1)
    dev_lmg = 0.0
    for y in np.geomspace(0.05, 20.0, 1000):
        ref_pdf = math.exp(-0.5 * math.log(y) ** 2) / (y * SQRT_2PI)
        dev_lmg = max(dev_lmg, abs(lg.pdf(float(y)) - ref_pdf))
        dev_lmg = max(dev_lmg, abs(lg.cdf(float(y)) - gaussian_cdf(math.log(y))))
    ok = dev <= 1e-15 and dev_lmg <= 1e-12
    _report(2, "Gaussian/log-normal reduction", ok,
            f"max dev {dev:.2e}, lmg {dev_lmg:.2e}")


def test_criterion_03_moments_vs_quadrature():
    worst = 0.0
    for mval in (1, 2, 10, 0.5):
        for mu, sigma in ((0.0, 1.0), (2.0, 0.5)):
            d = MultiGauss(mu, sigma, mval)
            for k in (1, 2, 3, 4):
                q = integrate(lambda x, kk=k: x**kk * d.pdf(x),
                              QuadratureSpec(mu - 13 * sigma, mu + 13 * sigma,
                                             abs_tol=1e-13, rel_tol=1e-11))
                scale = max(abs(q), sigma**k)  # odd central moments vanish
                worst = max(worst, abs(d.raw_moment(k) - q) / scale)
    _report(3, "raw moments vs quadrature", worst <= 1e-8, f"worst rel {worst:.2e}")


def test_criterion_04_cumulants():
    ok = True
    detail = []
    for mval in (1, 2, 10, 0.5):
        for mu, sigma in ((0.0, 1.0), (2.0, 0.5)):
            d = MultiGauss(mu, sigma, mval)
            xi1, xi2 = d.xi(1), d.xi(2)
            ok &= d.cumulant(1) == mu
            ok &= abs(d.cumulant(2) - sigma**2 * xi1) <= 1e-10 * sigma**2 * xi1
            ok &= abs(d.cumulant(3)) <= 1e-10 * sigma**3
            k4 = 3.0 * sigma**4 * (xi2 - xi1 * xi1)
            if mval == 1:
                ok &= abs(d.cumulant(4)) <= 1e-8 * sigma**4
            else:
                ok &= abs(d.cumulant(4) - k4) <= 1e-8 * abs(k4)
            ok &= abs(d.cumulant(5)) <= 1e-8 * sigma**5
    _report(4, "cumulant closed forms", bool(ok))


def test_criterion_05_cdf_pdf_consistency():
    worst = 0.0
    for mval in (1, 10, 40, 0.5):
        d = MultiGauss(0.0, 1.0, mval)
        for x in np.linspace(-4.0, 4.0, 50):
            fd = finite_diff(d.cdf, float(x), 1e-5)
            p = float(d.pdf(x))
            worst = max(worst, abs(fd - p) / p)
    _report(5, "cdf derivative vs pdf", worst <= 1e-6, f"worst rel {worst:.2e}")


def test_criterion_06_quantile_round_trip():
    worst = 0.0
    levels = (0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999)
    for mval in (1, 10, 0.5):
        d = MultiGauss(0.0, 1.0, mval)
        for u in levels:
            worst = max(worst, abs(d.cdf(d.quantile(u)) - u))
    _report(6, "quantile round trip", worst <= 1e-10, f"worst {worst:.2e}")


def _series_pdf(d: MultiGauss, x: float):
    """Density of an integer shape by its alternating Gaussian series.

    Returns ``(value, condition number)``; each term is the exact product of
    the exact binomial coefficient and the float ``e^(-m w)``, and the terms
    are summed exactly as fractions.
    """
    w = 0.5 * ((x - d.mu) / d.sigma) ** 2
    mi = d.shape.int_value
    terms = [Fraction(math.comb(mi, m)) * Fraction(math.exp(-m * w)) for m in range(1, mi + 1)]
    total = sum(t if m % 2 else -t for m, t in enumerate(terms, 1))
    value = float(total) / (d.c0 * SQRT_2PI * d.sigma)
    return value, max(float(sum(terms) / abs(total)), 1.0)


def test_criterion_07_series_vs_closed_form():
    ok = True
    for mval in (2, 10, 40):
        d = MultiGauss(0.0, 1.0, mval)
        peak = float(d.pdf(0.0))
        for x in np.linspace(-5.0, 5.0, 200):
            value, cond = _series_pdf(d, float(x))
            tol = 100.0 * cond * EPS * peak
            ok &= abs(value - float(d.pdf(x))) <= max(tol, 1e-15)
    # at the condition-number hot spot (the mode, condition ~1e12 at M=40)
    # the naive series would float at ~1e-5 absolute error; the compensated
    # series stays below 1e-8
    d40 = MultiGauss(0.0, 1.0, 40)
    value, cond = _series_pdf(d40, 0.0)
    dd_err = abs(value - float(d40.pdf(0.0)))
    ok &= cond > 1e9 and dd_err <= 1e-8
    _report(7, "series vs closed form", bool(ok),
            f"M=40 mode err {dd_err:.1e} at condition {cond:.1e}")


def test_criterion_08_cf_adjudication():
    worst = 0.0
    for mval in (2, 10):
        d = MultiGauss(0.0, 1.0, mval)
        for w in (0.5, 1.0, 2.0, 5.0):
            q = integrate_cos_weighted(d.pdf, w, -13.0, 13.0,
                                       abs_tol=1e-11)
            worst = max(worst, abs(d.cf(w).real - q))
    # printed variant carrying an extra 1/m inside the sum must NOT match
    d = MultiGauss(0.0, 1.0, 10)
    coeffs = signed_coeffs(10, 10)
    ms = np.arange(1.0, 11.0)
    variant = float(np.sum(coeffs / (ms * np.sqrt(ms)) * np.exp(-0.5 / ms))) / d.c0
    q1 = integrate_cos_weighted(d.pdf, 1.0, -13.0, 13.0,
                                abs_tol=1e-11)
    mismatch = abs(variant - q1)
    ok = worst <= 1e-8 and mismatch > 1e-3
    _report(8, "characteristic function adjudication", ok,
            f"worst {worst:.2e}; variant mismatch {mismatch:.2e}")


def test_criterion_09_lmg_moments_and_mode():
    worst = 0.0
    for mval in (1, 2, 10):
        d = LogMultiGauss(0.0, 1.0, mval)
        for k in (1, 2, 3, 4):
            q = integrate(lambda x, kk=k: np.exp(kk * x) * d.base.pdf(x),
                          QuadratureSpec(-14.0, 4.0 * k + 14.0,
                                         abs_tol=1e-12, rel_tol=1e-10))
            worst = max(worst, abs(d.moment(k) - q) / q)
    modes = [_golden_max(LogMultiGauss(0.0, 1.0, m).pdf, 1e-6, 3.0)
             for m in (1, 2, 10, 40)]
    decreasing = bool(np.all(np.diff(modes) < 0.0))
    ok = worst <= 1e-7 and decreasing
    _report(9, "log-scale moments and mode ordering", ok,
            f"worst rel {worst:.2e}; modes decreasing: {decreasing}")


def test_criterion_10_samplers():
    t0 = time.perf_counter()
    n = 100_000
    thresh = KS_CRIT_001 / math.sqrt(n)
    ok = True
    details = []
    for mval in (1, 10, 0.5):
        d = MultiGauss(0.0, 1.0, mval)
        xs = np.sort(d.sample(n, np.random.default_rng(SAMPLER_SEED)))
        ks = ks_statistic(xs, d.cdf)
        ok &= ks < thresh
        details.append(f"mg{mval:g}:{ks:.4f}")
    for mval in (1, 10, 0.5):
        d = LogMultiGauss(0.0, 1.0, mval)
        ys = np.sort(d.sample(n, np.random.default_rng(SAMPLER_SEED + 1)))
        ks = ks_statistic(ys, d.cdf)
        ok &= ks < thresh
        details.append(f"lmg{mval:g}:{ks:.4f}")
    for mval in (1, 10):
        mv = MvMultiGauss([0.0, 0.0], np.eye(2), mval)
        chi2, crit = _chi2_gof(mv, n, SAMPLER_SEED + 2)
        ok &= chi2 <= crit
        details.append(f"mv{mval}:chi2 {chi2:.0f}/{crit:.0f}")
    elapsed = time.perf_counter() - t0
    ok = bool(ok) and elapsed < 60.0
    _report(10, "sampler goodness of fit", ok,
            f"{'; '.join(details)}; KS thresh {thresh:.4f}; {elapsed:.0f}s")


def test_criterion_11_fractional_truncation():
    a = series_s(0.5, 2.5, TruncationPolicy(max_terms=2000))
    b = series_s(0.5, 2.5, TruncationPolicy(max_terms=4000))
    stable = abs(a.value - b.value) <= 1e-8
    unit_condition = all(series_s(0.5, m).condition_number == 1.0
                         for m in (0.5, 0.25, 1.0 / 40.0))
    ok = stable and unit_condition
    _report(11, "fractional truncation stability", ok,
            f"cap diff {abs(a.value - b.value):.2e}; unit condition {unit_condition}")


def test_criterion_12_figure_data(tmp_path, capsys):
    import csv as _csv

    def load(name):
        with open(tmp_path / name, newline="") as fh:
            return [(float(r["x"]), float(r["value"])) for r in _csv.DictReader(fh)]

    assert cli_main(["figure", "1", "--out-dir", str(tmp_path)]) == 0
    assert cli_main(["figure", "6", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()  # swallow the "wrote N files" notes

    # flattening: peak density strictly decreasing in M
    peaks = []
    for mval in ("1", "2", "10", "40"):
        rows = load(f"fig1_a_M{mval}.csv")
        peaks.append(max(v for _, v in rows))
    flattening = bool(np.all(np.diff(peaks) < 0.0))

    # cusp at the mode for M = 1/2 and 1/40: one-sided slopes nonzero and of
    # opposite sign
    cusped = True
    for tag in ("0p5", "0p025"):
        rows = load(f"fig6_a_M{tag}.csv")
        xs = np.array([x for x, _ in rows])
        vs = np.array([v for _, v in rows])
        i0 = int(np.argmin(np.abs(xs)))
        left = (vs[i0] - vs[i0 - 1]) / (xs[i0] - xs[i0 - 1])
        right = (vs[i0 + 1] - vs[i0]) / (xs[i0 + 1] - xs[i0])
        cusped &= left > 0.05 and right < -0.05

    # distribution curves monotone with value 1/2 at the centre
    cdf_ok = True
    for name in ("fig1_b_M40.csv", "fig6_b_M0p025.csv"):
        rows = load(name)
        vs = np.array([v for _, v in rows])
        xs = np.array([x for x, _ in rows])
        cdf_ok &= bool(np.all(np.diff(vs) >= 0.0))
        cdf_ok &= abs(vs[int(np.argmin(np.abs(xs)))] - 0.5) < 1e-12

    ok = flattening and cusped and cdf_ok
    _report(12, "figure data structure", bool(ok),
            f"peaks {['%.4f' % p for p in peaks]}; cusp {cusped}; cdf {cdf_ok}")
