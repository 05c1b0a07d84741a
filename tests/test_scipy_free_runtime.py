"""The runtime imports scipy only in `verify`, for `gammaincinv`.

The series, oracle, CDF, sampler and density layers (`series`, `oracle`,
`univariate`, `multivariate`, `logmg`) import no scipy at all, so
`import multigauss` and every library call run on numpy alone: a fresh
interpreter in which any scipy import raises runs them.  The Hurwitz zeta
of the series tail is the package's own (`tests/test_hurwitz_zeta.py`
checks it).  The Gauss-Jacobi rule of the CDF table is
built in the package by the Golub-Welsch algorithm and must integrate the
moments of its weight and put its nodes where `scipy.special.roots_jacobi`
does; the chi-square critical value of `verify` must keep the bits of the
scipy routine it replaces.  Both scipy routines stay available to the
tests.  The Mahalanobis form's forward substitution must agree with
`scipy.linalg.solve_triangular` to a few ulp.  A fresh interpreter shows
which scipy modules an import, and the calls after it, pull in.
"""

import ast
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import multigauss
from multigauss import MvMultiGauss, logmg, multivariate, oracle, series, univariate
from multigauss.verify import _chi2_critical


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 9])
def test_jacobi_rule_integrates_the_moments_of_its_weight(dim):
    from scipy.special import roots_jacobi

    shapes = np.concatenate((np.geomspace(1e-9, 1e4, 300), [0.025, 0.5, 2.5, 10, 40, 54]))
    k = np.arange(48)
    for mval in shapes:
        b = 2.0 * mval + (dim - 1)
        nodes, weights = univariate._jacobi_rule(univariate._GJ_ORDER, b)
        # sum_j w_j v_j^k = (b + 1) int_0^1 v^(b+k) dv, exact for k < 48
        got = (weights[:, None] * nodes[:, None] ** k).sum(axis=0)
        np.testing.assert_allclose(got, (b + 1.0) / (b + k + 1.0), rtol=1e-13, atol=0.0)
        with np.errstate(over="ignore"):  # scipy's rule mass overflows past b ~ 1030
            want_x = roots_jacobi(univariate._GJ_ORDER, 0, b)[0]
        assert np.max(np.abs(nodes - 0.5 * (1.0 + want_x))) <= 1e-15, mval


@pytest.mark.parametrize("n", [1, 2, 3, 20, 200])
def test_mahalanobis_form_matches_solve_triangular(n):
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng([20261018, n])
    for _ in range(5):
        a = rng.normal(size=(n, n))
        cov = a @ a.T + rng.uniform(0.05, 2.0) * n * np.eye(n)
        mean = rng.normal(size=n)
        mv = MvMultiGauss(mean, cov, 2.5)
        pts = mean + 3.0 * rng.normal(size=(400, n)) @ mv.chol.T
        z = solve_triangular(mv.chol, (pts - mean).T, lower=True, check_finite=False)
        want = np.sum(z * z, axis=0)
        np.testing.assert_allclose(mv.mahalanobis_sq(pts), want, rtol=2e-15, atol=0.0)


def test_mahalanobis_form_of_non_finite_points_is_silent_and_local():
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(40)
    a = rng.normal(size=(40, 40))
    mv = MvMultiGauss(np.zeros(40), a @ a.T + 40.0 * np.eye(40), 2.5)
    pts = rng.normal(size=(5, 40))
    pts[1, 35], pts[3, 2] = np.nan, np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = mv.mahalanobis_sq(pts)
    assert np.isnan(q[1]) and not np.isfinite(q[3])
    z = solve_triangular(mv.chol, pts.T, lower=True, check_finite=False)
    keep = [0, 2, 4]
    np.testing.assert_allclose(q[keep], np.sum(z * z, axis=0)[keep], rtol=2e-15, atol=0.0)


@pytest.mark.parametrize("module", [series, oracle, univariate, multivariate, logmg])
def test_density_cdf_and_sampler_layers_import_no_scipy(module):
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [n for n in names if n.split(".")[0] == "scipy"]


def test_chi2_critical_value_has_the_bits_of_scipy_stats():
    from scipy.stats import chi2

    for df in range(1, 501):
        assert _chi2_critical(df) == float(chi2.ppf(0.99, df)), df


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that finds this package; return its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(multigauss.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


#: Every library call, in an interpreter where any scipy import raises.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import numpy as np
import multigauss
from multigauss import (BivariateParams, LogMultiGauss, MultiGauss, MvMultiGauss,
                        bivariate_pdf, series_s, series_tail, xi_coeff)
xs = np.linspace(-4.0, 4.0, 9)
for m in (0.025, 0.5, 2.5, 12.3, 40.5, 10.0, 54.0):
    d = MultiGauss(0.3, 1.2, m)
    d.pdf(xs), d.logpdf(xs), d.cdf(xs), d.quantile([0.01, 0.5, 0.99])
    d.mgf([-1.0, 0.5]), d.cf([0.5, 3.0]), d.xi(2), d.sample(50, np.random.default_rng(1))
    lg = LogMultiGauss(0.1, 0.7, m)
    lg.pdf([0.5, 2.0]), lg.cdf([0.5, 2.0]), lg.moment(1), lg.sample(20, np.random.default_rng(2))
    for n in (2, 3):
        mv = MvMultiGauss(np.zeros(n), np.eye(n) + 0.3, m)
        mv.pdf(np.ones((4, n))), mv.ellipsoid_mass([0.5, 2.0, 9.0])
        mv.sample(50, np.random.default_rng(3))
    bivariate_pdf(BivariateParams(0.0, 1.0, 1.0, 2.0, 0.4), m, xs, xs)
    series_s(0.5, m), xi_coeff(2, m), series_tail(0.5, m, 2000)
print(sorted(k for k in sys.modules if k.split(".")[0] == "scipy"))
"""


def test_library_runs_with_scipy_blocked():
    assert run_fresh(WITHOUT_SCIPY).strip() == "['scipy']"


#: Calls after the import: a cdf, a quantile, an mg and an mv sample, an mv pdf.
CALLS = """
import numpy as np
from multigauss import MultiGauss, MvMultiGauss
d = MultiGauss(0.3, 1.2, 2.5)
d.cdf(0.4), d.quantile(0.9), d.sample(100, np.random.default_rng(1))
mv = MvMultiGauss([0.0, 1.0], [[2.0, 0.3], [0.3, 1.0]], 0.5)
mv.sample(100, np.random.default_rng(2)), mv.pdf([[0.1, 0.2], [1.0, -1.0]])
"""


@pytest.mark.parametrize("module,calls", [
    pytest.param("multigauss", "", id="multigauss"),
    pytest.param("multigauss.cli", "", id="multigauss.cli"),
    pytest.param("multigauss.cli", CALLS, id="multigauss.cli-then-calls"),
])
def test_import_leaves_out_the_heavy_scipy_modules(module, calls):
    heavy = ("scipy.stats", "scipy.interpolate", "scipy.optimize", "scipy.linalg")
    code = (f"import sys, {module}\n{calls}\n"
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    assert run_fresh(code).strip() == ""
