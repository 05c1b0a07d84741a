"""The runtime imports only `scipy.special`.

The Gauss-Jacobi rule of the CDF table and the chi-square critical value of
`verify` are computed in the package, and must keep the bits of the scipy
routines they replace, which stay available to the tests.  The Mahalanobis
form's forward substitution must agree with `scipy.linalg.solve_triangular`
to a few ulp.  A fresh interpreter shows which scipy modules an import, and
the calls after it, pull in.
"""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import multigauss
from multigauss import MvMultiGauss, univariate
from multigauss.verify import _chi2_critical


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 9])
def test_gauss_jacobi_rule_has_the_bits_of_scipy(dim):
    from scipy.special import roots_jacobi

    shapes = np.concatenate((np.geomspace(1e-3, 400, 300), [0.025, 0.5, 2.5, 10, 40, 54]))
    for mval in shapes:
        beta = 2.0 * mval + (dim - 1)
        x, w = univariate._roots_jacobi(univariate._GJ_ORDER, 0.0, beta)
        want_x, want_w = roots_jacobi(univariate._GJ_ORDER, 0, beta)
        assert np.array_equal(x, want_x) and np.array_equal(w, want_w), mval


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


def test_chi2_critical_value_has_the_bits_of_scipy_stats():
    from scipy.stats import chi2

    for df in range(1, 501):
        assert _chi2_critical(df) == float(chi2.ppf(0.99, df)), df


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
    src = os.path.dirname(os.path.dirname(os.path.abspath(multigauss.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    heavy = ("scipy.stats", "scipy.interpolate", "scipy.optimize", "scipy.linalg")
    code = (f"import sys, {module}\n{calls}\n"
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == ""
