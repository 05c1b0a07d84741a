"""The runtime imports no scipy; the tests compare against it.

The series, oracle, CDF, sampler, density, verification and CLI layers
(`series`, `oracle`, `univariate`, `multivariate`, `logmg`, `verify`, `cli`)
import no scipy at all, so `import multigauss`, every library call and every
CLI command run on numpy alone: a fresh interpreter in which any scipy
import raises runs them.  The Hurwitz zeta of the series tail is the
package's own (`tests/test_hurwitz_zeta.py` checks it).  The Gauss-Jacobi
rule of the CDF table is built in the package by the Golub-Welsch algorithm
and must integrate the moments of its weight and put its nodes where
`scipy.special.roots_jacobi` does.  The chi-square critical value of
`verify` must lie within 1 ulp of 40-digit mpmath references
(`tests/chi2_reference.py` writes them) and keep the bits of
`scipy.stats.chi2.ppf` at the degrees of freedom the mv suite reaches.  The
Mahalanobis form's forward substitution must agree with
`scipy.linalg.solve_triangular` to a few ulp.  A fresh interpreter shows
which modules an import, and the calls or commands after it, pull in.
"""

import ast
import json
import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import multigauss
from multigauss import (MvMultiGauss, cli, logmg, multivariate, oracle, series, univariate,
                        verify)
from multigauss.verify import _CHI2_MAX_DF, _chi2_critical


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


@pytest.mark.parametrize("module", [series, oracle, univariate, multivariate, logmg, verify,
                                    cli])
def test_density_cdf_and_sampler_layers_import_no_scipy(module):
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [n for n in names if n.split(".")[0] == "scipy"]


with open(os.path.join(os.path.dirname(__file__), "chi2_reference.json"),
          encoding="utf-8") as _fh:
    CHI2_REFERENCE = {int(df): Fraction(Decimal(v)) for df, v in json.load(_fh)["values"].items()}


def test_chi2_critical_value_is_within_an_ulp_of_the_reference():
    assert sorted(CHI2_REFERENCE) == list(range(1, _CHI2_MAX_DF + 1))
    for df, want in CHI2_REFERENCE.items():
        got = _chi2_critical(df)
        assert abs(Fraction(got) - want) <= Fraction(math.ulp(float(want))), df


def test_chi2_critical_value_keeps_the_bits_of_scipy_where_the_mv_suite_reaches():
    from scipy.stats import chi2

    # degrees of freedom of the mv suite's two goodness-of-fit checks, M = 1 and 10
    for df, want in ((216, 267.2713588962135), (268, 324.78044620172966)):
        assert _chi2_critical(df) == want == float(chi2.ppf(0.99, df))


@pytest.mark.parametrize("df", [0, -3, _CHI2_MAX_DF + 1])
def test_chi2_critical_value_outside_its_range_raises(df):
    with pytest.raises(ValueError, match="degrees of freedom"):
        _chi2_critical(df)


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


def cli_commands(out_dir, figure: int, suite: str) -> str:
    """Code that runs `cli.main` on a figure preset, a verify suite, every
    ``eval`` kind of the mg family, an mv surface and both samplers, writing
    under ``out_dir``; each command must exit 0."""
    return f"""
import os
out = {str(out_dir)!r}
commands = [["figure", "{figure}", "--out-dir", out], ["verify", "--suite", "{suite}"],
            ["eval", "pdf", "mv", "--m", "0.5", "--points", "21"]]
commands += [["eval", kind, "mg", "--m", "2.5"]
             for kind in ("pdf", "cdf", "quantile", "moments", "mgf", "cf")]
commands += [["sample", family, "--m", "0.5", "--n", "1000", "--seed", "1"]
             for family in ("mg", "mv")]
for argv in commands:
    if argv[0] != "figure":
        argv += ["--out", os.path.join(out, argv[0])]
    assert cli.main(argv) == 0, argv
"""


def test_cli_runs_with_scipy_blocked(tmp_path):
    code = ('import sys\nsys.modules["scipy"] = None\nfrom multigauss import cli\n'
            + cli_commands(tmp_path, 5, "mv")
            + 'print(sorted(k for k in sys.modules if k.split(".")[0] == "scipy"))')
    assert run_fresh(code).strip() == "['scipy']"


def test_no_command_imports_a_module_of_its_own(tmp_path):
    """The CLI's import loads all a command needs; a forked command imports nothing."""
    code = ("import sys\nfrom multigauss import cli\nbefore = set(sys.modules)\n"
            + cli_commands(tmp_path, 1, "all") + "print(sorted(set(sys.modules) - before))")
    assert run_fresh(code).strip() == "[]"


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


def test_gauss_legendre_rules_leave_out_numpy_polynomial():
    # the rules are numpy's, written out: the library's calls load no numpy.polynomial
    for x, w, n in ((univariate._GL_NODES, univariate._GL_WEIGHTS, 16),
                    (univariate._STEP_NODES, univariate._STEP_WEIGHTS, 4)):
        want_x, want_w = np.polynomial.legendre.leggauss(n)
        np.testing.assert_array_max_ulp(x, want_x, maxulp=1)
        np.testing.assert_array_max_ulp(w, want_w, maxulp=1)
    code = f"import sys, multigauss\n{CALLS}\nprint('numpy.polynomial' in sys.modules)"
    assert run_fresh(code).strip() == "False"
