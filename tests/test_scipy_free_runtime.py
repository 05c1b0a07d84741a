"""The runtime imports only `scipy.special` and `scipy.linalg`.

The PCHIP coefficients of the radial inverse and the chi-square critical
value of `verify` are computed in the package, and must keep the bits of
the scipy routines they replace, which stay available to the tests.  A fresh
interpreter shows which scipy modules an import pulls in.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import multigauss
from multigauss import univariate
from multigauss.series import ShapeParam
from multigauss.verify import _chi2_critical


def scipy_pchip(x, y):
    from scipy.interpolate import PchipInterpolator

    return PchipInterpolator(x, y).c


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 9])
def test_pchip_bits_on_every_radial_table(monkeypatch, dim):
    seen, pchip = [], univariate._pchip_coeffs

    def recording(x, y):
        seen.append((x.copy(), y.copy()))
        return pchip(x, y)

    monkeypatch.setattr(univariate, "_pchip_coeffs", recording)
    for mval in (1e-3, 0.025, 0.5, 2, 2.5, 10, 40, 54):
        inverse = univariate._RadialInverse(univariate._CdfTable(ShapeParam.of(mval), dim))
        x, y = seen[-1]
        assert np.array_equal(inverse._coeffs, scipy_pchip(x, y))
    assert len(seen) == 8


def test_pchip_bits_on_random_non_monotone_data():
    rng = np.random.default_rng(20261018)
    for trial in range(300):
        n = int(rng.integers(3, 40))
        x = np.cumsum(rng.uniform(0.01, 2.0, n)) - 5.0
        y = rng.normal(size=n)
        if trial % 3 == 0:
            y = np.round(y)  # equal neighbours: zero secant slopes
        got = univariate._pchip_coeffs(x, y)
        assert np.array_equal(got, scipy_pchip(x, y)), trial


@pytest.mark.parametrize("x,y,start_slope", [
    # the one-sided estimate changes sign: the end slope is set to zero
    ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 11.0, 12.0], 0.0),
    # the secant slopes change sign and the estimate exceeds 3 m0: clipped to 3 m0
    ([0.0, 1.0, 11.0, 12.0], [0.0, 1.0, -999.0, -998.0], 3.0),
    # three points, the smallest input
    ([0.0, 0.5, 2.0], [1.0, 3.0, 2.0], None),
    # a zero secant slope and a sign change inside
    ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 1.0, 2.0, 0.5, 0.5, 3.0], None),
])
def test_pchip_bits_on_edge_cases(x, y, start_slope):
    x, y = np.array(x), np.array(y)
    got = univariate._pchip_coeffs(x, y)
    assert np.array_equal(got, scipy_pchip(x, y))
    if start_slope is not None:
        assert got[2, 0] == start_slope


def test_chi2_critical_value_has_the_bits_of_scipy_stats():
    from scipy.stats import chi2

    for df in range(1, 501):
        assert _chi2_critical(df) == float(chi2.ppf(0.99, df)), df


@pytest.mark.parametrize("module", ["multigauss", "multigauss.cli"])
def test_import_leaves_out_the_heavy_scipy_modules(module):
    src = os.path.dirname(os.path.dirname(os.path.abspath(multigauss.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (f"import sys, {module}\n"
            "print(' '.join(m for m in ('scipy.stats', 'scipy.interpolate', 'scipy.optimize')"
            " if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == ""
