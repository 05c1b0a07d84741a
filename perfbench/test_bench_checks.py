"""Tests of the benchmark's own checks and references.

Each check must pass on the program's output and fail on a slightly
perturbed copy of it, and the references must reproduce closed forms.

    python3 -m pytest -q perfbench/test_bench_checks.py
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest
from scipy import stats

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from references import Reference  # noqa: E402
from multigauss import LogMultiGauss, MultiGauss, MvMultiGauss  # noqa: E402


# -- references against closed forms ------------------------------------------

def test_reference_is_gaussian_at_m1():
    ref = Reference(1.0)
    assert ref.c0 == pytest.approx(1.0, rel=1e-15)
    for u in (-4.0, -1.3, 0.0, 0.7, 2.5, 7.5):
        assert ref.cdf(u) == pytest.approx(stats.norm.cdf(u), rel=1e-12, abs=1e-16)
    assert ref.mgf(0.7) == pytest.approx(math.exp(0.5 * 0.7**2), rel=1e-14)
    for n in (2, 3):
        assert ref.radial_cdf(3.0, n) == pytest.approx(stats.chi2.cdf(3.0, n), rel=1e-13)


def test_reference_is_lognormal_at_m1():
    # the LMG check standardizes log y; at M = 1 that law is the log-normal's
    ref = Reference(1.0)
    mu, sigma = 0.3, 0.8
    for y in (0.2, 1.0, 3.5):
        u = (math.log(y) - mu) / sigma
        want = stats.lognorm.cdf(y, s=sigma, scale=math.exp(mu))
        assert ref.cdf(u) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m", [2, 10, 40])
def test_reference_s1_is_harmonic_number(m):
    assert Reference(m).s(1.0) == pytest.approx(math.fsum(1.0 / k for k in range(1, m + 1)),
                                                rel=1e-14)


# -- fit: log-likelihood ---------------------------------------------------------

def test_loglik_check_fails_on_c0_off_by_1e6():
    data = np.random.default_rng(5).standard_t(5, 2000)
    for m in (2.5, 10.0, 0.5):
        d = MultiGauss(0.2, 1.1, m)
        ll = float(np.sum(d.logpdf(data)))
        ref = Reference(m)
        assert checks.check_loglik_mg(ll, data, 0.2, 1.1, ref) is None
        perturbed = ll - data.size * math.log1p(1e-6)  # c0 * (1 + 1e-6)
        assert checks.check_loglik_mg(perturbed, data, 0.2, 1.1, ref) is not None


def test_mv_loglik_check_fails_on_norm_off_by_1e6():
    data = np.random.default_rng(6).standard_normal((1000, 3))
    cov = np.array([[1.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 0.8]])
    mv = MvMultiGauss(np.zeros(3), cov, 2.5)
    ll = float(np.sum(np.log(mv.pdf(data))))
    ref = Reference(2.5)
    assert checks.check_loglik_mv(ll, data, np.zeros(3), cov, ref) is None
    perturbed = ll - 1000 * math.log1p(1e-6)
    assert checks.check_loglik_mv(perturbed, data, np.zeros(3), cov, ref) is not None


def test_loglik_check_flags_the_known_fault_at_m55():
    data = np.random.default_rng(0).standard_t(5, 2000)
    ll = float(np.sum(MultiGauss(0.0, 1.0, 55).logpdf(data)))
    assert checks.check_loglik_mg(ll, data, 0.0, 1.0, Reference(55.0)) is not None


# -- sampling: DKW and sign tests ------------------------------------------------

@pytest.mark.parametrize("m", [1.0, 0.5, 0.025, 2.5])
def test_sample_check_fails_on_shift_of_005_sigma(m):
    mu, sigma = 0.4, 1.7
    x = MultiGauss(mu, sigma, m).sample(100_000, np.random.default_rng(7))
    ref = Reference(m)
    assert checks.check_standardized_sample((x - mu) / sigma, ref) is None
    shifted = x + 0.05 * sigma
    assert checks.check_standardized_sample((shifted - mu) / sigma, ref) is not None


def test_lmg_sample_check_fails_on_shift_of_005_sigma():
    mu, sigma = -0.3, 0.9
    y = LogMultiGauss(mu, sigma, 1.0).sample(100_000, np.random.default_rng(8))
    ref = Reference(1.0)
    assert checks.check_standardized_sample((np.log(y) - mu) / sigma, ref) is None
    shifted = np.log(y) + 0.05 * sigma
    assert checks.check_standardized_sample((shifted - mu) / sigma, ref) is not None


@pytest.mark.parametrize("m", [1.0, 0.5])
def test_mv_sample_check_fails_on_shift_of_005_sigma(m):
    cov = np.array([[1.0, 0.4], [0.4, 2.0]])
    mean = np.array([0.5, -1.0])
    x = MvMultiGauss(mean, cov, m).sample(50_000, np.random.default_rng(9))
    ref = Reference(m)
    assert checks.check_mv_sample(x, mean, cov, ref) is None
    shifted = x + 0.05 * np.sqrt(np.diag(cov))
    assert checks.check_mv_sample(shifted, mean, cov, ref) is not None


# -- cli: row counts ---------------------------------------------------------------

@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_check_fails_on_one_dropped_row(tmp_path, fmt):
    from multigauss import cli

    path = str(tmp_path / f"out.{fmt}")
    assert cli.main(["eval", "cdf", "mg", "--m", "2.5", "--points", "101",
                     "--format", fmt, "--out", path]) == 0
    columns, table = checks.read_table(path, fmt)
    want = ("x", "value", "series")
    assert checks.check_table(columns, table, want, 101) is None
    assert checks.check_cdf_shape(table["value"], symmetric=True) is None
    dropped = {c: np.delete(v, 40) for c, v in table.items()}
    assert checks.check_table(columns, dropped, want, 101) is not None
