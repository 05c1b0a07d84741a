"""Moment ratios, MGF and CF against the committed mpmath references.

`tests/genfn_reference.py` writes ``genfn_reference.json`` by quadrature of
the profile written out directly; this module only reads it.
"""

import json
import math
import os

import numpy as np
import pytest

from multigauss import MultiGauss
from multigauss.cli import main

with open(os.path.join(os.path.dirname(__file__), "genfn_reference.json"), encoding="utf-8") as fh:
    REF = json.load(fh)

SHAPES = list(REF["values"])


def std(key):
    return MultiGauss(0.0, 1.0, float(key))


@pytest.mark.parametrize("key", SHAPES)
def test_cf_within_1e14_absolute(key):
    got = std(key).cf(np.array(REF["omega"]))
    np.testing.assert_allclose(got.real, REF["values"][key]["cf"], rtol=0.0, atol=1e-14)
    assert np.all(got.imag == 0.0)


@pytest.mark.parametrize("key", SHAPES)
def test_mgf_within_1e14_relative(key):
    got = std(key).mgf(np.array(REF["t"]))
    np.testing.assert_allclose(got, REF["values"][key]["mgf"], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("key", SHAPES)
def test_moment_ratios_within_1e13_relative(key):
    d = std(key)
    got = [d.xi(n) for n in REF["n"]]
    np.testing.assert_allclose(got, REF["values"][key]["xi"], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("key", SHAPES)
def test_location_and_scale(key):
    # cf_X(w) = e^(i w mu) cf_U(sigma w) and mgf_X(t) = e^(mu t) mgf_U(sigma t)
    d = MultiGauss(0.7, 2.0, float(key))
    w = np.array(REF["omega"][:4]) / 2.0
    want = np.exp(1j * 0.7 * w) * np.array(REF["values"][key]["cf"][:4])
    np.testing.assert_allclose(d.cf(w), want, rtol=0.0, atol=2e-14)
    t = np.array(REF["t"][:3]) / 2.0
    want = np.exp(0.7 * t) * np.array(REF["values"][key]["mgf"][:3])
    np.testing.assert_allclose(d.mgf(t), want, rtol=3e-14, atol=0.0)


@pytest.mark.parametrize("key", SHAPES)
def test_zero_and_scalar_bits(key):
    d = MultiGauss(-0.4, 1.3, float(key))
    ws = np.array([-150.0, -8.0, -0.5, 0.0, 0.5, 3.0, 40.0, 120.0, np.nan])
    ts = np.array([-4.0, -1.0, 0.0, 0.5, 2.0, np.nan])
    cfs, mgfs = d.cf(ws), d.mgf(ts)
    assert d.cf(0.0) == 1.0 and d.mgf(0.0) == 1.0
    assert cfs[3] == 1.0 and mgfs[2] == 1.0
    assert isinstance(d.cf(0.5), complex) and isinstance(d.mgf(0.5), float)
    for w, c in zip(ws[:-1], cfs[:-1]):
        assert d.cf(float(w)) == c
    for t, m in zip(ts[:-1], mgfs[:-1]):
        assert d.mgf(float(t)) == m
    assert np.isnan(cfs[-1]) and np.isnan(mgfs[-1])
    assert d.cf(ws.reshape(3, 3)).shape == (3, 3)


def test_out_of_reach_raises():
    d = MultiGauss(0.0, 2.0, 2.5)
    with pytest.raises(ValueError):
        d.cf(np.array([1.0, 6e3]))
    with pytest.raises(ValueError):
        d.cf(math.inf)
    with pytest.raises(OverflowError):
        d.mgf(np.array([1.0, 20.0]))
    assert math.isfinite(d.mgf(18.0))  # sigma t = 36: e^(648) is still in range


def test_mgf_beyond_the_reach():
    # at M = 1 the MGF is exp(mu t + t^2/2); past 40 sigma the mass comes from the erfc term
    d = MultiGauss(-20.0, 1.0, 1)
    ts = np.array([30.0, 39.0, 41.0, 44.0])
    np.testing.assert_allclose(d.mgf(ts), np.exp(-20.0 * ts + 0.5 * ts * ts), rtol=1e-13)


@pytest.mark.parametrize("kind,grid,values", [("mgf", "t", "mgf"), ("cf", "omega", "cf")])
def test_cli_at_m54(capsys, kind, grid, values):
    pts = REF[grid]
    lo, hi = pts[0], pts[-1] if kind == "mgf" else pts[2]
    assert main(["eval", kind, "mg", "--m", "54", "--from", str(lo), "--to", str(hi),
                 "--points", "2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    ref = REF["values"]["54"][values]
    want = [ref[0], ref[pts.index(hi)]]
    got = [r["value"] for r in rows[:2]]
    if kind == "mgf":
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    else:
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
        assert [r["value"] for r in rows[2:]] == [0.0, 0.0]
