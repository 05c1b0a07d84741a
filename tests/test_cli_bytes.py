"""The CLI's exact output bytes, rebuilt from library calls.

Each expected text is built here without the CLI: a CSV header line, then
one line per row with every float cell written as ``f"{v:.17g}"``; JSON is
``json.dumps`` of the list of row objects.  A change in how the CLI formats,
orders or computes its output shows up as a byte difference.
"""

import json
import math

import numpy as np
import pytest

from multigauss import LogMultiGauss, MultiGauss, MvMultiGauss, verify
from multigauss.cli import main
from multigauss.multivariate import BivariateParams


def cell(v):
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def expected(columns, rows, fmt):
    rows = [tuple(float(v) if isinstance(v, np.floating) else v for v in r) for r in rows]
    if fmt == "json":
        return json.dumps([dict(zip(columns, r)) for r in rows])
    return "".join(",".join(map(cell, r)) + "\n" for r in [tuple(columns)] + rows)


def cli_text(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


def curve(xs, values, label):
    return [(float(x), float(v), label) for x, v in zip(xs, values)]


def surface(mv, x1, x2, label):
    points = [(float(a), float(b)) for a in x1 for b in x2]
    values = mv.pdf(np.array(points))
    return [(a, b, float(v), label) for (a, b), v in zip(points, values)]


FORMATS = ["csv", "json"]
XV = ("x", "value", "series")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("kind", ["pdf", "cdf"])
def test_eval_curve_mg(capsys, kind, fmt):
    d = MultiGauss(-0.3, 1.2, 2.5)
    xs = np.linspace(-0.3 - 5 * 1.2, -0.3 + 5 * 1.2, 41)
    f = d.pdf if kind == "pdf" else d.cdf
    want = expected(XV, curve(xs, [f(float(x)) for x in xs], "M=2.5"), fmt)
    got = cli_text(capsys, ["eval", kind, "mg", "--mu=-0.3", "--sigma", "1.2", "--m", "2.5",
                            "--points", "41", "--format", fmt])
    assert got == want


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("kind", ["pdf", "cdf"])
def test_eval_curve_lmg(capsys, kind, fmt):
    d = LogMultiGauss(0.2, 0.8, 0.5)
    ys = np.linspace(math.exp(0.2 - 5 * 0.8), math.exp(0.2 + 5 * 0.8), 41)
    f = d.pdf if kind == "pdf" else d.cdf
    want = expected(XV, curve(ys, [f(float(y)) for y in ys], "M=0.5"), fmt)
    got = cli_text(capsys, ["eval", kind, "lmg", "--mu", "0.2", "--sigma", "0.8", "--m", "0.5",
                            "--points", "41", "--format", fmt])
    assert got == want


@pytest.mark.parametrize("fmt", FORMATS)
def test_eval_cf_real_then_imaginary(capsys, fmt):
    d = MultiGauss(0.4, 1.0, 10)
    ws = np.linspace(-8.0, 8.0, 9)
    vals = [d.cf(float(w)) for w in ws]
    rows = (curve(ws, [v.real for v in vals], "M=10:re")
            + curve(ws, [v.imag for v in vals], "M=10:im"))
    got = cli_text(capsys, ["eval", "cf", "mg", "--mu", "0.4", "--m", "10", "--points", "9",
                            "--format", fmt])
    assert got == expected(XV, rows, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_eval_moments(capsys, fmt):
    d = MultiGauss(0.5, 1.5, 40)
    rows = [(float(k), d.raw_moment(k), "M=40") for k in range(1, 7)]
    got = cli_text(capsys, ["eval", "moments", "mg", "--mu", "0.5", "--sigma", "1.5",
                            "--m", "40", "--k", "6", "--format", fmt])
    assert got == expected(XV, rows, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_sample_mg(capsys, fmt):
    draws = MultiGauss(1.0, 2.0, 0.025).sample(50, np.random.Generator(np.random.PCG64(11)))
    rows = [(float(i + 1), float(v), "M=0.025") for i, v in enumerate(draws)]
    got = cli_text(capsys, ["sample", "mg", "--mu", "1", "--sigma", "2", "--m", "0.025",
                            "--n", "50", "--seed", "11", "--format", fmt])
    assert got == expected(XV, rows, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_sample_mv(capsys, fmt):
    p = BivariateParams(0.5, -1.0, 1.0, 2.0, -0.4)
    mv = MvMultiGauss(p.mean(), p.covariance(), 10)
    draws = mv.sample(50, np.random.Generator(np.random.PCG64(12)))
    rows = [(float(i + 1), float(a), float(b), "M=10 rho=-0.4")
            for i, (a, b) in enumerate(draws)]
    got = cli_text(capsys, ["sample", "mv", "--mu1", "0.5", "--mu2=-1", "--sigma2", "2",
                            "--rho=-0.4", "--m", "10", "--n", "50", "--seed", "12",
                            "--format", fmt])
    assert got == expected(("x", "x1", "x2", "series"), rows, fmt)


@pytest.fixture(scope="module", params=FORMATS)
def figures(request, tmp_path_factory):
    """Figures 2, 3 and 5 written once per format."""
    fmt = request.param
    out = tmp_path_factory.mktemp(f"figures_{fmt}")
    for fig in ("2", "3", "5"):
        assert main(["figure", fig, "--out-dir", str(out), "--format", fmt]) == 0
    return fmt, out


def test_figure_location_sweep(figures):
    fmt, out = figures
    d = MultiGauss(3.0, 1.0, 10)
    xs = np.linspace(3.0 - 5.0, 3.0 + 5.0, 801)
    want = expected(XV, curve(xs, [d.pdf(float(x)) for x in xs], "mu=3 sigma=1"), fmt)
    assert (out / f"fig2_a_mu3_sigma1.{fmt}").read_text() == want


def test_figure_log_scale_cdf(figures):
    fmt, out = figures
    d = LogMultiGauss(0.0, 1.0, 10)
    ys = np.exp(np.linspace(-5.0, 5.0, 801))
    want = expected(XV, curve(ys, [d.cdf(float(y)) for y in ys], "M=10"), fmt)
    assert (out / f"fig3_b_M10.{fmt}").read_text() == want


def test_figure_surface(figures):
    fmt, out = figures
    p = BivariateParams(0.0, 0.0, 1.0, 1.0, 0.7)
    mv = MvMultiGauss(p.mean(), p.covariance(), 40)
    ax = np.linspace(-4.0, 4.0, 201)
    want = expected(("x1", "x2", "value", "series"), surface(mv, ax, ax, "M=40 rho=0.7"), fmt)
    assert (out / f"fig5_d_M40_rho0p7.{fmt}").read_text() == want


def test_verify_series_json(capsys):
    rows = [r.to_dict() for r in verify.run_suite("series")]
    got = cli_text(capsys, ["verify", "--suite", "series", "--format", "json"])
    assert got == json.dumps(rows)
