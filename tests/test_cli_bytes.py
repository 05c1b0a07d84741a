"""The CLI's exact output bytes, rebuilt from library calls.

Each expected text is built here without the CLI: ``csv.writer`` writing a
header line, then one line per row with every float cell written as
``f"{v:.17g}"``; JSON is ``json.dumps`` of the list of row objects.  A change
in how the CLI formats, orders or computes its output shows up as a byte
difference, reported at its first differing line.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from multigauss import LogMultiGauss, MultiGauss, MvMultiGauss, cli, verify
from multigauss.cli import main
from multigauss.multivariate import BivariateParams


def cell(v):
    return f"{v:.17g}" if isinstance(v, float) else v


def expected(columns, rows, fmt):
    rows = [tuple(v.item() if isinstance(v, np.generic) else v for v in r) for r in rows]
    if fmt == "json":
        return json.dumps([dict(zip(columns, r)) for r in rows])
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([columns] + [map(cell, r) for r in rows])
    return text.getvalue()


def cli_text(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


def assert_same_text(got, want):
    """Fail at the first line that differs, showing a short window of it.

    A surface is ~3.5 MB of text (JSON on one line), which pytest's own
    assertion diff would take minutes to render.
    """
    if got == want:
        return
    got_lines, want_lines = got.split("\n"), want.split("\n")
    line = next((i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
                min(len(got_lines), len(want_lines)))
    g = got_lines[line] if line < len(got_lines) else "<end of text>"
    w = want_lines[line] if line < len(want_lines) else "<end of text>"
    col = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
    start = max(col - 60, 0)
    pytest.fail(f"line {line + 1} of {len(want_lines)} (expected), column {col + 1}:\n"
                f"  got:  {g[start:col + 60]!r}\n  want: {w[start:col + 60]!r}", pytrace=False)


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
    assert_same_text(got, want)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("kind", ["pdf", "cdf"])
def test_eval_curve_lmg(capsys, kind, fmt):
    d = LogMultiGauss(0.2, 0.8, 0.5)
    ys = np.linspace(math.exp(0.2 - 5 * 0.8), math.exp(0.2 + 5 * 0.8), 41)
    f = d.pdf if kind == "pdf" else d.cdf
    want = expected(XV, curve(ys, [f(float(y)) for y in ys], "M=0.5"), fmt)
    got = cli_text(capsys, ["eval", kind, "lmg", "--mu", "0.2", "--sigma", "0.8", "--m", "0.5",
                            "--points", "41", "--format", fmt])
    assert_same_text(got, want)


@pytest.mark.parametrize("fmt", FORMATS)
def test_eval_cf_real_then_imaginary(capsys, fmt):
    d = MultiGauss(0.4, 1.0, 10)
    ws = np.linspace(-8.0, 8.0, 9)
    vals = [d.cf(float(w)) for w in ws]
    rows = (curve(ws, [v.real for v in vals], "M=10:re")
            + curve(ws, [v.imag for v in vals], "M=10:im"))
    got = cli_text(capsys, ["eval", "cf", "mg", "--mu", "0.4", "--m", "10", "--points", "9",
                            "--format", fmt])
    assert_same_text(got, expected(XV, rows, fmt))


@pytest.mark.parametrize("fmt", FORMATS)
def test_eval_moments(capsys, fmt):
    d = MultiGauss(0.5, 1.5, 40)
    rows = [(float(k), d.raw_moment(k), "M=40") for k in range(1, 7)]
    got = cli_text(capsys, ["eval", "moments", "mg", "--mu", "0.5", "--sigma", "1.5",
                            "--m", "40", "--k", "6", "--format", fmt])
    assert_same_text(got, expected(XV, rows, fmt))


@pytest.mark.parametrize("fmt", FORMATS)
def test_sample_mg(capsys, fmt):
    draws = MultiGauss(1.0, 2.0, 0.025).sample(50, np.random.Generator(np.random.PCG64(11)))
    rows = [(float(i + 1), float(v), "M=0.025") for i, v in enumerate(draws)]
    got = cli_text(capsys, ["sample", "mg", "--mu", "1", "--sigma", "2", "--m", "0.025",
                            "--n", "50", "--seed", "11", "--format", fmt])
    assert_same_text(got, expected(XV, rows, fmt))


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
    assert_same_text(got, expected(("x", "x1", "x2", "series"), rows, fmt))


@pytest.fixture(scope="module", params=FORMATS)
def figures(request, tmp_path_factory):
    """Figures 2, 3, 5 and 8 written once per format."""
    fmt = request.param
    out = tmp_path_factory.mktemp(f"figures_{fmt}")
    for fig in ("2", "3", "5", "8"):
        assert main(["figure", fig, "--out-dir", str(out), "--format", fmt]) == 0
    return fmt, out


def test_figure_location_sweep(figures):
    fmt, out = figures
    d = MultiGauss(3.0, 1.0, 10)
    xs = np.linspace(3.0 - 5.0, 3.0 + 5.0, 801)
    want = expected(XV, curve(xs, [d.pdf(float(x)) for x in xs], "mu=3 sigma=1"), fmt)
    assert_same_text((out / f"fig2_a_mu3_sigma1.{fmt}").read_text(), want)


def test_figure_log_scale_cdf(figures):
    fmt, out = figures
    d = LogMultiGauss(0.0, 1.0, 10)
    ys = np.exp(np.linspace(-5.0, 5.0, 801))
    want = expected(XV, curve(ys, [d.cdf(float(y)) for y in ys], "M=10"), fmt)
    assert_same_text((out / f"fig3_b_M10.{fmt}").read_text(), want)


def test_figure_surface(figures):
    fmt, out = figures
    p = BivariateParams(0.0, 0.0, 1.0, 1.0, 0.7)
    mv = MvMultiGauss(p.mean(), p.covariance(), 40)
    ax = np.linspace(-4.0, 4.0, 201)
    want = expected(("x1", "x2", "value", "series"), surface(mv, ax, ax, "M=40 rho=0.7"), fmt)
    assert_same_text((out / f"fig5_d_M40_rho0p7.{fmt}").read_text(), want)


def test_figure_cusped_surface(figures):
    """Figure 8's M = 0.025 surface, whose cusp and tails repeat values bit for bit."""
    fmt, out = figures
    mv = MvMultiGauss([0.0, 0.0], np.eye(2), 0.025)
    ax = np.linspace(-4.0, 4.0, 201)
    want = expected(("x1", "x2", "value", "series"), surface(mv, ax, ax, "M=0.025 rho=0"), fmt)
    assert_same_text((out / f"fig8_c_M0p025_rho0.{fmt}").read_text(), want)


@pytest.mark.parametrize("fmt", FORMATS)
def test_eval_pdf_mv(capsys, fmt):
    """A 41 x 41 surface: 41 distinct values in each abscissa column."""
    p = BivariateParams(0.5, -1.0, 1.5, 0.5, 0.3)
    mv = MvMultiGauss(p.mean(), p.covariance(), 0.025)
    x1 = np.linspace(0.5 - 4 * 1.5, 0.5 + 4 * 1.5, 41)
    x2 = np.linspace(-1.0 - 4 * 0.5, -1.0 + 4 * 0.5, 41)
    want = expected(("x1", "x2", "value", "series"), surface(mv, x1, x2, "M=0.025 rho=0.3"), fmt)
    got = cli_text(capsys, ["eval", "pdf", "mv", "--mu1", "0.5", "--mu2=-1", "--sigma1", "1.5",
                            "--sigma2", "0.5", "--rho", "0.3", "--m", "0.025", "--points", "41",
                            "--format", fmt])
    assert_same_text(got, want)


def test_verify_series_json(capsys):
    rows = [r.to_dict() for r in verify.run_suite("series")]
    got = cli_text(capsys, ["verify", "--suite", "series", "--format", "json"])
    assert_same_text(got, json.dumps(rows))


@pytest.mark.parametrize("fmt", FORMATS)
def test_verify_univariate(capsys, fmt):
    """Quoted names (they hold commas) in CSV; ``Infinity`` and ``true`` in JSON."""
    rows = [r.to_dict() for r in verify.run_suite("univariate")]
    columns = tuple(rows[0])
    assert any("," in r["target_name"] for r in rows)
    assert any(r["rel_err"] == math.inf for r in rows)
    got = cli_text(capsys, ["verify", "--suite", "univariate", "--format", fmt])
    assert_same_text(got, expected(columns, [tuple(r.values()) for r in rows], fmt))


SPECIAL_COLUMNS = ("x", "value", "flag", "series")
SPECIAL_ROWS = [
    (math.nan, -0.0, True, 'say "a, b"'),
    (math.inf, 0.0, False, "M=2.5"),
    (-math.inf, 5e-324, True, 'say "a, b"'),
    (-0.0, 1.7976931348623157e308, False, ""),
    (0.1, -1e-300, True, "M=2.5"),
]


def emitted(capsys, rows, fmt):
    cli._emit(cli._table(**{c: [r[k] for r in rows] for k, c in enumerate(SPECIAL_COLUMNS)}),
              fmt, out_path=None)
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("block", [2, cli._EMIT_BLOCK])
def test_special_cells(capsys, monkeypatch, fmt, block):
    """NaN, +-inf, -0.0, a label with a quote and a comma, an empty label and a bool column."""
    monkeypatch.setattr(cli, "_EMIT_BLOCK", block)
    assert_same_text(emitted(capsys, SPECIAL_ROWS, fmt),
                     expected(SPECIAL_COLUMNS, SPECIAL_ROWS, fmt))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("n", [0, 1])
def test_zero_and_one_row_tables(capsys, fmt, n):
    rows = SPECIAL_ROWS[:n]
    assert_same_text(emitted(capsys, rows, fmt), expected(SPECIAL_COLUMNS, rows, fmt))


#: Floats whose text is easy to get wrong, -0.0 beside 0.0 and NaN of either sign.
SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                  1.7976931348623157e308, 0.1]
REPEATED_COLUMNS = ("x1", "x2", "value", "series")
#: x1 holds each special float on 4 rows running, x2 cycles through them (so
#: every short block of x2 is all distinct) and value is one float throughout.
REPEATED_ROWS = [(a, b, 2.5, "M=0.025") for a, b in
                 zip(np.repeat(SPECIAL_FLOATS, 4).tolist(), SPECIAL_FLOATS[::-1] * 4)]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("block", [2, 7, cli._EMIT_BLOCK])
def test_repeated_special_cells(capsys, monkeypatch, fmt, block):
    """Each distinct float, formatted once and mapped onto its rows, keeps its text."""
    monkeypatch.setattr(cli, "_EMIT_BLOCK", block)
    table = cli._table(**{c: [r[k] for r in REPEATED_ROWS] for k, c in enumerate(REPEATED_COLUMNS)})
    cli._emit(table, fmt, out_path=None)
    assert_same_text(capsys.readouterr().out, expected(REPEATED_COLUMNS, REPEATED_ROWS, fmt))


@pytest.mark.parametrize("fmt", FORMATS)
def test_repeated_columns_are_formatted_once_per_value(fmt):
    """A column with at most half its rows distinct is text mapped onto the rows;
    an all-distinct one is left to the row template (CSV) or one ``json.dumps``."""
    repeated = np.repeat(np.linspace(-4.0, 4.0, 201), 201)[:cli._EMIT_BLOCK]
    cells, field = cli._float_cells(repeated, fmt)
    assert field == "%s" and len(set(map(id, cells))) == len(set(repeated.tolist()))
    assert cells == [cell(v) if fmt == "csv" else json.dumps(v) for v in repeated.tolist()]
    distinct = np.arange(1.0, 101.0)
    cells, field = cli._float_cells(distinct, fmt)
    assert field == ("%.17g" if fmt == "csv" else "%s")
    assert cells == (distinct.tolist() if fmt == "csv" else [json.dumps(v) for v in distinct])
