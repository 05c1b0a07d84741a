"""Command-line front end.

Subcommands:

* ``eval``    - evaluate pdf/cdf/quantile/moments/cumulants/mgf/cf on a grid
* ``sample``  - draw reproducible variates (PCG64 generator, explicit seed)
* ``figure``  - emit the data series behind the bundled figure presets 1-8
* ``verify``  - run the oracle verification suites and report pass/fail

Output is CSV (header ``x,value,series``; 17 significant digits;
two-abscissa data uses ``x1,x2``) or JSON (array of row objects).  Exit
codes: 0 success, 1 verification failure, 2 invalid input, 3 non-converged
series.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .logmg import LogMultiGauss
from .multivariate import BivariateParams, MvMultiGauss
from .series import SeriesNotConverged
from .univariate import MultiGauss
from . import verify as verify_mod

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_NOT_CONVERGED = 3


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _emit(rows: list[dict], columns: list[str], fmt: str, out_path: str | None) -> None:
    """Write rows either as CSV (fixed column order) or a JSON array."""
    if fmt == "json":
        text = json.dumps(
            [{k: r[k] for k in columns} for r in rows],
            default=lambda v: float(v),
        )
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow(
                _fmt(r[c]) if isinstance(r[c], float) else str(r[c]) for c in columns
            )
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error(kind: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")
    return code


def _order(args) -> int:
    if args.k < 1:
        raise ValueError("--k must be a positive integer")
    return args.k


def _grid(args, default_lo: float, default_hi: float) -> np.ndarray:
    lo = args.from_ if args.from_ is not None else default_lo
    hi = args.to if args.to is not None else default_hi
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"grid bounds must be finite with from < to, got ({lo}, {hi})")
    if args.points < 2:
        raise ValueError("curve output needs at least 2 grid points")
    return np.linspace(lo, hi, args.points)


def _curve_rows(d, kind: str, xs: np.ndarray, label: str) -> list[dict]:
    """Rows of a pdf or cdf curve of ``d`` on the grid ``xs``.

    The pdf is evaluated point by point, the cdf in one array call.
    """
    if kind == "pdf":
        vals = [float(d.pdf(float(x))) for x in xs]
    else:
        vals = d.cdf(xs)
    return [{"x": float(x), "value": float(v), "series": label} for x, v in zip(xs, vals)]


def _make_rng(seed: int) -> np.random.Generator:
    if seed < 0 or seed > 2**64 - 1:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _eval_mg(args) -> tuple[list[dict], list[str]]:
    d = MultiGauss(args.mu, args.sigma, args.m)
    label = f"M={args.m:g}"
    rows: list[dict] = []
    kind = args.kind
    if kind in ("pdf", "cdf"):
        xs = _grid(args, d.mu - 5 * d.sigma, d.mu + 5 * d.sigma)
        rows = _curve_rows(d, kind, xs, label)
    elif kind == "quantile":
        us = _grid(args, 0.01, 0.99)
        if us[0] <= 0.0 or us[-1] >= 1.0:
            raise ValueError("quantile grid must lie strictly inside (0, 1)")
        rows = [{"x": float(u), "value": float(q), "series": label}
                for u, q in zip(us, d.quantile(us))]
    elif kind == "mgf":
        ts = _grid(args, -1.0, 1.0)
        rows = [{"x": float(t), "value": d.mgf(float(t)), "series": label} for t in ts]
    elif kind == "cf":
        ws = _grid(args, -8.0, 8.0)
        vals = [d.cf(float(w)) for w in ws]
        rows = [{"x": float(w), "value": v.real, "series": label + ":re"}
                for w, v in zip(ws, vals)]
        rows += [{"x": float(w), "value": v.imag, "series": label + ":im"}
                 for w, v in zip(ws, vals)]
    elif kind == "moments":
        rows = [{"x": float(k), "value": d.raw_moment(k), "series": label}
                for k in range(1, _order(args) + 1)]
    elif kind == "cumulants":
        rows = [{"x": float(k), "value": d.cumulant(k), "series": label}
                for k in range(1, _order(args) + 1)]
    else:
        raise ValueError(f"kind {kind!r} is not available for family 'mg'")
    return rows, ["x", "value", "series"]


def _eval_lmg(args) -> tuple[list[dict], list[str]]:
    d = LogMultiGauss(args.mu, args.sigma, args.m)
    label = f"M={args.m:g}"
    kind = args.kind
    base = d.base
    if kind in ("pdf", "cdf"):
        default_lo = math.exp(base.mu - 5 * base.sigma)
        default_hi = math.exp(base.mu + 5 * base.sigma)
        ys = _grid(args, default_lo, default_hi)
        rows = _curve_rows(d, kind, ys, label)
    elif kind == "moments":
        rows = [{"x": float(k), "value": d.moment(k), "series": label}
                for k in range(1, _order(args) + 1)]
    else:
        raise ValueError(
            f"kind {kind!r} is not available for family 'lmg' "
            "(the log-scale MGF diverges and no quantile/cumulants are defined)"
        )
    return rows, ["x", "value", "series"]


def _eval_mv(args) -> tuple[list[dict], list[str]]:
    if args.kind != "pdf":
        raise ValueError("family 'mv' supports only kind 'pdf'")
    p = BivariateParams(args.mu1, args.mu2, args.sigma1, args.sigma2, args.rho)
    mv = MvMultiGauss(p.mean(), p.covariance(), args.m)
    lo1 = args.from_ if args.from_ is not None else args.mu1 - 4 * args.sigma1
    hi1 = args.to if args.to is not None else args.mu1 + 4 * args.sigma1
    lo2 = args.mu2 - 4 * args.sigma2
    hi2 = args.mu2 + 4 * args.sigma2
    if not lo1 < hi1:
        raise ValueError("grid bounds must satisfy from < to")
    n = args.points
    if n < 2:
        raise ValueError("curve output needs at least 2 grid points")
    x1 = np.linspace(lo1, hi1, n)
    x2 = np.linspace(lo2, hi2, n)
    g1, g2 = np.meshgrid(x1, x2, indexing="ij")
    vals = mv.pdf(np.stack([g1.ravel(), g2.ravel()], axis=1))
    label = f"M={args.m:g} rho={args.rho:g}"
    rows = [{"x1": float(a), "x2": float(b), "value": float(v), "series": label}
            for a, b, v in zip(g1.ravel(), g2.ravel(), vals)]
    return rows, ["x1", "x2", "value", "series"]


def cmd_eval(args) -> int:
    handlers = {"mg": _eval_mg, "lmg": _eval_lmg, "mv": _eval_mv}
    rows, columns = handlers[args.family](args)
    for r in rows:
        if not all(math.isfinite(v) for v in r.values() if isinstance(v, float)):
            raise SeriesNotConverged(f"non-finite output at {r}")
    _emit(rows, columns, args.format, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    rng = _make_rng(args.seed)
    if args.n < 1:
        raise ValueError("n must be >= 1")
    if args.family == "mg":
        d = MultiGauss(args.mu, args.sigma, args.m)
        xs = d.sample(args.n, rng)
        label = f"M={args.m:g}"
        rows = [{"x": float(i + 1), "value": float(v), "series": label}
                for i, v in enumerate(xs)]
        _emit(rows, ["x", "value", "series"], args.format, args.out)
    elif args.family == "lmg":
        d = LogMultiGauss(args.mu, args.sigma, args.m)
        ys = d.sample(args.n, rng)
        label = f"M={args.m:g}"
        rows = [{"x": float(i + 1), "value": float(v), "series": label}
                for i, v in enumerate(ys)]
        _emit(rows, ["x", "value", "series"], args.format, args.out)
    else:
        p = BivariateParams(args.mu1, args.mu2, args.sigma1, args.sigma2, args.rho)
        mv = MvMultiGauss(p.mean(), p.covariance(), args.m)
        pts = mv.sample(args.n, rng)
        label = f"M={args.m:g} rho={args.rho:g}"
        rows = [{"x": float(i + 1), "x1": float(a), "x2": float(b), "series": label}
                for i, (a, b) in enumerate(pts)]
        _emit(rows, ["x", "x1", "x2", "series"], args.format, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

#: Figure presets: shape-parameter sweeps for the univariate family (1),
#: location/scale sweeps (2, 4), the log-scale family (3, 7), the bivariate
#: surfaces (5, 8) and shape sweeps into the cusped regime (6, 7, 8).
#: Location/scale sets for 2 and 4 are package defaults, documented here.
FIGURE_M_SWEEP = (1.0, 2.0, 10.0, 40.0)
FIGURE_FRACTIONAL_M = (1.0, 0.5, 0.25, 0.025)
FIGURE_MU_SIGMA = ((0.0, 1.0), (0.0, 2.0), (3.0, 1.0), (0.0, 0.5))
FIGURE_BIV = ((1.0, 0.0), (1.0, 0.7), (40.0, 0.0), (40.0, 0.7))
FIGURE_BIV_FRACTIONAL = ((1.0, 0.0), (1.0, 0.7), (0.025, 0.0), (0.025, 0.7))

_GRID_1D = 801
_GRID_2D = 201


def _label_m(mval: float) -> str:
    return f"M={mval:g}"


def _sanitize(label: str) -> str:
    return (label.replace("=", "").replace(" ", "_").replace(",", "_")
            .replace(".", "p").replace("-", "m"))


def _fig_univariate(m_values) -> list[tuple[str, str, list[dict], list[str]]]:
    panels = []
    for panel, kind in (("a", "pdf"), ("b", "cdf")):
        for mval in m_values:
            d = MultiGauss(0.0, 1.0, mval)
            xs = np.linspace(-5.0, 5.0, _GRID_1D)
            rows = _curve_rows(d, kind, xs, _label_m(mval))
            panels.append((panel, _label_m(mval), rows, ["x", "value", "series"]))
    return panels


def _fig_mu_sigma_sweep() -> list[tuple[str, str, list[dict], list[str]]]:
    panels = []
    for mu, sigma in FIGURE_MU_SIGMA:
        d = MultiGauss(mu, sigma, 10.0)
        xs = np.linspace(mu - 5 * sigma, mu + 5 * sigma, _GRID_1D)
        label = f"mu={mu:g} sigma={sigma:g}"
        rows = [{"x": float(x), "value": float(d.pdf(x)), "series": label} for x in xs]
        panels.append(("a", label, rows, ["x", "value", "series"]))
    return panels


def _fig_lmg(m_values, with_cdf: bool) -> list[tuple[str, str, list[dict], list[str]]]:
    panels = []
    kinds = (("a", "pdf"), ("b", "cdf")) if with_cdf else (("a", "pdf"),)
    for panel, kind in kinds:
        for mval in m_values:
            d = LogMultiGauss(0.0, 1.0, mval)
            ys = np.exp(np.linspace(-5.0, 5.0, _GRID_1D))
            rows = _curve_rows(d, kind, ys, _label_m(mval))
            panels.append((panel, _label_m(mval), rows, ["x", "value", "series"]))
    return panels


def _fig_lmg_mu_sigma() -> list[tuple[str, str, list[dict], list[str]]]:
    panels = []
    for mu, sigma in FIGURE_MU_SIGMA:
        d = LogMultiGauss(mu, sigma, 10.0)
        ys = np.exp(np.linspace(mu - 5 * sigma, mu + 5 * sigma, _GRID_1D))
        label = f"mu={mu:g} sigma={sigma:g}"
        rows = [{"x": float(y), "value": float(d.pdf(y)), "series": label} for y in ys]
        panels.append(("a", label, rows, ["x", "value", "series"]))
    return panels


def _fig_bivariate(cases) -> list[tuple[str, str, list[dict], list[str]]]:
    panels = []
    for idx, (mval, rho) in enumerate(cases):
        p = BivariateParams(0.0, 0.0, 1.0, 1.0, rho)
        mv = MvMultiGauss(p.mean(), p.covariance(), mval)
        ax = np.linspace(-4.0, 4.0, _GRID_2D)
        g1, g2 = np.meshgrid(ax, ax, indexing="ij")
        vals = mv.pdf(np.stack([g1.ravel(), g2.ravel()], axis=1))
        label = f"M={mval:g} rho={rho:g}"
        rows = [{"x1": float(a), "x2": float(b), "value": float(v), "series": label}
                for a, b, v in zip(g1.ravel(), g2.ravel(), vals)]
        panels.append((chr(ord("a") + idx), label, rows, ["x1", "x2", "value", "series"]))
    return panels


FIGURES = {
    1: lambda: _fig_univariate(FIGURE_M_SWEEP),
    2: _fig_mu_sigma_sweep,
    3: lambda: _fig_lmg(FIGURE_M_SWEEP, with_cdf=True),
    4: _fig_lmg_mu_sigma,
    5: lambda: _fig_bivariate(FIGURE_BIV),
    6: lambda: _fig_univariate(FIGURE_FRACTIONAL_M),
    7: lambda: _fig_lmg(FIGURE_FRACTIONAL_M, with_cdf=False),
    8: lambda: _fig_bivariate(FIGURE_BIV_FRACTIONAL),
}


def cmd_figure(args) -> int:
    if args.id not in FIGURES:
        raise ValueError(f"unknown figure id {args.id}; choose 1..8")
    import os

    os.makedirs(args.out_dir, exist_ok=True)
    panels = FIGURES[args.id]()
    ext = "json" if args.format == "json" else "csv"
    written = []
    for panel, label, rows, columns in panels:
        name = f"fig{args.id}_{panel}_{_sanitize(label)}.{ext}"
        path = f"{args.out_dir.rstrip('/')}/{name}"
        _emit(rows, columns, args.format, path)
        written.append(name)
    sys.stderr.write(f"wrote {len(written)} files to {args.out_dir}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    reports = verify_mod.run_suite(args.suite)
    rows = [r.to_dict() for r in reports]
    columns = ["target_name", "library_value", "oracle_value", "abs_err", "rel_err",
               "passed", "notes"]
    _emit(rows, columns, args.format, args.out)
    n_failed = sum(1 for r in reports if not r.passed)
    sys.stderr.write(f"{len(reports) - n_failed}/{len(reports)} checks passed\n")
    return EXIT_OK if n_failed == 0 else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=float, default=0.0, help="location parameter")
    p.add_argument("--sigma", type=float, default=1.0, help="scale parameter")
    p.add_argument("--m", type=float, default=1.0, help="shape parameter M > 0")
    p.add_argument("--rho", type=float, default=0.0, help="bivariate correlation")
    p.add_argument("--mu1", type=float, default=0.0)
    p.add_argument("--mu2", type=float, default=0.0)
    p.add_argument("--sigma1", type=float, default=1.0)
    p.add_argument("--sigma2", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multigauss",
        description="Evaluate, sample and verify the flat-top/cusped Gaussian family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a quantity on a grid")
    p_eval.add_argument("kind",
                        choices=["pdf", "cdf", "quantile", "moments", "cumulants",
                                 "mgf", "cf"])
    p_eval.add_argument("family", choices=["mg", "lmg", "mv"])
    _add_param_flags(p_eval)
    p_eval.add_argument("--from", dest="from_", type=float, default=None,
                        help="grid start (default depends on kind)")
    p_eval.add_argument("--to", type=float, default=None, help="grid end")
    p_eval.add_argument("--points", type=int, default=801, help="grid size")
    p_eval.add_argument("--k", type=int, default=4,
                        help="highest moment/cumulant order")
    p_eval.add_argument("--format", choices=["csv", "json"], default="csv")
    p_eval.add_argument("--out", default=None, help="output file (default stdout)")
    p_eval.set_defaults(func=cmd_eval)

    p_sample = sub.add_parser("sample", help="draw reproducible variates")
    p_sample.add_argument("family", choices=["mg", "lmg", "mv"])
    _add_param_flags(p_sample)
    p_sample.add_argument("--n", type=int, required=True, help="number of variates")
    p_sample.add_argument("--seed", type=int, required=True,
                          help="64-bit seed of the PCG64 generator")
    p_sample.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sample.add_argument("--out", default=None)
    p_sample.set_defaults(func=cmd_sample)

    p_fig = sub.add_parser("figure", help="emit data files for a figure preset")
    p_fig.add_argument("id", type=int, help="figure preset 1..8")
    p_fig.add_argument("--out-dir", default=".", help="target directory")
    p_fig.add_argument("--format", choices=["csv", "json"], default="csv")
    p_fig.set_defaults(func=cmd_figure)

    p_ver = sub.add_parser("verify", help="run the oracle verification suites")
    p_ver.add_argument("--suite", choices=["all"] + list(verify_mod.SUITES),
                       default="all")
    p_ver.add_argument("--format", choices=["csv", "json"], default="csv")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -5e-05`` into ``--flag=-5e-05``.

    argparse takes a token that starts with ``-`` for an option unless it
    looks like a plain negative number, so a negative float in exponent form
    (or ``-inf``) after a flag would be rejected as a missing value.
    """
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and tok.startswith("-"):
            try:
                float(tok)
            except ValueError:
                pass
            else:
                out[-1] = f"{prev}={tok}"
                continue
        out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(
        sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except SeriesNotConverged as exc:
        return _error("series_not_converged", str(exc), EXIT_NOT_CONVERGED)
    except (ValueError, TypeError) as exc:
        return _error("invalid_input", str(exc), EXIT_INVALID)
    except OverflowError as exc:
        return _error("overflow", f"value outside floating range: {exc}", EXIT_INVALID)
    except OSError as exc:
        return _error("io_error", str(exc), EXIT_INVALID)


if __name__ == "__main__":
    sys.exit(main())
