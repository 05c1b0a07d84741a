"""Command-line front end.

Subcommands:

* ``eval``    - evaluate pdf/cdf/quantile/moments/cumulants/mgf/cf on a grid
* ``sample``  - draw reproducible variates (PCG64 generator, explicit seed)
* ``figure``  - emit the data series of a preset in `FIGURES`: pdf and CDF
  over an M sweep (1) and into the cusped regime (6), pdf over a
  (mu, sigma) set (2), their log-scale counterparts (3, 7, 4) and bivariate
  surfaces (5, 8)
* ``verify``  - run the oracle verification suites and report pass/fail

Every command builds one table, a NumPy record array with one field per
output column, and writes it as CSV (header ``x,value,series``; 17
significant digits; two-abscissa data uses ``x1,x2``) or JSON (array of row
objects).  Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 non-converged series.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
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

#: Parameter flags of ``eval`` and ``sample`` with their defaults; figure
#: presets start from the same defaults.
_PARAM_DEFAULTS = {"mu": 0.0, "sigma": 1.0, "m": 1.0, "rho": 0.0,
                   "mu1": 0.0, "mu2": 0.0, "sigma1": 1.0, "sigma2": 1.0}
_PARAM_HELP = {"mu": "location parameter", "sigma": "scale parameter",
               "m": "shape parameter M > 0", "rho": "bivariate correlation"}
#: Series label of each family, formatted with the parameters.
_LABELS = {"mg": "M={m:g}", "lmg": "M={m:g}", "mv": "M={m:g} rho={rho:g}"}


def _table(**columns) -> np.recarray:
    """One output table: a field per keyword, in order, one row per grid point.

    A scalar column (the series label) is repeated on every row.
    """
    cols = np.broadcast_arrays(*(np.asarray(c) for c in columns.values()))
    return np.rec.fromarrays(cols, names=list(columns))


def _emit(table: np.recarray, fmt: str, *, out_path: str | None) -> None:
    """Write a table as CSV (float cells with 17 significant digits) or JSON.

    ``out_path`` is keyword-only so that wrappers (the perfbench tracer) find
    the output file under that name.
    """
    names = table.dtype.names
    if fmt == "json":
        text = json.dumps([dict(zip(names, row)) for row in table.tolist()])
    else:
        cols = [[f"{v:.17g}" for v in table[n].tolist()] if table.dtype[n].kind == "f"
                else table[n].tolist() for n in names]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(zip(*cols))
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error(kind: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")
    return code


def _orders(args, f, label: str) -> np.recarray:
    """``f(k)`` for the orders ``k = 1..--k`` of ``eval moments|cumulants``."""
    if args.k < 1:
        raise ValueError("--k must be a positive integer")
    ks = range(1, args.k + 1)
    return _table(x=np.array(ks, dtype=float), value=[f(k) for k in ks], series=label)


def _grid(args, default_lo: float, default_hi: float) -> np.ndarray:
    lo = args.from_ if args.from_ is not None else default_lo
    hi = args.to if args.to is not None else default_hi
    return _axis(lo, hi, args.points)


def _axis(lo: float, hi: float, points: int) -> np.ndarray:
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"grid bounds must be finite with from < to, got ({lo}, {hi})")
    if points < 2:
        raise ValueError("curve output needs at least 2 grid points")
    return np.linspace(lo, hi, points)


def _build(family: str, p):
    """The distribution of ``family`` whose parameters ``p`` carries as attributes."""
    if family == "mg":
        return MultiGauss(p.mu, p.sigma, p.m)
    if family == "lmg":
        return LogMultiGauss(p.mu, p.sigma, p.m)
    b = BivariateParams(p.mu1, p.mu2, p.sigma1, p.sigma2, p.rho)
    return MvMultiGauss(b.mean(), b.covariance(), p.m)


def _curve(d, kind: str, xs: np.ndarray, label: str) -> np.recarray:
    """The pdf or cdf of ``d`` on the grid ``xs``, in one array call."""
    return _table(x=xs, value=d.pdf(xs) if kind == "pdf" else d.cdf(xs), series=label)


def _surface(mv: MvMultiGauss, x1: np.ndarray, x2: np.ndarray, label: str) -> np.recarray:
    """The bivariate pdf on the product grid ``x1 x x2`` (``x2`` varies fastest)."""
    g1, g2 = (g.ravel() for g in np.meshgrid(x1, x2, indexing="ij"))
    return _table(x1=g1, x2=g2, value=mv.pdf(np.stack([g1, g2], axis=1)), series=label)


def _make_rng(seed: int) -> np.random.Generator:
    if seed < 0 or seed > 2**64 - 1:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _eval_mg(args, d: MultiGauss, label: str) -> np.recarray:
    kind = args.kind
    if kind in ("pdf", "cdf"):
        return _curve(d, kind, _grid(args, d.mu - 5 * d.sigma, d.mu + 5 * d.sigma), label)
    if kind == "quantile":
        us = _grid(args, 0.01, 0.99)
        if us[0] <= 0.0 or us[-1] >= 1.0:
            raise ValueError("quantile grid must lie strictly inside (0, 1)")
        return _table(x=us, value=d.quantile(us), series=label)
    if kind == "mgf":
        ts = _grid(args, -1.0, 1.0)
        return _table(x=ts, value=d.mgf(ts), series=label)
    if kind == "cf":
        ws = _grid(args, -8.0, 8.0)
        vals = d.cf(ws)
        return _table(x=np.concatenate([ws, ws]), value=np.concatenate([vals.real, vals.imag]),
                      series=np.repeat([label + ":re", label + ":im"], len(ws)))
    if kind == "moments":
        return _orders(args, d.raw_moment, label)
    if kind == "cumulants":
        return _orders(args, d.cumulant, label)
    raise ValueError(f"kind {kind!r} is not available for family 'mg'")


def _eval_lmg(args, d: LogMultiGauss, label: str) -> np.recarray:
    kind = args.kind
    base = d.base
    if kind in ("pdf", "cdf"):
        ys = _grid(args, math.exp(base.mu - 5 * base.sigma), math.exp(base.mu + 5 * base.sigma))
        return _curve(d, kind, ys, label)
    if kind == "moments":
        return _orders(args, d.moment, label)
    raise ValueError(
        f"kind {kind!r} is not available for family 'lmg' "
        "(the log-scale MGF diverges and no quantile/cumulants are defined)"
    )


def _eval_mv(args, mv: MvMultiGauss, label: str) -> np.recarray:
    x1 = _grid(args, args.mu1 - 4 * args.sigma1, args.mu1 + 4 * args.sigma1)
    x2 = _axis(args.mu2 - 4 * args.sigma2, args.mu2 + 4 * args.sigma2, args.points)
    return _surface(mv, x1, x2, label)


_EVALS = {"mg": _eval_mg, "lmg": _eval_lmg, "mv": _eval_mv}


def cmd_eval(args) -> int:
    if args.family == "mv" and args.kind != "pdf":
        raise ValueError("family 'mv' supports only kind 'pdf'")
    d = _build(args.family, args)
    table = _EVALS[args.family](args, d, _LABELS[args.family].format(**vars(args)))
    names = table.dtype.names
    finite = np.isfinite(np.column_stack(
        [table[n] for n in names if table.dtype[n].kind == "f"])).all(axis=1)
    if not finite.all():
        row = table[np.argmin(finite)].tolist()
        raise SeriesNotConverged(f"non-finite output at {dict(zip(names, row))}")
    _emit(table, args.format, out_path=args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    rng = _make_rng(args.seed)
    if args.n < 1:
        raise ValueError("n must be >= 1")
    draws = _build(args.family, args).sample(args.n, rng)
    # ``x`` is the 1-based index; a bivariate draw is a row (x1, x2)
    values = {"x1": draws[:, 0], "x2": draws[:, 1]} if args.family == "mv" else {"value": draws}
    table = _table(x=np.arange(1.0, args.n + 1), **values,
                   series=_LABELS[args.family].format(**vars(args)))
    _emit(table, args.format, out_path=args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

def _series(label: str, cases) -> tuple:
    """``(label, parameters)`` of each case; ``label`` formats its parameters."""
    return tuple((label.format(**c), c) for c in cases)


def _surfaces(m_values) -> tuple:
    return _series("M={m:g} rho={rho:g}",
                   ({"m": m, "rho": r} for m in m_values for r in (0.0, 0.7)))


_SHAPES = _series("M={m:g}", ({"m": m} for m in (1.0, 2.0, 10.0, 40.0)))
_CUSPED = _series("M={m:g}", ({"m": m} for m in (1.0, 0.5, 0.25, 0.025)))
_LOCATIONS = _series("mu={mu:g} sigma={sigma:g}", (
    {"m": 10.0, "mu": mu, "sigma": sigma}
    for mu, sigma in ((0.0, 1.0), (0.0, 2.0), (3.0, 1.0), (0.0, 0.5))))

#: Figure presets: id -> (family, kinds, series).  A univariate series is one
#: curve per kind over ``mu +- 5 sigma`` (log-scale: its exponential), with
#: panels a, b, ... in kind order; a bivariate series is one surface over
#: ``[-4, 4]^2`` in a panel of its own.  Parameters a series leaves unset keep
#: their flag defaults; the (mu, sigma) set of presets 2 and 4 is a package
#: default.
FIGURES = {
    1: ("mg", ("pdf", "cdf"), _SHAPES),
    2: ("mg", ("pdf",), _LOCATIONS),
    3: ("lmg", ("pdf", "cdf"), _SHAPES),
    4: ("lmg", ("pdf",), _LOCATIONS),
    5: ("mv", ("pdf",), _surfaces((1.0, 40.0))),
    6: ("mg", ("pdf", "cdf"), _CUSPED),
    7: ("lmg", ("pdf",), _CUSPED),
    8: ("mv", ("pdf",), _surfaces((1.0, 0.025))),
}

_GRID_1D = 801
_GRID_2D = 201


def _sanitize(label: str) -> str:
    return (label.replace("=", "").replace(" ", "_").replace(",", "_")
            .replace(".", "p").replace("-", "m"))


def _figure_tables(fig_id: int):
    """Yield ``(panel, label, table)`` for every file of a figure preset."""
    family, kinds, series = FIGURES[fig_id]
    cases = [(label, argparse.Namespace(**{**_PARAM_DEFAULTS, **c})) for label, c in series]
    cases = [(label, p, _build(family, p)) for label, p in cases]
    for k, kind in enumerate(kinds):
        for s, (label, p, d) in enumerate(cases):
            if family == "mv":
                ax = np.linspace(-4.0, 4.0, _GRID_2D)
                yield chr(ord("a") + s), label, _surface(d, ax, ax, label)
            else:
                xs = np.linspace(p.mu - 5 * p.sigma, p.mu + 5 * p.sigma, _GRID_1D)
                xs = np.exp(xs) if family == "lmg" else xs
                yield chr(ord("a") + k), label, _curve(d, kind, xs, label)


def cmd_figure(args) -> int:
    if args.id not in FIGURES:
        raise ValueError(f"unknown figure id {args.id}; choose 1..8")
    os.makedirs(args.out_dir, exist_ok=True)
    written = 0
    for panel, label, table in _figure_tables(args.id):
        name = f"fig{args.id}_{panel}_{_sanitize(label)}.{args.format}"
        _emit(table, args.format, out_path=os.path.join(args.out_dir, name))
        written += 1
    sys.stderr.write(f"wrote {written} files to {args.out_dir}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    reports = verify_mod.run_suite(args.suite)
    rows = [r.to_dict() for r in reports]
    _emit(_table(**{c: [r[c] for r in rows] for c in rows[0]}), args.format, out_path=args.out)
    n_failed = sum(1 for r in reports if not r.passed)
    sys.stderr.write(f"{len(reports) - n_failed}/{len(reports)} checks passed\n")
    return EXIT_OK if n_failed == 0 else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_param_flags(p: argparse.ArgumentParser) -> None:
    for name, default in _PARAM_DEFAULTS.items():
        p.add_argument(f"--{name}", type=float, default=default, help=_PARAM_HELP.get(name))


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
