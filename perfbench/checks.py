"""Checks of program outputs against `references` and against properties.

Every function returns an error message, or ``None`` when the output passes.
None of them calls into ``multigauss``.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from references import Reference, log_profile

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

#: Probability that a correct sampler fails one operation's checks.
FALSE_ALARM = 1e-9

#: Standardized points at which sampled univariate laws are compared with
#: the reference CDF (the law is symmetric, so the references are taken at
#: ``u >= 0`` only).
DKW_POINTS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0)

#: Points of the radial variable Q at which sampled mv laws are compared.
RADIAL_POINTS = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0)


def dkw_epsilon(n: int, delta: float) -> float:
    """Half-width that ``sup |F_n - F|`` exceeds with probability <= delta."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _loglik_tol(log_p: np.ndarray) -> float:
    # a few ulp per term: far below the 1e-6 per point of a c0 off by 1e-6
    return 1e-9 * float(np.sum(1.0 + np.abs(log_p)))


def check_loglik_mg(ll: float, data: np.ndarray, mu: float, sigma: float,
                    ref: Reference) -> str | None:
    """Log-likelihood of ``data`` under ``MultiGauss(mu, sigma, ref.m)``."""
    u = (data - mu) / sigma
    log_p = log_profile(0.5 * u * u, ref.m) - (math.log(ref.c0 * sigma) + _LOG_SQRT_2PI)
    want = float(np.sum(log_p))
    if not (math.isfinite(ll) and abs(ll - want) <= _loglik_tol(log_p)):
        return f"loglik {ll!r} != reference {want!r} (M={ref.m:g})"
    return None


def check_loglik_mv(ll: float, data: np.ndarray, mean: np.ndarray, cov: np.ndarray,
                    ref: Reference) -> str | None:
    """Log-likelihood of ``data`` (k, N) under ``MvMultiGauss(mean, cov, ref.m)``."""
    n = data.shape[1]
    chol = np.linalg.cholesky(cov)
    z = np.linalg.solve(chol, (data - mean).T)
    q = np.sum(z * z, axis=0)
    log_norm = (math.log(ref.s(0.5 * n)) + n * _LOG_SQRT_2PI
                + float(np.sum(np.log(np.diag(chol)))))
    log_p = log_profile(0.5 * q, ref.m) - log_norm
    want = float(np.sum(log_p))
    if not (math.isfinite(ll) and abs(ll - want) <= _loglik_tol(log_p)):
        return f"mv loglik {ll!r} != reference {want!r} (M={ref.m:g}, N={n})"
    return None


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _ecdf(sorted_values: np.ndarray, points) -> np.ndarray:
    return np.searchsorted(sorted_values, np.asarray(points), side="right") / sorted_values.size


def check_standardized_sample(u: np.ndarray, ref: Reference, delta: float = FALSE_ALARM,
                              what: str = "sample") -> str | None:
    """DKW bound on the law of ``u = (x - mu)/sigma`` at `DKW_POINTS`."""
    if not np.all(np.isfinite(u)):
        return f"{what}: non-finite values"
    pos = np.array(DKW_POINTS)
    points = np.concatenate((-pos[:0:-1], pos))
    upper = np.array([ref.cdf(p) for p in pos])
    want = np.concatenate((1.0 - upper[:0:-1], upper))
    gap = float(np.max(np.abs(_ecdf(np.sort(u), points) - want)))
    eps = dkw_epsilon(u.size, delta)
    if gap > eps:
        return f"{what}: DKW gap {gap:.4g} > {eps:.4g} (M={ref.m:g}, n={u.size})"
    return None


def check_mv_sample(x: np.ndarray, mean: np.ndarray, cov: np.ndarray, ref: Reference,
                    delta: float = FALSE_ALARM) -> str | None:
    """DKW bound on the radial law of Q, plus sign tests of the projections.

    ``z = L^-1 (x - mean)`` is spherically symmetric, so each coordinate and
    the diagonal projection are negative with probability exactly 1/2; half
    of ``delta`` goes to the radial bound and half to the sign tests.
    """
    n_dim = mean.size
    if x.ndim != 2 or x.shape[1] != n_dim or not np.all(np.isfinite(x)):
        return f"mv sample: bad shape {x.shape} or non-finite values"
    chol = np.linalg.cholesky(cov)
    z = np.linalg.solve(chol, (x - mean).T)
    q = np.sum(z * z, axis=0)
    want = np.array([ref.radial_cdf(p, n_dim) for p in RADIAL_POINTS])
    gap = float(np.max(np.abs(_ecdf(np.sort(q), RADIAL_POINTS) - want)))
    eps = dkw_epsilon(q.size, 0.5 * delta)
    if gap > eps:
        return f"mv sample: radial DKW gap {gap:.4g} > {eps:.4g} (M={ref.m:g}, N={n_dim})"
    projections = np.vstack((z, z.sum(axis=0) / math.sqrt(n_dim)))
    eps = dkw_epsilon(q.size, 0.5 * delta / len(projections))
    worst = float(np.max(np.abs(np.mean(projections < 0.0, axis=1) - 0.5)))
    if worst > eps:
        return f"mv sample: sign-test gap {worst:.4g} > {eps:.4g} (M={ref.m:g}, N={n_dim})"
    return None


# ---------------------------------------------------------------------------
# cli output files
# ---------------------------------------------------------------------------

TEXT_COLUMNS = ("series", "notes", "target_name", "passed")


def read_table(path: str, fmt: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """Columns of a CSV or JSON output file; all but `TEXT_COLUMNS` as floats.

    Raises ``ValueError`` on a cell that is not a number.
    """
    if fmt == "json":
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
        columns = list(records[0]) if records else []
        return columns, {c: np.array([r[c] for r in records],
                                     dtype=object if c in TEXT_COLUMNS else float)
                         for c in columns}
    with open(path, encoding="utf-8") as fh:
        columns = next(csv.reader(fh))
    table = {}
    opts = {"delimiter": ",", "skiprows": 1, "quotechar": '"', "comments": None, "ndmin": 2}
    for dtype in (float, str):
        idx = [i for i, c in enumerate(columns) if (c in TEXT_COLUMNS) == (dtype is str)]
        if idx:
            values = np.loadtxt(path, usecols=idx, dtype=dtype, **opts)
            table.update((columns[i], values[:, k]) for k, i in enumerate(idx))
    return columns, table


def check_table(columns, table, want_columns, want_rows) -> str | None:
    """Exact column names, exact row count, every number finite."""
    if columns != list(want_columns):
        return f"columns {columns} != {list(want_columns)}"
    rows = len(table[columns[0]])
    if rows != want_rows:
        return f"{rows} rows, expected {want_rows}"
    for c in columns:
        if c not in TEXT_COLUMNS and not np.all(np.isfinite(table[c])):
            return f"non-finite or non-numeric value in column {c}"
    return None


def check_close(got, want, rel: float, abs_: float = 0.0, what: str = "value") -> str | None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    bad = np.abs(got - want) > rel * np.abs(want) + abs_
    if np.any(bad):
        i = int(np.argmax(bad))
        return f"{what}: {got.flat[i]!r} != reference {want.flat[i]!r}"
    return None


def check_cdf_shape(values: np.ndarray, symmetric: bool) -> str | None:
    """CDF on a grid: monotone, and ``cdf(mu-d) + cdf(mu+d) = 1`` on a symmetric grid."""
    if np.any(np.diff(values) < -1e-15):
        return "cdf is not monotone"
    if np.any((values < 0.0) | (values > 1.0)):
        return "cdf leaves [0, 1]"
    if symmetric and np.max(np.abs(values + values[::-1] - 1.0)) > 1e-12:
        return "cdf(mu-d) + cdf(mu+d) != 1"
    return None


def mg_pdf(x, mu: float, sigma: float, ref: Reference) -> np.ndarray:
    u = (np.asarray(x, dtype=float) - mu) / sigma
    return np.exp(log_profile(0.5 * u * u, ref.m)) / (ref.c0 * sigma * math.sqrt(2 * math.pi))


def biv_pdf(x1, x2, sigma1, sigma2, rho, ref: Reference) -> np.ndarray:
    d1 = np.asarray(x1) / sigma1
    d2 = np.asarray(x2) / sigma2
    q = (d1 * d1 - 2 * rho * d1 * d2 + d2 * d2) / (1 - rho * rho)
    norm = ref.s(1.0) * 2 * math.pi * sigma1 * sigma2 * math.sqrt(1 - rho * rho)
    return np.exp(log_profile(0.5 * q, ref.m)) / norm
