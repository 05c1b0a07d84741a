"""Independent verification engine: quadrature, KS distance, finite differences.

Everything here is deliberately independent of the production code paths it
is used to check: the quadrature is a self-contained adaptive Gauss-Kronrod
(G7, K15) scheme, the reference Gaussian density is written out directly,
and the panel estimates are summed with ``math.fsum``.  Reports are
serializable records consumed by the command-line ``verify`` subcommand and
by the acceptance test suite.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "OracleReport",
    "integrate",
    "integrate_cos_weighted",
    "integrate_2d_graded",
    "ks_statistic",
    "finite_diff",
    "gaussian_pdf",
    "gaussian_cdf",
]


# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Interval and tolerances for :func:`integrate`.

    ``lower`` and ``upper`` may be ``-inf``/``+inf``; infinite ends are
    folded onto a finite interval by rational substitutions before the
    adaptive loop runs.
    """

    lower: float
    upper: float
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        lo, hi = float(self.lower), float(self.upper)
        if math.isnan(lo) or math.isnan(hi) or not lo < hi:
            raise ValueError(f"need lower < upper, got ({self.lower!r}, {self.upper!r})")
        if self.abs_tol < 0.0 or self.rel_tol < 0.0:
            raise ValueError("tolerances must be non-negative")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise ValueError("at least one tolerance must be positive")
        if not (isinstance(self.max_subdivisions, int) and self.max_subdivisions >= 1):
            raise ValueError("max_subdivisions must be a positive integer")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)


# the 15 Kronrod nodes in ascending order, and the K15 and G7 weights on them
_X15 = np.concatenate((np.negative(_XGK), _XGK[-2::-1]))
_WK15 = np.array(_WGK + _WGK[-2::-1])
_WG15 = np.zeros(15)
_WG15[1::2] = _WG + _WG[-2::-1]


def _gk15(f, a: float, b: float):
    """One Gauss-Kronrod panel, one call of ``f`` on its 15 nodes: (K15 estimate, error)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    vals = f(c + h * _X15)
    resk = h * float(_WK15 @ vals)
    resg = h * float(_WG15 @ vals)
    resasc = abs(h) * float(_WK15 @ np.abs(vals - resk / (b - a)))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk, err


def _wrap_infinite(f, lo: float, hi: float):
    """Map an integrand on a half-infinite or doubly infinite interval to (a, b)."""
    if math.isinf(lo) and math.isinf(hi):

        def g(t):
            one = 1.0 - t * t
            return f(t / one) * (1.0 + t * t) / (one * one)

        return g, -1.0, 1.0
    if math.isinf(hi):

        def g(t):
            one = 1.0 - t
            return f(lo + t / one) / (one * one)

        return g, 0.0, 1.0

    def g(t):
        one = 1.0 - t
        return f(hi - t / one) / (one * one)

    return g, 0.0, 1.0


def integrate(f, spec: QuadratureSpec) -> float:
    """Adaptive Gauss-Kronrod integration of ``f`` over ``spec``'s interval.

    ``f`` takes a 1-D float array and returns an array of the same shape; it
    is called once per panel, on the panel's 15 nodes.
    Splits the interval with the worst error estimate until the summed error
    estimate satisfies ``max(abs_tol, rel_tol * |I|)``.  Raises
    :class:`QuadratureError` if ``max_subdivisions`` panels are not enough.
    """
    lo, hi = spec.lower, spec.upper
    if math.isinf(lo) or math.isinf(hi):
        f, lo, hi = _wrap_infinite(f, lo, hi)
    val, err = _gk15(f, lo, hi)
    heap = [(-err, lo, hi, val, err)]
    while True:
        total = math.fsum(item[3] for item in heap)
        total_err = math.fsum(item[4] for item in heap)
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total
        if len(heap) >= spec.max_subdivisions:
            raise QuadratureError(
                f"no convergence after {len(heap)} subdivisions "
                f"(estimated error {total_err:.3g})"
            )
        _, a, b, _, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            raise QuadratureError("interval too narrow to subdivide further")
        v1, e1 = _gk15(f, a, mid)
        v2, e2 = _gk15(f, mid, b)
        heapq.heappush(heap, (-e1, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, b, v2, e2))


def integrate_cos_weighted(f, omega: float, lower: float, upper: float,
                           abs_tol: float = 1e-12) -> float:
    """Integrate ``cos(omega x) f(x)`` by splitting at the zeros of the cosine.

    Plain adaptive quadrature degrades on oscillatory integrands; one
    half-period per segment keeps each panel smooth and signed errors small.
    ``f`` takes and returns arrays, as for :func:`integrate`.
    """
    omega = float(omega)
    if omega == 0.0:
        return integrate(f, QuadratureSpec(lower, upper, abs_tol=abs_tol))
    g = lambda x: np.cos(omega * x) * f(x)
    half = math.pi / abs(omega)
    k_lo = math.ceil((lower * abs(omega) - 0.5 * math.pi) / math.pi)
    edges = [lower]
    z = (0.5 * math.pi + k_lo * math.pi) / abs(omega)
    while z < upper:
        if z > edges[-1]:
            edges.append(z)
        z += half
    edges.append(upper)
    seg_tol = abs_tol / max(len(edges) - 1, 1)
    pieces = []
    for a, b in zip(edges[:-1], edges[1:]):
        pieces.append(integrate(g, QuadratureSpec(a, b, abs_tol=seg_tol, rel_tol=0.0,
                                                  max_subdivisions=200)))
    return math.fsum(pieces)


def _panel_nodes(edges: np.ndarray, order: int):
    """Nodes and weights of an ``order``-point Gauss-Legendre rule on each panel between ``edges``."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(order)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halves[:, None] * gl_x[None, :]).ravel()
    weights = (halves[:, None] * gl_w[None, :]).ravel()
    return nodes, weights


def integrate_2d_graded(f, center, half_width, panels_per_side: int = 40,
                        order: int = 8, grading: float = 3.0) -> float:
    """Tensor-product Gauss-Legendre quadrature over a centred square region.

    Panel edges are graded toward the centre (``(k/K)^grading``) so densities
    with a cusp at the centre are still integrated to ~1e-9.  ``f`` must
    accept two equal-shape arrays and return the integrand values; it is
    called once per panel row of x nodes (``order`` rows of the whole y
    axis), so the memory a call needs does not grow with the square of the
    grid.
    """
    cx, cy = float(center[0]), float(center[1])
    hx, hy = float(half_width[0]), float(half_width[1])
    ts = (np.arange(panels_per_side + 1) / panels_per_side) ** grading
    nx, wx = _panel_nodes(np.concatenate((cx - hx * ts[::-1], cx + hx * ts[1:])), order)
    ny, wy = _panel_nodes(np.concatenate((cy - hy * ts[::-1], cy + hy * ts[1:])), order)
    inner = np.zeros_like(ny)
    for rows in range(0, len(nx), order):
        gx, gy = np.meshgrid(nx[rows:rows + order], ny, indexing="ij")
        inner += wx[rows:rows + order] @ f(gx, gy)
    return float(inner @ wy)


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic for sorted samples.

    ``sup_x |F_n(x) - F(x)|`` with the empirical CDF stepping at each
    sample.  Requires a non-empty, ascending-sorted sequence; ``cdf`` is
    called once, with the whole array of samples.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n == 0:
        raise ValueError("KS statistic needs at least one sample")
    if np.any(np.diff(samples) < 0.0):
        raise ValueError("samples must be sorted in ascending order")
    fvals = np.asarray(cdf(samples), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - fvals)
    d_minus = np.max(fvals - (i - 1) / n)
    return float(max(d_plus, d_minus))


def finite_diff(f, x: float, h: float) -> float:
    """Central finite difference ``(f(x+h) - f(x-h)) / (2h)``."""
    if not h > 0.0:
        raise ValueError("h must be positive")
    return (f(x + h) - f(x - h)) / (2.0 * h)


def gaussian_pdf(x, mu: float = 0.0, sigma: float = 1.0):
    """Reference Gaussian density, written out independently of the library.

    Accepts scalars or arrays; a scalar input gives a ``float``.
    """
    d = (np.asarray(x, dtype=float) - mu) / sigma
    out = np.exp(-0.5 * d * d) / (sigma * math.sqrt(2.0 * math.pi))
    return float(out) if out.ndim == 0 else out


_erfc = np.vectorize(math.erfc, otypes=[float])


def gaussian_cdf(x, mu: float = 0.0, sigma: float = 1.0):
    """Reference Gaussian CDF via the complementary error function.

    Accepts scalars or arrays; a scalar input gives a ``float``.
    """
    out = 0.5 * _erfc(-(np.asarray(x, dtype=float) - mu) / (sigma * math.sqrt(2.0)))
    return float(out) if out.ndim == 0 else out


@dataclass
class OracleReport:
    """Comparison record between a library value and an oracle value."""

    target_name: str
    library_value: float
    oracle_value: float
    abs_err: float = field(init=False)
    rel_err: float = field(init=False)
    passed: bool = False
    notes: str = ""
    abs_tol: float | None = None
    rel_tol: float | None = None

    def __post_init__(self):
        self.abs_err = abs(self.library_value - self.oracle_value)
        if self.oracle_value != 0.0:
            self.rel_err = self.abs_err / abs(self.oracle_value)
        else:
            self.rel_err = 0.0 if self.abs_err == 0.0 else math.inf
        if self.abs_tol is not None or self.rel_tol is not None:
            abs_ok = self.abs_tol is None or self.abs_err <= self.abs_tol
            rel_ok = self.rel_tol is None or self.rel_err <= self.rel_tol
            self.passed = abs_ok and rel_ok

    def to_dict(self) -> dict:
        return {
            "target_name": self.target_name,
            "library_value": self.library_value,
            "oracle_value": self.oracle_value,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "passed": self.passed,
            "notes": self.notes,
        }
