"""Reference values computed apart from the program under test.

Everything here is mpmath quadrature of the profile ``1 - (1 - e^-w)^M``
written out directly; nothing is imported from ``multigauss``.  Values are
computed afresh in every benchmark run and kept only in memory (one
`Reference` object per shape ``M``), so no stored copy of program output is
ever compared against.

    python3 perfbench/references.py 2.5        # print the references for M = 2.5
"""

from __future__ import annotations

import math
import sys

import mpmath as mp
import numpy as np

#: Working precision of every reference quadrature.
DPS = 20


def _profile(w, m):
    """``1 - (1 - e^-w)^M`` in mpmath, to an absolute ``10^-DPS``.

    Absolute accuracy is all the quadratures below need: every integral they
    take is of order one.  (``mp.expm1`` is slow, so it is used only where
    ``1 - e^-w`` would cancel.)
    """
    gap = -mp.expm1(-w) if w < 1 else 1 - mp.exp(-w)  # expm1 keeps the cusp at w -> 0
    return 1 - gap ** m


def log_profile(w: np.ndarray, m: float) -> np.ndarray:
    """``log(1 - (1 - e^-w)^M)`` in double precision, for ``0 <= w < 700``.

    ``log(1 - e^-w)`` is taken through ``expm1`` below ``ln 2`` and through
    ``log1p`` above it, so the far tail keeps full relative precision.
    """
    w = np.asarray(w, dtype=float)
    with np.errstate(divide="ignore"):
        l1me = np.where(w < math.log(2.0), np.log(-np.expm1(-w)), np.log1p(-np.exp(-w)))
        return np.log(-np.expm1(m * l1me))


class Reference:
    """Reference quantities of the family with shape ``M``.

    ``s(a)`` is ``S(a; M) = Gamma(a)^-1 int_0^inf t^(a-1) profile(t) dt``; the
    univariate density of the standardized variable is
    ``profile(u^2/2) / (S(1/2) sqrt(2 pi))``.
    """

    def __init__(self, m: float):
        self.m = float(m)
        self._mm = mp.mpf(self.m)
        self._s: dict[float, float] = {}
        self._cdf: dict[float, float] = {}
        self._half: dict[float, mp.mpf] = {0.0: mp.mpf(0)}  # int_0^u profile(x^2/2) dx
        self._radial: dict[tuple[float, int], float] = {}
        self._radial_part: dict[int, dict[float, mp.mpf]] = {}  # int_0^q q^(N/2-1) profile
        self._radial_mass: dict[int, mp.mpf] = {}
        # breakpoints of the standardized axis: the flat top ends near sqrt(2 ln M)
        edge = math.sqrt(2.0 * math.log(self.m)) if self.m > 1.0 else 0.0
        self._breaks = sorted({1.0, 2.0, 4.0, 8.0} | ({round(edge, 3)} if edge else set()))

    # -- constants ----------------------------------------------------------

    def s(self, a: float) -> float:
        """``S(a; M)`` from the substitution ``t = x^2/2`` (smooth at 0)."""
        if a not in self._s:
            with mp.workdps(DPS):
                aa = mp.mpf(a)
                f = lambda x: (x * x / 2) ** (aa - 1) * x * _profile(x * x / 2, self._mm)
                val = mp.quad(f, [0.0] + self._breaks + [mp.inf]) / mp.gamma(aa)
            self._s[a] = float(val)
        return self._s[a]

    @property
    def c0(self) -> float:
        return self.s(0.5)

    # -- univariate law of the standardized variable --------------------------

    def _bell(self, u):
        return _profile(u * u / 2, self._mm)

    def _norm(self):
        return mp.mpf(self.c0) * mp.sqrt(2 * mp.pi)  # integral of the bell over the line

    @staticmethod
    def _from_nearest(f, cache: dict, x: float, breaks):
        """``int_0^x f``, continued from the largest cached point below ``x``."""
        if x not in cache:
            below = max(b for b in cache if b <= x)
            pts = [below] + [b for b in breaks if below < b < x] + [x]
            cache[x] = cache[below] + mp.quad(f, pts)
        return cache[x]

    def cdf(self, u: float) -> float:
        """``P(U <= u)`` for the standardized variable ``U = (X - mu)/sigma``."""
        u = float(u)
        if u not in self._cdf:
            au = abs(u)
            with mp.workdps(DPS):
                if au <= 6.0:
                    half = self._from_nearest(self._bell, self._half, au, self._breaks)
                    lower = mp.mpf(0.5) - half / self._norm()
                else:  # the far tail directly, keeping its relative precision
                    pts = [au] + [b for b in self._breaks if b > au] + [mp.inf]
                    lower = mp.quad(self._bell, pts) / self._norm()
            lower = float(lower)
            self._cdf[u] = lower if u < 0 else 1.0 - lower
        return self._cdf[u]

    def mgf(self, t: float) -> float:
        """``E[e^(t U)]`` of the standardized variable."""
        with mp.workdps(DPS):
            tt = mp.mpf(t)
            f = lambda u: mp.cosh(tt * u) * self._bell(u)
            reach = 3.0 * abs(t) + 14.0  # beyond it the integrand is below e^-60 of its peak
            return float(2 * mp.quad(f, [0.0, 2.0, 6.0, reach, mp.inf]) / self._norm())

    # -- radial law of Q in N dimensions ----------------------------------------

    def radial_cdf(self, q: float, n: int) -> float:
        """``P(Q <= q)`` where Q has density ``∝ q^(N/2-1) profile(q/2)``."""
        if (q, n) not in self._radial:
            self._radial[(q, n)] = self._radial_cdf(float(q), n)
        return self._radial[(q, n)]

    def _radial_cdf(self, q: float, n: int) -> float:
        with mp.workdps(DPS):
            f = lambda x: x ** (mp.mpf(n) / 2 - 1) * _profile(x / 2, self._mm)
            qb = [2.0 * b * b for b in self._breaks]
            if n not in self._radial_mass:
                self._radial_mass[n] = mp.quad(f, [0.0] + qb + [mp.inf])
                self._radial_part[n] = {0.0: mp.mpf(0)}
            part = self._from_nearest(f, self._radial_part[n], q, qb)
            return float(part / self._radial_mass[n])


def main(argv) -> int:
    for arg in argv or ["1", "2.5"]:
        r = Reference(float(arg))
        print(f"M={r.m:g}: S(1/2)={r.c0!r} S(1)={r.s(1.0)!r} S(3/2)={r.s(1.5)!r}")
        print("  cdf(-1, 0.5, 2) =", [r.cdf(u) for u in (-1.0, 0.5, 2.0)])
        print("  mgf(0.5) =", r.mgf(0.5), " P(Q<=2; N=2) =", r.radial_cdf(2.0, 2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
