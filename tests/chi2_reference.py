"""Write the mpmath references of the chi-square upper 1 % point.

    python3 tests/chi2_reference.py        # rewrites tests/chi2_reference.json

Each value is the root ``x`` of ``Q(df/2, x/2) = 0.01`` at 40 digits, for
``df = 1 .. 500``, with ``Q`` the regularized upper incomplete gamma function
``mp.gammainc(a, z, mp.inf, regularized=True)``; the secant search starts
from the Wilson-Hilferty approximation.  Before it writes, the script checks
each root against the closed forms of ``Q`` at integer and half-integer
shape (DLMF 8.4), summed at 60 digits.  The values are stored as
decimal strings; `tests/test_scipy_free_runtime.py` reads them without
mpmath.
"""

from __future__ import annotations

import json
import os

import mpmath as mp

DPS = 40
DFS = range(1, 501)

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "chi2_reference.json")


def tail() -> mp.mpf:
    """The upper tail 1/100, exact at the working precision."""
    return mp.mpf(1) / 100


def critical(df: int) -> mp.mpf:
    a = mp.mpf(df) / 2
    c = 2 / (9 * mp.mpf(df))
    start = df * (1 - c + mp.sqrt(2) * mp.erfinv(1 - 2 * tail()) * mp.sqrt(c)) ** 3
    return mp.findroot(lambda x: mp.gammainc(a, x / 2, mp.inf, regularized=True) - tail(),
                       start)


def closed_form_q(df: int, x: mp.mpf) -> mp.mpf:
    h, k = x / 2, df // 2
    if df % 2 == 0:
        return mp.exp(-h) * mp.fsum(h ** j / mp.factorial(j) for j in range(k))
    return mp.erfc(mp.sqrt(h)) + mp.exp(-h) * mp.fsum(
        h ** (j - mp.mpf(1) / 2) / mp.gamma(j + mp.mpf(1) / 2) for j in range(1, k + 1))


def main() -> None:
    mp.mp.dps = DPS
    values = {}
    for df in DFS:
        x = critical(df)
        with mp.workdps(DPS + 20):
            assert abs(closed_form_q(df, x) / tail() - 1) < mp.mpf(10) ** (5 - DPS), df
        values[str(df)] = mp.nstr(x, DPS, min_fixed=-mp.inf, max_fixed=mp.inf)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"dps": DPS, "tail": "0.01", "values": values}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
