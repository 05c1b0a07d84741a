"""Write the mpmath references of the alternating binomial series.

    python3 tests/series_reference.py        # rewrites tests/series_reference.json

``S(a; M) = sum_{m >= 1} C(M, m) (-1)^(m-1) m^-a`` two ways, neither from
``multigauss``:

* fractional ``M``: at 40 digits from its Mellin form
  ``Gamma(a)^-1 int_0^inf t^(a-1) [1 - (1 - e^-t)^M] dt``, by mpmath
  quadrature, for the orders ``a`` in `ORDERS`;
* integer ``M = 1..54``: the finite sum at 60 digits over the exact
  binomials ``math.comb(M, m)``, for ``a = k/2``, ``k = 1..12``.

The ``"fractional"`` block is what the truncated series is held to.  The
``"constants"`` block is the same Mellin form at the orders ``a = k/2``,
``k = 1..10``, of every normalization the families take from the Mellin
rule (c0, the mv norm up to ``N = 10``, the bivariate norm), at the
fractional shapes of `CONSTANT_SHAPES`: the small shapes, and the large
ones where the series loses digits or raises.

The script checks itself before it writes: ``S(1; M)`` is ``psi(M + 1) +
gamma`` (the digamma function and Euler's constant) at every fractional
shape, with ``M + 1`` formed in mpmath (in floats it would round away
``M = 1e-9``), and the harmonic number ``H_M`` at every integer one.
`tests/test_series.py` reads the JSON; mpmath is not needed at test time.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import mpmath as mp

FRACTIONAL_DPS = 40
INTEGER_DPS = 60
FRACTIONAL_SHAPES = (1e-3, 0.025, 0.5, 2.5, 7.3, 12.378584)
ORDERS = (0.5, 1.0, 1.5, 2.5)
CONSTANT_SHAPES = (1e-9, 1e-6, 1e-3, 0.025, 0.5, 2.5, 7.3, 12.378584,
                   20.5, 40.5, 46.5, 60.5, 100.5, 127.5)
CONSTANT_ORDERS = tuple(k / 2 for k in range(1, 11))
INTEGER_SHAPES = range(1, 55)
HALF_ORDERS = range(1, 13)  # a = k / 2

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "series_reference.json")


def mellin(a: float, m: float) -> mp.mpf:
    big_a, big_m = mp.mpf(a), mp.mpf(m)
    f = lambda t: t ** (big_a - 1) * (1 - (1 - mp.exp(-t)) ** big_m)
    return mp.quad(f, [0, 1, 10, 50, mp.inf]) / mp.gamma(big_a)


def finite_sum(k: int, m: int) -> mp.mpf:
    a = mp.mpf(k) / 2
    return mp.fsum((-1) ** (j - 1) * math.comb(m, j) * mp.power(j, -a) for j in range(1, m + 1))


def mellin_values(shapes, orders) -> dict:
    """``{repr(M): [S(a; M) for a in orders]}``, each checked at ``a = 1``."""
    values = {}
    with mp.workdps(FRACTIONAL_DPS):
        for m in shapes:
            refs = [mellin(a, m) for a in orders]
            check = mp.digamma(mp.mpf(m) + 1) + mp.euler
            assert abs(refs[orders.index(1.0)] / check - 1) < mp.mpf(10) ** -30, m
            values[repr(m)] = [float(r) for r in refs]
    return values


def main() -> None:
    fractional = mellin_values(FRACTIONAL_SHAPES, ORDERS)
    constants = mellin_values(CONSTANT_SHAPES, CONSTANT_ORDERS)
    integer = {}
    with mp.workdps(INTEGER_DPS):
        for m in INTEGER_SHAPES:
            refs = [finite_sum(k, m) for k in HALF_ORDERS]
            harmonic = sum(Fraction(1, j) for j in range(1, m + 1))
            assert abs(refs[1] - mp.mpf(harmonic.numerator) / harmonic.denominator) < mp.mpf(10) ** -40
            integer[str(m)] = [float(r) for r in refs]
    doc = {"fractional": {"dps": FRACTIONAL_DPS, "orders": list(ORDERS), "values": fractional},
           "integer": {"dps": INTEGER_DPS, "k": list(HALF_ORDERS), "values": integer},
           "constants": {"dps": FRACTIONAL_DPS, "orders": list(CONSTANT_ORDERS), "values": constants}}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
