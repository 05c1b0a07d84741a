"""Write the mpmath references of the univariate CDF.

    python3 tests/cdf_reference.py        # rewrites tests/cdf_reference.json

For each shape ``M`` and distance ``d`` it stores the lower tail ``P(U <=
-d)`` of the standardized variable and its complement ``P(U <= d)``, both
as the nearest floats.  They are quadratures of the profile ``1 - (1 -
e^-w)^M``, written out here: below ``|u| = 1`` in ``u`` itself, where the
integrand stays bounded at the mode, and beyond in ``w = u^2/2``, where the
tail decays like ``e^-w``.  The tiny shapes, where ``(1 - e^-w)^M`` is
within ~``M`` of 1, take 40 digits; the others 20.  Before it writes, the
script checks the shapes ``M = 1`` and ``2`` against their closed forms in
``erfc``.  `tests/test_cdf_engine.py` reads the JSON; mpmath is not needed
at test time.
"""

from __future__ import annotations

import json
import os

import mpmath as mp

SHAPES = (1, 2, 10, 40, 54, 0.025, 0.5, 2.5, 12.3)
TINY_SHAPES = (1e-9, 1e-6)
DISTANCES = (0.1, 0.3 - 1e-9, 0.3 + 1e-9, 1.0, 3.0, 8.0, 20.0, 35.0)

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cdf_reference.json")


def profile(w, m):
    """``1 - (1 - e^-w)^M`` with full relative precision in the tail."""
    if w < 1:
        return 1 - (-mp.expm1(-w)) ** m  # expm1 keeps the cusp at w -> 0
    return -mp.expm1(m * mp.log1p(-mp.exp(-w)))


def tail_integral(w0, m):
    """Integral of the profile over ``|u| >= sqrt(2 w0)``, taken in ``w = u^2/2``.

    The integrand is scaled by ``e^w0`` because mpmath stops refining once
    successive estimates agree to an absolute ``eps``.
    """
    scale = mp.exp(w0)
    f = lambda t: profile(w0 + t, m) * scale / mp.sqrt(2 * (w0 + t))
    return mp.quad(f, [0, 1, 4, 16, 64, mp.inf]) / scale


def lower_tails(mval) -> tuple[list[float], list[float]]:
    """``P(U <= -d)`` and ``P(U <= d)`` for each of `DISTANCES`, as floats."""
    with mp.workdps(40 if mval in TINY_SHAPES else 20):
        m = mp.mpf(mval)
        beyond_one = tail_integral(mp.mpf(0.5), m)

        def tail(d):
            if d >= 1.0:
                return tail_integral(mp.mpf(d) ** 2 / 2, m)
            pts = [d] + ([0.3] if d < 0.3 else []) + [1]
            return mp.quad(lambda u: profile(u * u / 2, m), pts) + beyond_one

        total = tail(0.0)
        lower = [tail(d) / (2 * total) for d in DISTANCES]
        if mval in (1, 2):
            # M = 1 is the normal law; at M = 2 the profile is 2 e^-w - e^-2w
            closed = [mp.erfc(d / mp.sqrt(2)) / 2 if mval == 1
                      else (2 * mp.erfc(d / mp.sqrt(2)) - mp.erfc(d) / mp.sqrt(2))
                      / (2 * (2 - 1 / mp.sqrt(2))) for d in map(mp.mpf, DISTANCES)]
            for got, want in zip(lower, closed):
                assert abs(got / want - 1) < mp.mpf(10) ** -15, (mval, got, want)
        return [float(p) for p in lower], [float(1 - p) for p in lower]


def main() -> None:
    values = {}
    for mval in SHAPES + TINY_SHAPES:
        lower, upper = lower_tails(mval)
        values[repr(mval)] = {"lower": lower, "upper": upper}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"distances": list(DISTANCES), "values": values}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
