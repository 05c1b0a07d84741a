"""Write the mpmath references of the generating functions and moment ratios.

    python3 tests/genfn_reference.py        # rewrites tests/genfn_reference.json

For each shape ``M`` the standardized variable ``U`` has density
proportional to the profile ``f(u) = 1 - (1 - e^(-u^2/2))^M``.  Every value
here is a ratio of two integrals of ``f`` over ``[0, inf)``, taken by mpmath
quadrature of the profile written out directly (no series, nothing from
``multigauss``):

* ``cf(omega) = int f cos(omega u) / int f``, integrated between the zeros of
  the cosine;
* ``mgf(t) = int f cosh(t u) / int f``;
* ``xi_n = int f u^(2n) / ((2n - 1)!! int f)``, so that ``E[U^(2n)] =
  (2n - 1)!! xi_n`` (``xi_n = 1`` for the Gaussian).

The profile is taken as ``-expm1(M log(1 - e^-w))`` with ``log1p`` in the
tail, so it keeps its relative precision where ``mgf(25)`` needs it.  The
script checks itself against the closed forms at ``M = 1`` and ``M = 2``
before it writes.  `tests/test_genfn_reference.py` reads the JSON; mpmath is
not needed at test time.
"""

from __future__ import annotations

import json
import math
import os
import sys

import mpmath as mp

DPS = 30
M_VALUES = (0.025, 0.5, 1.0, 2.0, 2.5, 10.0, 12.3, 40.0, 54.0, 55.0)
OMEGAS = (0.5, 1.0, 3.0, 8.0, 40.0, 150.0)
TS = (0.5, 2.0, 4.0, 25.0)
ORDERS = (1, 2, 3, 4)

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "genfn_reference.json")


def profile(u, m):
    w = u * u / 2
    log_gap = mp.log(-mp.expm1(-w)) if w < 1 else mp.log1p(-mp.exp(-w))
    return -mp.expm1(m * log_gap)


def breaks(m, extra=()):
    """Breakpoints of the half-line: the flat top ends near sqrt(2 ln M)."""
    pts = {0.0, 0.3, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0}
    if m > 1:
        pts.add(round(math.sqrt(2 * math.log(m)), 3))
    pts.update(p for p in extra if p > 0)
    return sorted(pts)


def integral(g, m, extra=()):
    return mp.quad(g, [mp.mpf(p) for p in breaks(m, extra)] + [mp.inf])


def references(m):
    mm = mp.mpf(m)
    f = lambda u: profile(u, mm)
    mass = integral(f, m)
    cf = []
    for omega in OMEGAS:
        w = mp.mpf(omega)
        # beyond u = 14 the profile is below M e^-98: nothing at this precision
        zeros = [k * mp.pi / w for k in range(int(14 * omega / math.pi) + 1)]
        head = mp.quad(lambda u: f(u) * mp.cos(w * u), zeros + [mp.mpf(14)])
        tail = mp.quad(lambda u: f(u) * mp.cos(w * u), [14, mp.inf])
        cf.append(float((head + tail) / mass))
    mgf = []
    for t in TS:
        tt = mp.mpf(t)
        near = (t - 10, t - 5, t, t + 5, t + 10, t + 20)  # the integrand peaks near u = t
        mgf.append(float(integral(lambda u: f(u) * mp.cosh(tt * u), m, near) / mass))
    xi = []
    for n in ORDERS:
        dfact = mp.fprod(range(1, 2 * n, 2))
        xi.append(float(integral(lambda u: f(u) * u ** (2 * n), m) / (mass * dfact)))
    return {"cf": cf, "mgf": mgf, "xi": xi}


def check_closed_forms(table):
    """The Gaussian (M = 1) and the two-component case (M = 2) in closed form."""
    def two(g):  # S-weighted mixture of N(0, 1) and N(0, 1/2): weights 2 and -2^-1/2
        c = 2 - 2 ** -0.5
        return (2 * g(1.0) - 2 ** -0.5 * g(2.0)) / c
    want = {
        "1": {"cf": [math.exp(-w * w / 2) for w in OMEGAS],
              "mgf": [math.exp(t * t / 2) for t in TS],
              "xi": [1.0 for _ in ORDERS]},
        "2": {"cf": [two(lambda m: math.exp(-w * w / (2 * m))) for w in OMEGAS],
              "mgf": [two(lambda m: math.exp(t * t / (2 * m))) for t in TS],
              "xi": [(2 - 2 ** (-n - 0.5)) / (2 - 2 ** -0.5) for n in ORDERS]},
    }
    for key, ref in want.items():
        for what, values in ref.items():
            for got, exp in zip(table[key][what], values):
                tol = 1e-15 if what == "cf" else 1e-15 * abs(exp)
                if abs(got - exp) > tol:
                    raise SystemExit(f"M={key} {what}: {got!r} != {exp!r}")


def main() -> int:
    mp.mp.dps = DPS
    table = {}
    for m in M_VALUES:
        table[f"{m:g}"] = references(m)
        print(f"M={m:g} done", file=sys.stderr)
    check_closed_forms(table)
    doc = {"dps": DPS, "m": list(M_VALUES), "omega": list(OMEGAS), "t": list(TS),
           "n": list(ORDERS), "values": table}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
