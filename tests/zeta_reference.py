"""Write the mpmath references of the Hurwitz zeta function.

    python3 tests/zeta_reference.py        # rewrites tests/zeta_reference.json

Each value is ``zeta(s, a) = sum_{k >= 0} (a + k)^-s`` at 40 digits: the
first `HEAD` terms by ``mp.fsum``, then ``mp.zeta(s, a + HEAD)`` for the
rest.  ``mp.zeta(s, a)`` alone is not used: where ``a`` and ``s`` are both
large it keeps too few digits (at ``s = 58``, ``a = 2001`` it is off by
~2e-10 relative), while its value at ``a + HEAD`` carries little weight.
For the integer ``a`` up to 51 the script checks itself before it writes
against ``zeta(s) - sum_{k < a} k^-s``, with the Riemann zeta and enough
digits to cover the cancellation.  `tests/test_hurwitz_zeta.py` reads the
JSON; mpmath is not needed at test time.
"""

from __future__ import annotations

import json
import os

import mpmath as mp

DPS = 40
HEAD = 20_000
S_VALUES = [1.5 + 0.5 * k for k in range(118)]  # 1.5 .. 60 in steps of 1/2
A_VALUES = (11.0, 12.0, 13.5, 20.0, 51.0, 2001.0, 1e6 + 1.0)

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "zeta_reference.json")


def hurwitz(s: float, a: float) -> mp.mpf:
    s, a = mp.mpf(s), mp.mpf(a)
    return mp.fsum((a + k) ** -s for k in range(HEAD)) + mp.zeta(s, a + HEAD)


def riemann_minus_head(s: float, a: int) -> mp.mpf:
    with mp.workdps(DPS + int(s * mp.log10(a)) + 10):
        return mp.zeta(s) - mp.fsum(mp.mpf(k) ** -s for k in range(1, a))


def main() -> None:
    mp.mp.dps = DPS
    values = {}
    for a in A_VALUES:
        refs = [hurwitz(s, a) for s in S_VALUES]
        if a.is_integer() and a <= 51:
            for s, ref in zip(S_VALUES, refs):
                check = riemann_minus_head(s, int(a))
                assert abs(ref / check - 1) < mp.mpf(10) ** (5 - DPS), (s, a)
        values[repr(a)] = [float(r) for r in refs]
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"dps": DPS, "head": HEAD, "s": S_VALUES, "values": values}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
