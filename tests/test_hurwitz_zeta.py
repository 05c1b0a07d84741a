"""The package's Hurwitz zeta, the tail of the fractional-``M`` series.

`tests/zeta_reference.py` writes ``zeta_reference.json`` at 40 digits; this
module only reads it.  scipy's ``zeta`` is imported by a test here only.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from multigauss import series
from multigauss.series import _hurwitz_zeta

with open(os.path.join(os.path.dirname(__file__), "zeta_reference.json"), encoding="utf-8") as fh:
    REF = json.load(fh)

S_VALUES = REF["s"]
A_KEYS = list(REF["values"])
#: Below this a float has no relative precision to speak of.
TINY = 2.2250738585072014e-308


def assert_close(got, want, rtol):
    """Relative ``rtol`` where ``want`` is a normal float; a few subnormal units below."""
    got, want = np.asarray(got), np.asarray(want)
    normal = want >= TINY
    np.testing.assert_allclose(got[normal], want[normal], rtol=rtol, atol=0.0)
    assert np.all(np.abs(got[~normal] - want[~normal]) <= 1e-322)


@pytest.mark.parametrize("key", A_KEYS)
def test_within_1e15_of_the_40_digit_reference(key):
    a = float(key)
    got = [_hurwitz_zeta(s, a)[0] for s in S_VALUES]
    assert_close(got, REF["values"][key], rtol=1e-15)


@pytest.mark.parametrize("key", A_KEYS)
def test_five_orders_of_one_call_are_each_within_1e15(key):
    """The orders ``s .. s + 4`` share one ``N`` and one loop over the corrections."""
    a, want = float(key), REF["values"][key]
    for i, s in enumerate(S_VALUES[:-8]):
        # S_VALUES steps by 1/2, so s + j is two entries on
        assert_close(_hurwitz_zeta(s, a, 5), want[i:i + 9:2], rtol=1e-15)


@pytest.mark.parametrize("key", A_KEYS)
def test_agrees_with_scipy_to_a_few_ulp(key):
    from scipy.special import zeta

    a = float(key)
    got = np.array([_hurwitz_zeta(s, a, 3) for s in S_VALUES])
    want = zeta(np.add.outer(S_VALUES, [0.0, 1.0, 2.0]), a)
    # near the bottom of the float range scipy itself loses digits (2e-14 at s = 52, a = 1e6 + 1)
    kept = want > 1e-290
    np.testing.assert_allclose(got[kept], want[kept], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("s,a", [(1.0 + 1e-9, 11.0), (1.01, 2001.0), (3.0, 1.0), (7.5, 1.25)])
def test_near_the_pole_and_at_small_a(s, a):
    from scipy.special import zeta

    got = _hurwitz_zeta(s, a, 5)
    np.testing.assert_allclose(got, zeta(s + np.arange(5.0), a), rtol=1e-15, atol=0.0)


def test_closed_forms():
    assert _hurwitz_zeta(2.0, 1.0)[0] == pytest.approx(math.pi ** 2 / 6, rel=2e-16)
    assert _hurwitz_zeta(4.0, 1.0)[0] == pytest.approx(math.pi ** 4 / 90, rel=2e-16)
    assert _hurwitz_zeta(2.0, 2.0)[0] == pytest.approx(math.pi ** 2 / 6 - 1, rel=4e-16)


def best_time(f, repeat=3):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        f()
        times.append(time.perf_counter() - t0)
    return min(times)


@pytest.mark.parametrize("call,want", [
    (lambda: series.series_s(1e6, 2.5).value, 2.5),
    (lambda: series.series_tail(1e4, 0.5, 2000), (0.0, 0.0)),
    (lambda: _hurwitz_zeta(1e6, 1.0, 5), [1.0] * 5),
    (lambda: _hurwitz_zeta(1e6, 1.5), [0.0]),
    (lambda: _hurwitz_zeta(3e3, 1.01), [1.01 ** -3e3]),
], ids=["series_s", "series_tail", "a=1", "underflow", "few-terms"])
def test_work_does_not_grow_with_the_order(call, want):
    """A huge order is answered at once: no loop runs over ~s terms.

    Summing ~1e6 terms, even in numpy, takes ~10 ms; these take ~0.1 ms.
    """
    assert call() == pytest.approx(want, rel=1e-15, abs=0.0)
    assert best_time(call) < 5e-3


def test_series_tail_keeps_its_contract():
    """``(tail, residual)``: zero for integer shapes, inf where the expansion does not apply."""
    assert series.series_tail(0.5, 3.0, 2000) == (0.0, 0.0)
    assert series.series_tail(0.5, 2.5, 5) == (0.0, math.inf)
    tail, residual = series.series_tail(0.5, 0.5, 2000)
    assert tail > 0.0 and 0.0 < residual < 1e-12 * tail
