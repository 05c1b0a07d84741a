"""Shared distribution objects are safe to use from many threads.

The CDF table, the radial inverse, the expectation rules and the ``xi``
cache are built on first use.  Here eight threads make that first use of
one shared object at once, each with its own generator, and every result
must have the bits of the same call made by one thread on a fresh object.
The mv density of a batch runs among them: its forward substitution keeps
every buffer local to the call.  The series' cache of fixed-point powers is
filled from eight threads too.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from multigauss import MultiGauss, MvMultiGauss, series_s
from multigauss.series import _fixed_power

THREADS = 8
XS = np.linspace(-4.0, 4.0, 41)
US = [1e-6, 0.01, 0.3, 0.5, 0.9, 0.999999]
PTS = np.random.default_rng(3).normal(size=(4, 50, 3)) * 2.0


def fresh():
    cov = np.array([[1.0, 0.3, 0.0], [0.3, 2.0, -0.4], [0.0, -0.4, 0.7]])
    return MultiGauss(0.0, 1.0, 2.5), MvMultiGauss(np.zeros(3), cov, 0.5)


def calls(d, mv, seed, sync=lambda: None):
    """Each call in turn, after ``sync()``: every thread starts each one at once."""
    rng = np.random.default_rng(seed)
    steps = [lambda: d.xi(2), lambda: d.mgf([-1.0, 0.5, 2.0]), lambda: d.cf([0.5, 3.0]),
             lambda: d.cdf(XS), lambda: d.quantile(US), lambda: d.sample(200, rng),
             lambda: mv.ellipsoid_mass([0.1, 1.0, 4.0, 25.0]), lambda: mv.sample(200, rng),
             lambda: mv.pdf(PTS)]
    out = []
    for step in steps:
        sync()
        out.append(step())
    return out


@pytest.fixture
def short_switch_interval():
    """Let the interpreter switch threads as often as it can."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


@pytest.mark.parametrize("round_", range(3))
def test_first_use_from_eight_threads_has_the_single_thread_bits(short_switch_interval, round_):
    want = [calls(*fresh(), seed=[round_, k]) for k in range(THREADS)]
    d, mv = fresh()
    barrier = threading.Barrier(THREADS, timeout=60.0)

    def work(k):
        try:
            return calls(d, mv, seed=[round_, k], sync=barrier.wait)
        except BaseException:
            barrier.abort()  # the other threads raise BrokenBarrierError, not wait
            raise

    with ThreadPoolExecutor(THREADS) as pool:
        got = list(pool.map(work, range(THREADS)))
    for k in range(THREADS):
        for g, w in zip(got[k], want[k]):
            np.testing.assert_array_equal(g, w)


SERIES_CASES = [(a, m) for m in (2, 10, 40, 54, 57, 0.5, 2.5, 12.378584, 40.5)
                for a in (0.5, 1.0, 1.5, 4.5)]


def test_series_from_eight_threads_has_the_single_thread_bits(short_switch_interval):
    assert _fixed_power.cache_info().maxsize is not None  # bounded, whatever the shapes
    want = [series_s(a, m) for a, m in SERIES_CASES]
    _fixed_power.cache_clear()
    barrier = threading.Barrier(THREADS, timeout=60.0)

    def work(k):
        try:
            barrier.wait()
            # each thread takes the cases in its own order
            order = SERIES_CASES[k:] + SERIES_CASES[:k]
            return dict(zip(order, [series_s(a, m) for a, m in order]))
        except BaseException:
            barrier.abort()
            raise

    with ThreadPoolExecutor(THREADS) as pool:
        got = list(pool.map(work, range(THREADS)))
    assert _fixed_power.cache_info().currsize > 0
    for results in got:
        for case, w in zip(SERIES_CASES, want):
            g = results[case]
            assert (g.value, g.terms_used, g.truncation_flag) == (w.value, w.terms_used,
                                                                   w.truncation_flag), case
            assert g.condition_number == w.condition_number, case
