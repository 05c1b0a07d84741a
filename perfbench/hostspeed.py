"""How fast the host runs right now, from a fixed calibration kernel.

The virtual machines this benchmark was built on share their physical cores:
a fixed CPU-bound loop there takes anywhere from 1.0 to 1.6 times its
quiet-host time, in spells of seconds to minutes that hit both vCPUs at
once (see README).  Raw wall times of two runs a minute apart therefore
differ by more than any useful regression bound.  Between operations the
benchmark times this kernel — pure-Python float arithmetic like the series
loops plus NumPy element-wise work like the vectorized densities — and
scales each measured time by ``REFERENCE_S / (recent median kernel time)``,
which reports it in quiet-host seconds.  The kernel does not touch the
package, so a change to the program moves the scaled times exactly as it
moves the raw ones.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import deque

import numpy as np

#: Kernel time on the 2-vCPU Xeon VM the bounds were tuned on, in a quiet spell.
REFERENCE_S = 0.6e-3
_GRID = np.linspace(0.01, 20.0, 10000)


def kernel() -> float:
    acc, b = 0.0, 1.0
    for m in range(1, 3000):
        b = b * (3.5 - m) / m
        acc += b / math.sqrt(m)
    return acc + float(np.sum(np.exp(np.log(-np.expm1(-_GRID)))))


#: Kernel times kept, and the least time between two of them: the estimate
#: follows spells of about half a second and longer.
WINDOW = 9
EVERY_S = 0.05


class HostSpeed:
    """Rolling median of the last `WINDOW` kernel times."""

    def __init__(self):
        self._recent: deque[float] = deque(maxlen=WINDOW)
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        """Time the kernel, unless it ran less than `EVERY_S` ago (and not ``force``)."""
        now = time.perf_counter()
        if force or now - self._last >= EVERY_S:
            kernel()
            self._last = time.perf_counter()
            self._recent.append(self._last - now)

    def scale(self) -> float:
        """Factor that turns a raw time measured just now into quiet-host time."""
        return REFERENCE_S / statistics.median(self._recent)
