"""Machine speed, sampled between operations, to put times on one scale.

On a shared 2-core x86-64 virtual machine (Intel Xeon), the same code runs
up to twice as slow for tens of seconds at a time, on both cores at once,
and the process cannot see it: its CPU time grows with its wall time. Raw
medians of 35-second runs spread by 12-25% (quartile distance over median)
from run to run. So each pass (and each set-up probe) is followed, after
every operation, by a fixed kernel about once per eighth of a second of
the operation's time, and the pass's time is scaled by REFERENCE_S / (its
mean kernel time): it reads as seconds on a machine where the kernel takes
REFERENCE_S. On that machine this took the spread of exact-many-short from
12% to under 2%. The kernel uses numpy and plain Python as the engines do,
but no levy_passage code, so a change to the program does not move it. The
raw seconds are printed next to the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# mean kernel time on that machine (Python 3.11, numpy 2.4); a fixed constant,
# so scaled times compare across runs and commits
REFERENCE_S = 0.016
_SAMPLE_EVERY_S = 0.125


def kernel() -> float:
    """Seconds for one fixed unit of small-array numpy and Python work."""
    t0 = time.perf_counter()
    acc = 0.0
    for r in range(40):
        g = np.random.Generator(np.random.Philox(key=[r, 7]))
        for _ in range(16):
            c = np.cumsum(g.exponential(1.0, 64))
            hit = np.flatnonzero(c > 20.0)
            y = float(hit[0]) if hit.size else -1.0
            for i in range(40):
                y += math.sqrt(i + c[0])
            acc += y
    return time.perf_counter() - t0


class Meter:
    """Kernel times taken during one phase of a run."""

    def __init__(self):
        self.samples: list = []

    def after(self, busy_seconds: float) -> None:
        """Sample once, plus once per eighth of a second of work just done."""
        for _ in range(1 + int(busy_seconds / _SAMPLE_EVERY_S)):
            self.samples.append(kernel())

    def factor(self) -> float:
        """Multiplier from this phase's seconds to reference seconds."""
        return REFERENCE_S / statistics.fmean(self.samples)
