"""How fast the host runs right now, from a fixed calibration kernel.

The benchmark shares its host, whose speed changes by 2x or more within
minutes (see README, "Host speed"). The wall and CPU times of a serial
campaign, which runs in one process on one core, move with it. So each
campaign process runs the kernel just after set-up and just after the
campaign, and ``run.py`` scales those times by the ratio of
:data:`REFERENCE_S` to the kernel's time measured next to them (see
``run.campaign_scales``). The kernel uses neither ``repro`` nor anything
the program changes: plain Python float and tuple work plus small numpy
operations, the instruction mix of the interval kernels. A change to the
program moves the campaign and not the kernel, so it shows in the scaled
times; a change in host speed moves both, and cancels.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Median time of one kernel repeat on the 2-core Xeon container the
#: benchmark was built on. Scaled times are in seconds on a host where
#: the kernel takes this long.
REFERENCE_S = 0.011

#: Kernel repeats per sample (about 0.35 s on that host).
REPEATS = 30


def _kernel() -> float:
    total = 0.0
    pairs = []
    for i in range(25000):
        lo = i * 0.5
        hi = lo + 1.0
        total += math.sin(lo) * hi - math.cos(hi) * lo
        pairs.append((lo, hi))
    lookup = dict(pairs[::7])
    a = np.linspace(-1.0, 1.0, 64)
    w = np.linspace(-0.1, 0.1, 2500).reshape(50, 50)
    x = np.ones(50)
    for _ in range(2000):
        a = np.maximum(np.minimum(a * 1.0001, 2.0), -2.0)
        x = np.tanh(w @ x)
    return total + float(a.sum() + x.sum()) + len(lookup)


def sample() -> list[float]:
    """Times of :data:`REPEATS` kernel runs, after one untimed warm-up."""
    _kernel()
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - started)
    return times
