"""Machine-speed probe: expresses measured times at one fixed machine speed.

A shared 2-vCPU Xeon VM was seen to change speed by tens of percent, at
times twofold, from minute to minute.  Process CPU time tracks wall time, so
this is the machine running slower, not the process waiting.  Medians of
30-second runs then spread by 0.22-0.33 of their median, beyond any useful
regression bound.  A fixed probe timed right before and right after each
command measures the current speed, and the command's time is scaled by
REF_S / probe time.  In a four-minute test that interleaved the probe with
three CLI commands, this cut the spread of 30-second medians to 0.03-0.07.

The probe mixes the three kinds of work the workloads do (FFTs, scalar
Python, small-array numpy) and touches no qreflect code, so no change to the
program can change it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from numpy.fft import fft, ifft  # bound at import, before a traced run patches numpy.fft

# probe time, in seconds, that defines the reference speed
REF_S = 0.070


def probe() -> float:
    """Seconds taken by a fixed mix of work (about 70 ms at reference speed)."""
    t0 = time.perf_counter()
    x = np.arange(4096, dtype=complex)
    for _ in range(200):
        x = ifft(fft(x))
    s = 0.0
    for i in range(240_000):
        s += math.sqrt(i)
    y = np.linspace(0.0, 1.0, 2400)
    for _ in range(600):
        s += float(np.sum(np.exp(-y) * np.cos(3.0 * y)))
    return time.perf_counter() - t0
