"""A fixed piece of work that measures the host's current speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes, in CPU time as well as in wall
time.  ``host_probe`` times the same work every call: dense-tableau
pivot steps in numpy with the Python overhead around them, the mix the
solver spends its time in.  It uses only numpy and this file, so no
change to the program can change what it measures.

A timed pass is bracketed by two probes.  The pass's seconds divided by
the mean of its two probes cancels the host's speed at that moment;
multiplied by ``PROBE_REFERENCE_S`` it reads as seconds on a host where
the probe takes that long.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_STEPS = 3000
# Median time of one probe on a 2-vCPU Intel Xeon virtual machine
# (Python 3.11, numpy 2.4, BLAS on one thread).
PROBE_REFERENCE_S = 0.14

_TABLEAU = np.random.default_rng(0).random((120, 100)) + 0.1


def host_probe() -> float:
    """Seconds taken by ``PROBE_STEPS`` ratio-test and pivot steps on a
    fixed 120 x 100 tableau.  The tableau is never written, so every
    call does the same arithmetic."""
    t = _TABLEAU
    acc = 0.0
    t0 = time.perf_counter()
    for k in range(PROBE_STEPS):
        c = int(np.argmin(t[0, 1:])) + 1
        column = t[1:, c]
        ratios = np.where(column > 1e-9,
                          t[1:, 0] / np.maximum(column, 1e-9), np.inf)
        r = int(np.argmin(ratios)) + 1
        pivoted = t - np.outer(t[:, c], t[r] / t[r, c])
        acc += pivoted[k % 120, k % 100]
    seconds = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise ArithmeticError("host probe produced a non-finite value")
    return seconds
