"""A fixed reference computation that gauges the host's speed between steps.

The benchmark runs on a few vCPUs of a shared host whose speed swings by a
factor of three, over seconds and over minutes: the same solve took
0.35 s at one time and 0.8 to 1.0 s an hour later. Wall times taken on such a
host measure the neighbours as much as the program. So the timed phase runs
this kernel, alone, before the first step and after every step, and scales
each step's wall time by ``REFERENCE_S`` over the mean of the two kernel
times around it. The figures then read as if the host always ran the kernel
in ``REFERENCE_S``: a slower host slows the step and the kernel alike and
leaves the figure where it was, while a faster or slower program moves it.

The kernel imports nothing from ``planaratom``, so no change to the program
can change it. It does the kind of work the solver does: a blocked
prefix product of 2x2 transfer matrices built by index doubling (many small
numpy calls from Python, like a Numerov sweep), one pass of ``K0`` and a
little vector arithmetic over a 200,001-point array, in about the shares of
a solve.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import k0

# Mean kernel time on an unloaded host: a 2-vCPU Intel Xeon virtual
# machine, Python 3.11, numpy 2.4, scipy 1.17.
REFERENCE_S = 0.0090
REPS = 10

_BLOCK = 256
_A = 2.0 - 1e-3 * np.random.default_rng(20090303).random(128 * _BLOCK)
_RHO = np.linspace(1e-4, 20.0, 200_001)
_K0_RHO = _RHO[::10].copy()


def _kernel() -> float:
    done = 0
    acc = 0.0
    while done < _A.shape[0]:
        p00 = _A[done : done + _BLOCK].copy()
        p01 = -np.ones(_BLOCK)
        p10 = np.ones(_BLOCK)
        p11 = np.zeros(_BLOCK)
        shift = 1
        while shift < _BLOCK:
            q00, q01, q10, q11 = p00[shift:], p01[shift:], p10[shift:], p11[shift:]
            r00, r01, r10, r11 = p00[:-shift], p01[:-shift], p10[:-shift], p11[:-shift]
            n00 = q00 * r00 + q01 * r10
            n01 = q00 * r01 + q01 * r11
            n10 = q10 * r00 + q11 * r10
            n11 = q10 * r01 + q11 * r11
            p00[shift:], p01[shift:], p10[shift:], p11[shift:] = n00, n01, n10, n11
            shift *= 2
        acc += float(p00[-1] + p11[-1])
        done += _BLOCK
    acc += float(np.sum(k0(0.5 * _K0_RHO)))
    g = 1.0 + (0.1 - 1.0 / _RHO) * (_RHO * _RHO) / 12.0
    return acc + float(np.sum((12.0 - 10.0 * g[1:-1]) / g[2:]))


def measure() -> float:
    """Mean wall time of ``REPS`` runs of the kernel, in seconds.

    The mean, not the median: when the host takes the vCPU away for part
    of the time, a step loses its share of that time, and so must the
    reading.
    """
    t0 = time.perf_counter()
    for _ in range(REPS):
        _kernel()
    return (time.perf_counter() - t0) / REPS
