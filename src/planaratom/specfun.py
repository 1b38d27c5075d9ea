"""Modified Bessel function K0 to near machine precision.

K0 supplies the attractive part of the planar massive-photon potential. It
is evaluated in two regimes:

* ``x <= 2``: the ascending series
  ``-(ln(x/2) + gamma) I0(x) + sum_k H_k (x^2/4)^k/(k!)^2``, with the I0
  series summed in the same loop; the cancellation against the log term
  loses at most one digit at the seam. It is kept because it tracks the
  ``-ln(x/2) - gamma`` limit to 1e-14 as ``x -> 0``, closer than
  ``scipy.special.k0`` does. It is summed with in-place operations and
  stops at the last term that can still change a double (see
  :func:`_k0_series_array`).
* ``x > 2``: ``scipy.special.k0``.

:func:`bessel_k0_array` works through its input in blocks of
``_K0_BLOCK`` points, each with its own regime masks, series and scipy
calls, written into the output. Its temporaries then stay the size of a
block, not of the grid. The blocking does not change a bit: scipy's K0 is
evaluated point by point, and the series' early stop at a block's own
largest argument leaves each sum equal to the full one.

Arguments above ``X_MAX`` underflow: ``exp(-x)`` is below the smallest
normal double long before the tail matters physically, so K0 returns an
exact 0 there instead of raising.

All functions are pure and stateless; they are safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

# Euler-Mascheroni constant, full double precision.
EULER_GAMMA = 0.5772156649015329

# Beyond this argument exp(-x) underflows for any practical purpose and
# K0 is returned as exact zero.
X_MAX = 700.0

# Series/scipy switch point.
_K0_SWITCH = 2.0

# Number of ascending-series terms; at the switch point the next term is
# below 1e-19 relative.
_K0_SERIES_TERMS = 20

# Points per block of bessel_k0_array: a block's masked argument and the series'
# five sums (768 KB) stay in a core's L2 cache.
_K0_BLOCK = 16384


def _k0_series_array(x: np.ndarray) -> np.ndarray:
    """Ascending series for K0, vectorized, valid for 0 < x <= 2.

    Stops after term ``k`` once the next term at the largest ``q = x^2/4``,
    times ``H_{k+1}``, is below ``2^-56 q_max``, that is once ``term_k(q_max)
    H_{k+1} / (k+1)^2`` is below ``2^-56``. That bound covers every later
    term at every point: ``term_j(q)/q`` grows with ``q`` and, for
    ``q <= 1``, ``term_j H_j`` falls with ``j``. Each sum it would be added
    to is at least ``q``: ``i0 >= 1`` and ``acc >= q``, the first term. So
    every later addition is below a quarter ulp of its sum and rounds away,
    and the result is bitwise equal to the full ``_K0_SERIES_TERMS``-term
    sum.
    """
    q = 0.25 * x
    q *= x
    q_max = float(q.max())
    i0 = np.ones_like(q)
    acc = np.zeros_like(q)
    term = np.ones_like(q)
    scratch = np.empty_like(q)
    term_max = 1.0  # the term at q_max
    harmonic = 0.0
    for k in range(1, _K0_SERIES_TERMS + 1):
        term *= q
        term /= k * k
        harmonic += 1.0 / k
        i0 += term
        acc += np.multiply(term, harmonic, out=scratch)
        term_max *= q_max / (k * k)
        if term_max * (harmonic + 1.0 / (k + 1)) < 2.0**-56 * (k + 1) ** 2:
            break
    res = np.multiply(x, 0.5, out=scratch)
    np.log(res, out=res)
    res += EULER_GAMMA
    res *= i0
    return np.subtract(acc, res, out=res)


def bessel_k0_array(x: np.ndarray) -> np.ndarray:
    """Vectorized K0 over an array of positive arguments.

    Entries beyond ``X_MAX`` yield exact 0 (underflow regime); any
    non-positive or non-finite entry raises.
    """
    x = np.asarray(x, dtype=float)
    # min and max propagate NaN, so one comparison each catches every bad entry
    if x.size and not (x.min() > 0.0 and x.max() < math.inf):
        raise ValueError("bessel_k0 requires positive finite arguments")
    out = np.empty(x.shape)
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    for start in range(0, flat.shape[0], _K0_BLOCK):
        xb = flat[start : start + _K0_BLOCK]
        ob = flat_out[start : start + _K0_BLOCK]
        ob.fill(0.0)
        small = xb <= _K0_SWITCH
        large = ~small & (xb <= X_MAX)
        if np.any(small):
            ob[small] = _k0_series_array(xb[small])
        if np.any(large):
            ob[large] = special.k0(xb[large])
    return out
