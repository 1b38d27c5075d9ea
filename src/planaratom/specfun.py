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

Arguments above ``X_MAX`` underflow: ``exp(-x)`` is below the smallest
normal double long before the tail matters physically, so K0 returns an
exact 0 tagged with ``underflow=True`` instead of raising.

All functions are pure and stateless; they are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

# Euler-Mascheroni constant, full double precision.
EULER_GAMMA = 0.5772156649015329

# Beyond this argument exp(-x) underflows for any practical purpose and
# K0 is returned as exact zero with the underflow flag set.
X_MAX = 700.0

# Series/scipy switch point.
_K0_SWITCH = 2.0

# Number of ascending-series terms; at the switch point the next term is
# below 1e-19 relative.
_K0_SERIES_TERMS = 20


@dataclass(frozen=True)
class BesselEval:
    """One K0 evaluation together with the regime that produced it.

    ``regime`` is ``"series"`` for the ascending series (x <= 2) and
    ``"asymptotic"`` for ``scipy.special.k0`` (x > 2). ``underflow`` marks
    arguments beyond ``X_MAX`` where the value is an exact 0.
    """

    x: float
    value: float
    regime: str
    underflow: bool = False


def _check_positive(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} requires a positive finite argument, got {x!r}")
    return x


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
    if x.size and (not np.all(np.isfinite(x)) or np.any(x <= 0.0)):
        raise ValueError("bessel_k0 requires positive finite arguments")
    out = np.zeros_like(x)
    small = x <= _K0_SWITCH
    large = ~small & (x <= X_MAX)
    if np.any(small):
        out[small] = _k0_series_array(x[small])
    if np.any(large):
        out[large] = special.k0(x[large])
    return out


def bessel_k0_eval(x: float) -> BesselEval:
    """Evaluate K0(x) and report the regime used."""
    x = _check_positive(x, "bessel_k0")
    if x > X_MAX:
        return BesselEval(x=x, value=0.0, regime="asymptotic", underflow=True)
    if x <= _K0_SWITCH:
        value = float(_k0_series_array(np.array([x]))[0])
        return BesselEval(x=x, value=value, regime="series")
    return BesselEval(x=x, value=float(special.k0(x)), regime="asymptotic")

