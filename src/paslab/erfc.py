"""The Gaussian tail erfc(x) / 2 in numpy alone.

A piecewise fit in the style of Cody's rational Chebyshev approximations
(Math. Comp. 23, 1969): erfc(x) = erfcx(x) exp(-x^2), with the slowly
varying erfcx fitted per interval and x^2 split exactly around the
interval's left end, so that the exponential stays accurate for large x.
scripts/make_erfc_table.py writes the coefficients and says how they are
fitted. Within 1e-14 relative of math.erfc wherever the value is a normal
double.
"""

from __future__ import annotations

import numpy as np

from ._erfc_table import COEFFS, DEG, PER, X_CUT

# (DEG + 1, intervals): one row per power of f
_COEFFS = np.array(COEFFS.split(), dtype=float).reshape(-1, DEG + 1).T.copy()
_LAST = _COEFFS.shape[1] - 1
_SCALE = -2.0 / PER**2  # exp(-2 L d) = exp(k f * _SCALE) with L = k / PER, d = f / PER


def half_erfc(x) -> np.ndarray:
    """erfc(x) / 2 elementwise over an array of x >= 0: the standard normal
    upper tail at x * sqrt(2).

    Returns 0 above X_CUT (where x * x exceeds log(DBL_MAX)); NaN stays NaN.
    """
    x = np.asarray(x, dtype=float)
    f = np.minimum(x, X_CUT)
    f *= PER
    k = np.floor(f)  # the interval
    f -= k  # exact: the position in it, in [0, 1)
    idx = np.fmin(k, _LAST, out=k).astype(np.intp)  # fmin sends NaN to a valid row
    r = _COEFFS[-1].take(idx)
    c = np.empty_like(r)  # one buffer for every gather: fewer large allocations
    for row in _COEFFS[-2::-1]:
        r *= f
        r += row.take(idx, out=c, mode="clip")
    k *= f  # exact: at most 9 by 44 significant bits
    k *= _SCALE
    r *= np.exp(k, out=k)
    r[x > X_CUT] = 0.0
    return r
