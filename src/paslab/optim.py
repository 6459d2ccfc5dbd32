"""Tiny 1-D search routines with explicit stopping rules.

Hand-rolled rather than scipy.optimize: bisect_until stops on function value
(|f| <= ftol), golden_max returns the best point it probed, and importing
scipy.optimize would add about 0.3 s to the start of every command.
"""

from __future__ import annotations

import math

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_max(f, a: float, b: float, xtol: float, max_iter: int = 200, key=None):
    """Golden-section maximization of a unimodal f on [a, b].

    Returns (x_best, f(x_best)) over all probed points, ranked by key(f(x))
    (f(x) itself by default), so a non-unimodal f still yields the best
    sample seen, and a caller whose f returns more than the objective gets
    back what f computed there without calling it again.
    """
    key = key or (lambda y: y)

    def better(best, y, x):  # best is (key, x, y); ties in key go to the larger x
        return (key(y), x, y) if (key(y), x) > best[:2] else best

    h = b - a
    c, d = a + INVPHI2 * h, a + INVPHI * h
    yc, yd = f(c), f(d)
    best = better((key(yc), c, yc), yd, d)
    it = 0
    while h > xtol and it < max_iter:
        if key(yc) >= key(yd):
            b, d, yd = d, c, yc
            h = b - a
            c = a + INVPHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + INVPHI * h
            yd = f(d)
        best = better(better(best, yc, c), yd, d)
        it += 1
    return best[1], best[2]


def bisect_until(f, lo: float, hi: float, ftol: float, xtol: float = 0.0, max_iter: int = 200):
    """Find a root of monotone-crossing f on [lo, hi] by bisection.

    Stops when |f(mid)| <= ftol or the bracket is narrower than xtol.
    Raises ValueError when f(lo) and f(hi) do not straddle zero.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f={flo:.6g}, {fhi:.6g}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(fmid) <= ftol or (hi - lo) <= xtol:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)
