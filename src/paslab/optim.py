"""Tiny 1-D search routines with explicit stopping rules.

Hand-rolled rather than scipy.optimize: bisect_until stops on function value
(|f| <= ftol); brent_max (Brent's fmin: golden section plus parabolic steps)
is the one maximiser, and it returns the best point it probed, ranked by a
key, so a caller whose f returns more than the objective gets that back
without a second call; and importing scipy.optimize would add about 0.3 s to
the start of every command.
"""

from __future__ import annotations

import math

INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
SQRT_EPS = math.sqrt(2.0**-52)  # relative x tolerance of Brent's fmin


def brent_max(f, a: float, b: float, xtol: float, key=None):
    """Bounded Brent maximization of f on [a, b] (Brent 1973, fmin).

    Golden-section steps, replaced by the vertex of the parabola through the
    three best points whenever that vertex lies inside the bracket and the
    step is less than half the step before last. Stops, as fmin does, once
    the best point x lies within 2 tol of both bracket ends, with
    tol = sqrt(eps) |x| + xtol / 3. The key must be real-valued: the
    parabola is fitted to key(f(x)). Returns (x_best, f(x_best)) over all
    probed points, ranked by key(f(x)) (f(x) itself by default) with ties
    going to the larger x, so a caller whose f returns more than the
    objective gets back what f computed there without calling it again.
    """
    key = key or (lambda y: y)
    best = None

    def probe(u):
        # fmin minimizes g = -key(f); of f's results only the best is kept
        # alive, so a caller's large results do not pile up across steps
        nonlocal best
        y = f(u)
        k = key(y)
        if best is None or (k, u) > best[:2]:
            best = (k, u, y)
        return -k

    x = w = v = a + INVPHI2 * (b - a)
    gx = gw = gv = probe(x)
    d = e = 0.0
    for _ in range(200):  # a guard only: fmin's rule stops far sooner
        mid = 0.5 * (a + b)
        tol = SQRT_EPS * abs(x) + xtol / 3.0
        tol2 = 2.0 * tol
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol:
            r = (x - w) * (gx - gv)
            q = (x - v) * (gx - gw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            # the vertex must lie inside (a, b) and the step must shrink
            parabolic = abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x)
        if parabolic:
            d = p / q
            if (x + d) - a < tol2 or b - (x + d) < tol2:
                d = tol if x < mid else -tol
        else:
            e = (b if x < mid else a) - x
            d = INVPHI2 * e
        u = x + (d if abs(d) >= tol else tol if d > 0 else -tol)
        gu = probe(u)
        if gu <= gx:
            if u < x:
                b = x
            else:
                a = x
            v, gv, w, gw, x, gx = w, gw, x, gx, u, gu
        else:
            if u < x:
                a = u
            else:
                b = u
            if gu <= gw or w == x:
                v, gv, w, gw = w, gw, u, gu
            elif gu <= gv or v == x or v == w:
                v, gv = u, gu
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
