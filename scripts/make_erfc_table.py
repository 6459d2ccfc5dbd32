"""Write src/paslab/_erfc_table.py, the coefficient table of paslab.erfc.half_erfc.

    python scripts/make_erfc_table.py [--check]

Stdlib only, and deterministic: the reference values come from math.erfc,
math.exp and a series, the Chebyshev sums are math.fsum of rounded
products, and the conversion to monomials is exact rational arithmetic
with one rounding per coefficient. With --check it writes nothing and exits
1 if the committed table differs from what it would write.

The fit. [0, X_CUT] is cut into intervals of width 1/PER, interval k
starting at L = k / PER. With d = x - L, erfc(x) = erfcx(x) e^(-x^2) and
x^2 = L^2 + 2 L d + d^2, so

    erfc(x) / 2 = g_k(x) * exp(-2 L d),   g_k(x) = erfcx(x) e^(-L^2 - d^2) / 2.

At run time 2 L d is an exact product (L has at most 9 significant bits, d
at most 44), so the exponential costs one rounding however large x is,
which an unsplit exp(-x * x) cannot do: its argument's own rounding error
grows as x^2. g_k varies slowly (erfcx falls like 1/x), and a degree-DEG
polynomial in f = PER d, f in [0, 1), represents it to a few ulp; the
factor exp(-2 L d) <= 1 keeps coefficient roundoff from being amplified.
Each polynomial is the Chebyshev series of g_k sampled at NODES Chebyshev
points and truncated at degree DEG (a discrete least-squares fit, which
averages the reference values' own roundoff), then converted to monomials
in f exactly.

Reference values of g_k(x) = erfc(x) e^(2 L d) / 2: math.erfc(x) times
math.exp of the exact product 2 L d below X_ASYM; above it, where erfc
nears the subnormal range, erfcx(x) from its asymptotic series
(1 / (x sqrt(pi))) sum_n (-1)^n (2n - 1)!! / (2 x^2)^n, which at x >= 10
has converged far below double precision before its terms turn to grow.

X_CUT is the largest double whose square does not exceed log(DBL_MAX):
above it half_erfc returns 0, the point where the Cephes erfc (the one
behind scipy.special.ndtr) underflows to 0, so that the quantized channel
keeps the zero pattern it had when built on ndtr.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

TARGET = Path(__file__).resolve().parent.parent / "src" / "paslab" / "_erfc_table.py"
PER = 16  # intervals per unit of x
DEG = 8  # polynomial degree per interval
NODES = 40  # Chebyshev sample points per interval
X_ASYM = 10.0  # reference from the asymptotic series of erfcx at and above this x


def cut_point() -> float:
    """Largest double x with x * x <= log(DBL_MAX)."""
    maxlog = math.log(sys.float_info.max)
    x = math.sqrt(maxlog)
    while x * x > maxlog:
        x = math.nextafter(x, 0.0)
    while math.nextafter(x, math.inf) ** 2 <= maxlog:
        x = math.nextafter(x, math.inf)
    return x


def reference(x: float, left: float) -> float:
    """g_k(x) = erfc(x) exp(2 L d) / 2 with L = left and d = x - left."""
    d = x - left  # exact: x lies in [left, 2 left] or left is 0
    if x < X_ASYM:
        return 0.5 * math.erfc(x) * math.exp(2.0 * left * d)  # 2 L d exact
    inv = 1.0 / (2.0 * x * x)
    terms, term, n = [1.0], 1.0, 1
    while abs(term) > 1e-40:
        term *= -(2 * n - 1) * inv
        terms.append(term)
        n += 1
    erfcx = math.fsum(terms) / (x * math.sqrt(math.pi))
    return 0.5 * erfcx * math.exp(-left * left) * math.exp(-d * d)  # left^2 exact


def chebyshev_monomials(deg: int) -> list:
    """Integer monomial coefficients of T_0 .. T_deg."""
    rows = [[1], [0, 1]]
    for i in range(2, deg + 1):
        nxt = [0] + [2 * c for c in rows[i - 1]]
        for j, c in enumerate(rows[i - 2]):
            nxt[j] -= c
        rows.append(nxt)
    return rows[: deg + 1]


def cos_pi(m: int, n: int) -> float:
    """cos(pi m / (2 n)), reduced to [0, pi/4] first: math.cos of a rounded
    large angle such as 9 theta is off by several ulp, and the Chebyshev
    coefficients would inherit it."""
    m %= 4 * n
    if m > 2 * n:
        m = 4 * n - m
    sign = 1.0
    if m > n:
        m, sign = 2 * n - m, -1.0
    if 2 * m > n:
        return sign * math.sin(math.pi * (n - m) / (2 * n))
    return sign * math.cos(math.pi * m / (2 * n))


def interval_coeffs(k: int, cheb: list) -> list:
    """Monomial coefficients in f of the fit on interval k, lowest first."""
    left = k / PER
    mid = (k + 0.5) / PER
    # node j is s = cos(theta_j), theta_j = pi (2j + 1) / (2 NODES), at
    # x = mid + s / (2 PER); T_i(s_j) = cos(i theta_j)
    vals = [reference(mid + cos_pi(2 * j + 1, NODES) / (2 * PER), left) for j in range(NODES)]
    c = [2.0 / NODES * math.fsum(v * cos_pi(i * (2 * j + 1), NODES) for j, v in enumerate(vals))
         for i in range(DEG + 1)]
    c[0] /= 2.0
    mono = [Fraction(0)] * (DEG + 1)  # in s
    for ci, row in zip(c, cheb):
        for j, tij in enumerate(row):
            mono[j] += Fraction(ci) * tij
    # in f = PER d = (s + 1) / 2: substitute s = 2 f - 1
    out = [Fraction(0)] * (DEG + 1)
    for j, a in enumerate(mono):
        for i in range(j + 1):
            out[i] += a * math.comb(j, i) * 2**i * (-1) ** (j - i)
    return [float(a) for a in out]


def render() -> str:
    x_cut = cut_point()
    count = math.ceil(x_cut * PER)
    cheb = chebyshev_monomials(DEG)
    lines = [
        '"""Coefficients of paslab.erfc.half_erfc; written by scripts/make_erfc_table.py, do not edit.',
        "",
        "COEFFS holds one line per interval, its DEG + 1 monomial coefficients",
        "lowest first, as text: a string literal compiles far faster than a tuple",
        "of floats, and modules are often compiled afresh at every start.",
        '"""',
        "",
        f"PER = {PER}",
        f"DEG = {DEG}",
        f"X_CUT = {x_cut!r}",
        'COEFFS = """',
    ]
    for k in range(count):
        lines.append(" ".join(repr(a) for a in interval_coeffs(k, cheb)))
    lines.append('"""')
    return "\n".join(lines) + "\n"


def main(argv: list) -> int:
    text = render()
    if argv[1:] == ["--check"]:
        same = TARGET.exists() and TARGET.read_text(encoding="utf-8") == text
        print(f"{TARGET.name}: {'up to date' if same else 'differs'}")
        return 0 if same else 1
    TARGET.write_text(text, encoding="utf-8")
    print(f"wrote {TARGET}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
