"""Extended-precision references, independent of the package's code.

Clausen values come from the same reduced series the package uses,

    Cl2(t) = t - t log t + t * sum_{n>=1} c_n (t / 2pi)^(2n),   0 < t <= pi,

but in numpy longdouble (64-bit mantissa on x86-64) with 30 coefficients
c_n = zeta(2n) / (n (2n + 1)) taken from mpmath at 30 digits, and with
every grid angle 2 pi j / n reduced to [0, pi] in integer arithmetic.  W(n)
is summed in its folded form

    W(n) = sum_{0 < j < n/2} 3 (n - 2j) Cl2(2 pi j / n),

by the oddness Cl2(2 pi - t) = -Cl2(t), so the reference shares no formula
or rounding path with the package's unfolded double-precision sum.  mpmath
clsin costs about 0.76 ms per call, too slow for every point at d = 1e6;
spot_check() compares against it at small n before any reference is used.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

mpmath.mp.dps = 30

LD = np.longdouble
EPS = float(np.finfo(LD).eps)
PI = LD(mpmath.nstr(mpmath.pi, 30))
TWO_PI = 2 * PI
COEFFS = [LD(mpmath.nstr(mpmath.zeta(2 * n) / (n * (2 * n + 1)), 30))
          for n in range(1, 31)]

ZETA3 = float(mpmath.zeta(3))
INTEGRAL = float(6 * mpmath.pi * mpmath.zeta(3))          # 6 pi zeta(3)
LIMIT = float(9 * mpmath.zeta(3) / (2 * mpmath.pi ** 2))  # lim m(P_d)

# Rounding allowance per Clausen term, in units of EPS: about ten operations
# on intermediates below 8 (series, log, angle), with a factor ~2 to spare.
TERM_ULPS = 128


def cl2_grid(j, n: int) -> np.ndarray:
    """Cl2(2 pi j / n) for integer arrays j, in longdouble."""
    j = np.mod(np.asarray(j, dtype=np.int64), n)
    sign = np.where(2 * j > n, -1, 1)
    j = np.where(2 * j > n, n - j, j)
    t = TWO_PI * j.astype(LD) / LD(n)
    x = (t / TWO_PI) ** 2
    s = np.zeros_like(t)
    for c in reversed(COEFFS):
        s = s * x + c
    safe = np.where(j > 0, t, LD(1))
    val = t * (1 - np.log(safe) + x * s)
    return np.where((j > 0) & (2 * j < n), sign * val, LD(0))


def w_ref(n: int) -> tuple:
    """(W(n), bound on its error) by the folded sum in longdouble."""
    if n < 3:
        return 0.0, 0.0
    j = np.arange(1, (n + 1) // 2, dtype=np.int64)
    w = (3 * (n - 2 * j)).astype(LD)
    total = np.sum(w * cl2_grid(j, n))
    mass = float(np.sum(w))
    return total, EPS * (TERM_ULPS + math.log2(n)) * mass


def m_ref(d: int) -> tuple:
    """(m(P_d), bound on its error) from 2 pi m = c1 W(d+1) + c2 W(d+2)."""
    w1, b1 = w_ref(d + 1)
    w2, b2 = w_ref(d + 2)
    c1 = LD(-2) / LD(d + 2)
    c2 = LD(2) / LD(d + 1)
    value = (c1 * LD(w1) + c2 * LD(w2)) / TWO_PI
    bound = (float(abs(c1)) * b1 + float(c2) * b2) / float(TWO_PI)
    return float(value), bound + abs(float(value)) * EPS * 8


def riemann_ref(n: int) -> tuple:
    """(S_n = 4 pi^2 / n^2 W(n), bound on its error)."""
    w, b = w_ref(n)
    scale = 4 * PI ** 2 / LD(n) ** 2
    return float(scale * LD(w)), float(scale) * b


def spot_check() -> list:
    """Problems found comparing the longdouble route with mpmath clsin."""
    problems = []
    for j, n in ((1, 7), (3, 7), (1, 1000), (499, 1000), (333, 1001)):
        ref = mpmath.clsin(2, 2 * mpmath.pi * j / n)
        got = cl2_grid(np.array([j]), n)[0]
        if abs(float(mpmath.mpf(str(got)) - ref)) > EPS * TERM_ULPS:
            problems.append(f"Cl2(2 pi {j}/{n}) off by {float(mpmath.mpf(str(got)) - ref):.3e}")
    for n in (3, 4, 10, 57, 256):
        ref = mpmath.fsum((2 * n - 3 * j - 1) * mpmath.clsin(2, 2 * mpmath.pi * j / n)
                          for j in range(1, n))
        got, bound = w_ref(n)
        err = abs(float(mpmath.mpf(str(got)) - ref))
        if err > bound:
            problems.append(f"W({n}) off by {err:.3e} > bound {bound:.3e}")
    return problems
