"""Riemann sums of vol over the triangle and the convergence analysis.

The n-grid Riemann sum places a square of side 2*pi/n around every interior
lattice point (2k pi/n, 2j pi/n), k, j >= 1, k + j <= n - 1, of the triangle
T and sums vol at the centers:

    S_n = (4 pi^2 / n^2) * sum_{0<k<k'<n} vol(2k pi/n, 2(k'-k) pi/n).

Concavity of vol sandwiches the exact integral I = 6 pi zeta(3) between S_n
(tangent planes overestimate each square integral, and the piecewise-linear
interpolant on the matching triangular partition underestimates I while
summing to exactly S_n) and S_n plus the integral of vol over the uncovered
"blue" remainder of T.  The blue region has area 2 pi^2 (3n - 2) / n^2, so
the error E(n) = I - S_n is o(1/n), which is what drives the family's Mahler
measure to its limit 9 zeta(3) / (2 pi^2).

The reconstruction identity in limit_report re-expresses 2 pi m(P_d) through
I and the two errors E(d+1), E(d+2):

    2 pi m(P_d) = A (I - E(d+2)) - B (I - E(d+1)),
    A = (d+2)^2 / (2 pi^2 (d+1)),   B = (d+1)^2 / (2 pi^2 (d+2)),

exactly the decomposition used to pass to the limit: A - B tends to
3/(2 pi^2), while A E(d+2) and B E(d+1) vanish because n E(n) -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mahler_closed import _aggregated_estimate, grid_weight_sum
from .polynomials import PdSpec
from .specfun import TWO_PI, ZETA3, cl2_array
from .toric import _require_quadratic_d
from .volume import in_triangle, vol_array

_SQUARE_NODES = 16  # Gauss-Legendre nodes per side of each square

# The exact integral of vol over T, and the limit of the family's Mahler
# measure.
INTEGRAL = 6.0 * math.pi * ZETA3
LIMIT = 9.0 * ZETA3 / (2.0 * math.pi ** 2)


def riemann_sum(n: int) -> float:
    """S_n = (4 pi^2/n^2) sum_{0<k<k'<n} vol(2k pi/n, 2(k'-k) pi/n)."""
    return _riemann_sum(n, grid_weight_sum(n))


def _riemann_sum(n: int, w: float) -> float:
    # S_n from w = W(n), the pair sum of vol over the n-grid
    return (4.0 * math.pi ** 2 / n ** 2) * w


def error_E(n: int) -> float:
    """E(n) = |I - S_n|; the sandwich forces I >= S_n, which is asserted."""
    return _error_E(n, riemann_sum(n))


def _error_E(n: int, s_n: float) -> float:
    gap = INTEGRAL - s_n
    if gap < -1e-9:
        raise ArithmeticError(
            f"Riemann sum exceeds the integral by {-gap:.3e} at n = {n}; "
            "the concavity sandwich is violated")
    return abs(gap)


def in_blue(theta: np.ndarray, alpha: np.ndarray, n: int) -> np.ndarray:
    """Indicator of the uncovered remainder of T (vectorized).

    A point is covered when its nearest lattice point (k, j) is an interior
    center, since the squares have exactly one lattice cell of extent.
    """
    theta = np.asarray(theta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    inside_t = in_triangle(theta, alpha, tol=0.0)
    k = np.rint(theta * n / TWO_PI)
    j = np.rint(alpha * n / TWO_PI)
    covered = (k >= 1) & (j >= 1) & (k + j <= n - 1)
    return inside_t & ~covered


def _require_order(n: int) -> None:
    # the rule of PdSpec, before any work
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")


def blue_area_formula(n: int) -> float:
    """Area of the blue remainder: 2 pi^2 (3n - 2) / n^2."""
    _require_order(n)
    return 2.0 * math.pi ** 2 * (3.0 * n - 2.0) / n ** 2


def blue_integral(n: int) -> float:
    """eps(n) = integral of vol over the blue remainder (I minus squares).

    Tensor Gauss-Legendre over the squares centered on the pair grid, its
    Clausen terms regrouped as in W(n): center k of theta (or of alpha) lies
    in n - 1 - k squares and diagonal q = k + j in q - 1, so O(n) angles.
    n > MAX_QUADRATIC_D raises a ValueError.
    """
    _require_order(n)
    _require_quadratic_d(n, "n")
    x, w = np.polynomial.legendre.leggauss(_SQUARE_NODES)
    h = math.pi / n
    ww = h * w
    k = np.arange(1, n - 1)
    # E_k for k = 1..n-2, and D_q for q = k + 1 = 2..n-1
    e = cl2_array(TWO_PI * k[:, None] / n + h * x) @ ww
    d = cl2_array(TWO_PI * (k + 1)[:, None, None] / n
                  + h * (x[:, None] + x)) @ ww @ ww
    return INTEGRAL - (2.0 * math.fsum(ww) * math.fsum((n - 1 - k) * e)
                       - math.fsum(k * d))


def max_vol_on_blue(n: int) -> float:
    """Estimated maximum of vol over the blue remainder.

    The max over the blue quarter-cell midpoints (i, j) of T, which have
    i < 2, j < 2 or i + j >= 4n - 4; an estimate only, used in the one-sided
    bound E(n) <= max * area.  n > MAX_QUADRATIC_D raises a ValueError.
    """
    _require_order(n)
    _require_quadratic_d(n, "n")
    m = 4 * n
    t = np.arange(m)
    diag = [t[:s + 1] for s in range(m - 4, m)]  # j on the last diagonals
    i = np.concatenate([t, t, 0 * t, 0 * t + 1] + [d[::-1] for d in diag])
    j = np.concatenate([0 * t, 0 * t + 1, t, t] + diag)
    th, al = (i + 0.5) * (TWO_PI / m), (j + 0.5) * (TWO_PI / m)
    keep = th + al <= TWO_PI
    th, al = th[keep], al[keep]
    blue = in_blue(th, al, n)
    return float(np.max(vol_array(th[blue], al[blue]), initial=0.0))


@dataclass(frozen=True)
class PartitionReport:
    """Riemann-sum diagnostics for one subpartition order n."""

    riemann_sum: float
    error_E: float
    blue_area: float
    max_vol_on_blue: float


def partition_report(n: int) -> PartitionReport:
    s_n = riemann_sum(n)
    return PartitionReport(
        riemann_sum=s_n,
        error_E=_error_E(n, s_n),
        blue_area=blue_area_formula(n),
        max_vol_on_blue=max_vol_on_blue(n),
    )


def triangular_partition(n: int) -> tuple:
    """The two families of lattice triangles tiling T, in units of 2 pi/n.

    Returns (lower, upper): lower triangles [(i,j), (i,j+1), (i+1,j)] for
    i + j <= n - 1 and upper triangles [(i-1,j), (i,j), (i,j-1)] for i, j >= 1
    with i + j <= n.  Together they tile T; every interior lattice point is a
    vertex of exactly six of them.  n > MAX_QUADRATIC_D raises a ValueError,
    since the 2 n^2 tuples take about 230 MiB at n = 1000.
    """
    _require_order(n)
    _require_quadratic_d(n, "n")
    lower = [((i, j), (i, j + 1), (i + 1, j))
             for i in range(n) for j in range(n - i)]
    upper = [((i - 1, j), (i, j), (i, j - 1))
             for i in range(1, n) for j in range(1, n - i + 1)]
    return lower, upper


@dataclass(frozen=True)
class LimitRow:
    """One line of the convergence report."""

    d: int
    m_value: float
    gap: float
    reconstruction_residual: float


def limit_report(d_list: list) -> list:
    """Convergence table: m(P_d), its gap to LIMIT, and the identity residual.

    The residual checks |2 pi m(P_d) - [A(d) I - B(d) I + B(d) E(d+1)
    - A(d) E(d+2)]| with A = (d+2)^2/(2 pi^2 (d+1)), B = (d+1)^2/(2 pi^2 (d+2)),
    the exact decomposition behind the limit theorem.  Each row computes
    W(d+1) and W(d+2) once and takes m(P_d), E(d+1) and E(d+2) from them.
    """
    if not d_list:
        raise ValueError("need at least one d")
    rows = []
    for d in d_list:
        PdSpec(d)  # raises on a d that is not an integer >= 1
        w1, w2 = grid_weight_sum(d + 1), grid_weight_sum(d + 2)
        m = _aggregated_estimate(d, w1, w2).value
        e1 = _error_E(d + 1, _riemann_sum(d + 1, w1))
        e2 = _error_E(d + 2, _riemann_sum(d + 2, w2))
        a = (d + 2) ** 2 / (2.0 * math.pi ** 2 * (d + 1))
        b = (d + 1) ** 2 / (2.0 * math.pi ** 2 * (d + 2))
        bracket = (a * INTEGRAL - b * INTEGRAL + b * e1 - a * e2)
        residual = abs(TWO_PI * m - bracket)
        rows.append(LimitRow(d, m, abs(m - LIMIT), residual))
    return rows
