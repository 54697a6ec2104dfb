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
from .specfun import TWO_PI, ZETA3
from .toric import _require_quadratic_d
from .volume import in_triangle, vol_array

_SQUARE_NODES = 16  # Gauss-Legendre nodes per side of each square
# points per vol_array call in blue_integral and max_vol_on_blue, at any n
_BLOCK_POINTS = 1 << 16

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


def blue_area_formula(n: int) -> float:
    """Area of the blue remainder: 2 pi^2 (3n - 2) / n^2."""
    return 2.0 * math.pi ** 2 * (3.0 * n - 2.0) / n ** 2


def blue_integral(n: int) -> float:
    """eps(n) = integral of vol over the blue remainder (I minus squares).

    Tensor Gauss-Legendre over the squares centered on the pair grid
    (2k pi/n, 2j pi/n), k, j >= 1, k + j <= n - 1, one row k and a block of
    j at a time; math.fsum adds the block sums.  n > MAX_QUADRATIC_D raises
    a ValueError, since the time grows like n^2 (16 s at n = 1000).
    """
    _require_quadratic_d(n, "n")
    x, w = np.polynomial.legendre.leggauss(_SQUARE_NODES)
    half = math.pi / n
    offs = half * x
    ww = half * w
    block = _BLOCK_POINTS // _SQUARE_NODES ** 2

    def block_sum(k, lo):
        theta = TWO_PI * k / n + offs[:, None]
        j = np.arange(lo, min(lo + block, n - k))
        alpha = (TWO_PI * j)[:, None, None] / n + offs
        return float(np.einsum("i,j,sij->", ww, ww, vol_array(theta, alpha)))

    return INTEGRAL - math.fsum(block_sum(k, lo) for k in range(1, n - 1)
                                for lo in range(1, n - k, block))


def max_vol_on_blue(n: int) -> float:
    """Estimated maximum of vol over the blue remainder.

    Samples quarter-cell midpoints of T classified as blue; an estimate only,
    used in the one-sided bound E(n) <= max * area.  The grid is scanned a
    block of rows at a time.  n > MAX_QUADRATIC_D raises a ValueError.
    """
    _require_quadratic_d(n, "n")
    pitch = TWO_PI / (4 * n)
    m = 4 * n
    grid = (np.arange(m) + 0.5) * pitch
    rows = max(1, _BLOCK_POINTS // m)
    maxima = []
    for lo in range(0, m, rows):
        th, al = np.meshgrid(grid[lo:lo + rows], grid, indexing="ij")
        keep = th + al <= TWO_PI
        th, al = th[keep], al[keep]
        blue = in_blue(th, al, n)
        if np.any(blue):
            maxima.append(float(np.max(vol_array(th[blue], al[blue]))))
    return max(maxima, default=0.0)


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
