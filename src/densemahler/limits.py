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

from .mahler_closed import _pair_grid, grid_weight_sum, m_closed_aggregated
from .polynomials import PdSpec
from .specfun import TWO_PI, zeta3
from .volume import in_triangle, vol_array

_SQUARE_NODES = 16  # Gauss-Legendre nodes per side of each square


def integral_reference() -> float:
    """The exact integral of vol over T: 6 pi zeta(3)."""
    return 6.0 * math.pi * zeta3()


def limit_value() -> float:
    """The limit of the family's Mahler measure: 9 zeta(3) / (2 pi^2)."""
    return 9.0 * zeta3() / (2.0 * math.pi ** 2)


def riemann_sum(n: int) -> float:
    """S_n = (4 pi^2/n^2) sum_{0<k<k'<n} vol(2k pi/n, 2(k'-k) pi/n)."""
    if n < 2:
        raise ValueError(f"subpartition order must be >= 2, got {n}")
    return (4.0 * math.pi ** 2 / n ** 2) * grid_weight_sum(n)


def error_E(n: int) -> float:
    """E(n) = |I - S_n|; the sandwich forces I >= S_n, which is asserted."""
    gap = integral_reference() - riemann_sum(n)
    if gap < -1e-9:
        raise ArithmeticError(
            f"Riemann sum exceeds the integral by {-gap:.3e} at n = {n}; "
            "the concavity sandwich is violated")
    return abs(gap)


def square_centers(n: int) -> np.ndarray:
    """Centers (2k pi/n, 2j pi/n), k, j >= 1, k + j <= n - 1, shape (S, 2)."""
    return np.column_stack(_pair_grid(n))


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


def squares_integral(n: int) -> float:
    """Integral of vol over the union of subpartition squares, tensor GL."""
    centers = square_centers(n)
    if centers.size == 0:
        return 0.0
    x, w = np.polynomial.legendre.leggauss(_SQUARE_NODES)
    half = math.pi / n
    offs = half * x
    ww = half * w
    theta = centers[:, 0][:, None, None] + offs[None, :, None]
    alpha = centers[:, 1][:, None, None] + offs[None, None, :]
    vals = vol_array(theta, alpha)
    return float(np.einsum("i,j,sij->", ww, ww, vals))


def blue_integral(n: int) -> float:
    """eps(n) = integral of vol over the blue remainder (I minus squares)."""
    return integral_reference() - squares_integral(n)


def max_vol_on_blue(n: int) -> float:
    """Estimated maximum of vol over the blue remainder.

    Samples quarter-cell midpoints of T classified as blue; an estimate only,
    used in the one-sided bound E(n) <= max * area.
    """
    pitch = TWO_PI / (4 * n)
    m = 4 * n
    grid = (np.arange(m) + 0.5) * pitch
    th, al = np.meshgrid(grid, grid, indexing="ij")
    keep = th + al <= TWO_PI
    th = th[keep]
    al = al[keep]
    blue = in_blue(th, al, n)
    if not np.any(blue):
        return 0.0
    return float(np.max(vol_array(th[blue], al[blue])))


@dataclass(frozen=True)
class PartitionReport:
    """Riemann-sum diagnostics for one subpartition order n."""

    n: int
    riemann_sum: float
    integral_ref: float
    error_E: float
    blue_area: float
    max_vol_on_blue: float


def partition_report(n: int) -> PartitionReport:
    return PartitionReport(
        n=n,
        riemann_sum=riemann_sum(n),
        integral_ref=integral_reference(),
        error_E=error_E(n),
        blue_area=blue_area_formula(n),
        max_vol_on_blue=max_vol_on_blue(n),
    )


def triangular_partition(n: int) -> tuple:
    """The two families of lattice triangles tiling T, in units of 2 pi/n.

    Returns (lower, upper): lower triangles [(i,j), (i,j+1), (i+1,j)] for
    i + j <= n - 1 and upper triangles [(i-1,j), (i,j), (i,j-1)] for i, j >= 1
    with i + j <= n.  Together they tile T; every interior lattice point is a
    vertex of exactly six of them.
    """
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
    limit: float
    gap: float
    reconstruction_residual: float


def limit_report(d_list: list) -> list:
    """Convergence table: m(P_d), the limit, the gap, and the identity residual.

    The residual checks |2 pi m(P_d) - [A(d) I - B(d) I + B(d) E(d+1)
    - A(d) E(d+2)]| with A = (d+2)^2/(2 pi^2 (d+1)), B = (d+1)^2/(2 pi^2 (d+2)),
    the exact decomposition behind the limit theorem.
    """
    if not d_list:
        raise ValueError("need at least one d")
    ref = integral_reference()
    lim = limit_value()
    rows = []
    for d in d_list:
        spec = PdSpec(d)
        m = m_closed_aggregated(spec).value
        a = (d + 2) ** 2 / (2.0 * math.pi ** 2 * (d + 1))
        b = (d + 1) ** 2 / (2.0 * math.pi ** 2 * (d + 2))
        bracket = (a * ref - b * ref + b * error_E(d + 1) - a * error_E(d + 2))
        residual = abs(TWO_PI * m - bracket)
        rows.append(LimitRow(d, m, lim, abs(m - lim), residual))
    return rows
