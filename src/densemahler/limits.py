"""Riemann sums of vol over the triangle and the convergence analysis.

The n-grid Riemann sum places a square of side 2*pi/n around every interior
lattice point (2k pi/n, 2j pi/n), k, j >= 1, k + j <= n - 1, of the triangle
T and sums vol at the centers:

    S_n = (4 pi^2 / n^2) * sum_{0<k<k'<n} vol(2k pi/n, 2(k'-k) pi/n).

Concavity of vol sandwiches the exact integral I = 6 pi zeta(3):

    S_n <= I <= S_n + eps(n).

The piecewise-linear interpolant on the matching triangular partition
underestimates I and sums to exactly S_n; the tangent plane at each center
overestimates its square's integral, and eps(n) is the integral of vol over
the uncovered "blue" remainder of T.  Each square integrates in closed form
(Sl3' = -Cl2, Cl4' = Sl3; see specfun), and summed with the multiplicities
of W(n) the Cl4 second differences telescope while the Sl3 differences close
as a sum over roots of unity, so for n >= 3

    eps(n) = -4 pi [Sl3(pi/n) - zeta(3)] - n [Cl4(2 pi/n) - 2 pi zeta(3)/n]
             - 3 pi zeta(3)/n^3
           = pi^3 ((10/3) log n + 49/9 - 2 log pi - (4/3) log 2 pi)/n^2
             - 3 pi zeta(3)/n^3 + O(log n / n^4).

blue_integral evaluates the first line from one Sl3 and one Cl4 difference,
in O(1).  So the error E(n) = I - S_n is at most eps(n) = O(log n / n^2)
(n^2 eps(n) / log n tends to 10 pi^3/3 and reads 104.9 at n = 1e6),
n E(n) -> 0, and the family's Mahler measure tends to 9 zeta(3) / (2 pi^2).

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

from .mahler_closed import _aggregated_estimate, grid_weight_sum
from .polynomials import PdSpec, _require_order
from .specfun import TWO_PI, ZETA3, _cl2_integrals

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


def blue_integral(n: int) -> float:
    """eps(n), the integral of vol over the blue remainder, in closed form.

    n must be an integer >= 1; O(1) work at any n.  For n <= 2 there are no
    squares and eps(n) = I.
    """
    _require_order(n, 1, "n")
    if n <= 2:
        return INTEGRAL
    sl3, _ = _cl2_integrals(math.pi / n)
    _, cl4 = _cl2_integrals(TWO_PI / n)
    return -4.0 * math.pi * sl3 - n * cl4 - 3.0 * math.pi * ZETA3 / n ** 3


@dataclass(frozen=True)
class LimitRow:
    """One line of the convergence report."""

    d: int
    m_value: float
    gap: float
    reconstruction_residual: float


def limit_report(d_list: list) -> list:
    """Convergence table: m(P_d), its gap to LIMIT, and the identity residual.

    The gap LIMIT - m(P_d) is signed: the true gap is positive, about
    log(d)/(2 d^2), so a negative one is rounding of the O(d) sum.  The
    residual checks |2 pi m(P_d) - [A(d) I - B(d) I + B(d) E(d+1) - A(d)
    E(d+2)]| with A = (d+2)^2/(2 pi^2 (d+1)), B = (d+1)^2/(2 pi^2 (d+2)),
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
        rows.append(LimitRow(d, m, LIMIT - m, residual))
    return rows
