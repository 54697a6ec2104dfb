"""Closed-form Mahler measure of the family, by three equivalent routes.

Route 1 (pointwise): m(P_d) = (1/2pi) * sum over toric points of
eps(x,y) * V(x,y), the finite closed formula for regular exact polynomials,
taken over the index arrays of toric_indices with one formula for V at
every d.

Route 2 (vol-sum): grouping each point with its swap and using
V = vol(...)/(d+2) on U_{d+1} (factor 1/(d+1) on U_{d+2}) turns the same sum
into two sums over exponent pairs 0 < k < k':

    2pi m(P_d) = -2/(d+2) * sum_{0<k<k'<=d}   vol(2k pi/(d+1), 2(k'-k) pi/(d+1))
               +  2/(d+1) * sum_{0<k<k'<=d+1} vol(2k pi/(d+2), 2(k'-k) pi/(d+2)).

Route 3 (aggregated, O(d)): with grid angles a_j = 2 pi j / n the pair sum
sum_{0<k<k'<n} vol(a_k, a_{k'-k}) expands into Clausen values whose integer
multiplicities are counted directly: for fixed j, Cl2(a_j) appears as the
theta term when k = j (n-1-j pairs), as the alpha term when k'-k = j
(n-1-j pairs), and with a minus sign as the theta+alpha term when k' = j
(j-1 pairs).  Hence

    W(n) := sum_{0<k<k'<n} vol(a_k, a_{k'-k})
          = sum_{j=1}^{n-1} (2n - 3j - 1) * Cl2(2 pi j / n),

which needs only n-1 Clausen calls.  The regrouping is validated against the
naive double sum for every d <= 200 in the test suite before being trusted
at larger d.

Error bounds propagate linearly from the per-call Clausen budget; the
aggregated route's weight mass sum |2n - 3j - 1| is an exact integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polynomials import PdSpec
from .specfun import CL2_ERROR_BOUND, TWO_PI, cl2_array
from .toric import _require_quadratic_d, diagonal_sign, toric_indices
from .volume import vol_array, volume_v_array

_GRID_CHUNK = 1 << 20  # angles per cl2_array call in grid_weight_sum

METHOD_POINTWISE = "closed_pointwise"
METHOD_VOLSUM = "closed_volsum"
METHOD_AGGREGATED = "closed_aggregated"
METHOD_ORACLE = "oracle"

# The one table of estimate methods: command-line spelling -> method tag.
# The closed route of tag t is the function m_t of this module.
METHOD_FLAGS = {
    "pointwise": METHOD_POINTWISE,
    "volsum": METHOD_VOLSUM,
    "aggregated": METHOD_AGGREGATED,
    "oracle": METHOD_ORACLE,
}


@dataclass(frozen=True)
class MahlerEstimate:
    """A value of m(P_d) with the route that produced it and its error budget."""

    d: int
    value: float
    method: str
    error_bound: float


def grid_weight_sum(n: int) -> float:
    """W(n) = sum_{j=1}^{n-1} (2n - 3j - 1) Cl2(2 pi j / n), O(n) Clausen calls.

    The angles go to cl2_array _GRID_CHUNK at a time, so memory stays
    bounded at any n; the chunk sums are added with math.fsum.
    """
    if n < 2:
        raise ValueError(f"grid order must be >= 2, got {n}")

    def chunk_sum(lo):
        j = np.arange(lo, min(lo + _GRID_CHUNK, n), dtype=float)
        return float((2.0 * n - 3.0 * j - 1.0) @ cl2_array(TWO_PI * j / n))

    return math.fsum(map(chunk_sum, range(1, n, _GRID_CHUNK)))


def _weight_mass(n: int) -> int:
    # sum_{j=1}^{n-1} |2n - 3j - 1| in closed form: the terms are positive
    # for j <= p = (2n - 2) // 3 and not positive after
    a, p = 2 * n - 1, (2 * n - 2) // 3
    return a * (2 * p - n + 1) - 3 * p * (p + 1) + 3 * n * (n - 1) // 2


def _pair_grid(n: int) -> tuple:
    # exponent pairs 0 < k < k' <= n-1 mapped to (theta, alpha) grid angles,
    # also the lattice of limits.square_centers
    i, jj = np.triu_indices(n - 1, k=1)
    k = i + 1.0
    kp = jj + 1.0
    return TWO_PI * k / n, TWO_PI * (kp - k) / n


def m_closed_pointwise(spec: PdSpec) -> MahlerEstimate:
    """(1/2pi) sum of eps * V over all toric points (the direct formula)."""
    d = spec.d
    n, k, kp = toric_indices(spec)
    eps = diagonal_sign(d, n, k, kp).astype(float)
    total = float(eps @ volume_v_array(spec, TWO_PI * k / n, TWO_PI * kp / n))
    # each V: 3 Clausen values over (d+1)(d+2) plus 3 over d+2 = 3/(d+1)
    bound = 3.0 * n.size * CL2_ERROR_BOUND / ((d + 1.0) * TWO_PI)
    return MahlerEstimate(d, total / TWO_PI, METHOD_POINTWISE, bound)


def m_closed_volsum(spec: PdSpec) -> MahlerEstimate:
    """The two explicit pair sums over vol; d <= toric.MAX_QUADRATIC_D."""
    d = spec.d
    _require_quadratic_d(d)
    c1 = -2.0 / (d + 2.0)
    c2 = 2.0 / (d + 1.0)
    n_pairs1 = (d - 1) * d // 2
    n_pairs2 = d * (d + 1) // 2
    total = 0.0
    if n_pairs1:
        theta, alpha = _pair_grid(d + 1)
        total += c1 * float(np.sum(vol_array(theta, alpha)))
    theta, alpha = _pair_grid(d + 2)
    total += c2 * float(np.sum(vol_array(theta, alpha)))
    bound = 3.0 * CL2_ERROR_BOUND * (abs(c1) * n_pairs1 + c2 * n_pairs2) / TWO_PI
    return MahlerEstimate(d, total / TWO_PI, METHOD_VOLSUM, bound)


def m_closed_aggregated(spec: PdSpec) -> MahlerEstimate:
    """Same value as the vol-sum route, via W(n) in O(d) Clausen calls."""
    d = spec.d
    c1 = -2.0 / (d + 2.0)
    c2 = 2.0 / (d + 1.0)
    total = c1 * grid_weight_sum(d + 1) + c2 * grid_weight_sum(d + 2)
    bound = CL2_ERROR_BOUND * (abs(c1) * _weight_mass(d + 1)
                               + c2 * _weight_mass(d + 2)) / TWO_PI
    return MahlerEstimate(d, total / TWO_PI, METHOD_AGGREGATED, bound)


def m_closed(spec: PdSpec, method: str = METHOD_AGGREGATED) -> MahlerEstimate:
    """Dispatch to one of the three closed routes by method name."""
    if method == METHOD_ORACLE or method not in METHOD_FLAGS.values():
        raise ValueError(f"unknown closed method {method!r}")
    # looked up at call time, so a rebound route is the one that runs
    return globals()[f"m_{method}"](spec)
