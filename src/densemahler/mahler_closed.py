"""Closed-form Mahler measure of the family, by three equivalent routes.

Route 1 (pointwise): m(P_d) = (1/2pi) * sum over toric points of
eps(x,y) * V(x,y), the finite closed formula for regular exact polynomials,
taken over the blocks of index arrays (n, k, k') of toric_blocks.  At a
torus zero x^n = y^n = 1, so the first bracket of V (see volume) vanishes on
U_{d+1} and equals the second on U_{d+2}; each D on the torus is one Clausen
value:

    V = [Cl2(2 pi k/n) - Cl2(2 pi k'/n) - Cl2(2 pi (k-k')/n)] / (d+2 or d+1).

Route 2 (vol-sum): grouping each point with its swap turns that bracket into
vol(2k pi/n, 2(k'-k) pi/n) for k < k', and the same sum into two sums over
exponent pairs 0 < k < k':

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

which needs only n-1 Clausen calls.  The three counts are exact for every n,
so the regrouping is an identity at every d; the suite's comparison with the
naive double sum for d <= 200 is a check of that count.

The fold by oddness (a test only; the route still sums n-1 values).  By
Cl2(-x) = -Cl2(x) and 2 pi-periodicity, vol(a_k, a_{k'-k}) = Cl2(a_p) +
Cl2(a_q) + Cl2(a_r) with (p, q, r) = (k, k'-k, n-k'), and 0 < k < k' < n
runs over the compositions p + q + r = n into positive parts exactly once.
That set is invariant under permuting (p, q, r), so each of the three terms
sums to the same total, and for a given p there are n-1-p pairs (q, r):

    W(n) = 3 * sum_{p=1}^{n-2} (n-1-p) Cl2(a_p).

Pairing p with n-p, where Cl2(a_{n-p}) = -Cl2(a_p), leaves the weight
(n-1-p) - (p-1) = n-2p on a_p; Cl2(a_{n/2}) = Cl2(pi) = 0 for even n, so

    W(n) = sum_{1<=a<n/2} 3 (n-2a) Cl2(2 pi a / n),

half the Clausen values, every weight positive.

Error bounds propagate linearly from the per-call Clausen budget; the
aggregated route's weight mass sum |2n - 3j - 1| is an exact integer.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .mahler_oracle import m_oracle  # the oracle row of ROUTES
from .polynomials import PdSpec, _require_order
from .specfun import (_CL2_BLOCK, CL2_ERROR_BOUND, TWO_PI, _thread_blocks,
                      cl2_array)
from .toric import _require_quadratic_d, diagonal_sign, toric_blocks
from .volume import vol_array

# each thread's two buffers of grid_weight_sum, kept between calls
_grid_scratch = threading.local()

# The one table of routes: --method spelling -> (the tag measure prints,
# the route function's name in this module, the field of its second
# number: a proven bound for the closed routes, an empirical estimate for
# the oracle).  Each route checks its own range of d.
ROUTES = {
    "pointwise": ("closed_pointwise", "m_closed_pointwise", "error_bound"),
    "volsum": ("closed_volsum", "m_closed_volsum", "error_bound"),
    "aggregated": ("closed_aggregated", "m_closed_aggregated", "error_bound"),
    "oracle": ("oracle", "m_oracle", "error_estimate"),
}


@dataclass(frozen=True)
class MahlerEstimate:
    """A value of m(P_d) with its error budget."""

    value: float
    error_bound: float


def grid_weight_sum(n: int) -> float:
    """W(n) = sum_{j=1}^{n-1} (2n - 3j - 1) Cl2(2 pi j / n), O(n) Clausen calls.

    n must be an integer >= 2.  The angles go to cl2_array _CL2_BLOCK at a
    time, one kernel block, so memory stays bounded at any n and each
    chunk's grid, weights and Clausen values stay in cache; the chunk sums
    are added with math.fsum.  j and the angles, then the weights, live in
    two buffers that the calling thread keeps, as the kernel keeps its
    scratch: allocated per call, they went back to the OS at its end and
    the next call faulted them in again.  j advances in place by the chunk
    (exact integers), and the in-place steps round exactly as 2 pi j / n
    and (2n - 3j - 1) do.  The weighting is a single-threaded numpy
    pairwise sum of weight * Cl2, never a BLAS dot, so its bits do not
    depend on the machine's thread count.
    """
    _require_order(n, 2, "n")
    size = min(_CL2_BLOCK, n - 1)
    j, w = _thread_blocks(_grid_scratch, size)
    np.copyto(j, np.arange(1.0, size + 1.0))

    def chunk_sum(lo):
        # one chunk from j = lo..; its Clausen values are freed on return,
        # before the next chunk's are allocated
        m = min(size, n - lo)
        jm, wm = j[:m], w[:m]
        theta = np.multiply(jm, TWO_PI, out=wm)
        theta /= n
        cl = cl2_array(theta)
        np.multiply(jm, 3.0, out=wm)
        np.subtract(2.0 * n, wm, out=wm)
        wm -= 1.0
        cl *= wm
        jm += size
        return float(cl.sum())

    return math.fsum(map(chunk_sum, range(1, n, size)))


def _weight_mass(n: int) -> int:
    # sum_{j=1}^{n-1} |2n - 3j - 1| in closed form: the terms are positive
    # for j <= p = (2n - 2) // 3 and not positive after
    a, p = 2 * n - 1, (2 * n - 2) // 3
    return a * (2 * p - n + 1) - 3 * p * (p + 1) + 3 * n * (n - 1) // 2


def _pair_grid(n: int) -> tuple:
    # exponent pairs 0 < k < k' <= n-1 mapped to (theta, alpha) grid angles
    i, jj = np.triu_indices(n - 1, k=1)
    k = i + 1.0
    kp = jj + 1.0
    return TWO_PI * k / n, TWO_PI * (kp - k) / n


def torus_volume_v(d: int, n: np.ndarray, k: np.ndarray,
                   kp: np.ndarray) -> np.ndarray:
    """V at the torus zeros (n, k, k') of toric_blocks, in its torus form.

    Route 1 above: three Clausen arrays on angles inside (-2 pi, 2 pi),
    divided by d+2 on U_{d+1} and by d+1 on U_{d+2}.
    """
    v = (cl2_array(TWO_PI * k / n) - cl2_array(TWO_PI * kp / n)
         - cl2_array(TWO_PI * (k - kp) / n))
    v /= 2 * d + 3 - n
    return v


def m_closed_pointwise(spec: PdSpec) -> MahlerEstimate:
    """(1/2pi) sum of eps * V over all toric points (the direct formula).

    The points come in the blocks of toric_blocks, so memory stays O(block)
    at any d; the block sums are added with math.fsum.
    """
    d = spec.d

    def block_sum(block):
        v = torus_volume_v(d, *block)
        v *= diagonal_sign(d, *block)
        # a pairwise sum on one core, not a BLAS dot: the bits do not
        # depend on the thread count
        return float(v.sum())

    total = math.fsum(map(block_sum, toric_blocks(spec)))
    # each V: 3 Clausen values over d+2 or d+1, at most 3/(d+1), at each of
    # the d(d-1) + (d+1)d points
    points = d * (d - 1) + (d + 1) * d
    bound = 3.0 * points * CL2_ERROR_BOUND / ((d + 1.0) * TWO_PI)
    return MahlerEstimate(total / TWO_PI, bound)


def m_closed_volsum(spec: PdSpec) -> MahlerEstimate:
    """The two explicit pair sums over vol; d <= toric.MAX_QUADRATIC_D."""
    d = spec.d
    _require_quadratic_d(d)
    # d = 1's empty grid sums to 0.0; each vol is three Clausen values
    v1, v2 = (float(np.sum(vol_array(*_pair_grid(n)))) for n in (d + 1, d + 2))
    return _two_grids(d, v1, v2, 3 * (d - 1) * d // 2, 3 * d * (d + 1) // 2)


def m_closed_aggregated(spec: PdSpec) -> MahlerEstimate:
    """Same value as the vol-sum route, via W(n) in O(d) Clausen calls."""
    d = spec.d
    return _aggregated_estimate(d, grid_weight_sum(d + 1), grid_weight_sum(d + 2))


def _aggregated_estimate(d: int, w1: float, w2: float) -> MahlerEstimate:
    # m(P_d) and its bound from w1 = W(d+1) and w2 = W(d+2)
    return _two_grids(d, w1, w2, _weight_mass(d + 1), _weight_mass(d + 2))


def _two_grids(d: int, x1: float, x2: float, mass1: int,
               mass2: int) -> MahlerEstimate:
    # 2 pi m(P_d) = c1 X(d+1) + c2 X(d+2) from a pair sum X over each grid;
    # mass_i counts the Clausen values behind x_i, each times |its weight|
    c1 = -2.0 / (d + 2.0)
    c2 = 2.0 / (d + 1.0)
    bound = CL2_ERROR_BOUND * (abs(c1) * mass1 + c2 * mass2) / TWO_PI
    return MahlerEstimate((c1 * x1 + c2 * x2) / TWO_PI, bound)


def m_closed(spec: PdSpec, method: str = "aggregated"):
    """m(P_d) by the route that ROUTES names for a --method spelling.

    Returns the route's own result: a MahlerEstimate, or the oracle's
    OracleResult.
    """
    if method not in ROUTES:
        raise ValueError(f"unknown method {method!r}")
    # looked up by name at call time, so a rebound route is the one that runs
    return globals()[ROUTES[method][1]](spec)
