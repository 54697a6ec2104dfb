"""Torus zeros of the family, their signs, and the regularity check.

The zeros of P_d on the unit torus |x| = |y| = 1 are exactly the pairs of
distinct, nontrivial n-th roots of unity for n = d + 1 and n = d + 2:

    U_n = {(e^{2 pi i k / n}, e^{2 pi i k' / n}) : 0 < k, k' < n, k != k'}.

Each point carries a sign eps = -sign(Im gamma), where gamma is the
logarithmic Gauss map (x dP/dx) / (y dP/dy).  It simplifies to
-x(1-y)/(y(1-x)) on U_{d+1} and to -(1-y)/(1-x) on U_{d+2}, and
1 - e^{it} = -2i sin(t/2) e^{it/2} turns both into

    Im gamma = sigma sin(pi k'/n) sin(pi (k' - k)/n) / sin(pi k/n),

sigma = +1 on U_{d+1} and -1 on U_{d+2}.  The sines of pi k/n and pi k'/n
are positive, so sign(Im gamma) = sigma sign(k' - k), the table

    n = d + 1:  k < k' -> eps = -1,   k > k' -> eps = +1
    n = d + 2:  k < k' -> eps = +1,   k > k' -> eps = -1

toric_blocks enumerates the points as int arrays (modulus, k, k'), a block
of whole rows (n, k) at a time, and checks each block against the
definition of U_n in exact integers; toric_indices is the concatenation of
its blocks, and the pointwise route sums over them; diagonal_sign is the
table above, elementwise on those arrays, and the only place the sign rule
is written.  toric_im_gamma takes each sine at pi min(j, n - j)/n <= pi/2,
where sin keeps its relative digits, and its sign from diagonal_sign.

Im gamma never vanishes.  Put A = pi (k' - k)/n, B = pi (n - k')/n for
k < k' and A = pi k'/n, B = pi (k - k')/n for k > k': A and B are positive
multiples of pi/n with A + B < pi, so by sin(pi - t) = sin t and
sin(A + B) = sin A sin B (cot A + cot B), the addition law behind the
cotangent law of volume's Hessian note,

    |Im gamma| = sin A sin B / sin(A + B) = 1 / (cot A + cot B).

cot falls on (0, pi), so the minimum over A and B is at A = B = pi/n:
|Im gamma| >= tan(pi/n)/2 on U_n, with equality at (n, k, k') = (n, 2, 1).
Over n = d + 1 and d + 2 the minimum is tan(pi/(d + 2))/2, at (d + 2, 2, 1),
and check_regularity's O(1) check compares it with REGULARITY_MIN_IM.
"""

from __future__ import annotations

import math

import numpy as np

from .polynomials import PdSpec
from .specfun import _CL2_BLOCK

REGULARITY_MIN_IM = 1e-8
# Largest d of the routes that take d^2 points: it bounds the memory of
# toric_indices, the vol-sum pairs and the grid of report vol-grid, where a
# larger d raises a ValueError before allocating instead of asking for
# gigabytes, and only the time of the pointwise route and report toric,
# which go through toric_blocks in O(block) memory.
MAX_QUADRATIC_D = 1000


class RegularityError(ArithmeticError):
    """A toric point where |Im gamma| is too small to trust its sign."""


def _check_zero_set(d: int, n: np.ndarray, k: np.ndarray,
                    kp: np.ndarray) -> None:
    # the definition of U_n above, in exact integers
    bad = (((n != d + 1) & (n != d + 2)) | (k <= 0) | (k >= n) | (kp <= 0)
           | (kp >= n) | (k == kp))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise AssertionError(
            f"enumerated point (n, k, k') = ({n[i]}, {k[i]}, {kp[i]}) is not "
            f"in U_{d + 1} or U_{d + 2}")


def _require_quadratic_d(d: int, name: str = "d") -> None:
    if d > MAX_QUADRATIC_D:
        raise ValueError(f"{name} = {d} exceeds {MAX_QUADRATIC_D}, the largest "
                         f"{name} of the routes whose memory grows with its "
                         "square")


def toric_blocks(spec: PdSpec):
    """Yield the toric points as blocks of int arrays (modulus, k, k').

    The points are rows (n, k) in toric_indices order, U_{d+1} then
    U_{d+2}: row (n, k) holds k' in 1..n-1 without k, in increasing order.
    A block takes whole rows, at most one Clausen kernel block of points
    unless one row is longer, so up to d = 127 all the points are one
    block.  Every block is checked against the definition of U_n; an
    AssertionError names the first point that fails it.  d > MAX_QUADRATIC_D
    raises a ValueError at the first block.
    """
    d = spec.d
    _require_quadratic_d(d)
    row_n = np.repeat([d + 1, d + 2], [d, d + 1])
    row_k = np.concatenate([np.arange(1, d + 1), np.arange(1, d + 2)])
    rows = max(1, _CL2_BLOCK // d)  # a row has at most d points
    for lo in range(0, row_n.size, rows):
        size = row_n[lo:lo + rows] - 2
        n = np.repeat(row_n[lo:lo + rows], size)
        k = np.repeat(row_k[lo:lo + rows], size)
        # j = 1..n-2 along each row, and k' = j, or j + 1 from j = k on
        kp = np.arange(1, n.size + 1) - np.repeat(np.cumsum(size) - size, size)
        kp += kp >= k
        _check_zero_set(d, n, k, kp)
        yield n, k, kp


def toric_indices(spec: PdSpec) -> tuple:
    """Int arrays (modulus, k, k') of all toric points, in that sort order.

    The count is d(d-1) + (d+1)d.  The arrays are the blocks of
    toric_blocks, each checked as it comes, copied in place.
    d > MAX_QUADRATIC_D raises a ValueError before allocating.
    """
    d = spec.d
    _require_quadratic_d(d)
    out = tuple(np.empty(d * (d - 1) + (d + 1) * d, dtype=int)
                for _ in range(3))
    lo = 0
    for block in toric_blocks(spec):
        hi = lo + block[0].size
        for a, b in zip(out, block):
            a[lo:hi] = b
        lo = hi
    return out


def enumerate_toric(spec: PdSpec) -> list:
    """toric_indices(spec) as a list of (n, k, k') int tuples, in its order.

    Kept only because the benchmark probes this name; ROADMAP item 1 deletes
    it together with that probe.
    """
    return list(zip(*(a.tolist() for a in toric_indices(spec))))


def diagonal_sign(d: int, n, k, kp):
    """The sign table: -1 or +1 (int8) for modulus n and exponents k, k'.

    Elementwise on int arrays as on Python ints.
    """
    return np.where((n == d + 1) == (k < kp), np.int8(-1), np.int8(1))


def _sin_pi(j: np.ndarray, n: np.ndarray) -> np.ndarray:
    # sin(pi j/n) for int arrays 0 <= j <= n, at pi min(j, n - j)/n <= pi/2,
    # where sin keeps its relative digits, so j and n - j give the same bits
    return np.sin(np.pi * np.minimum(j, n - j) / n)


def toric_im_gamma(spec: PdSpec, n, k, kp) -> np.ndarray:
    """Im gamma at the toric points (n, k, k'): the three sines, signed.

    Each sine is taken at an angle of at most pi/2, so sines alone give
    |Im gamma|, and the sign is -eps from diagonal_sign; the mirror points
    (n, k, k') and (n, k, (k - k') mod n), whose two sines of k' and k' - k
    swap, give the same bits.
    """
    im = _sin_pi(kp, n) * _sin_pi(np.abs(kp - k), n) / _sin_pi(k, n)
    return np.where(diagonal_sign(spec.d, n, k, kp) > 0, -im, im)


def check_regularity(spec: PdSpec):
    """The blocks (n, k, k', eps, Im gamma) of toric_blocks, once regular.

    At the call, d > MAX_QUADRATIC_D raises a ValueError, and the proved
    min |Im gamma| = tan(pi/(d+2))/2 at or below REGULARITY_MIN_IM raises a
    RegularityError naming the point (d+2, 2, 1) that attains it.
    """
    d = spec.d
    _require_quadratic_d(d)
    low = math.tan(math.pi / (d + 2)) / 2
    if low <= REGULARITY_MIN_IM:
        raise RegularityError(
            f"|Im gamma| = {low:.3e} <= {REGULARITY_MIN_IM} at "
            f"(n, k, k') = ({d + 2}, 2, 1)")
    return ((n, k, kp, diagonal_sign(d, n, k, kp),
             toric_im_gamma(spec, n, k, kp))
            for n, k, kp in toric_blocks(spec))
