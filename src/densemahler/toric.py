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
check_regularity confirms, O(1) work per point, that Im gamma never
vanishes, and returns the table it checked, which is what report toric
prints.
"""

from __future__ import annotations

import numpy as np

from .polynomials import PdSpec
from .specfun import _CL2_BLOCK

REGULARITY_MIN_IM = 1e-8
# Largest d of the routes whose memory grows like d^2 (toric_indices, and so
# report toric, the vol-sum pairs, and the grid size of report vol-grid); a
# larger d raises a ValueError before allocating instead of asking for
# gigabytes.  The pointwise route sums toric_blocks in O(block) memory and
# keeps the cap for its O(d^2) time; ROADMAP item 19 decides its fate.
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
    # sin(pi j/n) for int arrays 0 <= j <= n, taken at pi min(j, n - j)/n
    # <= pi/2, where sin keeps its relative digits, so j and n - j give the
    # same bits.  j is overwritten: n - |n - 2j| = 2 min(j, n - j) in place,
    # and (pi/2) (2 min) is pi min exactly.
    j *= 2
    np.subtract(n, j, out=j)
    np.abs(j, out=j)
    np.subtract(n, j, out=j)
    s = j * (np.pi / 2)
    s /= n
    return np.sin(s, out=s)


def toric_im_gamma(spec: PdSpec, n, k, kp) -> np.ndarray:
    """Im gamma at the toric points (n, k, k'): the three sines, signed.

    Each sine is taken at an angle of at most pi/2, so sines alone give
    |Im gamma|, and the sign is -eps from diagonal_sign; the mirror points
    (n, k, k') and (n, k, (k - k') mod n), whose two sines of k' and k' - k
    swap, give the same bits.
    """
    im = _sin_pi(np.array(kp), n)
    diff = np.subtract(kp, k)
    im *= _sin_pi(np.abs(diff, out=diff), n)
    del diff  # one int array less at the third sine: 16 MB at d = 1000
    im /= _sin_pi(np.array(k), n)
    return np.negative(im, out=im, where=diagonal_sign(spec.d, n, k, kp) > 0)


def check_regularity(spec: PdSpec) -> tuple:
    """The torus zeros with their signs and Im gamma, checked at every point.

    Returns the arrays (n, k, k', eps, Im gamma) in toric_indices order once
    every point has |Im gamma| > REGULARITY_MIN_IM (O(1) at small d; the
    threshold only guards against gross errors).  Raises RegularityError
    naming the first offending point as (n, k, k').
    """
    n, k, kp = toric_indices(spec)
    im = toric_im_gamma(spec, n, k, kp)
    small = np.abs(im) <= REGULARITY_MIN_IM
    if np.any(small):
        i = int(np.argmax(small))
        raise RegularityError(
            f"|Im gamma| = {abs(im[i]):.3e} <= {REGULARITY_MIN_IM} at "
            f"(n, k, k') = ({n[i]}, {k[i]}, {kp[i]})")
    return n, k, kp, diagonal_sign(spec.d, n, k, kp), im
