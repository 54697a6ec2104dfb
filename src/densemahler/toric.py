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

toric_indices builds the points as int arrays (modulus, k, k') and checks
each against the definition of U_n in exact integers; diagonal_sign is the
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

REGULARITY_MIN_IM = 1e-8
# Largest d of the routes whose memory grows like d^2 (toric_indices, and so
# the pointwise route and report toric, the vol-sum pairs, and the grid size
# of report vol-grid); a larger d raises a ValueError before allocating
# instead of asking for gigabytes.
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


def toric_indices(spec: PdSpec) -> tuple:
    """Int arrays (modulus, k, k') of all toric points, in that sort order.

    The count is d(d-1) + (d+1)d.  Every point is checked against the
    definition of U_n (n = d+1 or d+2, 0 < k, k' < n, k != k'); an
    AssertionError names the first point that fails it.  d > MAX_QUADRATIC_D
    raises a ValueError.
    """
    d = spec.d
    _require_quadratic_d(d)
    n, k, kp = (np.empty(d * (d - 1) + (d + 1) * d, dtype=int)
                for _ in range(3))
    lo = 0
    for m in (d + 1, d + 2):
        # the block of modulus m is an (m-1, m-2) grid: row k in 1..m-1
        # holds k' in 1..m-1 without k, in increasing order
        hi = lo + (m - 1) * (m - 2)
        n[lo:hi] = m
        row = np.arange(1, m)[:, None]
        k[lo:hi].reshape(m - 1, m - 2)[...] = row
        col = np.arange(1, m - 1)
        np.add(col, col >= row, out=kp[lo:hi].reshape(m - 1, m - 2))
        lo = hi
    _check_zero_set(d, n, k, kp)
    return n, k, kp


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
