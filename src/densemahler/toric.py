"""Torus zeros of the family, their signs, and the regularity check.

The zeros of P_d on the unit torus |x| = |y| = 1 are exactly the pairs of
distinct, nontrivial n-th roots of unity for n = d + 1 and n = d + 2:

    U_n = {(e^{2 pi i k / n}, e^{2 pi i k' / n}) : 0 < k, k' < n, k != k'}.

Each point carries a sign eps = -sign(Im gamma), where gamma is the
logarithmic Gauss map (x dP/dx) / (y dP/dy).  On U_{d+1} the map simplifies
to -x(1-y)/(y(1-x)) and on U_{d+2} to -(1-y)/(1-x); chasing the inscribed
angles shows the sign depends only on which side of the diagonal k = k' the
exponent pair lies:

    n = d + 1:  k < k' -> eps = -1,   k > k' -> eps = +1
    n = d + 2:  k < k' -> eps = +1,   k > k' -> eps = -1

toric_indices builds the points as int arrays (modulus, k, k') with numpy
from this closed description and checks every one of them against it in
exact integers, to guard against implementation slips; diagonal_sign is the
table above, elementwise on those arrays.  toric_gamma is gamma on those
arrays (one gauss_map call), and check_regularity confirms with it that
Im gamma never vanishes and that the sign table matches it at every point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polynomials import PdSpec, gauss_map
from .specfun import TWO_PI

REGULARITY_MIN_IM = 1e-8
# Largest d of the routes whose memory grows like d^2 (toric_indices, and so
# the pointwise route and report toric, the vol-sum pairs, and the grid size
# of report vol-grid); a larger d raises a ValueError before allocating
# instead of asking for gigabytes.
MAX_QUADRATIC_D = 1000


class RegularityError(ArithmeticError):
    """A toric point where the Gauss map degenerates or the sign table fails."""


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the pointwise Gauss-map check over all toric points."""

    d: int
    point_count: int
    min_abs_im_gamma: float


def _root_of_unity(k, n) -> np.ndarray:
    """The torus coordinate e^{2 pi i k/n}, elementwise on int arrays."""
    return np.exp(1j * (TWO_PI * k / n))


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
    blocks = []
    for n in (d + 1, d + 2):
        i, j = np.nonzero(~np.eye(n - 1, dtype=bool))
        blocks.append((np.full(i.size, n), i + 1, j + 1))
    n, k, kp = (np.concatenate(col) for col in zip(*blocks))
    _check_zero_set(d, n, k, kp)
    return n, k, kp


def enumerate_toric(spec: PdSpec) -> list:
    """toric_indices(spec) as a list of (n, k, k') int tuples, in its order.

    Kept only because the benchmark probes this name; ROADMAP item 1 deletes
    it together with that probe.
    """
    return list(zip(*(a.tolist() for a in toric_indices(spec))))


def diagonal_sign(d: int, n, k, kp):
    """The sign table: -1 or +1 for modulus n and exponents k, k'.

    Elementwise on int arrays as on Python ints.
    """
    return 1 - 2 * ((n == d + 1) == (k < kp))


def toric_gamma(spec: PdSpec, n, k, kp) -> np.ndarray:
    """The Gauss map gamma at the toric points with index arrays (n, k, k')."""
    return gauss_map(spec, _root_of_unity(k, n), _root_of_unity(kp, n))


def check_regularity(spec: PdSpec) -> RegularityReport:
    """Confirm Im gamma != 0 and eps = -sign(Im gamma) at every toric point.

    Returns the minimum |Im gamma| observed (O(1) at small d; the threshold
    REGULARITY_MIN_IM only guards against gross errors).  Raises
    RegularityError naming the first offending point as (n, k, k').
    """
    n, k, kp = toric_indices(spec)
    im = toric_gamma(spec, n, k, kp).imag
    small = np.abs(im) <= REGULARITY_MIN_IM
    bad = small | (diagonal_sign(spec.d, n, k, kp) != np.where(im > 0, -1, 1))
    if np.any(bad):
        i = int(np.argmax(bad))
        at = f"(n, k, k') = ({n[i]}, {k[i]}, {kp[i]})"
        if small[i]:
            raise RegularityError(
                f"|Im gamma| = {abs(im[i]):.3e} <= {REGULARITY_MIN_IM} at {at}")
        raise RegularityError(f"sign table disagrees with computed gamma at {at}")
    return RegularityReport(spec.d, n.size, float(np.min(np.abs(im))))
