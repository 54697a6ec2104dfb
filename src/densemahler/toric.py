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
from this closed description and always checks |P_d| <= 1e-10 at every one
of them, to guard against implementation slips; diagonal_sign is the table
above, elementwise on those arrays.  toric_gamma is gamma on those arrays (one
gauss_map call), and check_regularity confirms with it that Im gamma never
vanishes and that the sign table matches it at every point.  enumerate_toric
lists the same points as ToricPoint objects.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .polynomials import PdSpec, gauss_map
from .specfun import TWO_PI

TORIC_RESIDUAL_TOL = 1e-10
REGULARITY_MIN_IM = 1e-8
# Largest d of the routes whose memory grows like d^2 (toric_indices, and so
# the pointwise route and report toric, and the vol-sum pairs); a larger d
# raises a ValueError before allocating instead of asking for gigabytes.
MAX_QUADRATIC_D = 1000


class RegularityError(ArithmeticError):
    """A toric point where the Gauss map degenerates or the sign table fails."""


@dataclass(frozen=True)
class ToricPoint:
    """A torus zero (e^{2 pi i k/n}, e^{2 pi i k'/n}) of P_d, n = modulus."""

    d: int
    k: int
    k_prime: int
    modulus: int

    def __post_init__(self):
        if self.modulus not in (self.d + 1, self.d + 2):
            raise ValueError(f"modulus must be d+1 or d+2, got {self.modulus}")
        if not (0 < self.k < self.modulus and 0 < self.k_prime < self.modulus):
            raise ValueError(f"exponents must lie strictly between 0 and {self.modulus}")
        if self.k == self.k_prime:
            raise ValueError("no symmetric pair (x, x) is a torus zero")

    @property
    def x_angle(self) -> float:
        return TWO_PI * self.k / self.modulus

    @property
    def y_angle(self) -> float:
        return TWO_PI * self.k_prime / self.modulus

    @property
    def x(self) -> complex:
        return cmath.exp(1j * self.x_angle)

    @property
    def y(self) -> complex:
        return cmath.exp(1j * self.y_angle)


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the pointwise Gauss-map check over all toric points."""

    d: int
    point_count: int
    min_abs_im_gamma: float


def _guard_residuals(d: int, n: np.ndarray, k: np.ndarray,
                     kp: np.ndarray) -> np.ndarray:
    # |P_d| from the rational form with root-of-unity powers reduced by
    # integer modular arithmetic, so the d-fold power loses no accuracy:
    # P_d = [x (y^{d+1} - x^{d+1})/(y - x) - (y^{d+1} - 1)/(y - 1)] / (x - 1).
    # Plain Horner evaluation drifts past 1e-10 for d of a few hundred, which
    # would fail the guard on points that are exact zeros.
    x = np.exp(2j * math.pi * (k / n))
    y = np.exp(2j * math.pi * (kp / n))
    x_pow = np.exp(2j * math.pi * (((d + 1) * k) % n) / n)
    y_pow = np.exp(2j * math.pi * (((d + 1) * kp) % n) / n)
    val = (x * (y_pow - x_pow) / (y - x) - (y_pow - 1.0) / (y - 1.0)) / (x - 1.0)
    return np.abs(val)


def _require_quadratic_d(d: int) -> None:
    if d > MAX_QUADRATIC_D:
        raise ValueError(f"d = {d} exceeds {MAX_QUADRATIC_D}, the largest d "
                         "of the routes that need O(d^2) memory")


def toric_indices(spec: PdSpec) -> tuple:
    """Int arrays (modulus, k, k') of all toric points, in that sort order.

    The count is d(d-1) + (d+1)d.  Every point is checked to satisfy
    |P_d| <= TORIC_RESIDUAL_TOL; an AssertionError names the first point
    that does not.  d > MAX_QUADRATIC_D raises a ValueError.
    """
    d = spec.d
    _require_quadratic_d(d)
    blocks = []
    for n in (d + 1, d + 2):
        i, j = np.nonzero(~np.eye(n - 1, dtype=bool))
        blocks.append((np.full(i.size, n), i + 1, j + 1))
    n, k, kp = (np.concatenate(col) for col in zip(*blocks))
    residuals = _guard_residuals(d, n, k, kp)
    worst = int(np.argmax(residuals))
    if residuals[worst] > TORIC_RESIDUAL_TOL:
        raise AssertionError(
            f"enumerated point (n, k, k') = ({n[worst]}, {k[worst]}, "
            f"{kp[worst]}) has residual {residuals[worst]:.3e} > "
            f"{TORIC_RESIDUAL_TOL}")
    return n, k, kp


def enumerate_toric(spec: PdSpec) -> list:
    """All toric points of P_d as ToricPoints, ordered by (modulus, k, k_prime)."""
    n, k, kp = toric_indices(spec)
    return [ToricPoint(spec.d, *idx)
            for idx in zip(k.tolist(), kp.tolist(), n.tolist())]


def diagonal_sign(d: int, n, k, kp):
    """The sign table: -1 or +1 for modulus n and exponents k, k'.

    Elementwise on int arrays as on Python ints.
    """
    return 1 - 2 * ((n == d + 1) == (k < kp))


def epsilon(pt: ToricPoint) -> int:
    """Sign -sign(Im gamma) from the diagonal rule, +1 or -1."""
    return diagonal_sign(pt.d, pt.modulus, pt.k, pt.k_prime)


def toric_gamma(spec: PdSpec, n, k, kp) -> np.ndarray:
    """The Gauss map gamma at the toric points with index arrays (n, k, k')."""
    x = np.exp(1j * (TWO_PI * k / n))
    y = np.exp(1j * (TWO_PI * kp / n))
    return gauss_map(spec, x, y)


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
