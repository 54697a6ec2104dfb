"""Volume function of the curve and the two-angle function on the triangle.

For every d >= 1 the primitive of the curve one-form eta on the zero set
of P_d is

    V(x, y) = [D(y^{d+1}) - D(x^{d+1}) - D((y/x)^{d+1})] / ((d+1)(d+2))
            + [D(x) - D(y) - D(x/y)] / (d+2),

with D the Bloch-Wigner dilogarithm; on the d = 1 curve 1 + x + y = 0 it
equals the classical primitive -D(-x).  volume_v evaluates it at any
x, y != 0, on or off the unit torus, through specfun.bloch_wigner (three
Clausen values per D).  volume_v_array is the torus kernel of the pointwise
route: on angles each D is one Clausen value.  The two are independent
evaluators of the same V.  On torus points the bracket structure collapses
to the two-angle function

    vol(theta, alpha) = Cl2(theta) + Cl2(alpha) - Cl2(theta + alpha)

on the closed triangle T with vertices (0,0), (0,2pi), (2pi,0): vol vanishes
on the boundary of T, is positive inside, and is concave there.  It has one
kernel, the elementwise vol_array; the scalar vol runs it on 0-d inputs.  Its
gradient is (log|1-e^{i(theta+alpha)}| - log|1-e^{i theta}|, same with
alpha); both logs are computed as log(2 sin(t/2)), which is exact for
t in [0, 2pi] and avoids cancellation near t = 0.  The Hessian entries are
half-cotangents of half-angles.

Note on the Hessian determinant: the closed-form entries give det = 1/4
identically (with A = cot(theta/2), B = cot(alpha/2), C = cot((theta+alpha)/2)
the cotangent addition law C(A+B) = AB - 1 yields
4 det = AB - C(A+B) = 1).  Negative definiteness, hence concavity, follows
from h11 < 0 and det > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .polynomials import PdSpec
from .specfun import TWO_PI, bloch_wigner, cl2_array

import numpy as np

# slack for membership in the closed triangle (boundary points are legal)
TRIANGLE_TOL = 1e-9


def in_triangle(theta: float, alpha: float, tol: float = TRIANGLE_TOL) -> bool:
    """Membership in the closed triangle T, with floating-point slack.

    Elementwise when given arrays.
    """
    return (theta >= -tol) & (alpha >= -tol) & (theta + alpha <= TWO_PI + tol)


def vol(theta: float, alpha: float) -> float:
    """Cl2(theta) + Cl2(alpha) - Cl2(theta + alpha) on the closed triangle."""
    return float(vol_array(theta, alpha))


def vol_array(theta: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """vol elementwise; a ValueError names the first point outside T."""
    theta = np.asarray(theta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    inside = in_triangle(theta, alpha)
    if not np.all(inside):
        i = np.argmin(inside)
        t, a = (float(v.flat[i]) for v in np.broadcast_arrays(theta, alpha))
        raise ValueError(
            f"({t!r}, {a!r}) lies outside the closed triangle "
            "0 <= theta, 0 <= alpha, theta + alpha <= 2*pi")
    return cl2_array(theta) + cl2_array(alpha) - cl2_array(theta + alpha)


def log_abs_one_minus_exp(t: float) -> float:
    """log|1 - e^{it}| = log(2 sin(t/2)) for t in (0, 2*pi)."""
    if not 0.0 < t < TWO_PI:
        raise ValueError(f"t must lie strictly inside (0, 2*pi), got {t!r}")
    return math.log(2.0 * math.sin(0.5 * t))


def _require_interior(theta: float, alpha: float) -> None:
    s = theta + alpha
    if not (0.0 < theta < TWO_PI and 0.0 < alpha < TWO_PI and 0.0 < s < TWO_PI):
        raise ValueError(
            f"({theta!r}, {alpha!r}) is not strictly interior to the "
            "triangle; the derivatives are logarithmically singular there")


def vol_gradient(theta: float, alpha: float) -> tuple:
    """(d vol/d theta, d vol/d alpha) at a strictly interior point."""
    _require_interior(theta, alpha)
    gs = log_abs_one_minus_exp(theta + alpha)
    return (gs - log_abs_one_minus_exp(theta),
            gs - log_abs_one_minus_exp(alpha))


@dataclass(frozen=True)
class Hessian2:
    """Symmetric 2x2 Hessian of vol at an interior point."""

    h11: float
    h12: float
    h21: float
    h22: float

    def determinant(self) -> float:
        return self.h11 * self.h22 - self.h12 * self.h21


def vol_hessian(theta: float, alpha: float) -> Hessian2:
    """Closed-form Hessian; h11 < 0 and det = 1/4 at interior points."""
    _require_interior(theta, alpha)
    c_sum = 0.5 / math.tan(0.5 * (theta + alpha))
    c_theta = 0.5 / math.tan(0.5 * theta)
    c_alpha = 0.5 / math.tan(0.5 * alpha)
    return Hessian2(c_sum - c_theta, c_sum, c_sum, c_sum - c_alpha)


def volume_v_array(spec: PdSpec, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """V(e^{i tx}, e^{i ty}) elementwise over arrays of angles.

    All six dilogarithm arguments have unit modulus, so each D reduces to a
    Clausen value at the corresponding multiple of the angles.
    """
    d = spec.d
    m = d + 1.0
    first = (cl2_array(m * ty) - cl2_array(m * tx)
             - cl2_array(m * (ty - tx))) / ((d + 1.0) * (d + 2.0))
    second = (cl2_array(tx) - cl2_array(ty) - cl2_array(tx - ty)) / (d + 2.0)
    return first + second


def volume_v(spec: PdSpec, x: complex, y: complex) -> float:
    """The volume function V(x, y) at any x, y != 0, on or off the torus."""
    x, y = complex(x), complex(y)
    if x == 0 or y == 0:
        raise ValueError(f"V is undefined at (x, y) = ({x!r}, {y!r})")
    m = spec.d + 1
    first = (bloch_wigner(y ** m) - bloch_wigner(x ** m)
             - bloch_wigner((y / x) ** m))
    second = bloch_wigner(x) - bloch_wigner(y) - bloch_wigner(x / y)
    return first / (m * (m + 1)) + second / (m + 1)
