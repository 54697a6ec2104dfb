"""The dense bivariate family: evaluation, slices, partials, Gauss map, roots.

The family is P_d(x, y) = sum over all monomials x^i y^j with i + j <= d.
Grouping by powers of y gives P_d = sum_j y^j * S_{d-j}(x) with the geometric
column sums S_m(x) = 1 + x + ... + x^m, so one Horner pass in y that grows the
S_m incrementally evaluates P_d in O(d) operations.  The same scheme gives the
partial derivatives and the Gauss map, elementwise over arrays of points, and
the y-slices (coefficient rows) whose roots feed the Jensen quadrature oracle.

Away from the removable singularities the identity

    P_d(x, y) * (x - 1) * (y - 1) * (x - y)
        = (x^{d+2} - 1) * (y - 1) - (y^{d+2} - 1) * (x - 1)

provides an independent rational closed form; it suffers catastrophic
cancellation when any of |x - 1|, |y - 1|, |x - y| is small, so it refuses to
evaluate inside that locus and is used only as a cross-check.

Root finding is a simultaneous Aberth-Ehrlich iteration, vectorized over a
batch of same-degree polynomials since the oracle solves thousands of slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Radius of the excluded locus for the rational closed form: inside it only
# direct summation is trusted.
RATIONAL_FORM_EXCLUSION = 0.1

ABERTH_MAX_ITER = 200
ABERTH_NEWTON_TOL = 1e-13
ROOT_RESIDUAL_TOL = 1e-10


class RootFindingError(ArithmeticError):
    """Aberth iteration failed; carries the worst polynomial residual."""

    def __init__(self, message: str, worst_residual: float):
        super().__init__(f"{message} (worst residual {worst_residual:.3e})")
        self.worst_residual = worst_residual


class SingularPointError(ArithmeticError):
    """Logarithmic Gauss map evaluated where y * dP/dy vanishes."""


@dataclass(frozen=True)
class PdSpec:
    """Family parameter d >= 1 selecting the polynomial P_d."""

    d: int

    def __post_init__(self):
        if not isinstance(self.d, int) or isinstance(self.d, bool) or self.d < 1:
            raise ValueError(f"family parameter d must be an integer >= 1, got {self.d!r}")


def eval_pd_array(spec: PdSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """P_d over arrays of points: Horner in y while growing S_m(x), O(d)."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    s = np.ones(np.broadcast(x, y).shape, dtype=complex)
    xp = np.ones_like(s)
    acc = s.copy()
    for _ in range(spec.d):
        xp = xp * x
        s = s + xp
        acc = acc * y + s
    return acc


def eval_pd_rational(spec: PdSpec, x: complex, y: complex) -> complex:
    """Rational closed form of P_d, valid away from the excluded locus."""
    x = complex(x)
    y = complex(y)
    margin = min(abs(x - 1.0), abs(y - 1.0), abs(x - y))
    if margin < RATIONAL_FORM_EXCLUSION:
        raise ValueError(
            f"point within {RATIONAL_FORM_EXCLUSION} of the removable locus "
            "(x=1, y=1 or x=y); use eval_pd_array")
    n = spec.d + 2
    num = (x ** n - 1.0) * (y - 1.0) - (y ** n - 1.0) * (x - 1.0)
    return num / ((x - 1.0) * (y - 1.0) * (x - y))


def _partial_x(d: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # dP_d/dx = sum_j y^j T_{d-j}(x) with T_m = sum_{i=1}^m i x^{i-1};
    # Horner in y while growing T_m and the power tracker together.
    t = np.zeros(np.broadcast(x, y).shape, dtype=complex)
    xp = np.ones_like(t)
    acc = t
    for m in range(1, d + 1):
        t = t + m * xp
        xp = xp * x
        acc = acc * y + t
    return acc


def _as_points(x, y) -> tuple:
    # numpy rounds a product of two complex scalars differently from the same
    # product in an array, so a point runs as a one-element array
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    x, y = (np.atleast_1d(np.asarray(v, dtype=complex)) for v in (x, y))
    return x, y, shape


def eval_partials(spec: PdSpec, x, y) -> tuple:
    """(dP_d/dx, dP_d/dy) elementwise; the y-partial swaps the arguments."""
    x, y, shape = _as_points(x, y)
    return (_partial_x(spec.d, x, y).reshape(shape)[()],
            _partial_x(spec.d, y, x).reshape(shape)[()])


def gauss_map(spec: PdSpec, x, y):
    """Logarithmic Gauss map (x dP/dx) / (y dP/dy), elementwise; a
    SingularPointError names the first point where y dP/dy vanishes."""
    x, y, shape = _as_points(x, y)
    num, den = x * _partial_x(spec.d, x, y), y * _partial_x(spec.d, y, x)
    singular = np.abs(den) <= 1e-12 * np.maximum(1.0, np.abs(num))
    if np.any(singular):
        i = int(np.argmax(singular))
        xi, yi = (complex(v.flat[i]) for v in np.broadcast_arrays(x, y))
        raise SingularPointError(
            f"y*dP/dy vanishes at (x, y) = ({xi!r}, {yi!r}) for d = {spec.d}")
    return (num / den).reshape(shape)[()]


def slice_coeff_matrix(spec: PdSpec, x0: np.ndarray) -> np.ndarray:
    """Slice coefficients for a batch of x0 values, shape (x0.size, d+1).

    Row i holds S_d(x0_i), ..., S_1(x0_i), S_0 = 1: the coefficients of
    y -> P_d(x0_i, y) in ascending powers of y, leading coefficient exactly
    1.  Rows are independent: a row has the same bits in any batch.
    """
    x0 = np.asarray(x0, dtype=complex)
    d = spec.d
    out = np.empty((x0.size, d + 1), dtype=complex)
    s = np.ones(x0.size, dtype=complex)
    xp = np.ones(x0.size, dtype=complex)
    out[:, d] = s
    for m in range(1, d + 1):
        xp = xp * x0
        s = s + xp
        out[:, d - m] = s
    return out


def _polyval_batch(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    # coeffs (B, D+1) ascending, z (B, R) -> values (B, R)
    v = np.repeat(coeffs[:, -1][:, None], z.shape[1], axis=1)
    for k in range(coeffs.shape[1] - 2, -1, -1):
        v = v * z + coeffs[:, k][:, None]
    return v


def aberth_roots_batch(coeffs: np.ndarray,
                       initial: np.ndarray | None = None) -> np.ndarray:
    """All roots of a batch of same-degree polynomials, Aberth-Ehrlich.

    coeffs has shape (B, D+1) in ascending powers, all finite, with nonzero
    leading column.  Initial guesses sit on the Fujiwara root-bound circle
    with a fixed angular offset, or come from `initial` (shape (D,) or
    (B, D), e.g. the solved roots of a nearby polynomial); the iteration is
    simultaneous, deterministic, and stops when every correction falls below
    ABERTH_NEWTON_TOL.

    Raises ValueError on non-finite coeffs or initial, and RootFindingError
    after ABERTH_MAX_ITER sweeps (read at call time).
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    n_poly, deg_p1 = coeffs.shape
    deg = deg_p1 - 1
    if deg < 1:
        raise ValueError("degree must be >= 1")
    # a NaN correction never reaches ABERTH_NEWTON_TOL, so it would count as
    # converged; refuse non-finite input before any arithmetic
    if not (np.all(np.isfinite(coeffs))
            and (initial is None or np.all(np.isfinite(initial)))):
        raise ValueError("coefficients and initial roots must be finite")
    lead = coeffs[:, -1]
    if np.any(lead == 0):
        raise ValueError("leading coefficients must be nonzero")
    monic = coeffs / lead[:, None]
    deriv = monic[:, 1:] * np.arange(1, deg + 1)

    if initial is not None:
        out = np.array(np.broadcast_to(initial, (n_poly, deg)), dtype=complex)
    else:
        # Fujiwara root bound 2 * max_k |c_k|^(1/(deg-k)) as starting circle
        mags = np.abs(monic[:, :-1])
        expo = 1.0 / (deg - np.arange(deg))
        radius = 2.0 * np.max(np.where(mags > 0.0, mags, 0.0) ** expo, axis=1)
        radius = np.maximum(radius, 1e-3)
        angles = 2.0 * np.pi * (np.arange(deg) + 0.5) / deg + 0.3
        out = radius[:, None] * np.exp(1j * angles)[None, :]

    idx = np.arange(deg)
    active = np.arange(n_poly)
    for _ in range(ABERTH_MAX_ITER):
        z = out[active]
        p = _polyval_batch(monic[active], z)
        dp = _polyval_batch(deriv[active], z)
        diff = z[:, :, None] - z[:, None, :]
        diff[:, idx, idx] = np.inf
        aberth_sum = (1.0 / diff).sum(axis=2)
        denom = dp - p * aberth_sum
        # stalled denominator: skip the update for that root this sweep
        stalled = denom == 0
        w = np.where(stalled, 0.0, p / np.where(stalled, 1.0, denom))
        out[active] = z - w
        # freeze converged rows; polynomials in a batch are independent
        still = np.max(np.abs(w), axis=1) >= ABERTH_NEWTON_TOL
        active = active[still]
        if active.size == 0:
            return out
    worst = float(np.max(np.abs(_polyval_batch(monic[active], out[active]))))
    raise RootFindingError(
        f"Aberth iteration did not converge within {ABERTH_MAX_ITER} sweeps "
        f"for {active.size} polynomial(s)", worst)


def roots(coefficients) -> list:
    """All degree-many roots of a polynomial, with multiplicity.

    coefficients are finite, in ascending powers (a slice_coeff_matrix row,
    say), degree >= 1; a non-finite one raises ValueError.
    Zero roots (vanishing low-order coefficients) are split off exactly; the
    rest come from the Aberth solver.  Every returned root satisfies
    |p(root)| <= 1e-10 * (1 + max |coefficient|), otherwise a
    RootFindingError is raised.  Order is deterministic for identical input.
    """
    c = np.asarray(coefficients, dtype=complex)
    if c.ndim != 1 or c.size < 2:
        raise ValueError("need the coefficients of a polynomial of degree >= 1")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    n_zero = 0
    while n_zero < c.size - 1 and c[n_zero] == 0:
        n_zero += 1
    core = c[n_zero:]
    found = [0.0 + 0.0j] * n_zero
    if core.size > 1:
        found.extend(aberth_roots_batch(core[None, :])[0].tolist())

    scale = 1.0 + float(np.max(np.abs(c)))
    worst = float(np.max(np.abs(_polyval_batch(c[None, :], np.array([found])))))
    if worst > ROOT_RESIDUAL_TOL * scale:
        raise RootFindingError("root residual above tolerance", worst)
    return found
