"""The dense bivariate family: evaluation, slices, partials, Gauss map, roots.

The family is P_d(x, y) = sum over all monomials x^i y^j with i + j <= d.
Grouping by powers of y gives P_d = sum_j y^j * S_{d-j}(x) with the geometric
column sums S_m(x) = 1 + x + ... + x^m, so the y-slice through x0 has the
coefficient row S_d(x0), ..., S_1(x0), 1, built in O(d) by growing the S_m.
Each evaluator, elementwise over arrays of points, runs Horner on these rows:
P_d on a row, dP_d/dy on its derivative, dP_d/dx with x and y swapped (P_d is
symmetric); the Jensen quadrature oracle solves the rows for their roots.

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
# complex values per block of the Aberth pairwise sums and of the
# evaluators' slice rows: 512 KB, so the temporaries stay cache-sized at every
# d; 2^13 to 2^17 time alike for m_oracle at d = 10 to 120 (2 vCPUs)
_BLOCK_ELEMENTS = 2**15


class RootFindingError(ArithmeticError):
    """Aberth iteration failed; carries the worst polynomial residual."""

    def __init__(self, message: str, worst_residual: float):
        super().__init__(f"{message} (worst residual {worst_residual:.3e})")
        self.worst_residual = worst_residual


class SingularPointError(ArithmeticError):
    """Logarithmic Gauss map evaluated where y * dP/dy vanishes."""


def _require_order(value: int, low: int, name: str) -> None:
    # an integer parameter: an int, not a bool, at least low, before any work
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class PdSpec:
    """Family parameter d >= 1 selecting the polynomial P_d."""

    d: int

    def __post_init__(self):
        _require_order(self.d, 1, "d")


def _points(spec: PdSpec, x, y, *kernels) -> tuple:
    # every point runs as an element of a flat array, so a scalar call gives
    # an array element's bits; each kernel(spec, x, y) runs on blocks of
    # points whose slice rows hold at most _BLOCK_ELEMENTS values, so memory
    # stays bounded at any d.  Returns the flat points, the broadcast shape
    # for the results and each kernel's flat values
    x, y = np.broadcast_arrays(np.asarray(x, dtype=complex),
                               np.asarray(y, dtype=complex))
    shape = x.shape
    x, y = x.ravel(), y.ravel()
    values = [np.empty(x.size, dtype=complex) for _ in kernels]
    block = max(1, _BLOCK_ELEMENTS // (spec.d + 1))
    for lo in range(0, x.size, block):
        xb, yb = x[lo:lo + block], y[lo:lo + block]
        for out, kernel in zip(values, kernels):
            out[lo:lo + block] = kernel(spec, xb, yb)
    return x, y, shape, values


def _pd(spec: PdSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # flat x and y: each slice row by Horner in y
    return _horner(slice_coeff_matrix(spec, x).T, y[:, None])[:, 0]


def _dp_dy(spec: PdSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # flat x and y: each slice row differentiated, then Horner in y
    rows = slice_coeff_matrix(spec, x).T
    return _horner(rows[1:] * np.arange(1, spec.d + 1)[:, None],
                   y[:, None])[:, 0]


def _dp_dx(spec: PdSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # P_d is symmetric, so the x-partial swaps the arguments
    return _dp_dy(spec, y, x)


def eval_pd_array(spec: PdSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """P_d over arrays of points: each slice row by Horner in y, O(d)."""
    _, _, shape, (p,) = _points(spec, x, y, _pd)
    return p.reshape(shape)[()]


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


def eval_partials(spec: PdSpec, x, y) -> tuple:
    """(dP_d/dx, dP_d/dy) elementwise; the x-partial swaps the arguments."""
    _, _, shape, (px, py) = _points(spec, x, y, _dp_dx, _dp_dy)
    return px.reshape(shape)[()], py.reshape(shape)[()]


def gauss_map(spec: PdSpec, x, y):
    """Logarithmic Gauss map (x dP/dx) / (y dP/dy), elementwise; a
    SingularPointError names the first point where y dP/dy vanishes."""
    x, y, shape, (px, py) = _points(spec, x, y, _dp_dx, _dp_dy)
    num, den = x * px, y * py
    singular = np.abs(den) <= 1e-12 * np.maximum(1.0, np.abs(num))
    if np.any(singular):
        i = int(np.argmax(singular))
        xi, yi = complex(x[i]), complex(y[i])
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


def _horner(rows: np.ndarray, z: np.ndarray, out=None) -> np.ndarray:
    # rows (D+1, B), row k the y^k coefficients; z (B, R) -> (B, R), in out
    v = np.empty(z.shape, dtype=complex) if out is None else out
    v[...] = rows[-1][:, None]
    for c in rows[-2::-1]:
        if v.size > 1:
            v *= z
        else:  # numpy's in-place loop rounds a lone complex product apart
            v[...] = v * z
        v += c[:, None]
    return v


def aberth_roots_batch(coeffs: np.ndarray,
                       initial: np.ndarray | None = None) -> np.ndarray:
    """All roots of a batch of same-degree polynomials, Aberth-Ehrlich.

    coeffs has shape (B, D+1) in ascending powers, all finite, with nonzero
    leading column.  Initial guesses sit on the Fujiwara root-bound circle
    with a fixed angular offset, or come from `initial` (shape (D,) or
    (B, D), e.g. the solved roots of a nearby polynomial); the iteration is
    simultaneous, deterministic, and stops when every correction falls below
    ABERTH_NEWTON_TOL.  Eight (B, D) buffers and one block of max(D^2, 2^15)
    pairwise root differences are allocated once per call, none per sweep;
    the roots do not depend on the block size.

    Raises ValueError on non-finite coeffs or initial, and RootFindingError
    after ABERTH_MAX_ITER sweeps (read at call time).
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    n_poly, deg = coeffs.shape[0], coeffs.shape[1] - 1
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
    if initial is not None:
        out = np.array(np.broadcast_to(initial, (n_poly, deg)), dtype=complex)
    else:
        # Fujiwara root bound 2 * max_k |c_k|^(1/(deg-k)) as starting circle
        mags = np.abs(coeffs[:, :-1] / lead[:, None])
        expo = 1.0 / (deg - np.arange(deg))
        radius = 2.0 * np.max(np.where(mags > 0.0, mags, 0.0) ** expo, axis=1)
        radius = np.maximum(radius, 1e-3)
        angles = 2.0 * np.pi * (np.arange(deg) + 0.5) / deg + 0.3
        out = radius[:, None] * np.exp(1j * angles)[None, :]

    # the n unconverged polynomials come first: their columns of rows (row
    # k: the monic y^k coefficients) and drows (derivatives), rows of z;
    # compress drops the entries past the end of still, converged earlier
    rows = (coeffs / lead[:, None]).T.copy()
    drows = rows[1:] * np.arange(1, deg + 1)[:, None]
    z = out.copy()
    p, dp, total = (np.empty((n_poly, deg), dtype=complex) for _ in range(3))
    size = np.empty((n_poly, deg))
    block = max(1, _BLOCK_ELEMENTS // deg ** 2)
    pairs = np.empty((min(block, n_poly), deg, deg), dtype=complex)
    active, n = np.arange(n_poly), n_poly
    for _ in range(ABERTH_MAX_ITER):
        za, pa, dpa, ta = z[:n], p[:n], dp[:n], total[:n]
        _horner(rows[:, :n], za, pa)
        _horner(drows[:, :n], za, dpa)
        # sum_{j != i} 1/(z_i - z_j), a block of rows of pairs at a time
        for lo in range(0, n, block):
            zb = za[lo:lo + block]
            diff = np.subtract(zb[:, :, None], zb[:, None, :],
                               out=pairs[:zb.shape[0]])
            diff.reshape(zb.shape[0], -1)[:, ::deg + 1] = np.inf
            np.divide(1.0, diff, out=diff)
            diff.sum(axis=2, out=ta[lo:lo + block])
        denom = np.subtract(dpa, np.multiply(pa, ta, out=ta), out=dpa)
        if denom.all():
            w = np.divide(pa, denom, out=pa)
        else:  # stalled denominator: skip the update for that root this sweep
            stalled = denom == 0
            w = np.where(stalled, 0.0, pa / np.where(stalled, 1.0, denom))
        za -= w
        # freeze converged rows; polynomials in a batch are independent
        still = np.abs(w, out=size[:n]).max(axis=1) >= ABERTH_NEWTON_TOL
        if not still.all():
            out[active] = za
            active = active[still]
            n = active.size
            if n == 0:
                return out
            z[:n] = z.compress(still, axis=0)
            rows[:, :n] = rows.compress(still, axis=1)
            drows[:, :n] = drows.compress(still, axis=1)
    worst = float(np.max(np.abs(_horner(rows[:, :n], z[:n]))))
    raise RootFindingError(
        f"Aberth iteration did not converge within {ABERTH_MAX_ITER} sweeps "
        f"for {n} polynomial(s)", worst)


def roots(coefficients) -> list:
    """All degree-many roots of a polynomial, with multiplicity.

    coefficients are finite, in ascending powers (a slice_coeff_matrix row,
    say), degree >= 1; a non-finite one or a zero leading one raises
    ValueError.
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
    if c[-1] == 0:
        raise ValueError("leading coefficients must be nonzero")
    n_zero = 0
    while c[n_zero] == 0:
        n_zero += 1
    core = c[n_zero:]
    found = [0.0 + 0.0j] * n_zero
    if core.size > 1:
        found.extend(aberth_roots_batch(core[None, :])[0].tolist())

    scale = 1.0 + float(np.max(np.abs(c)))
    worst = float(np.max(np.abs(_horner(c[:, None], np.array([found])))))
    if worst > ROOT_RESIDUAL_TOL * scale:
        raise RootFindingError("root residual above tolerance", worst)
    return found
