"""A textbook Aberth-Ehrlich sweep: the tests' bitwise reference.

aberth_reference is the batch solver as first written: each sweep gathers
the active rows, evaluates them by an out-of-place Horner over strided
coefficient columns, and updates the roots from fresh temporaries.
polynomials.aberth_roots_batch runs the same floating-point operations in
the same order in place, so the two must agree bit for bit.  The sweep cap,
the tolerance and the pairwise block size are read from polynomials when the
reference is called, so monkeypatching them there moves both solvers.
"""

import numpy as np

from densemahler import polynomials
from densemahler.polynomials import RootFindingError


def polyval_reference(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    # coeffs (B, D+1) ascending, z (B, R) -> values (B, R)
    v = np.repeat(coeffs[:, -1][:, None], z.shape[1], axis=1)
    for k in range(coeffs.shape[1] - 2, -1, -1):
        v = v * z + coeffs[:, k][:, None]
    return v


def aberth_reference(coeffs: np.ndarray,
                     initial: np.ndarray | None = None) -> np.ndarray:
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    n_poly, deg_p1 = coeffs.shape
    deg = deg_p1 - 1
    if deg < 1:
        raise ValueError("degree must be >= 1")
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
        mags = np.abs(monic[:, :-1])
        expo = 1.0 / (deg - np.arange(deg))
        radius = 2.0 * np.max(np.where(mags > 0.0, mags, 0.0) ** expo, axis=1)
        radius = np.maximum(radius, 1e-3)
        angles = 2.0 * np.pi * (np.arange(deg) + 0.5) / deg + 0.3
        out = radius[:, None] * np.exp(1j * angles)[None, :]

    idx = np.arange(deg)
    block = max(1, polynomials._BLOCK_ELEMENTS // deg ** 2)
    aberth_sum = np.empty((n_poly, deg), dtype=complex)
    active = np.arange(n_poly)
    for _ in range(polynomials.ABERTH_MAX_ITER):
        z = out[active]
        p = polyval_reference(monic[active], z)
        dp = polyval_reference(deriv[active], z)
        total = aberth_sum[:active.size]
        for lo in range(0, active.size, block):
            zb = z[lo:lo + block]
            diff = zb[:, :, None] - zb[:, None, :]
            diff[:, idx, idx] = np.inf
            np.divide(1.0, diff, out=diff)
            diff.sum(axis=2, out=total[lo:lo + block])
        denom = dp - p * total
        stalled = denom == 0
        w = np.where(stalled, 0.0, p / np.where(stalled, 1.0, denom))
        out[active] = z - w
        still = np.max(np.abs(w), axis=1) >= polynomials.ABERTH_NEWTON_TOL
        active = active[still]
        if active.size == 0:
            return out
    worst = float(np.max(np.abs(polyval_reference(monic[active],
                                                  out[active]))))
    raise RootFindingError(
        f"Aberth iteration did not converge within "
        f"{polynomials.ABERTH_MAX_ITER} sweeps for {active.size} "
        "polynomial(s)", worst)
