"""High-accuracy Clausen function, Bloch-Wigner dilogarithm, and zeta constants.

The Clausen function

    Cl2(theta) = sum_{n>=1} sin(n*theta) / n^2

is the restriction of the Bloch-Wigner dilogarithm D(z) to the unit circle,
D(e^{i*theta}) = Cl2(theta).  The defining sine series converges like 1/n^2
and cannot reach 1e-12 by direct summation, so the fast evaluator reduces
theta mod 2*pi, shifts the angles in (pi, 2*pi] down by 2*pi onto (-pi, 0],
and sums on [-pi, pi] the odd expansion

    Cl2(t) = t - t*log|t| + t * sum_{n>=1} c_n * (t / 2pi)^(2n),
    c_n = zeta(2n) / (n * (2n + 1)),

obtained by integrating log(2*sin(t/2)) = log(t) - sum zeta(2n) (t/2pi)^(2n)/n
term by term.  The shift is exact (Sterbenz), so Cl2(t) = -Cl2(2*pi - t) holds
bit for bit.  At the slowest point |t| = pi the series ratio is 1/4, so the
fixed 32-term truncation leaves a tail below 1e-18; double rounding dominates
and every value carries an absolute error bound of 5e-13.  cl2_array is the one
kernel; the scalar cl2 runs it on one angle and matches it bitwise.  The
kernel sums the series over blocks of 2^15 angles, so its temporaries stay in
cache; the values are the same bits as a single pass over the whole array.
The reduction mod 2*pi touches only the angles outside (0, 2*pi): inside, fmod
is exact and np.mod returns its input, so skipping it changes no bit, and the
grid angles 2*pi*j/n of the closed route never pay for numpy's floating
divmod, which cost about a third of the kernel's time per angle.  Zeros of
either sign go through np.mod, which makes them +0.0, so Cl2(-0.0) = +0.0.

The full complex-argument D(z) is evaluated through the triangle identity

    D(z) = (1/2) * [Cl2(2a) + Cl2(2b) + Cl2(2c)],

where a, b, c are the angles of the triangle with vertices 0, 1, z (a = arg z
at the origin, b = atan2(Im z, 1 - Re z) at 1, c = pi - a - b).  Together with
D(conj z) = -D(z) and the inversion D(z) = D(z / |z|^2) on the upper half
plane this covers the whole plane; it is consistent with the definition
D(z) = Im(Li2(z)) + arg(1 - z) * log|z| and is exercised against it in tests.

Zeta values are computed by direct summation plus an Euler-Maclaurin tail,
never hard-coded.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Absolute error budget of one fast Clausen call (truncation < 1e-18 plus a
# generous rounding allowance).  An O(d^2) sum at d = 1000 then stays below
# ~1e-6 worst case.
CL2_ERROR_BOUND = 5e-13


def _zeta_em(s: float, n_direct: int = 120) -> float:
    """Riemann zeta(s) for s >= 2 by direct sum plus Euler-Maclaurin tail."""
    total = math.fsum(k ** -s for k in range(1, n_direct + 1))
    n = float(n_direct)
    tail = n ** (1.0 - s) / (s - 1.0) - 0.5 * n ** -s
    tail += s * n ** (-s - 1.0) / 12.0
    tail -= s * (s + 1.0) * (s + 2.0) * n ** (-s - 3.0) / 720.0
    tail += (s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0)
             * n ** (-s - 5.0) / 30240.0)
    return total + tail


# Apery's constant zeta(3), absolute error below 1e-14.
ZETA3 = _zeta_em(3.0, n_direct=1000)

# Coefficients c_n = zeta(2n) / (n*(2n+1)) of the reduced Clausen series.
_N_TERMS = 32
_CL2_COEFFS = tuple(_zeta_em(2.0 * n) / (n * (2.0 * n + 1.0))
                    for n in range(1, _N_TERMS + 1))

# Angles per pass of the series: a block's temporaries (256 KB each) stay in
# cache, where a pass over 1e6 angles streams 8 MB per operation.
_CL2_BLOCK = 1 << 15


def _cl2_block(th: np.ndarray) -> np.ndarray:
    # Cl2 on finite angles of any shape; cl2_array feeds it one block at a time.
    # np.mod returns angles in (0, 2*pi) unchanged, so only the others are
    # reduced (zeros of either sign to +0.0); [()] keeps 0-d input a numpy
    # scalar.  The shift to [-pi, pi] is exact (Sterbenz), and a tiny negative
    # angle, which reduces to exactly 2*pi, shifts to +0.0
    t = np.mod(th, TWO_PI, out=th.copy(),
               where=(th <= 0.0) | (th >= TWO_PI))[()]
    t = np.where(t > math.pi, t - TWO_PI, t)
    # the odd series on [-pi, pi], log masked at t = 0, where it gives +0.0;
    # x * x, since x ** 2 on a numpy scalar goes through pow(), which can
    # round unlike an array square
    x = t / TWO_PI
    x = x * x
    # Horner in place: s *= x; s += c rounds exactly as s = s * x + c, and on
    # a numpy scalar (0-d input) the augmented operators simply rebind s
    s = x * 0.0 + _CL2_COEFFS[-1]
    for c in reversed(_CL2_COEFFS[:-1]):
        s *= x
        s += c
    a = np.abs(t)
    return t * (1.0 - np.log(np.where(a > 0.0, a, 1.0)) + x * s)


def cl2_array(theta: np.ndarray) -> np.ndarray:
    """Cl2 elementwise over an array of angles (any shape; 0-d input gives a
    numpy scalar).

    More than _CL2_BLOCK angles are summed one flat block at a time into a
    preallocated output, so every temporary of the series stays in cache;
    the values are the same bits as one pass over the whole array.
    """
    th = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(th)):
        raise ValueError("angles must be finite")
    if th.size <= _CL2_BLOCK:
        return _cl2_block(th)
    flat = th.reshape(-1)
    out = np.empty(flat.size)
    for lo in range(0, flat.size, _CL2_BLOCK):
        out[lo:lo + _CL2_BLOCK] = _cl2_block(flat[lo:lo + _CL2_BLOCK])
    return out.reshape(th.shape)


def cl2(theta: float) -> float:
    """Clausen function Cl2(theta) as a plain float: cl2_array on one angle."""
    return float(cl2_array(theta))


def bloch_wigner(z: complex) -> float:
    """Bloch-Wigner dilogarithm D(z) for arbitrary complex z.

    Absolute error is a few 1e-12 (three Clausen values, one cl2_array call).  D vanishes on the
    real axis and satisfies D(conj z) = -D(z), D(1/z) = -D(z), D(1-z) = -D(z).
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"argument must be finite, got {z!r}")
    if z.imag == 0.0:
        return 0.0
    if z.imag < 0.0:
        return -bloch_wigner(z.conjugate())
    r2 = z.real * z.real + z.imag * z.imag
    if r2 > 1.0:
        # inversion through the unit circle fixes D on the upper half plane
        z = z / r2
    a = math.atan2(z.imag, z.real)
    b = math.atan2(z.imag, 1.0 - z.real)
    cl_a, cl_b, cl_ab = cl2_array([2.0 * a, 2.0 * b, 2.0 * (a + b)])
    return float(0.5 * (cl_a + cl_b - cl_ab))
