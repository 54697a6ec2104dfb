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
bit for bit.  With x = (t / 2pi)^2 <= 1/4 the 32 terms leave a tail below
1e-18; the kernel sums them economized, as a polynomial in z = 8x - 1 on
[-1, 1] less its Chebyshev tail below 2^-60: degree 13 (13 Horner steps, not
31), within 1e-17 of the 32-term sum.  Double rounding dominates and every
value carries an absolute error bound of 5e-13.  cl2_array is the one
kernel; the scalar cl2 runs it on one angle, as numpy scalars, and matches it
bitwise.  The log is lg = log(max(|t|, 5e-324)): t is +0.0 wherever |t| = 0,
so the value there stays +0.0.  With s the polynomial, the tail is lg -= 1;
s -= lg; s *= t, which rounds exactly as t * (1 - lg + s), since IEEE
rounding is symmetric.  The kernel sums the series over blocks of 2^15
angles, written into the output, in two scratch blocks that each thread
keeps (the sweep's pool calls cl2_array from several threads) and never
frees.  Freed 256 KB temporaries went back to the OS and the next block
faulted them in again: with them, a pass of the closed route over 40 d in
[1e3, 1e6] took some 14 000 minor page faults, and now takes none.  The
values are the same bits as a single pass over the whole array.
The reduction mod 2*pi touches only the angles outside (0, 2*pi): inside, fmod
is exact and np.mod returns its input, so skipping it changes no bit, and the
grid angles 2*pi*j/n of the closed route never pay for numpy's floating
divmod, which cost about a third of the kernel's time per angle.  Zeros of
either sign go through np.mod, which makes them +0.0, so Cl2(-0.0) = +0.0.

Integrated once and twice term by term, the same series gives
Sl3(t) = sum cos(n*t)/n^3 and Cl4(t) = sum sin(n*t)/n^4 (Sl3' = -Cl2,
Cl4' = Sl3) as differences from their values at 0: with x = (t / 2pi)^2,

    Sl3(t) - zeta(3)   = t^2 (-3/4 + log(t)/2 - sum c_n x^n / (2n + 2)),
    Cl4(t) - zeta(3) t = t^3 (-11/36 + log(t)/6
                              - sum c_n x^n / ((2n + 2)(2n + 3))),

for 0 < t < 2*pi.  _cl2_integrals returns both at one scalar t; the
blue-region integral of limits is built from them, so it never subtracts
zeta(3) from a value near zeta(3).

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
import threading

import numpy as np

TWO_PI = 2.0 * math.pi

# Absolute error budget of one fast Clausen call (economized series within
# 1e-17 of the full one, plus a generous rounding allowance).  An O(d^2) sum
# at d = 1000 then stays below ~1e-6 worst case.
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

# The kernel's polynomial in z = 8x - 1: the fewest Chebyshev terms of the
# sum whose dropped tail sums below _CL2_CHEB_TOL
_CL2_CHEB_TOL = 2.0 ** -60


def _economize() -> tuple:
    # recentre at x = 1/8, e_k = sum_{n>=k} c_n C(n, k) 8^-n, and take the
    # Chebyshev form by z^n = 2^(1-n) sum_j C(n, j) T_{n-2j} (T_0 at half
    # weight), both sums of positive terms; back to powers of z through the
    # exact integer coefficients of T_k = 2z T_{k-1} - T_{k-2}.  Not by
    # numpy.polynomial: importing it with the package slowed oracle-check 6%
    ks = range(_N_TERMS + 1)
    e = [math.fsum(c * math.comb(n, k) * 8.0 ** -n
                   for n, c in enumerate(_CL2_COEFFS, 1) if n >= k)
         for k in ks]
    b = [math.fsum(e[n] * math.comb(n, (n - k) // 2) * 2.0 ** (1 - n)
                   for n in range(k, _N_TERMS + 1, 2)) / (1 + (k == 0))
         for k in ks]
    keep = sum(math.fsum(map(abs, b[k:])) >= _CL2_CHEB_TOL for k in ks)
    t = [[1], [0, 1]]
    while len(t) < keep:
        t.append([2 * p - q for p, q in zip([0] + t[-1], t[-2] + [0, 0])])
    return tuple(math.fsum(bk * tk[i] for bk, tk in zip(b, t) if i < len(tk))
                 for i in range(keep))


_CL2_POLY = _economize()

# Angles per pass of the series: a block's buffers (256 KB each) stay in
# cache, where a pass over 1e6 angles streams 8 MB per operation.
_CL2_BLOCK = 1 << 15

# Each thread's two scratch blocks of the series, kept between calls: the
# sweep's pool runs cl2_array from several threads at once
_scratch = threading.local()


def _thread_blocks(store: threading.local, size: int) -> tuple:
    # two float buffers of `size` values that this thread keeps in store,
    # grown to the largest size asked and never freed
    buf = getattr(store, "buf", None)
    if buf is None or buf.shape[1] < size:
        buf = store.buf = np.empty((2, size))
    return buf[0, :size], buf[1, :size]


def _cl2_block(th: np.ndarray, out: np.ndarray | None = None):
    # Cl2 on finite angles: a flat block th written into out, the series
    # summed in this thread's scratch blocks, or with out=None a 0-d th as a
    # numpy scalar, the same steps without masks or buffers (a ufunc call on
    # a numpy scalar costs about ten arithmetic operators).  np.mod returns
    # angles in (0, 2*pi) unchanged, so only the others are reduced (zeros
    # of either sign to +0.0).  The shift to [-pi, pi] is exact (Sterbenz),
    # and a tiny negative angle, which reduces to exactly 2*pi, shifts to
    # +0.0.  z = 8 (t / 2pi)^2 - 1 depends on t * t only, so the kernel
    # stays exactly odd (z * z: z ** 2 on a numpy scalar goes through pow(),
    # which can round unlike an array square)
    if out is None:
        zb = None
        t = th[()]
        if not 0.0 < t < TWO_PI:
            t = np.mod(t, TWO_PI)
        if t > math.pi:
            t -= TWO_PI
        z = t / TWO_PI
        z = 8.0 * (z * z) - 1.0
        s = z * _CL2_POLY[-1]
    else:
        t, zb = _thread_blocks(_scratch, th.size)
        np.copyto(t, th)
        np.mod(t, TWO_PI, out=t, where=(t <= 0.0) | (t >= TWO_PI))
        np.subtract(t, TWO_PI, out=t, where=t > math.pi)
        z = np.divide(t, TWO_PI, out=zb)
        z *= z
        z *= 8.0
        z -= 1.0
        s = np.multiply(z, _CL2_POLY[-1], out=out)
    # Horner in place from s = c_13 z: s += c; s *= z rounds exactly as
    # s = (s + c) * z, and on numpy scalars the augmented operators rebind
    for c in reversed(_CL2_POLY[1:-1]):
        s += c
        s *= z
    s += _CL2_POLY[0]
    # t (1 - log|t| + s), the log in z's buffer: |t| is clamped to the least
    # subnormal, where t = +0.0 keeps the value +0.0, and lg - 1 and
    # s - (lg - 1) round exactly as -(1 - lg) and (1 - lg) + s
    lg = np.abs(t, out=zb)
    lg = np.maximum(lg, 5e-324, out=zb)
    lg = np.log(lg, out=zb)
    lg -= 1.0
    s -= lg
    s *= t
    return s


def cl2_array(theta: np.ndarray) -> np.ndarray:
    """Cl2 elementwise over an array of angles (any shape; 0-d input gives a
    numpy scalar).

    The angles are summed one flat block of at most _CL2_BLOCK at a time
    into the output, in two scratch blocks that the calling thread keeps,
    so the series allocates no float array and stays in cache; the values
    are the same bits as one pass over the whole array.
    """
    th = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(th)):
        raise ValueError("angles must be finite")
    if th.ndim == 0:
        return _cl2_block(th)
    out = np.empty(th.shape)
    flat, dest = th.reshape(-1), out.reshape(-1)
    for lo in range(0, flat.size, _CL2_BLOCK):
        _cl2_block(flat[lo:lo + _CL2_BLOCK], dest[lo:lo + _CL2_BLOCK])
    return out


def _cl2_integrals(t: float) -> tuple:
    # (Sl3(t) - zeta(3), Cl4(t) - zeta(3) t) for 0 < t < 2 pi, from the Cl2
    # series integrated once (Sl3' = -Cl2) and twice (Cl4' = Sl3), Horner in x
    x = (t / TWO_PI) ** 2
    s3 = s4 = 0.0
    for k in range(_N_TERMS, 0, -1):
        c = _CL2_COEFFS[k - 1] / (2 * k + 2)
        s3 = s3 * x + c
        s4 = s4 * x + c / (2 * k + 3)
    log_t = math.log(t)
    return (t * t * (-0.75 + log_t / 2.0 - x * s3),
            t ** 3 * (-11.0 / 36.0 + log_t / 6.0 - x * s4))


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
