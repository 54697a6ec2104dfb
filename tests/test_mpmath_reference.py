"""The Clausen kernel and the toric Gauss map against mpmath references.

mpmath is a test dependency only.  Cl2 is compared with mpmath's clsin(2, .)
at the exact double angles, on a grid over |theta| <= 50 plus angles close
to 0, pi and 2 pi, where the reduction and the logarithm are most delicate.
The Gauss map that report toric prints is compared with its simplified
closed form on both families of torus zeros, evaluated at 30 digits, and
P_d vanishes at the torus zeros of the largest d at 40 digits.  The three
closed routes must each lie within their printed error bound of m(P_d)
summed from clsin at 30 digits, up to d = 1000, and bloch_wigner must match
Im Li2(z) + arg(1 - z) log|z| from mpmath's polylog.
"""

import math

import mpmath
import numpy as np

from densemahler.mahler_closed import (m_closed_aggregated,
                                       m_closed_pointwise, m_closed_volsum)
from densemahler.polynomials import PdSpec
from densemahler.specfun import CL2_ERROR_BOUND, bloch_wigner, cl2_array
from densemahler.toric import MAX_QUADRATIC_D, toric_gamma, toric_indices


def _cl2_grid() -> np.ndarray:
    offsets = 10.0 ** -np.arange(1, 17)
    centres = [c * math.pi for c in (-2, -1, 0, 1, 2)]
    near = [c + s * h for c in centres for s in (-1.0, 1.0) for h in offsets]
    return np.concatenate([np.linspace(-50.0, 50.0, 501), near,
                           centres, [-50.0, 50.0, 5e-324, -5e-324]])


def test_cl2_against_mpmath():
    theta = _cl2_grid()
    got = cl2_array(theta)
    with mpmath.workdps(30):
        want = [mpmath.clsin(2, mpmath.mpf(float(t))) for t in theta]
    err = np.array([abs(mpmath.mpf(float(g)) - w) for g, w in zip(got, want)],
                   dtype=float)
    worst = int(np.argmax(err))
    print(f"largest |cl2_array - clsin| = {err[worst]:.3e} "
          f"at theta = {theta[worst]!r}")
    assert err[worst] <= CL2_ERROR_BOUND


def test_toric_gamma_matches_closed_form():
    # -x(1-y)/(y(1-x)) on U_{d+1} and -(1-y)/(1-x) on U_{d+2}
    worst = 0.0
    with mpmath.workdps(30):
        unit = {n: [mpmath.expjpi(mpmath.mpf(2 * j) / n) for j in range(n)]
                for n in range(2, 43)}
        for d in range(1, 41):
            spec = PdSpec(d)
            n, k, kp = toric_indices(spec)
            gamma = toric_gamma(spec, n, k, kp)
            for ni, ki, kpi, g in zip(n.tolist(), k.tolist(), kp.tolist(),
                                      gamma.tolist()):
                x, y = unit[ni][ki], unit[ni][kpi]
                if ni == d + 1:
                    want = -x * (1 - y) / (y * (1 - x))
                else:
                    want = -(1 - y) / (1 - x)
                worst = max(worst, float(abs(g - want) / max(1, abs(want))))
    print(f"largest relative gamma error for d <= 40: {worst:.3e}")
    assert worst <= 1e-12


def test_zero_set_at_max_quadratic_d(rng):
    # toric_indices only checks its rows against the definition of U_n, so
    # P_d itself is evaluated here, from the rational form at 40 digits
    d = MAX_QUADRATIC_D
    n, k, kp = toric_indices(PdSpec(d))
    assert n.size == d * (d - 1) + (d + 1) * d
    # strictly increasing in (n, k, k'), so the rows are distinct
    assert np.all(np.diff((n * (d + 3) + k) * (d + 3) + kp) > 0)
    worst = mpmath.mpf(0)
    with mpmath.workdps(40):
        for i in rng.choice(n.size, size=100, replace=False).tolist():
            x = mpmath.expjpi(mpmath.mpf(2 * int(k[i])) / int(n[i]))
            y = mpmath.expjpi(mpmath.mpf(2 * int(kp[i])) / int(n[i]))
            num = (x ** (d + 2) - 1) * (y - 1) - (y ** (d + 2) - 1) * (x - 1)
            worst = max(worst, abs(num / ((x - 1) * (y - 1) * (x - y))))
    print(f"largest |P_{d}| at 100 toric points: {float(worst):.3e}")
    assert worst < 1e-25


def _weight_sum_mp(n: int):
    # W(n) = sum_{j<n} (2n - 3j - 1) Cl2(2 pi j/n); Cl2(2 pi (n-j)/n) is
    # -Cl2(2 pi j/n) and Cl2(pi) = 0, so W(n) folds to
    # sum_{j<n/2} 3(n - 2j) Cl2(2 pi j/n)
    return mpmath.fsum(3 * (n - 2 * j) * mpmath.clsin(2, 2 * mpmath.pi * j / n)
                       for j in range(1, (n + 1) // 2))


def test_closed_routes_within_their_bounds():
    # up to MAX_QUADRATIC_D, the largest d of the pointwise and vol-sum routes
    ds = (1, 2, 7, 30, 100, 200, MAX_QUADRATIC_D)
    with mpmath.workdps(30):
        w = {n: _weight_sum_mp(n) for d in ds for n in (d + 1, d + 2)}
        for d in ds:
            exact = ((-2 * w[d + 1] / (d + 2) + 2 * w[d + 2] / (d + 1))
                     / (2 * mpmath.pi))
            for route in (m_closed_pointwise, m_closed_volsum,
                          m_closed_aggregated):
                est = route(PdSpec(d))
                err = float(abs(mpmath.mpf(est.value) - exact))
                print(f"d = {d:4d} {est.method:17s} error {err:.2e}, "
                      f"bound/error {est.error_bound / max(err, 1e-300):.1e}")
                assert err <= est.error_bound, (d, est.method)


def test_bloch_wigner_against_polylog(rng):
    radius = np.exp(rng.uniform(-3.0, 3.0, 50))
    zs = radius * np.exp(1j * rng.uniform(-math.pi, math.pi, 50))
    worst = 0.0
    with mpmath.workdps(30):
        for z in zs.tolist():
            zm = mpmath.mpc(z)
            want = (mpmath.im(mpmath.polylog(2, zm))
                    + mpmath.arg(1 - zm) * mpmath.log(abs(zm)))
            worst = max(worst, float(abs(bloch_wigner(z) - want)))
    print(f"largest |bloch_wigner - D| over 50 points = {worst:.3e}")
    assert worst <= 1.5 * CL2_ERROR_BOUND
